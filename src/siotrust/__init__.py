"""Trust-aware task delegation simulator for social IoT networks."""

__version__ = "0.1.0"

from .domain import (  # noqa: F401
    AgentProfile,
    DelegationOutcome,
    Scenario,
    Task,
    TrustRecord,
    TrustStore,
    UsageLog,
    load_scenario,
    make_task,
)
from .graph import SocialGraph, compute_stats, load_edge_list, load_features, sample_roles  # noqa: F401
