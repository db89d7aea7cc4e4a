"""Trust mathematics: evaluation, updates, inference, pairwise transit, selection.

Every function here is pure: updates return new records for the caller to
apply. Trust values ("TW") are scalars in [0, 1]; a record maps to its TW
through `post_evaluate`.

Chain trust combines pairwise through `transit_pair` as a*b + (1-a)*(1-b),
which is `transit_pair(a, b) = ((2a-1)(2b-1) + 1) / 2`: chains multiply in
the `2t-1` domain. So two trusts below 0.5 combine above 0.5 (a
mistrusted recommender judged wrong about a mistrusted subject), which is
kept as designed; and with gates at 0.5 or above, each extra hop can only
pull a chain toward 0.5. The transitivity rules themselves (hop coverage,
the omega1/omega2 gates, path folding and the per-characteristic
combination of the aggressive method) live only in
`delegation.find_potential_trustees`; the exhaustive-path oracle in
`tests/test_transitivity.py` is their independent reference.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

# the method names are re-exported: callers read them as `eng.TRADITIONAL`
from .domain import (
    AGGRESSIVE,
    CONSERVATIVE,
    TRADITIONAL,
    AgentProfile,
    DelegationOutcome,
    Task,
    TrustRecord,
    UsageLog,
)

SUCCESS_ONLY = "success_only"
FULL_PROFIT = "full_profit"
STRATEGIES = (SUCCESS_ONLY, FULL_PROFIT)


class TransitivityParams(NamedTuple):
    """Gate thresholds and search bounds for trust transitivity.

    Not validated here: the experiments build them from constants or from
    `Scenario` fields, which check the omega ranges, `max_hops` and the method.
    """

    omega1: float = 0.6
    omega2: float = 0.6
    max_hops: int = 3
    method: str = AGGRESSIVE


def clamp01(x: float) -> float:
    """`x` clamped to [0, 1], NaN and -0.0 to 0.0, as `min(1.0, max(0.0, x))`
    clamps; comparisons cost a fraction of the two builtin calls."""
    return x if 0.0 < x <= 1.0 else (1.0 if x > 1.0 else 0.0)


def normalize(raw: float) -> float:
    """Affine map of the raw profit range [-2, 1] onto [0, 1], clamped."""
    return clamp01((raw + 2.0) / 3.0)


def net_profit(record: TrustRecord) -> float:
    """Expected net profit of delegating to the record's subject."""
    s_hat, g_hat, d_hat, c_hat, _ = record
    return s_hat * g_hat - (1.0 - s_hat) * d_hat - c_hat


def post_evaluate(record: TrustRecord) -> float:
    """Normalized trustworthiness of a record: its `net_profit` mapped into [0, 1]."""
    return normalize(net_profit(record))


def blend(old: float, new: float, beta: float) -> float:
    """Convex combination keeping `beta` of history; `beta` in [0, 1), 0 forgets everything."""
    return beta * old + (1.0 - beta) * new


def update_from_realized(
    record: TrustRecord,
    s: float,
    g: float,
    d: float,
    c: float,
    beta: float,
) -> TrustRecord:
    """Blend realized quantities into the record's estimates, all four with one `beta`."""
    s_hat, g_hat, d_hat, c_hat, count = record
    return TrustRecord(blend(s_hat, s, beta), blend(g_hat, g, beta),
                       blend(d_hat, d, beta), blend(c_hat, c, beta), count + 1)


def update_estimates(record: TrustRecord, outcome: DelegationOutcome, beta: float) -> TrustRecord:
    """Update estimates from a delegation outcome (realized S is 1 or 0)."""
    success, gain, damage, cost, _, _ = outcome
    return update_from_realized(record, 1.0 if success else 0.0, gain, damage, cost, beta)


def correct_realized(realized: float, min_env: float) -> float:
    """Divide out the worst environment along the path, clamped to [0, 1].

    A result above 1 after correction means the subject over-performed its
    environment; the clamp flags that case by saturating. Both callers pass
    a `min_env` already checked to (0, 1]: a validated outcome snapshot's
    minimum, or a `Scenario`'s environment value.
    """
    return clamp01(realized / min_env)


def update_estimates_env(record: TrustRecord, outcome: DelegationOutcome, beta: float) -> TrustRecord:
    """As update_estimates, but each realized quantity is environment-corrected.

    The correction uses the environment snapshot carried by the outcome
    (trustor, trustee, intermediates). Damage and cost divide by the same
    minimum as success and gain. With an all-ones snapshot this reduces
    bit-for-bit to the plain update.
    """
    min_env = min(outcome.env_snapshot)
    realized_s = 1.0 if outcome.success else 0.0
    return update_from_realized(
        record,
        correct_realized(realized_s, min_env),
        correct_realized(outcome.gain, min_env),
        correct_realized(outcome.damage, min_env),
        correct_realized(outcome.cost, min_env),
        beta,
    )


def infer_characteristic_tw(
    history: Sequence[tuple[Task, float]],
    char_id: int,
) -> Optional[float]:
    """Weighted average of past task trust over tasks containing the characteristic.

    Each history task contributes its trust weighted by the characteristic's
    weight within that task, the first part that names it. Returns None when
    no past task contains it.
    """
    num = 0.0
    den = 0.0
    for task, tw in history:
        for c, w in task.parts:
            if c == char_id:
                num += w * tw
                den += w
                break
    if den == 0.0:
        return None
    return num / den


def infer_task_tw(history: Sequence[tuple[Task, float]], target: Task) -> Optional[float]:
    """Infer trust for an unexperienced task from characteristic-level history.

    Requires full coverage: every characteristic of the target must appear
    in at least one history task, otherwise None.
    """
    total = 0.0
    for char_id, weight in target.parts:
        char_tw = infer_characteristic_tw(history, char_id)
        if char_tw is None:
            return None
        total += weight * char_tw
    return total


def infer_subset_tw(
    history: Sequence[tuple[Task, float]],
    parts: Sequence[tuple[int, float]],
) -> float:
    """Inferred trust over a sub-bag of characteristics, weights renormalized.

    `parts` must be non-empty with positive weights, and each of its
    characteristics must appear in `history`: `PathEvaluator.hop_tw` passes
    only the covered parts of a `make_task` task. The weights are summed
    from left to right, so the bits do not depend on the Python version
    (`sum` of floats compensates from 3.12 on).
    """
    total_w = 0.0
    for _, w in parts:
        total_w += w
    value = 0.0
    for char_id, weight in parts:
        value += (weight / total_w) * infer_characteristic_tw(history, char_id)
    return value


def transit_pair(tw_rec: float, tw_task: float) -> float:
    """Two-hop trust combination: agreement plus double-mistrust term."""
    return tw_rec * tw_task + (1.0 - tw_rec) * (1.0 - tw_task)


def reverse_trust(usage_log: UsageLog, trustee: int, trustor: int) -> float:
    """Laplace-smoothed responsive-use rate from the trustee's usage log."""
    responsive, total = usage_log.counts(trustee, trustor)
    return (responsive + 1) / (total + 2)


def reverse_evaluate(trustee: AgentProfile, trustor: int, usage_log: UsageLog) -> tuple[bool, float]:
    """Trustee-side gate: accept when the trustor's reverse trust meets `default_threshold`."""
    value = reverse_trust(usage_log, trustee.node, trustor)
    return value >= trustee.default_threshold, value


def strategy_score(record: TrustRecord, strategy: str) -> float:
    """A record's selection score: `s_hat` for success_only, net profit for full_profit.

    The strategies are the profit experiment's alone; the delegation
    protocol takes discovery's candidates in their decision order, by
    discovered trust (`delegation.find_potential_trustees`).
    """
    if strategy == SUCCESS_ONLY:
        return record.s_hat
    if strategy == FULL_PROFIT:
        return net_profit(record)
    raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")


def select_trustee(scores: Sequence[float]) -> int:
    """Index of the highest score; ties go to the lower index.

    `scores` holds one `strategy_score` per candidate, indexed by
    candidate; the profit experiment is its only caller. Its loop changes
    one score per iteration, the leader's, and calls this again only when
    that score falls: a score that rose or held keeps the leader first.
    An empty sequence raises ValueError, from `max`.
    """
    # index finds the first maximum, so the lower index wins ties
    return scores.index(max(scores))

