"""Every site the benchmark's per-layer probes wrap still exists in `siotrust`.

The probes find their targets by name and record a missing one as absent,
so renaming a probed function would silently drop its per-layer metrics
from traced benchmark runs. This test turns such a rename into a failure.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.probes import PROBES, Probe, Tracer  # noqa: E402


def test_every_probe_site_resolves():
    # one probe per site: a probe with several sites is absent only when all are gone
    tracer = Tracer()
    tracer.install(tuple(Probe(site, probe.mode, (site,)) for probe in PROBES for site in probe.sites))
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
