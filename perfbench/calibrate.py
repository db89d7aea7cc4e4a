"""A fixed pure-Python kernel that measures how fast the machine is right now.

On a shared machine the speed of CPU-bound Python drifts by tens of
percent over minutes, as neighbours come and go. The benchmark times this
kernel between child runs and scales its end-to-end times by
`REFERENCE_S / median(kernel time)`, so they read as seconds on a machine
that runs the kernel in `REFERENCE_S`. The kernel does not touch
`siotrust`, so a change to the program moves the scaled times fully.

The mix resembles the simulator's inner loops: breadth-first search over
tuple adjacency, dict updates keyed by small tuples, float arithmetic and
a keyed sort.
"""

from __future__ import annotations

import random
import time

# Median kernel time on a 2-core shared x86-64 VM (Python 3.11) at quiet times.
REFERENCE_S = 0.150


def kernel() -> float:
    """Run the kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    rng = random.Random(7)
    adjacency = {i: tuple(rng.randrange(3000) for _ in range(10)) for i in range(3000)}
    table: dict = {}
    acc = 0.0
    for _ in range(8):
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        for i in range(15000):
            key = (i % 97, i % 89)
            old = table.get(key)
            table[key] = old * 0.9 + 0.1 if old is not None else 0.5
            acc += (table[key] + 2.0) / 3.0
        sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - start
