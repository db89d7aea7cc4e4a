"""Record the reference digests and op counts in digests.json.

    python3 perfbench/record.py

For seed 1, runs every workload once untraced and once traced (both at
`--jobs 1`, all steps in one process), requires both to pass the output
invariants and give the same digests, and writes the digest of each step
with the traced run's op counts.
Run it only when a change is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import REFERENCE, WORK_DIR, WORKLOADS, op_counts, run_child

SEED = 1


def main() -> int:
    recorded = {}
    try:
        for name in sorted(WORKLOADS):
            plain = run_child(name, SEED, "timed", WORK_DIR / f"record-{name}-timed", 900)
            traced = run_child(name, SEED, "traced", WORK_DIR / f"record-{name}-traced", 900)
            problems = plain.problems + traced.problems
            if plain.digests != traced.digests:
                problems.append("traced and untraced digests differ")
            if problems:
                print(f"error: {name}: " + "; ".join(problems[:3]), file=sys.stderr)
                return 1
            recorded[name] = {"digests": plain.digests, "op_counts": op_counts(traced.layers)}
            print(f"{name}: {plain.digests}")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    REFERENCE.write_text(json.dumps({"seed": SEED, "workloads": recorded}, indent=2, sort_keys=True)
                         + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
