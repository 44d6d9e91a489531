"""Record the artifact digests of every relabeling of every workload.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Seeds 0, 1, 2, ... are run until every permutation of S has been seen once;
each run is a fresh child exactly as in `run.py`, and is recorded only if it
passes the oracles.  The digests are then the reference every later run of
the same relabeling is compared with, byte for byte.  Run it on the commit
whose output is the reference, never to make a failing run pass.
"""

from __future__ import annotations

import json
import math
import sys
import time

import oracles
import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs src/ on the path)


def record(workload, table: dict) -> None:
    rank = workloads.named_system(workload.type).rank
    seen = table.setdefault(workload.name, {})
    seed = 0
    while len(seen) < math.factorial(rank):
        key = workloads.make_input(workload, seed).key
        if key not in seen:
            child = run.Child("run", workload, seed, time.monotonic() + run.DEADLINE_S)
            child.errors += oracles.check_oracles(workload, child.dir / "out")
            if not child.ok:
                raise SystemExit("seed %d (%s) fails: %s" % (seed, key, "; ".join(child.errors)))
            seen[key] = oracles.file_digests(child.dir / "out")
            child.remove()
            print("%s seed %d %s %.1f s" % (workload.name, seed, key, child.t_exit - child.t_spawn), flush=True)
            oracles.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        seed += 1


def main(names) -> None:
    run.TMP.mkdir(exist_ok=True)
    table = oracles.load_digests()
    for name in names or workloads.WORKLOADS:
        record(workloads.WORKLOADS[name], table)


if __name__ == "__main__":
    main(sys.argv[1:])
