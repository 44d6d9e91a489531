"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/report.py [--seeds 1-10] [--workloads a,b] [--trace 0|1]

Each (workload, seed) is one `run.py` process, run one after another.  For
every metric the table gives the median, the quartiles and the sample count
over the seeds, and the spread (q3 - q1) / median next to the bound from
BENCHMARK.json; `fail_rate` is the failed runs over the attempted runs.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    for workload in args.workloads.split(","):
        values: dict = {m["name"]: [] for m in metrics}
        attempted = failed = 0
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (workload, seed, proc.returncode, proc.stderr), file=sys.stderr)
                attempted += 1
                failed += 1
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            speed = re.findall(r"host speed factor\s+(?:median\s+)?([0-9.]+)", proc.stdout)
            print("%s seed %d: %s%s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()),
                " (host speed factor %s)" % speed[0] if speed else ""), file=sys.stderr, flush=True)
        print("\n%s  (fail_rate %d/%d = %.3f)" % (workload, failed, attempted, failed / max(attempted, 1)))
        for m in metrics:
            vals = values[m["name"]]
            if not vals:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            print("  %-28s %14.6f %-5s q1 %14.6f q3 %14.6f n=%-3d spread %.4f%s" % (
                m["name"], med, m["unit"], q1, q3, len(vals), spread,
                "  (bound %.2f)" % bound if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
