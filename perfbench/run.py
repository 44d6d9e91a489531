"""The cactuscells benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
The workloads, their reasons and the metrics are listed in BENCHMARK.json;
the layer-by-layer table and the seed baseline are in perfbench/README.md.

Every run of a workload, timed or traced, is a fresh interpreter
(`child.py`) in a fresh temporary directory under `.perfbench_tmp/`.  In one
process the `algebra_for`/`get_system` registries and the `id()`-keyed
caches in `cells`/`cellmaps` would turn every later run into memo hits, and
could return a stale table once an id is reused.  PYTHONHASHSEED is left
unpinned, so the byte-digest check also catches order dependence.  Peak RSS
and CPU time are the child's own, read with `os.wait4`.

`--trace 0` (timed): set-up alone is run SETUP_RUNS times, then the workload
is run again and again (one client, closed loop: a run starts only after the
previous one has exited) while one more run of the mean length still ends
within `--seconds`; there is always at least one.  The end-to-end metrics
are medians over the runs that passed every check.  The times among them are
in reference-host seconds: each child's measured time, less the time it
spent in the host-speed probe, times the factor from that child's own probe
samples, because the shared host's speed drifts by more than any useful
bound over minutes (see hostspeed.py).  The measured medians and the
factors are printed above the result line.
`--trace 1`: one untimed run and one traced run; the per-layer metrics are
self times of the spans the child records around its calls into each layer.

Every run's artifacts are checked against the oracles and recorded digests
in `oracles.py`.  A failing run counts in `failed` and never in a timing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import hostspeed
import oracles
from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
SETUP_RUNS = 15
DEADLINE_S = 170  # every run of run.py ends within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SCALED = ("wall_s", "cpu_s", "setup_s")  # times, given in reference-host seconds
LAYER_SPANS = (
    "coxeter.enumerate",
    "hecke.kl",
    "hecke.h_table",
    "cells.cells",
    "cells.a_table",
    "cells.pchecks",
    "cellmaps.involutions",
    "cellmaps.lc",
    "cellmaps.mixed_basis",
    "cellmaps.characterization",
    "cellmaps.commutation",
    "cactus.verify",
    "cli.render",
)
LAYER_COUNTS = (
    "coxeter.elements",
    "hecke.kl_terms",
    "hecke.h_rows",
    "hecke.h_terms",
    "cells.left_cells",
    "cells.two_sided_cells",
    "cactus.relations",
)


class Child:
    """One finished child: its clocks, rusage, exit code and artifact checks."""

    def __init__(self, mode: str, workload, seed: int, deadline: float):
        self.dir = Path(tempfile.mkdtemp(prefix=mode + "-", dir=TMP))
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONHASHSEED", "PYTHONPATH")}
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONPYCACHEPREFIX"] = str(TMP / "pycache")
        cmd = [sys.executable, str(HERE / "child.py"), mode, workload.name, str(seed), str(self.dir)]
        with open(self.dir / "stderr.txt", "wb") as err:
            self.t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.dir, env=env, stdin=subprocess.DEVNULL, stdout=err, stderr=err)
            killer = threading.Timer(max(deadline - self.t_spawn, 1.0), os.kill, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.t_exit = time.monotonic()
        # reaped by wait4; telling Popen keeps it from waiting again
        self.returncode = proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.result: dict = {}
        self.errors: list[str] = []
        if self.returncode != 0:
            tail = (self.dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            self.errors.append("exit code %d: %s" % (self.returncode, " | ".join(tail)))
        else:
            self.result = json.loads((self.dir / "result.json").read_text(encoding="utf-8"))
            # probe time is not the program's; traced children run no probe
            self.wall_s = self.t_exit - self.t_spawn - self.result.get("probe_s", 0.0)
            self.cpu_s -= self.result.get("probe_cpu_s", 0.0)
            probes = self.result.get("probes")
            self.factor = hostspeed.factor(probes) if probes else 1.0

    def check(self, workload, key: str, digests: dict) -> None:
        if self.errors:
            return
        out = self.dir / "out"
        self.errors += oracles.check_oracles(workload, out) or oracles.check_digests(workload, key, out, digests)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def setup_s(self) -> float:
        return self.result["t_setup"] - self.t_spawn - self.result["probe_s_setup"]

    def artifact_bytes(self) -> int:
        out = self.dir / "out"
        return sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def show(label: str, values: list[float], unit: str) -> float:
    """Print the median, quartiles and count of `values`; returns the median."""
    q1, med, q3 = quartiles(values)
    print("%-30s median %12.6f %-3s  q1 %12.6f  q3 %12.6f  n=%d" % (label, med, unit, q1, q3, len(values)))
    return med


class Runner:
    def __init__(self, workload, seed: int):
        import workloads  # imports cactuscells, so only once main() has put src/ on the path

        self.workload = workload
        self.seed = seed
        self.key = workloads.make_input(workload, seed).key
        self.digests = oracles.load_digests()
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0

    def spawn(self, mode: str, check: bool = True) -> Child:
        child = Child(mode, self.workload, self.seed, self.deadline)
        self.attempted += 1
        if check:
            child.check(self.workload, self.key, self.digests)
        if not child.ok:
            self.failed += 1
            print("run failed (%s): %s" % (mode, "; ".join(child.errors)), file=sys.stderr)
        return child

    def timed(self, seconds: float) -> dict:
        # (measured value, host speed factor of its child) per metric
        samples: dict = {name: [] for name in END_TO_END}
        for _ in range(SETUP_RUNS):
            child = self.spawn("setup", check=False)
            if child.ok:
                samples["setup_s"].append((child.setup_s, child.factor))
            child.remove()
        start = time.monotonic()
        for runs in itertools.count(1):
            child = self.spawn("run")
            if child.ok:
                for name, value in (("wall_s", child.wall_s), ("cpu_s", child.cpu_s),
                                    ("peak_rss_mb", child.peak_rss_mb), ("setup_s", child.setup_s)):
                    samples[name].append((value, child.factor))
            child.remove()
            elapsed = time.monotonic() - start
            if elapsed + elapsed / runs > seconds:
                break
        if not samples["wall_s"]:
            raise RuntimeError("no run of %s passed its checks" % self.workload.name)
        metrics = {}
        for name, unit in END_TO_END.items():
            values = [v for v, _ in samples[name]]
            if name in SCALED:
                show(name + " measured", values, unit)
                show(name + " host speed factor", [f for _, f in samples[name]], "")
                values = [v * f for v, f in samples[name]]
            metrics[name] = {"value": show(name, values, unit), "unit": unit}
        return metrics

    def traced(self) -> dict:
        plain = self.spawn("run")
        traced = self.spawn("trace")
        try:
            if not (plain.ok and traced.ok):
                raise RuntimeError("the traced pair of runs of %s failed its checks" % self.workload.name)
            res = traced.result
            selfs = self_times(res["spans"])
            counts = res["counts"]
            wall = res["t_done"] - traced.t_spawn
            metrics = {}
            for name in LAYER_SPANS:
                metric = "cli.render_s" if name == "cli.render" else name + "_s"
                metrics[metric] = (selfs.get(name, 0.0), "s")
            for name in LAYER_COUNTS:
                metrics[name] = (counts.get(name, 0), "count")
            h_s = selfs.get("hecke.h_table", 0.0)
            metrics["hecke.h_rows_per_s"] = (counts.get("hecke.h_rows", 0) / h_s if h_s else 0.0, "1/s")
            jobs2 = selfs.get("probe.h_table_jobs2", 0.0)
            # the first h-table span is the workload's own algebra, at one
            # thread; later ones are sub-algebras.  Only pipeline-A4 runs the probe.
            main_h = next((s["end"] - s["start"] for s in res["spans"] if s["name"] == "hecke.h_table"), 0.0)
            jobs1 = main_h if jobs2 else 0.0
            metrics["hecke.h_table_jobs1_s"] = (jobs1, "s")
            metrics["hecke.jobs2_speedup"] = (jobs1 / jobs2 if jobs2 else 0.0, "x")
            metrics["laurent.mul_ns_per_term"] = (res["laurent.mul_ns_per_term"], "ns")
            metrics["cli.artifact_bytes"] = (traced.artifact_bytes() if self.workload.kind != "cellmaps" else 0, "B")
            layer_self = sum(selfs.get(name, 0.0) for name in LAYER_SPANS)
            metrics["trace.wall_s"] = (wall, "s")
            metrics["trace.unattributed_s"] = (wall - layer_self, "s")
            metrics["trace.overhead_s"] = (wall - plain.wall_s, "s")
        finally:
            plain.remove()
            traced.remove()
        print("host speed factor %.6f of the untraced run; the times below are measured seconds" % plain.factor)
        print("span self times of the traced run (wall %.3f s):" % wall)
        for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print("  %-28s %10.4f s  %5.1f %%" % (name, value, 100.0 * value / wall))
        print("layer spans cover %.1f %% of the traced wall time" % (100.0 * layer_self / wall))
        for name, (value, unit) in metrics.items():
            print("%-28s %16.6f %s" % (name, value, unit))
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cactuscells" / "__init__.py").is_file():
        print("error: no cactuscells sources under %s; run from a checkout of the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (known: %s)" % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    TMP.mkdir(exist_ok=True)
    runner = Runner(workloads.WORKLOADS[args.workload], args.seed)
    try:
        metrics = runner.traced() if args.trace else runner.timed(args.seconds)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
