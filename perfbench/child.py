"""One run of one workload in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD SEED RUN_DIR

MODE is `setup` (stop once set-up is done), `run` (untraced) or `trace`.
Artifacts go to RUN_DIR/out; RUN_DIR/result.json receives the monotonic
clock at the end of set-up and at the end of the workload, and for `trace`
the spans, the work counts and the probe results.  The parent (`run.py`)
reads the clock at spawn, so `setup_s` runs from spawn to the end of set-up.
Untraced children also time the host-speed probe (`hostspeed.CoreSpeed`)
and report its samples and the time spent in it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from hostspeed import CoreSpeed
from spans import Tracer, no_span

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    mode, name, seed, run_dir = argv[1], argv[2], int(argv[3]), Path(argv[4])
    tracer = Tracer("%s/%d/%s" % (name, seed, run_dir.name)) if mode == "trace" else None
    span = tracer.span if tracer else no_span
    speed = CoreSpeed() if tracer is None else None
    if speed is not None:
        speed.start()
    result: dict = {}
    with span("workload"):
        with span("setup.import"):
            import cactuscells

            if not Path(cactuscells.__file__).resolve().is_relative_to(SRC):
                print("cactuscells imported from %s, not %s" % (cactuscells.__file__, SRC), file=sys.stderr)
                return 3
            import workloads
        workload = workloads.WORKLOADS[name]
        inp = workloads.make_input(workload, seed)
        session = workloads.setup(inp, span)
        result["t_setup"] = time.monotonic()
        result["probe_s_setup"] = speed.spent_s if speed is not None else 0.0
        if mode != "setup":
            counts = workloads.Counts()
            workloads.run_workload(workload, inp, session, run_dir / "out", span, counts)
    result["t_done"] = time.monotonic()
    if speed is not None:
        speed.stop()
        result.update(probes=speed.samples, probe_s=speed.spent_s, probe_cpu_s=speed.cpu_s)
    if tracer is not None:
        if workload.kind == "pipeline":
            workloads.h_table_jobs2(session, span)
        result["laurent.mul_ns_per_term"] = workloads.laurent_mul_ns_per_term(session, seed)
        result["counts"] = counts
        result["spans"] = tracer.spans
    (run_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
