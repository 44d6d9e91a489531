"""The speed of the core a child runs on, from a fixed probe timed inside it.

The benchmark host is a few vCPUs of a shared machine whose CPU-bound speed
drifts by up to 2x, switching between a fast and a slow state within seconds
and staying mostly in one state for minutes.  The cores themselves run
slower: a child's own CPU time grows with its wall time.  A median over the
runs of one invocation cannot average such a phase out, so two sets of runs
of the same code differ by more than any useful bound.

`CoreSpeed` runs a small fixed pure-Python kernel (sparse dict products on
tuple exponents, the same kind of work as the library's hot path, but code
of its own that no change to the library moves) in the child's main thread,
from a SIGPROF handler every PERIOD_S of the process's CPU time and
TAIL_PROBES more times at the end, and times each call in thread CPU time.
A probe timed on another thread or process measured a different, mostly
idle core and did not follow the child's speed.  Because the probes are
spread evenly over the child's CPU time, their mean slowness is the child's
mean slowness; a median would pick one of the two states.  `factor` is
REFERENCE_S over that mean, below 1 while the core runs slower than the
reference; a time multiplied by it is in reference-host seconds.  The probes
take about 2 % of the child's time, and the child reports that time so the
benchmark can subtract it.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

PERIOD_S = 0.25
TAIL_PROBES = 20
# Fixes the unit, since only ratios matter: with it cells-B4-generic reads
# about the 13 s it took in a quiet phase of a 2-vCPU AMD EPYC virtual
# machine on a shared host.
REFERENCE_S = 0.0030


def _operands() -> list[dict]:
    rng = random.Random(1)
    return [
        {(rng.randrange(-6, 7), rng.randrange(-3, 4)): rng.randrange(1, 10) for _ in range(12)}
        for _ in range(10)
    ]


def probe(operands: list[dict]) -> int:
    """Multiply every pair of operands twice as Laurent polynomials; returns the term count."""
    terms = 0
    for _ in range(2):
        for a in operands:
            for b in operands:
                out: dict = {}
                for (a0, a1), ca in a.items():
                    for (b0, b1), cb in b.items():
                        e = (a0 + b0, a1 + b1)
                        out[e] = out.get(e, 0) + ca * cb
                terms += len(out)
    return terms


def factor(samples: list[float]) -> float:
    return REFERENCE_S / statistics.fmean(samples)


class CoreSpeed:
    """Probe samples of one process, taken in its main thread from `start` to `stop`."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall time inside probes
        self.cpu_s = 0.0  # CPU time inside probes
        self._operands = _operands()
        self._busy = False

    def _sample(self) -> None:
        self._busy = True
        start, cpu = time.perf_counter(), time.thread_time()
        probe(self._operands)
        took = time.thread_time() - cpu
        self.samples.append(took)
        self.cpu_s += took
        self.spent_s += time.perf_counter() - start
        self._busy = False

    def _on_signal(self, signum, frame) -> None:
        if not self._busy:
            self._sample()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        for _ in range(TAIL_PROBES):
            self._sample()
