"""Workloads, the seeded relabeling of S, and the functions that run them.

A workload names a Coxeter type, a weight function and what one run does.
The seed picks a permutation of S; the program receives only the relabeled
Coxeter matrix, the permuted label list and the weights (keyed by label), so
it sees a different but isomorphic input for every permutation.  Seed 0 is
the named order.

The runs call the public API and `cactuscells.cli.main` exactly as a user
would.  Every call into a layer runs inside `span(name)`; untraced runs pass
`no_span`, traced runs pass `Tracer.span`.  Span names are `<layer>.<step>`.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from cactuscells import CoxeterSystem, WeightFunction, get_system, named_system
from cactuscells import cli, laurent
from cactuscells.cactus import CactusAction, cactus_presentation
from cactuscells.cellmaps import (
    parabolic_involutions,
    verify_cellular_pair,
    verify_characterization,
    verify_commutation,
    verify_descent_invariance,
    verify_mixed_basis_sign_identity,
)
from cactuscells.cells import build_a_table, compute_cells, verify_conjectures
from cactuscells.hecke import HeckeAlgebra, algebra_for

from spans import no_span


@dataclass(frozen=True)
class Workload:
    name: str
    type: str
    weights: dict | None  # label -> int or tuple; None means constant 1
    kind: str  # "pipeline" | "cells" | "cellmaps"


WORKLOADS = {
    w.name: w
    for w in (
        # One thread, the library's default.  With the interpreter lock a pool
        # of 2 threads ran the h table slower (jobs2_speedup 0.95), and the
        # host-speed probe runs in the main thread, which only waits while
        # pool threads work: ten seeds spread by 0.094 with the pool and by
        # 0.036 without.  The traced run times the pool in `h_table_jobs2`.
        Workload("pipeline-A4", "A4", None, "pipeline"),
        Workload(
            "cells-B4-generic",
            "B4",
            {"t": (1, 0), "s1": (0, 1), "s2": (0, 1), "s3": (0, 1)},
            "cells",
        ),
        Workload("cellmaps-B4-unequal", "B4", {"t": 2, "s1": 1, "s2": 1, "s3": 1}, "cellmaps"),
    )
}

# The CLI commands of the pipeline workload, in order; the later two reuse
# the memo filled by the first.
PIPELINE_COMMANDS = (("cactus", "verify"), ("afunction",), ("cells",))


def permutation(rank: int, seed: int) -> tuple[int, ...]:
    """The relabeling for `seed`: position i of the new order holds old index perm[i]."""
    perm = list(range(rank))
    if seed:
        random.Random(seed).shuffle(perm)
    return tuple(perm)


@dataclass(frozen=True)
class Input:
    """One generated input: a relabeled Coxeter matrix with labels and weights."""

    matrix: tuple
    labels: tuple
    weights: dict | None

    @property
    def key(self) -> str:
        return ",".join(self.labels)

    def cli_args(self) -> list[str]:
        args = [
            "--matrix",
            json.dumps([list(row) for row in self.matrix]),
            "--labels",
            ",".join(self.labels),
        ]
        if self.weights is not None:
            args += ["--weights", weights_text(self.weights)]
        return args


def weights_text(weights: dict) -> str:
    def value(v):
        return str(v) if isinstance(v, int) else ":".join(str(x) for x in v)

    return ",".join("%s=%s" % (lab, value(v)) for lab, v in weights.items())


def relabel(type_name: str, weights: dict | None, perm) -> Input:
    named = named_system(type_name)
    m = named.matrix
    n = len(perm)
    matrix = tuple(tuple(m[perm[i]][perm[j]] for j in range(n)) for i in range(n))
    return Input(matrix, tuple(named.labels[p] for p in perm), weights)


def make_input(workload: Workload, seed: int) -> Input:
    rank = named_system(workload.type).rank
    return relabel(workload.type, workload.weights, permutation(rank, seed))


# -- one run -------------------------------------------------------------------------


@dataclass
class Session:
    """What set-up leaves behind: the system, its ids and an algebra with no C_w yet."""

    system: CoxeterSystem
    ids: list
    weights: WeightFunction
    algebra: HeckeAlgebra


def setup(inp: Input, span=no_span) -> Session:
    """Group enumeration and the HeckeAlgebra object, the end of `setup_s`."""
    with span("coxeter.enumerate"):
        system = get_system(inp.matrix, inp.labels)
        ids = system.all_ids()
    if inp.weights is None:
        weights = WeightFunction.constant(system)
    else:
        weights = WeightFunction.from_mapping(system, inp.weights)
    with span("hecke.algebra"):
        algebra = algebra_for(system, weights)
    return Session(system, ids, weights, algebra)


def run_cli(commands, inp: Input, out: Path, span=no_span) -> None:
    argv = inp.cli_args() + ["--out", str(out)]
    for cmd in commands:
        with span("cli.render"):
            code = cli.main(list(cmd) + argv)
        if code != 0:
            raise RuntimeError("cli %s exited with %d" % (" ".join(cmd), code))


class Counts(dict):
    def add(self, key: str, value: int) -> None:
        self[key] = self.get(key, 0) + value


def layer_chain(algebra, counts: Counts, span, with_h: bool):
    """KL basis, cells and (optionally) h table, a-table and P-checks of one algebra.

    Called in dependency order, so memoization confines each span to its own
    layer's work.
    """
    ids = algebra.system.all_ids()
    counts.add("coxeter.elements", len(ids))
    with span("hecke.kl"):
        kl = [algebra.kl_vec(y) for y in ids]
    counts.add("hecke.kl_terms", sum(len(v) for v in kl))
    with span("cells.cells"):
        dec = compute_cells(algebra)
    if with_h:
        with span("hecke.h_table"):
            table = algebra.full_h_table()
        counts.add("hecke.h_rows", len(table))
        counts.add("hecke.h_terms", sum(len(p) for row in table.values() for p in row.values()))
        with span("cells.a_table"):
            a_table = build_a_table(algebra)
        with span("cells.pchecks"):
            verify_conjectures(a_table)
    return dec


def sub_algebra(session: Session, labels, span):
    with span("coxeter.enumerate"):
        pdata = session.system.parabolic(labels)
        pdata.subsystem.all_ids()
    return algebra_for(pdata.subsystem, session.weights.restrict(pdata))


def main_chain(session: Session, counts: Counts, span, with_h: bool):
    """`layer_chain` on the workload's own algebra, recording its cell counts."""
    dec = layer_chain(session.algebra, counts, span, with_h)
    counts["cells.left_cells"] = len(dec.left.cells)
    counts["cells.two_sided_cells"] = len(dec.two_sided.cells)
    return dec


def traced_pipeline(session: Session, counts: Counts, span) -> None:
    """The layers under `cactus verify` in dependency order (traced runs only)."""
    main_chain(session, counts, span, with_h=True)
    for g in cactus_presentation(session.system).generators:
        if len(g) < session.system.rank:
            layer_chain(sub_algebra(session, g, span), counts, span, with_h=True)
        with span("cellmaps.involutions"):
            pinv = parabolic_involutions(session.algebra, g)
            pinv.extended_left()
            pinv.extended_right()
    with span("cactus.verify"):
        checks = CactusAction(session.algebra).verify_relations()
    counts["cactus.relations"] = len(checks)


def cellmaps_session(session: Session, counts: Counts, span) -> dict:
    """The unequal-parameter involution toolkit for every proper cactus generator.

    Returns a JSON-ready document of the maps, signs and report outcomes.
    """
    system, algebra = session.system, session.algebra
    dec = main_chain(session, counts, span, with_h=False)

    def render(w):
        return system.element(w).render()

    doc = []
    for g in cactus_presentation(system).generators:
        if len(g) == system.rank:
            continue  # I = S would build the full h table of W
        layer_chain(sub_algebra(session, g, span), counts, span, with_h=True)
        with span("cellmaps.involutions"):
            pinv = parabolic_involutions(algebra, g)
            pairs = {"left": pinv.extended_left(), "right": pinv.extended_right()}
        reports = {"hypotheses": pinv.hypotheses_hold}
        with span("cellmaps.lc"):
            for side, pair in pairs.items():
                for k, r in verify_cellular_pair(algebra, dec, pair).items():
                    reports["%s.%s" % (side, k)] = r.holds
                reports[side + ".descent-invariance"] = verify_descent_invariance(algebra, pair).holds
        with span("cellmaps.mixed_basis"):
            reports["mixed-basis-sign-identity"] = verify_mixed_basis_sign_identity(pinv).holds
        with span("cellmaps.characterization"):
            for k, r in verify_characterization(pinv).items():
                reports["characterization." + k] = r.holds
        with span("cellmaps.commutation"):
            for side, pair in pairs.items():
                for k, r in verify_commutation(pinv, pair).items():
                    reports["commutation.%s.%s" % (side, k)] = r.holds
        doc.append(
            {
                "generator": list(g),
                "reports": reports,
                "maps": {
                    side: [[render(w), render(pair.delta[w]), pair.mu[w]] for w in session.ids]
                    for side, pair in pairs.items()
                },
            }
        )
    return {"generators": doc}


def run_workload(workload: Workload, inp: Input, session: Session, out: Path, span=no_span, counts=None) -> None:
    """One run of the workload; artifacts land in `out`.

    With a real `span`, the layers are first called in dependency order so
    that the CLI calls that follow are memo hits and `cli.render` times only
    parsing, rendering and writing.
    """
    traced = span is not no_span
    counts = Counts() if counts is None else counts
    if workload.kind == "pipeline":
        if traced:
            traced_pipeline(session, counts, span)
        run_cli(PIPELINE_COMMANDS, inp, out, span)
    elif workload.kind == "cells":
        if traced:
            main_chain(session, counts, span, with_h=False)
        run_cli((("cells",),), inp, out, span)
    else:
        doc = cellmaps_session(session, counts, span)
        with span("bench.output"):
            out.mkdir(parents=True, exist_ok=True)
            (out / "session.json").write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


# -- probes of the traced run (outside the workload) ------------------------------------


def h_table_jobs2(session: Session, span) -> None:
    """The full h table again on a fresh algebra with a pool of 2 threads (`--jobs 2`)."""
    algebra = HeckeAlgebra(session.system, session.weights)
    for y in session.ids:
        algebra.kl_vec(y)
    with span("probe.h_table_jobs2"):
        algebra.full_h_table(jobs=2)


def laurent_mul_ns_per_term(session: Session, seed: int, pairs: int = 20000, blocks: int = 9) -> float:
    """Replay `laurent.mul` on a seeded sample of pairs of the workload's own C_w coefficients.

    Reported per term product (len(a) * len(b)), so it measures the kernel
    whatever representation the library returns for exponents.
    """
    coeffs = [p for y in session.ids for p in session.algebra.kl_vec(y).values()]
    rng = random.Random(seed)
    sample = [(rng.choice(coeffs), rng.choice(coeffs)) for _ in range(pairs)]
    terms = sum(len(a) * len(b) for a, b in sample)
    mul = laurent.mul
    per_block = []
    for _ in range(blocks):
        start = time.perf_counter()
        for a, b in sample:
            mul(a, b)
        per_block.append((time.perf_counter() - start) * 1e9 / terms)
    return statistics.median(per_block)
