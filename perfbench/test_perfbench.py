"""Fast tests of the benchmark's own parts: relabeling, workload runs and oracles.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import signal
import time
from itertools import permutations
from math import factorial

import pytest

from cactuscells import cli, named_system

import hostspeed
import oracles
import workloads

B3_T2 = workloads.Workload("B3-t2", "B3", {"t": 2, "s1": 1, "s2": 1}, "pipeline")
# s and t are conjugate in I2(5), so it only admits equal weights; I2(4)
# carries the unequal dihedral case.
I25 = workloads.Workload("I2(5)", "I2(5)", {"s": 1, "t": 1}, "pipeline")
I24 = workloads.Workload("I2(4)-unequal", "I2(4)", {"s": 1, "t": 2}, "pipeline")
SMALL = [B3_T2, I25, I24]


def relabeled_seeds(rank: int, count: int = 2) -> list[int]:
    """The first seeds after 0 whose permutation is not the identity."""
    seeds = [s for s in range(1, 100) if workloads.permutation(rank, s) != tuple(range(rank))]
    return seeds[:count]


def pipeline_outputs(workload, seed: int, out) -> dict:
    inp = workloads.make_input(workload, seed)
    session = workloads.setup(inp)
    workloads.run_workload(workload, inp, session, out)
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(out.iterdir())}


def pipeline_invariants(files: dict) -> dict:
    cells = json.loads(files["cells.json"])
    sizes = {}
    for side in ("left", "right", "two_sided"):
        sizes[side] = sorted(len(c["members"]) for c in cells["cells"] if c["side"] == side)
    verify = json.loads(files["cactus_verify.json"])
    a_values = json.loads(files["afunction.json"])["values"]
    return {
        "cell_sizes": sizes,
        "order_pairs": len(cells["order"]),
        "a_values": sorted(tuple(v["a"]) for v in a_values),
        "duflo": sum(v["duflo"] for v in a_values),
        "relations": sorted((r["kind"], r["family"], r["holds"]) for r in verify["relations"]),
    }


def cellmaps_invariants(workload, seed: int) -> dict:
    session = workloads.setup(workloads.make_input(workload, seed))
    doc = workloads.cellmaps_session(session, workloads.Counts(), workloads.no_span)
    assert oracles.check_cellmaps(doc, len(doc["generators"])) == []
    out = {}
    for entry in doc["generators"]:
        key = tuple(sorted(entry["generator"]))
        out[key] = {
            side: sorted((sign, img == w) for w, img, sign in rows)
            for side, rows in entry["maps"].items()
        }
    return out


def test_permutations_cover_every_relabeling():
    seen = {workloads.permutation(4, s) for s in range(300)}
    assert len(seen) == factorial(4)
    assert workloads.permutation(4, 0) == (0, 1, 2, 3)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_seed_zero_reproduces_the_named_type(workload, tmp_path):
    named = named_system(workload.type)
    inp = workloads.make_input(workload, 0)
    assert (inp.matrix, inp.labels) == (named.matrix, named.labels)
    got = pipeline_outputs(workload, 0, tmp_path / "seed0")
    flags = ["--type", workload.type, "--weights", workloads.weights_text(workload.weights)]
    for cmd in workloads.PIPELINE_COMMANDS:
        assert cli.main(list(cmd) + flags + ["--out", str(tmp_path / "named")]) == 0
    want = {p.name: p.read_text(encoding="utf-8") for p in sorted((tmp_path / "named").iterdir())}
    assert got == want


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_relabeled_seeds_keep_the_invariants(workload, tmp_path):
    rank = named_system(workload.type).rank
    base = pipeline_invariants(pipeline_outputs(workload, 0, tmp_path / "0"))
    base_maps = cellmaps_invariants(workload, 0)
    for seed in relabeled_seeds(rank):
        files = pipeline_outputs(workload, seed, tmp_path / str(seed))
        assert json.loads(files["cactus_verify.json"])["all_hold"]
        assert pipeline_invariants(files) == base
        assert cellmaps_invariants(workload, seed) == base_maps


def test_relabeling_changes_the_input_but_not_the_group():
    workload = workloads.WORKLOADS["cells-B4-generic"]
    seed = relabeled_seeds(4, 1)[0]
    inp = workloads.make_input(workload, seed)
    named = named_system("B4")
    assert inp.labels != named.labels and sorted(inp.labels) == sorted(named.labels)
    for i, a in enumerate(inp.labels):
        for j, b in enumerate(inp.labels):
            assert inp.matrix[i][j] == named.matrix[named.index_of[a]][named.index_of[b]]


def test_robinson_schensted_convention_on_a3(tmp_path):
    """Left cells are the classes of the recording tableau; a(w) = n(shape)."""
    workload = workloads.Workload("A3", "A3", None, "pipeline")
    files = pipeline_outputs(workload, relabeled_seeds(3, 1)[0], tmp_path)
    cells, a_doc = json.loads(files["cells.json"]), json.loads(files["afunction.json"])
    assert oracles.check_type_a(cells, a_doc, 3) == []
    swapped = dict(cells)
    swapped["cells"] = [
        dict(c, side={"left": "right", "right": "left"}.get(c["side"], c["side"]))
        for c in cells["cells"]
    ]
    assert oracles.check_type_a(swapped, a_doc, 3) != []


def test_rs_is_a_bijection_onto_pairs_of_standard_tableaux():
    pairs = {oracles.robinson_schensted(p) for p in permutations(range(1, 6))}
    assert len(pairs) == 120
    assert all(tuple(map(len, p)) == tuple(map(len, q)) for p, q in pairs)


def test_hook_length_degrees():
    for n in range(1, 6):
        degrees = oracles.bipartition_degrees(n)
        assert sum(d * d for d in degrees) == 2**n * factorial(n)
    assert sum(oracles.bipartition_degrees(4)) == 76
    assert oracles.hook_dimension((3, 2)) == 5


def test_asymptotic_oracle_on_b3(tmp_path):
    workload = workloads.Workload("B3-generic", "B3", {"t": (1, 0), "s1": (0, 1), "s2": (0, 1)}, "cells")
    inp = workloads.make_input(workload, relabeled_seeds(3, 1)[0])
    workloads.run_workload(workload, inp, workloads.setup(inp), tmp_path)
    cells = json.loads((tmp_path / "cells.json").read_text(encoding="utf-8"))
    assert oracles.check_asymptotic_b(cells, 3) == []
    merged = dict(cells, cells=[c for c in cells["cells"] if c["side"] != "two_sided"])
    merged["cells"].append({"side": "two_sided", "members": [w for c in cells["cells"] if c["side"] == "left" for w in c["members"]]})
    assert oracles.check_asymptotic_b(merged, 3) != []


def test_cellmaps_oracle_rejects_a_broken_map():
    doc = {
        "generators": [
            {
                "generator": ["s"],
                "reports": {"LC1": True},
                "maps": {"left": [["", "s", 1], ["s", "s", -1]], "right": [["", "", 1], ["s", "s", 2]]},
            }
        ]
    }
    errors = oracles.check_cellmaps(doc, 1)
    assert any("not an involution" in e for e in errors)
    assert any("not +-1" in e for e in errors)


def test_digests_cover_every_relabeling():
    recorded = oracles.load_digests()
    for workload in workloads.WORKLOADS.values():
        rank = named_system(workload.type).rank
        assert len(recorded.get(workload.name, {})) == factorial(rank), workload.name



def test_core_speed_probes_on_cpu_time_and_at_the_end():
    speed = hostspeed.CoreSpeed()
    speed.start()
    try:
        end = time.process_time() + 2 * hostspeed.PERIOD_S
        while time.process_time() < end:
            pass
    finally:
        speed.stop()
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    assert len(speed.samples) > hostspeed.TAIL_PROBES
    assert speed.cpu_s == pytest.approx(sum(speed.samples))
    assert speed.spent_s > 0
    assert hostspeed.factor([hostspeed.REFERENCE_S] * 3) == pytest.approx(1.0)
