"""Checks of a run's artifacts against oracles that share no arithmetic with the library.

* Type A, equal parameters: the Robinson-Schensted correspondence.  Left
  cells are the classes of the recording tableau of the one-line notation
  (the convention is fixed on A3 by `test_perfbench.py`), right cells the
  classes of the insertion tableau, two-sided cells the shapes, and
  a(w) = n(shape(w)).
* Type B4 in the asymptotic regime t >> s: cells are indexed by the
  bipartitions of 4.  A bipartition of degree d = C(4, |lambda|) f^lambda f^mu
  gives d left cells of size d inside one two-sided cell of size d^2; the
  degrees come from the hook-length formula.
* The involution toolkit: every report holds, both maps are involutions and
  every sign is +-1.

On top of the oracles, every artifact's bytes are compared with the SHA-256
digests recorded in `digests.json` for the same relabeling.  Each check
returns a list of failure messages; an empty list means the run is correct.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product
from math import comb, factorial
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Counts of the rank-4 path diagrams A4 and B4: cactus relations of A4 (C1, C2,
# C3 and cross, both families) and connected proper subsets of S.
A4_RELATIONS = 180
B4_PROPER_GENERATORS = 9

# Labels of A_n in the named order.
A_LABELS = {n: tuple("s%d" % (i + 1) for i in range(n)) for n in range(1, 6)}


# -- type A: Robinson-Schensted ---------------------------------------------------


def permutation_of(word: str, n: int) -> tuple[int, ...]:
    """One-line notation of the product s_{i1} ... s_{ik} in S_{n+1}, s_i = (i, i+1)."""
    perm = list(range(1, n + 2))
    for label in (word.split(".") if word else ()):
        i = A_LABELS[n].index(label)
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def robinson_schensted(perm) -> tuple[tuple, tuple]:
    """(insertion tableau P, recording tableau Q) by row insertion."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(perm, 1):
        row = 0
        while True:
            if row == len(p_rows):
                p_rows.append([x])
                q_rows.append([step])
                break
            cur = p_rows[row]
            bump = next((j for j, y in enumerate(cur) if y > x), None)
            if bump is None:
                cur.append(x)
                q_rows[row].append(step)
                break
            cur[bump], x = x, cur[bump]
            row += 1
    return tuple(map(tuple, p_rows)), tuple(map(tuple, q_rows))


def shape_n(shape) -> int:
    """n(lambda) = sum (i - 1) lambda_i."""
    return sum(i * part for i, part in enumerate(shape))


def _cells_by_side(cells_doc: dict) -> dict:
    out: dict = {"left": [], "right": [], "two_sided": []}
    for cell in cells_doc["cells"]:
        out[cell["side"]].append(frozenset(cell["members"]))
    return out


def _classes(members, key) -> set:
    groups: dict = {}
    for w in members:
        groups.setdefault(key(w), set()).add(w)
    return {frozenset(g) for g in groups.values()}


def check_type_a(cells_doc: dict, a_doc: dict, n: int) -> list[str]:
    """Cells and a-values of A_n with equal parameters against Robinson-Schensted."""
    rs = {}
    for row in a_doc["values"]:
        rs[row["w"]] = robinson_schensted(permutation_of(row["w"], n))
    errors = []
    if len(rs) != factorial(n + 1):
        errors.append("afunction lists %d elements, expected %d" % (len(rs), factorial(n + 1)))
    by_side = _cells_by_side(cells_doc)
    expected = {
        "left": _classes(rs, lambda w: rs[w][1]),
        "right": _classes(rs, lambda w: rs[w][0]),
        "two_sided": _classes(rs, lambda w: tuple(map(len, rs[w][0]))),
    }
    for side, cells in expected.items():
        if set(by_side[side]) != cells:
            errors.append("%s cells differ from the Robinson-Schensted classes" % side)
    for row in a_doc["values"]:
        shape = tuple(map(len, rs[row["w"]][0]))
        if row["a"] != [shape_n(shape)]:
            errors.append("a(%s) = %s, expected n(%s)" % (row["w"] or "1", row["a"], shape))
            break
    return errors


def check_relations(verify_doc: dict, expected: int) -> list[str]:
    rels = verify_doc["relations"]
    errors = []
    if len(rels) != expected:
        errors.append("%d cactus relations, expected %d" % (len(rels), expected))
    failing = [r for r in rels if not r["holds"]]
    if failing or not verify_doc["all_hold"]:
        errors.append("%d cactus relations fail" % len(failing))
    return errors


# -- type B4, asymptotic regime: hook lengths -------------------------------------------


def partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def hook_dimension(shape) -> int:
    """f^lambda = |lambda|! / prod of hook lengths."""
    conj = [sum(1 for part in shape if part > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            hooks *= (part - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(shape)) // hooks


def bipartition_degrees(n: int) -> list[int]:
    """Degrees of the irreducible characters of W(B_n), one per bipartition of n."""
    out = []
    for k in range(n + 1):
        for lam, mu in product(partitions(k), partitions(n - k)):
            out.append(comb(n, k) * hook_dimension(lam) * hook_dimension(mu))
    return out


def check_asymptotic_b(cells_doc: dict, n: int) -> list[str]:
    """Left, right and two-sided cell sizes of B_n with t >> s against the degrees."""
    degrees = bipartition_degrees(n)
    by_side = _cells_by_side(cells_doc)
    errors = []
    want_one_sided = sorted(d for d in degrees for _ in range(d))
    for side in ("left", "right"):
        got = sorted(len(c) for c in by_side[side])
        if got != want_one_sided:
            errors.append("%s cell sizes %s, expected %s" % (side, got, want_one_sided))
    got = sorted(len(c) for c in by_side["two_sided"])
    if got != sorted(d * d for d in degrees):
        errors.append("two-sided cell sizes %s, expected the squared degrees" % got)
    for two in by_side["two_sided"]:
        inside = [c for c in by_side["left"] if c <= two]
        d = len(inside)
        if sum(map(len, inside)) != len(two) or any(len(c) != d for c in inside):
            errors.append("a two-sided cell of size %d is not d left cells of size d" % len(two))
            break
    return errors


# -- the involution toolkit ---------------------------------------------------------


def check_cellmaps(doc: dict, expected_generators: int) -> list[str]:
    errors = []
    if len(doc["generators"]) != expected_generators:
        errors.append("%d generators, expected %d" % (len(doc["generators"]), expected_generators))
    for entry in doc["generators"]:
        name = ",".join(entry["generator"])
        failing = sorted(k for k, holds in entry["reports"].items() if not holds)
        if failing:
            errors.append("I={%s}: %s fail" % (name, ", ".join(failing)))
        for side, rows in entry["maps"].items():
            image = {w: img for w, img, _sign in rows}
            if any(image[image[w]] != w for w in image):
                errors.append("I={%s}: the %s map is not an involution" % (name, side))
            if any(sign not in (1, -1) for _w, _img, sign in rows):
                errors.append("I={%s}: a %s sign is not +-1" % (name, side))
    return errors


# -- per-workload entry points ---------------------------------------------------------


def file_digests(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def check_oracles(workload, out: Path) -> list[str]:
    def load(name):
        return json.loads((out / name).read_text(encoding="utf-8"))

    try:
        if workload.kind == "pipeline":
            n = int(workload.type[1:])
            return check_type_a(load("cells.json"), load("afunction.json"), n) + check_relations(
                load("cactus_verify.json"), A4_RELATIONS
            )
        if workload.kind == "cells":
            return check_asymptotic_b(load("cells.json"), int(workload.type[1:]))
        return check_cellmaps(load("session.json"), B4_PROPER_GENERATORS)
    except (OSError, ValueError, KeyError) as exc:
        return ["artifacts unreadable: %s: %s" % (type(exc).__name__, exc)]


def check_digests(workload, key: str, out: Path, recorded: dict) -> list[str]:
    """Compare the artifact bytes with the digests recorded for this relabeling."""
    want = recorded.get(workload.name, {}).get(key)
    if want is None:
        return ["no digests recorded for the relabeling %s" % key]
    got = file_digests(out)
    return ["%s differs from the recorded bytes" % name for name in sorted(set(want) | set(got)) if want.get(name) != got.get(name)]


def load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))
