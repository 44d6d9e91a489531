"""Hecke algebra arithmetic, the KL basis against an independent oracle,
structure constants against the dihedral closed forms, and the mixed basis."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import cactuscells.laurent as L
from cactuscells import CoxeterSystem, WeightFunction
from cactuscells.cactus import cactus_presentation
from cactuscells.cellmaps import parabolic_involutions, verify_mixed_basis_sign_identity
from cactuscells.cells import compute_cells
from cactuscells.cli import main
from cactuscells.hecke import (
    ConsistencyError,
    HeckeAlgebra,
    MixedBasisTable,
    _acc_mul,
    algebra_for,
)
from cactuscells.ordgroup import GroupAlgebraElement, OrderedAbelianGroup

from support import (
    UNEQ,
    B3_LEX,
    B3_WEIGHTS,
    algebra,
    elem,
    mul_gen_left,
    s_i,
    system,
    t_i,
    t_mul_word_left,
    weights,
)

I2_8 = (("s", 2), ("t", 3))
B4_LEX = (("t", (1, 0)), ("s1", (0, 1)), ("s2", (0, 1)), ("s3", (0, 1)))


def T(alg, labels):
    return alg.t_of(system_of(alg).from_word(labels).index)


def test_to_kl_reports_a_failed_triangular_reduction():
    # a fresh algebra whose C_w have diagonal 2, so subtracting C_x leaves T_x
    alg = HeckeAlgebra(system("A2"), weights("A2"))
    alg.kl_vec = lambda w: {w: {alg.zero_exp: 2}}
    with pytest.raises(ConsistencyError, match="triangular reduction failed at 1$"):
        alg.to_kl({1: {alg.zero_exp: 1}})


def system_of(alg):
    return alg.system


def test_quadratic_relation():
    for name, spec, phi in (("I2(3)", None, 1), ("I2(4)", UNEQ, 1)):
        alg = algebra(name, spec)
        ts = T(alg, ["s"])
        sq = alg.t_mul(ts, ts)
        assert sq == {0: {0: 1}, 1: {phi: 1, -phi: -1}}


def test_lengths_add():
    alg = algebra("I2(3)")
    assert alg.t_mul(T(alg, ["s"]), T(alg, ["t"])) == T(alg, ["s", "t"])
    h = alg.t_mul(T(alg, ["t", "s"]), alg.unit())
    assert h == T(alg, ["t", "s"])


def test_bar_basics():
    alg = algebra("I2(4)", UNEQ)
    assert alg.bar_vec(alg.unit()) == alg.unit()
    s = T(alg, ["s"])
    assert alg.bar_vec(s) == {1: {0: 1}, 0: {-1: 1, 1: -1}}
    st = T(alg, ["s", "t"])
    assert alg.bar_vec(alg.bar_vec(st)) == st
    # bar is a ring automorphism
    prod = alg.t_mul(alg.bar_vec(s), alg.bar_vec(T(alg, ["t"])))
    assert alg.bar_vec(st) == prod


def test_kl_basic_elements():
    alg = algebra("I2(3)")
    sysm = system_of(alg)
    assert alg.kl_vec(0) == {0: {0: 1}}
    s = sysm.from_word(["s"]).index
    assert alg.kl_vec(s) == {s: {0: 1}, 0: {-1: 1}}
    st = sysm.from_word(["s", "t"]).index
    t = sysm.from_word(["t"]).index
    assert alg.kl_vec(st) == {
        st: {0: 1},
        s: {-1: 1},
        t: {-1: 1},
        0: {-2: 1},
    }


def test_kl_unequal_weight_generator():
    alg = algebra("I2(4)", UNEQ)
    t = system_of(alg).from_word(["t"]).index
    assert alg.kl_vec(t) == {t: {0: 1}, 0: {-2: 1}}


@pytest.mark.parametrize(
    "name,spec",
    [("I2(3)", None), ("I2(4)", None), ("I2(5)", None), ("A3", None),
     ("I2(4)", UNEQ), ("B3", B3_WEIGHTS), ("H3", None)],
)
def test_kl_elements_bar_fixed_and_unitriangular(name, spec):
    alg = algebra(name, spec)
    sysm = system_of(alg)
    zero = alg.zero_exp
    for w in sysm.all_ids():
        vec = alg.kl_vec(w)
        assert alg.bar_vec(vec) == vec
        assert vec[w] == {zero: 1}
        for x, p in vec.items():
            if x != w:
                assert L.deg(p) < zero
            assert sysm.bruhat_leq(x, w)


def _kl_oracle(alg, w):
    """Solve the bar-fixed unitriangular system directly from the bar images.

    Writing C = sum_x p_x T_x with p_w = 1, bar-fixedness reads, coordinate
    by coordinate, p_y - bar(p_y) = sum_{x > y} bar(p_x) r_{y,x} with
    r_{y,x} the T_y-coefficient of bar(T_x); each right side must be skew
    and p_y is its strictly negative part.  No correction-loop code shared
    with the production path.
    """
    sysm = alg.system
    zero = alg.zero_exp
    p = {w: {zero: 1}}
    rbar = {x: alg.bar_vec(alg.t_of(x)) for x in range(w + 1)}
    for y in range(w - 1, -1, -1):
        k = {}
        for x, px in p.items():
            if x <= y:
                continue
            r = rbar[x].get(y)
            if r:
                for e, c in L.mul(L.bar(px), r).items():
                    L.add_term(k, e, c)
        assert L.is_skew(k), "right side must be skew"
        py = {e: c for e, c in k.items() if e < zero}
        if py:
            p[y] = py
    return p


@pytest.mark.parametrize(
    "name,spec",
    [("I2(3)", None), ("I2(4)", None), ("I2(5)", None), ("A3", None),
     ("I2(8)", I2_8), ("B3", B3_WEIGHTS), ("B3", B3_LEX)],
    ids=["I2(3)", "I2(4)", "I2(5)", "A3", "I2(8)-s2t3", "B3-t2", "B3-lex"],
)
def test_kl_matches_independent_oracle(name, spec):
    alg = algebra(name, spec)
    for w in alg.system.all_ids():
        assert _kl_oracle(alg, w) == alg.kl_vec(w)


@st.composite
def dihedral_weights(draw):
    """I2(m) with random positive weights of rank 1 or 2 (lexicographic);
    s and t are conjugate, so equally weighted, when m is odd."""
    m = draw(st.integers(3, 10))
    if draw(st.booleans()):
        weight = st.integers(1, 4).map(lambda a: (a,))
    else:
        weight = st.tuples(st.integers(0, 3), st.integers(-3, 3)).filter(lambda e: e > (0, 0))
    ws = draw(weight)
    wt = ws if m % 2 else draw(weight)
    return m, ws, wt


@settings(deadline=None)
@given(dihedral_weights())
def test_kl_matches_oracle_on_random_dihedral_weights(case):
    m, ws, wt = case
    sysm = system("I2(%d)" % m)
    alg = HeckeAlgebra(sysm, WeightFunction.from_mapping(sysm, {"s": ws, "t": wt}))
    for w in sysm.all_ids():
        assert _kl_oracle(alg, w) == alg.kl_vec(w)


def test_kl_oracle_unequal_parameters():
    alg = algebra("I2(4)", UNEQ)
    for w in alg.system.all_ids():
        assert _kl_oracle(alg, w) == alg.kl_vec(w)


def test_cs_left_row_checks_the_peel_against_the_stored_c(monkeypatch):
    """A stored C_{sy} that is wrong is caught by a row that its own walk did
    not build: s is a left descent of sy other than its first letter."""
    alg = HeckeAlgebra(system("B3"), weights("B3", B3_WEIGHTS))
    sysm = alg.system
    alg.kl_vec(sysm.longest_id())
    s, y = next(
        (s, y) for y in sysm.all_ids() for s in range(sysm.rank)
        if sysm.left_mult_gen(s, y) > y and sysm.word(sysm.left_mult_gen(s, y))[0] != s
    )
    sy = sysm.left_mult_gen(s, y)
    assert (alg.gen_id(s), y) not in alg._h
    stored = list(alg._kl)
    stored[sy] = {x: L.scale(p, 2) if x == 0 else p for x, p in stored[sy].items()}
    monkeypatch.setattr(alg, "_kl", stored)
    with pytest.raises(ConsistencyError, match="C_%d C_%d does not peel down to C_%d"
                       % (alg.gen_id(s), y, sy)):
        alg.cs_left_row(s, y)


def test_walk_that_peels_nothing_is_caught(monkeypatch):
    """With the peeling heap never seeded, the first C_w that needs an M
    keeps a coefficient of degree >= 0."""
    alg = HeckeAlgebra(system("A3"), weights("A3"))
    monkeypatch.setattr("cactuscells.hecke.heapq.heapify", lambda heap: heap.clear())
    with pytest.raises(ConsistencyError,
                       match=r"coefficient of T_\d+ in C_\d+ is not strictly negative"):
        alg.kl_vec(alg.system.longest_id())


def test_doubled_top_coefficient_is_caught(monkeypatch):
    """A C_y whose top coefficient is doubled leaves C_{sy} with top
    coefficient 2."""
    alg = HeckeAlgebra(system("A3"), weights("A3"))
    sysm = alg.system
    w = sysm.longest_id()
    y = sysm.left_mult_gen(sysm.word(w)[0], w)
    alg.kl_vec(w - 1)
    kl_vec = alg.kl_vec

    def doubled_top(x):
        cx = kl_vec(x)
        return {**cx, y: L.scale(cx[y], 2)} if x == y else cx

    monkeypatch.setattr(alg, "kl_vec", doubled_top)
    with pytest.raises(ConsistencyError, match="C_%d is not unitriangular" % w):
        alg.kl_vec(w)


def test_basis_conversion_round_trip():
    alg = algebra("B3", B3_WEIGHTS)
    sysm = system_of(alg)
    assert alg.to_kl(alg.unit()) == {0: {0: 1}}
    rng = random.Random(7)
    ids = sysm.all_ids()
    for _ in range(12):
        vec = {
            rng.choice(ids): {rng.randint(-3, 3): rng.randint(-5, 5)}
            for _ in range(5)
        }
        vec = {w: p for w, p in vec.items() if any(p.values())}
        assert alg.to_standard(alg.to_kl(vec)) == vec
        assert alg.to_kl(alg.to_standard(vec)) == vec


def test_structure_constants_equal_dihedral():
    # C_{t_1} C_s = C_{s_2}; C_{t_i} C_s = C_{s_{i+1}} + C_{s_{i-1}} for 2 <= i <= m-1
    one = {0: 1}
    for m in (3, 4, 5, 6):
        name = "I2(%d)" % m
        alg = algebra(name)
        s = elem(name, ["s"]).index
        assert alg.h_row(t_i(name, 1).index, s) == {s_i(name, 2).index: one}
        for i in range(2, m):
            row = alg.h_row(t_i(name, i).index, s)
            assert row == {s_i(name, i + 1).index: one, s_i(name, i - 1).index: one}


def test_structure_constants_unequal_dihedral():
    # with zeta = v^{a-b} + v^{b-a}: C_{t_i} C_{st} = C_{t_{i+2}} + zeta C_{t_i}
    # for i in {1, 2}, plus C_{t_{i-2}} for 3 <= i <= m-2
    one = {0: 1}
    zeta = {1: 1, -1: 1}
    for m in (4, 6, 8):
        name = "I2(%d)" % m
        alg = algebra(name, UNEQ)
        st = elem(name, ["s", "t"]).index
        for i in (1, 2):
            row = alg.h_row(t_i(name, i).index, st)
            assert row == {t_i(name, i + 2).index: one, t_i(name, i).index: zeta}
        for i in range(3, m - 1):
            row = alg.h_row(t_i(name, i).index, st)
            assert row == {
                t_i(name, i + 2).index: one,
                t_i(name, i).index: zeta,
                t_i(name, i - 2).index: one,
            }


def test_identity_structure_constants():
    alg = algebra("A3")
    for y in alg.system.all_ids():
        assert alg.h_row(0, y) == {y: {0: 1}}
        assert alg.h_row(y, 0) == {y: {0: 1}}


@pytest.mark.parametrize("name,spec", [("I2(4)", None), ("I2(5)", None), ("I2(6)", UNEQ), ("B3", B3_WEIGHTS)])
def test_associativity_on_random_triples(name, spec):
    alg = algebra(name, spec)
    ids = alg.system.all_ids()
    rng = random.Random(name)
    for _ in range(10):
        x, y, z = (rng.choice(ids) for _ in range(3))
        lhs = {}
        for u, p in alg.h_row(x, y).items():
            for w, q in alg.h_row(u, z).items():
                for e, c in L.mul(p, q).items():
                    L.add_term(lhs.setdefault(w, {}), e, c)
        rhs = {}
        for u, p in alg.h_row(y, z).items():
            for w, q in alg.h_row(x, u).items():
                for e, c in L.mul(p, q).items():
                    L.add_term(rhs.setdefault(w, {}), e, c)
        assert {w: p for w, p in lhs.items() if p} == {w: p for w, p in rhs.items() if p}


@pytest.mark.parametrize(
    "name,spec,labels",
    [("B3", B3_WEIGHTS, ("t", "s1")), ("B3", B3_WEIGHTS, ("s1", "s2")),
     ("A3", None, ("s1", "s2")), ("A3", None, ("s1", "s3"))],
)
def test_parabolic_kl_restriction(name, spec, labels):
    """The C_w for w in W_I computed inside W restrict to the KL basis of H_I."""
    alg = algebra(name, spec)
    pdata = alg.system.parabolic(labels)
    sub_alg = algebra_for(pdata.subsystem, alg.weights.restrict(pdata))
    for e in range(pdata.subsystem.size()):
        parent_vec = alg.kl_vec(pdata.to_parent(e))
        mapped = {pdata.to_sub(x): p for x, p in parent_vec.items()}
        assert mapped == sub_alg.kl_vec(e)


def test_algebra_registry_is_keyed_by_weights():
    """Equal weights on one system share one algebra, weights of another
    system are refused, and equal matrices in distinct systems do not share."""
    alg = algebra("B3", B3_WEIGHTS)
    pdata = alg.system.parabolic(("t", "s1"))
    w1, w2 = alg.weights.restrict(pdata), alg.weights.restrict(pdata)
    assert w1 is not w2 and w1 == w2
    sub_alg = algebra_for(pdata.subsystem, w1)
    assert algebra_for(pdata.subsystem, w2) is sub_alg
    assert sub_alg.system is pdata.subsystem
    # w1 is registered, yet it does not serve another system
    with pytest.raises(ValueError, match="weight function belongs to a different system"):
        algebra_for(alg.system, w1)
    with pytest.raises(ValueError, match="weight function belongs to a different system"):
        algebra_for(pdata.subsystem, alg.weights)
    a, b = CoxeterSystem(((1, 3), (3, 1))), CoxeterSystem(((1, 3), (3, 1)))
    alg_a = algebra_for(a, WeightFunction.constant(a))
    alg_b = algebra_for(b, WeightFunction.constant(b))
    assert alg_a is not alg_b
    assert (alg_a.system, alg_b.system) == (a, b)
    assert algebra_for(a, WeightFunction.constant(a)) is alg_a


@pytest.mark.parametrize(
    "name,spec,labels",
    [("B3", B3_WEIGHTS, ("t",)), ("B3", B3_WEIGHTS, ("t", "s1")),
     ("B3", B3_WEIGHTS, ("s1", "s2")), ("B3", B3_WEIGHTS, ("t", "s2")),
     ("B3", B3_WEIGHTS, ("t", "s1", "s2")), ("B3", B3_WEIGHTS, ()),
     ("A3", None, ("s1", "s2")), ("A3", None, ("s1", "s3")), ("A3", None, ("s2",))],
)
def test_mixed_basis_invariants(name, spec, labels):
    """Diagonal 1, strictly negative off-diagonal, and the support constraints:
    a nonzero off-diagonal coefficient forces a < b, ax <= by, and x <=_L y in W_I."""
    alg = algebra(name, spec)
    sysm = alg.system
    pdata = sysm.parabolic(labels)
    table = alg.mixed_basis_table(pdata)  # (a), (b) enforced at construction
    sub_alg = algebra_for(pdata.subsystem, alg.weights.restrict(pdata))
    sub_left = compute_cells(sub_alg).left
    for w, row in table.rows.items():
        b, y = pdata.decompose_left(w)
        for u, p in row.items():
            if u == w or not p:
                continue
            a, x = pdata.decompose_left(u)
            assert sysm.bruhat_leq(a, b) and a != b
            assert sysm.bruhat_leq(u, w)
            assert sub_left.leq(pdata.to_sub(x), pdata.to_sub(y))


def _mixed_table_oracle(alg, pdata):
    """Each C_w reduced, largest id first, against the T_a C_x written in the
    T basis, for a in min_reps and x in W_I."""
    sysm = alg.system
    gvec = {
        sysm.multiply(a, x): t_mul_word_left(alg, sysm.word(a), alg.kl_vec(x))
        for a in pdata.min_reps
        for x in pdata.elements
    }
    rows = {}
    for w in sysm.all_ids():
        rem = {z: dict(p) for z, p in alg.kl_vec(w).items()}
        out = {}
        while rem:
            u = max(rem)
            c = dict(rem[u])
            out[u] = c
            for z, p in gvec[u].items():
                acc = rem.setdefault(z, {})
                for e, k in L.mul(c, p).items():
                    L.add_term(acc, e, -k)
                if not acc:
                    del rem[z]
            assert u not in rem
        rows[w] = out
    return rows


@pytest.mark.parametrize(
    "name,spec",
    [("A3", None), ("B3", B3_WEIGHTS), ("B3", B3_LEX), ("I2(8)", I2_8), ("H3", None)],
)
def test_mixed_basis_table_matches_standard_basis_oracle(name, spec):
    """The C_s recursion with Deodhar's three cases against the triangular
    reduction in the T basis, for every parabolic, () and S included."""
    alg = algebra(name, spec)
    sysm = alg.system
    for r in range(sysm.rank + 1):
        for labels in combinations(sysm.labels, r):
            pdata = sysm.parabolic(labels)
            assert alg.mixed_basis_table(pdata).rows == _mixed_table_oracle(alg, pdata)


def test_mixed_basis_table_consistency_checks(monkeypatch):
    """Both invariants are checked on the recursion: a doubled leading
    coefficient in the C_s rows breaks the unit diagonal, and dropping the M
    leaves coefficients that are not strictly negative."""
    alg = HeckeAlgebra(system("A3"), weights("A3"))
    pdata = alg.system.parabolic(("s1", "s2"))
    rows = alg.cs_left_row

    def doubled_lead(s, y):
        sy = alg.system.left_mult_gen(s, y)
        return {z: L.scale(p, 2) if z == sy > y else p for z, p in rows(s, y).items()}

    def no_m(s, y):
        sy = alg.system.left_mult_gen(s, y)
        return rows(s, y) if sy < y else {sy: {alg.zero_exp: 1}}

    monkeypatch.setattr(alg, "cs_left_row", doubled_lead)
    with pytest.raises(ConsistencyError, match="diagonal coefficient is not 1"):
        alg.mixed_basis_table(pdata)
    monkeypatch.setattr(alg, "cs_left_row", no_m)
    with pytest.raises(ConsistencyError, match="not strictly negative"):
        alg.mixed_basis_table(pdata)


def test_mixed_basis_inside_parabolic_is_plain_kl():
    # for b = 1 and y in W_I the expansion has no terms with a != 1
    alg = algebra("B3", B3_WEIGHTS)
    pdata = alg.system.parabolic(("t", "s1"))
    table = alg.mixed_basis_table(pdata)
    members = set(pdata.elements)
    for y in members:
        for u in table.rows[y]:
            assert u in members


def test_concurrent_table_reads_are_safe():
    import threading

    reference = algebra("A3")
    fresh = HeckeAlgebra(system("A3"), reference.weights)
    ids = fresh.system.all_ids()
    errors = []

    def worker(offset):
        try:
            for y in ids[offset::6]:
                if fresh.kl_vec(y) != reference.kl_vec(y):
                    errors.append(("kl", y))
                for s in range(fresh.system.rank):
                    if fresh.cs_left_row(s, y) != reference.cs_left_row(s, y):
                        errors.append(("row", s, y))
        except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_full_table_is_schedule_independent():
    """full_h_table against every h_row asked for in descending (y, x) order
    on a fresh algebra, before any C_w was built."""
    for name, spec in (("I2(6)", UNEQ), ("B3", B3_LEX)):
        sysm, wt = system(name), weights(name, spec)
        table = HeckeAlgebra(sysm, wt).full_h_table()
        descending = HeckeAlgebra(sysm, wt)
        ids = sysm.all_ids()
        rows = {(x, y): descending.h_row(x, y) for y in reversed(ids) for x in reversed(ids)}
        assert rows == table


def test_each_column_runs_once_and_in_id_order(monkeypatch):
    """h_column(y) yields the rows x <= y^-1 in id order, and h_row runs each
    column once, to the end, however the rows are asked for."""
    sysm = system("B3")
    alg = HeckeAlgebra(sysm, weights("B3", B3_WEIGHTS))
    inv = sysm.inverse
    ids = sysm.all_ids()
    for y in ids:
        assert [x for x, _ in alg.h_column(y)] == list(range(inv(y) + 1))
    runs = []
    column = HeckeAlgebra.h_column

    def counted(self, y):
        runs.append(y)
        return column(self, y)

    monkeypatch.setattr(HeckeAlgebra, "h_column", counted)
    for y in reversed(ids):
        for x in ids:
            alg.h_row(x, y)
    assert sorted(runs) == ids


def _cs_row_oracle(alg, s, y, side):
    """C_s C_y (left) or C_y C_s (right) multiplied in the T basis, as
    T_s C_y + v^-L(s) C_y, and rewritten by to_kl."""
    cy = alg.kl_vec(y)
    vec = mul_gen_left(alg, s, cy) if side == "left" else alg.mul_gen_right(cy, s)
    vneg = {L.pack(tuple(-e for e in alg.weights.of(s))): 1}
    for z, p in cy.items():
        for e, c in L.mul(vneg, p).items():
            L.add_term(vec.setdefault(z, {}), e, c)
    return alg.to_kl({z: p for z, p in vec.items() if p})


@pytest.mark.parametrize(
    "name,spec",
    [("A3", None), ("I2(8)", I2_8), ("B3", B3_WEIGHTS), ("B3", B3_LEX),
     ("H3", None), ("D4", None), ("B4", B4_LEX)],
)
def test_cs_rows_match_standard_basis_products(name, spec):
    sysm = system(name)
    alg = HeckeAlgebra(sysm, weights(name, spec))
    ids = sysm.all_ids()
    rows = {
        (s, y): (alg.cs_left_row(s, y), alg.cs_right_row(y, s))
        for y in reversed(ids) for s in range(sysm.rank)
    }
    for (s, y), (left, right) in rows.items():
        assert left == _cs_row_oracle(alg, s, y, "left")
        assert right == _cs_row_oracle(alg, s, y, "right")
        assert alg.cs_row("left", s, y) == left
        assert alg.cs_row("right", s, y) == right
    for side in ("L", "R", "two_sided"):
        with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
            alg.cs_row(side, 0, 0)


def _t_word_oracle(alg, side, letters, y):
    """T_u C_y (left) or C_y T_u (right) multiplied in the T basis and
    rewritten by to_kl."""
    vec = alg.kl_vec(y)
    if side == "left":
        return alg.to_kl(t_mul_word_left(alg, letters, vec))
    for s in letters:
        vec = alg.mul_gen_right(vec, s)
    return alg.to_kl(vec)


@pytest.mark.parametrize(
    "name,spec", [("A3", None), ("I2(8)", I2_8), ("B3", B3_WEIGHTS), ("B3", B3_LEX)]
)
def test_t_word_kl_matches_standard_basis_products(name, spec):
    """T_{w_I} C_y and C_y T_{w_I} through the C_s rows, for every cactus
    generator I (I = S included), against the T-basis product."""
    sysm = system(name)
    alg = HeckeAlgebra(sysm, weights(name, spec))
    one = {alg.zero_exp: 1}
    for g in cactus_presentation(sysm).generators:
        word = sysm.word(sysm.parabolic(g).longest)
        for y in sysm.all_ids():
            for side in ("left", "right"):
                assert alg.t_word_kl(side, word, {y: one}) == _t_word_oracle(alg, side, word, y)
    with pytest.raises(ValueError):
        alg.t_word_kl("both", (0,), {0: one})


@pytest.mark.parametrize("name,spec", [("A3", None), ("B3", B3_WEIGHTS)])
def test_t_word_kl_for_words_of_non_involutions(name, spec):
    """T_u C_y and C_y T_u for every u != u^-1, whose word read backwards is
    not a word of u, against the T-basis product."""
    sysm = system(name)
    alg = HeckeAlgebra(sysm, weights(name, spec))
    one = {alg.zero_exp: 1}
    words = [sysm.word(u) for u in sysm.all_ids() if sysm.inverse(u) != u]
    assert words
    for word in words:
        for y in sysm.all_ids():
            for side in ("left", "right"):
                assert alg.t_word_kl(side, word, {y: one}) == _t_word_oracle(alg, side, word, y)


@pytest.mark.parametrize(
    "name,spec",
    [("I2(5)", None), ("I2(8)", I2_8), ("A3", None), ("B3", B3_WEIGHTS),
     ("B3", (("t", (1, 0)), ("s1", (0, 1)), ("s2", (0, 1))))],
)
def test_h_rows_match_standard_basis_products(name, spec):
    """The C_s recursion against C_x * C_y multiplied in the T basis and
    rewritten by to_kl; the longest row is asked for first, on demand."""
    sysm, wt = system(name), weights(name, spec)
    on_demand = HeckeAlgebra(sysm, wt)
    w0 = sysm.longest_id()
    first = on_demand.h_row(w0, w0)
    full = HeckeAlgebra(sysm, wt)
    table = full.full_h_table()
    assert first == table[(w0, w0)]
    assert on_demand.full_h_table() == table
    one = {full.group.zero: 1}
    basis = {w: full.element({w: one}, basis="C") for w in sysm.all_ids()}
    for x, cx in basis.items():
        for y, cy in basis.items():
            assert table[(x, y)] == (cx * cy).vec


@pytest.mark.parametrize(
    "name,spec", [("A3", None), ("B3", B3_LEX), ("I2(8)", I2_8), ("D4", None)],
    ids=["A3", "B3-lex", "I2(8)", "D4"],
)
def test_h_rows_past_the_diagonal_are_mirror_rows(name, spec):
    """h_{x,y,z} = h_{y^-1,x^-1,z^-1}, and a row with x > y^-1 holds the very
    coefficient dicts of its mirror row.  The C_s rows of the few pairs
    (s, y) with y = 1 or a generator below s may come from the KL walk
    first, so for x a generator only the values are pinned."""
    sysm = system(name)
    inv = sysm.inverse
    table = HeckeAlgebra(sysm, weights(name, spec)).full_h_table()
    assert len(table) == len(sysm.all_ids()) ** 2
    mirrored = 0
    for (x, y), row in table.items():
        if x <= inv(y):
            continue
        mirror = table[(inv(y), inv(x))]
        assert row == {inv(z): p for z, p in mirror.items()}
        if sysm.length(x) > 1:
            assert all(p is mirror[inv(z)] for z, p in row.items())
            mirrored += 1
    assert mirrored > len(table) // 3


@pytest.mark.parametrize("name", ["A4", "H3"])
def test_mirror_rows_match_standard_basis_products(name):
    """Rows with x > y^-1, asked for on demand, against C_x * C_y multiplied
    in the T basis and rewritten by to_kl."""
    sysm = system(name)
    inv = sysm.inverse
    alg = HeckeAlgebra(sysm, weights(name))
    ids = sysm.all_ids()
    rng = random.Random(name)
    pairs = set()
    while len(pairs) < 25:
        x, y = rng.choice(ids), rng.choice(ids)
        if x > inv(y):
            pairs.add((x, y))
    one = {alg.group.zero: 1}
    for x, y in sorted(pairs):
        product = alg.element({x: one}, basis="C") * alg.element({y: one}, basis="C")
        assert alg.h_row(x, y) == product.vec


def test_structure_constants_public_api():
    alg = algebra("I2(3)")
    sysm = alg.system
    consts = alg.structure_constants(sysm.from_word(["t"]), sysm.from_word(["s"]))
    (z, coeff), = consts.items()
    assert z.render() == "t.s" and coeff.render() == "1*v^(0)"


def test_kl_table_view():
    alg = algebra("I2(3)")
    sysm = alg.system
    table = alg.kl_table
    st = sysm.from_word(["s", "t"])
    assert table.pstar(sysm.identity, st).render() == "1*v^(-2)"
    assert table.pstar(st, st).render() == "1*v^(0)"
    t, s = sysm.from_word(["t"]), sysm.from_word(["s"])
    assert table.h(t, s, sysm.from_word(["t", "s"])).render() == "1*v^(0)"
    assert not table.h(t, s, sysm.identity)


def test_hecke_element_support_view():
    alg = algebra("I2(3)")
    sysm = alg.system
    cst = alg.kl_element(sysm.from_word(["s", "t"]))
    support = {w.render(): c.render() for w, c in cst.support.items()}
    assert support == {
        "": "1*v^(-2)", "s": "1*v^(-1)", "t": "1*v^(-1)", "s.t": "1*v^(0)",
    }
    assert cst.coefficient(sysm.identity).render() == "1*v^(-2)"


def test_hecke_element_api():
    alg = algebra("I2(3)")
    sysm = alg.system
    cs = alg.kl_element(sysm.from_word(["s"]))
    assert cs.basis == "T"
    assert cs.bar() == cs
    ct = alg.kl_element(sysm.from_word(["t"]))
    prod = (cs.to_kl() * ct.to_kl())
    assert prod.basis == "C"
    st = sysm.from_word(["s", "t"])
    assert prod == alg.element({st: {(0,): 1}}, basis="C")
    back = prod.to_standard()
    assert back == alg.kl_element(st)
    assert (cs + cs) - cs == cs


def test_element_drops_zero_coefficients():
    alg = algebra("A2")
    zero = alg.element({1: {(0,): 0}})
    assert not zero and zero == alg.element({})
    assert repr(zero) == "<H 0>"
    assert alg.element({1: {0: 0, (1,): 2}, 2: GroupAlgebraElement(alg.group, {})}).vec == {1: {1: 2}}
    # coefficients of one id that cancel leave no entry behind
    assert not alg.element({1: {(1,): 1}, alg.system.element(1): {(1,): -1}})


def test_element_rejects_exponents_of_the_wrong_rank():
    alg = algebra("A2")
    with pytest.raises(ValueError, match="expected 1 components"):
        alg.element({1: {(0, 1): 1}})
    with pytest.raises(ValueError, match="different exponent group"):
        alg.element({1: GroupAlgebraElement(OrderedAbelianGroup(2), {(0, 1): 1})})
    lex = algebra("B3", B3_LEX)
    with pytest.raises(ValueError, match="rank-1"):
        lex.element({1: {1: 1}})
    with pytest.raises(ValueError, match="expected 2 components"):
        lex.element({1: {(1,): 1}})
    assert lex.element({1: {(1, -2): 3}}).coefficient(1).terms == {(1, -2): 3}


def test_acc_mul_drops_cancelled_ids():
    vec = {}
    _acc_mul(vec, 3, {1: 1}, {0: 2, -1: 1})
    assert vec == {3: {1: 2, 0: 1}}
    _acc_mul(vec, 3, {1: 1}, {0: 2}, -1)
    assert vec == {3: {0: 1}}
    _acc_mul(vec, 3, {0: 1}, {0: 1}, -1)
    assert vec == {}
    _acc_mul(vec, 5, {1: 0}, {0: 1})
    assert vec == {}


@pytest.mark.parametrize("name,spec", [("A3", None), ("B3", B3_WEIGHTS), ("B3", B3_LEX)])
def test_vectors_hold_no_empty_coefficient(name, spec):
    """Every vector the products build, T-basis or C-basis, drops an id whose
    coefficient cancels."""
    sysm = system(name)
    alg = HeckeAlgebra(sysm, weights(name, spec))
    one = {alg.zero_exp: 1}
    ids = sysm.all_ids()
    w0 = sysm.longest_id()
    vectors = [alg.kl_vec(w) for w in ids]
    vectors += [alg.bar_vec(alg.kl_vec(w)) for w in ids]
    vectors += [alg.to_kl(alg.t_mul(alg.kl_vec(w), alg.kl_vec(w0))) for w in ids]
    vectors += list(alg.full_h_table().values())
    for g in cactus_presentation(sysm).generators:
        pdata = sysm.parabolic(g)
        vectors += list(alg.mixed_basis_table(pdata).rows.values())
        word = sysm.word(pdata.longest)
        for y in ids:
            for side in ("left", "right"):
                vectors.append(alg.t_word_kl(side, word, {y: one}))
    assert all(all(p and 0 not in p.values() for p in vec.values()) for vec in vectors)


# -- the coefficient pool ----------------------------------------------------------------


@pytest.mark.parametrize(
    "flag,spec", [("t=2,s1=1,s2=1", B3_WEIGHTS), ("t=1:-1,s1=1:0,s2=1:0", B3_LEX)]
)
def test_pooled_coefficients_stay_intact_and_shared(flag, spec, monkeypatch, capsys):
    """After every command has run on one algebra, each pooled coefficient
    still equals its key, so no accumulator wrote into a shared dict; every
    stored C_w and C_s or h row holds pooled dicts only; and the C_w of the
    whole group hold one object per distinct polynomial."""
    monkeypatch.setattr("cactuscells.hecke._registry", {})  # a fresh algebra for this test
    commands = [["cells"], ["afunction"], ["conjectures"], ["klbasis", "--with-h"], ["cactus", "verify"]]
    commands += [
        ["cellmaps", "--parabolic", labels, "--side", side]
        for labels in ("s1", "s1,s2")
        for side in ("left", "right")
    ]
    codes = [main(command + ["--type", "B3", "--weights", flag]) for command in commands]
    capsys.readouterr()
    alg = algebra("B3", spec)
    assert all(dict(key) == p for key, p in alg._pool.items())
    assert codes == [0] * len(commands)
    assert alg._h_complete  # the algebra the commands ran on
    pooled = {id(p) for p in alg._pool.values()}
    ids = alg.system.all_ids()
    stored = [alg.kl_vec(w) for w in ids] + list(alg._h.values())
    assert all(id(p) in pooled for vec in stored for p in vec.values())
    coeffs = [p for w in ids for p in alg.kl_vec(w).values()]
    assert len({id(p) for p in coeffs}) == len({frozenset(p.items()) for p in coeffs})


def test_streamed_commands_store_no_h_row(monkeypatch, capsys):
    """afunction, conjectures, cactus verify and cellmaps read a, gamma and the
    P-checks from streamed columns: afterwards every algebra they used, W's
    and W_I's, holds only C_s rows in its h memo, and no full table."""
    registry: dict = {}
    monkeypatch.setattr("cactuscells.hecke._registry", registry)
    commands = [["afunction"], ["conjectures"], ["cactus", "verify"], ["cellmaps", "--parabolic", "s1,s2"]]
    flags = ["--type", "B3", "--weights", "t=2,s1=1,s2=1"]
    assert [main(command + flags) for command in commands] == [0] * len(commands)
    capsys.readouterr()
    assert len(registry) > 1
    for alg in registry.values():
        gens = set(alg._gen_ids)
        assert alg._h and all(x in gens for x, _ in alg._h)
        assert not alg._h_complete


def test_mixed_tables_are_built_per_call_and_not_kept():
    """The sign identity builds its table, reads it and drops it; two builds
    for one parabolic agree, and their rows hold pooled coefficients."""
    alg = HeckeAlgebra(system("B3"), weights("B3", B3_WEIGHTS))
    pinv = parabolic_involutions(alg, ("t", "s1"))
    assert verify_mixed_basis_sign_identity(pinv).holds
    assert not any(isinstance(v, MixedBasisTable) for v in alg._memo.values())
    first = alg.mixed_basis_table(pinv.pdata)
    second = alg.mixed_basis_table(pinv.pdata)
    assert first is not second and first.rows == second.rows
    coeffs = [p for row in first.rows.values() for p in row.values()]
    assert all(alg._pool[frozenset(p.items())] is p for p in coeffs)
