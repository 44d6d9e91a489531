"""Cell partitions and preorders, the a-function, Duflo data, P-checks."""

import pytest

from cactuscells import laurent
from cactuscells.cells import CheckReport, cell_module_constants, verify_conjectures

from support import (
    UNEQ,
    UNEQ_REV,
    B3_LEX,
    B3_WEIGHTS,
    a_table,
    algebra,
    cells,
    elem,
    s_i,
    system,
    t_i,
)


def _names(sysm, group) -> set:
    return frozenset(sysm.element(w).render() for w in group)


def _cells_as_names(part, sysm) -> set:
    return {_names(sysm, c) for c in part.cells}


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_equal_dihedral_cells(m):
    name = "I2(%d)" % m
    sysm = system(name)
    dec = cells(name)
    gamma_s = frozenset(s_i(name, i).render() for i in range(1, m))
    gamma_t = frozenset(t_i(name, i).render() for i in range(1, m))
    w0 = sysm.longest_element().render()
    assert _cells_as_names(dec.left, sysm) == {
        frozenset({""}), gamma_s, gamma_t, frozenset({w0})
    }
    assert _cells_as_names(dec.two_sided, sysm) == {
        frozenset({""}), gamma_s | gamma_t, frozenset({w0})
    }


@pytest.mark.parametrize("m", [4, 6, 8])
def test_unequal_dihedral_cells(m):
    name = "I2(%d)" % m
    sysm = system(name)
    dec = cells(name, UNEQ)
    gamma_s_lt = frozenset(s_i(name, i).render() for i in range(2, m))
    gamma_t_lt = frozenset(t_i(name, i).render() for i in range(1, m - 1))
    w0 = sysm.longest_element()
    w0s = w0 * elem(name, ["s"])
    assert _cells_as_names(dec.left, sysm) == {
        frozenset({""}), frozenset({"s"}), gamma_s_lt, gamma_t_lt,
        frozenset({w0s.render()}), frozenset({w0.render()}),
    }
    assert _cells_as_names(dec.two_sided, sysm) == {
        frozenset({""}), frozenset({"s"}), gamma_s_lt | gamma_t_lt,
        frozenset({w0s.render()}), frozenset({w0.render()}),
    }


def test_unequal_dihedral_cells_rank2_weights():
    # generic two-parameter weights, ordered lexicographically: phi(s) < phi(t)
    name = "I2(4)"
    sysm = system(name)
    dec = cells(name, (("s", (0, 1)), ("t", (1, 0))))
    ref = cells(name, UNEQ)
    assert _cells_as_names(dec.left, sysm) == _cells_as_names(ref.left, sysm)
    assert _cells_as_names(dec.two_sided, sysm) == _cells_as_names(ref.two_sided, sysm)


def test_a1_cells():
    dec = cells("A1")
    sysm = system("A1")
    assert _cells_as_names(dec.left, sysm) == {frozenset({""}), frozenset({"s"})}


@pytest.mark.parametrize(
    "name,left_count,two_sided_count",
    [("A2", 4, 3), ("A3", 10, 5), ("A4", 26, 7)],
)
def test_symmetric_group_cell_counts(name, left_count, two_sided_count):
    # classical: left cells of S_n with equal parameters are indexed by
    # standard tableaux (so their number is the number of involutions) and
    # two-sided cells by partitions of n
    dec = cells(name)
    assert len(dec.left.cells) == left_count
    assert len(dec.right.cells) == left_count
    assert len(dec.two_sided.cells) == two_sided_count


@pytest.mark.parametrize("name,spec", [("I2(5)", None), ("I2(6)", UNEQ), ("A3", None), ("B3", B3_WEIGHTS)])
def test_cell_duality_and_unions(name, spec):
    sysm = system(name)
    dec = cells(name, spec)
    inv = sysm.inverse
    # the inverse of each left cell is a right cell, and the preorders mirror
    right_cells = set(dec.right.cells)
    for c in dec.left.cells:
        assert frozenset(inv(w) for w in c) in right_cells
    for x in sysm.all_ids():
        for y in sysm.all_ids():
            assert dec.left.leq(x, y) == dec.right.leq(inv(x), inv(y))
    # two-sided cells are unions of left cells and of right cells
    for part in (dec.left, dec.right):
        for c in part.cells:
            ts = {dec.two_sided.cell_of[w] for w in c}
            assert len(ts) == 1


@pytest.mark.parametrize("name,spec", [("I2(5)", None), ("I2(4)", UNEQ), ("B3", B3_WEIGHTS)])
def test_descent_sets_constant_on_cells(name, spec):
    sysm = system(name)
    dec = cells(name, spec)
    for c in dec.right.cells:
        assert len({sysm.left_descents(w) for w in c}) == 1
    for c in dec.left.cells:
        assert len({sysm.right_descents(w) for w in c}) == 1


def test_a_function_dihedral_values():
    table = a_table("I2(3)")
    sysm = system("I2(3)")
    assert table.a[0] == 0
    assert table.a[elem("I2(3)", ["s"]).index] == 1
    assert table.a[sysm.longest_id()] == 3


def test_a_constant_on_two_sided_cells():
    for name, spec in (("I2(5)", None), ("I2(6)", UNEQ), ("A3", None), ("B3", B3_WEIGHTS)):
        table = a_table(name, spec)
        for c in table.cells.two_sided.cells:
            assert len({table.a[w] for w in c}) == 1


def test_alpha_vanishes_on_middle_cell_equal_dihedral():
    for m in (3, 4, 5, 6):
        name = "I2(%d)" % m
        table = a_table(name)
        sysm = system(name)
        zero = 0
        for w in sysm.all_ids():
            if w != 0 and w != sysm.longest_id():
                assert table.alpha[w] == zero


def test_duflo_sets_dihedral():
    # equal: D intersects Gamma_s in {s} and Gamma_t in {t}
    for m in (3, 4, 5):
        name = "I2(%d)" % m
        table = a_table(name)
        gamma_s = {s_i(name, i).index for i in range(1, m)}
        gamma_t = {t_i(name, i).index for i in range(1, m)}
        assert table.duflo & gamma_s == {elem(name, ["s"]).index}
        assert table.duflo & gamma_t == {elem(name, ["t"]).index}
        assert 0 in table.duflo
    # unequal: D meets Gamma_s^< in {s_3} and Gamma_t^< in {t}
    for m in (4, 6):
        name = "I2(%d)" % m
        table = a_table(name, UNEQ)
        gamma_s_lt = {s_i(name, i).index for i in range(2, m)}
        gamma_t_lt = {t_i(name, i).index for i in range(1, m - 1)}
        assert table.duflo & gamma_s_lt == {s_i(name, 3).index}
        assert table.duflo & gamma_t_lt == {t_i(name, 1).index}


@pytest.mark.parametrize("name,spec", [("I2(5)", None), ("I2(4)", UNEQ), ("A3", None), ("B3", B3_WEIGHTS)])
def test_dmap_fibers_are_left_cells(name, spec):
    table = a_table(name, spec)
    assert 0 in table.duflo  # the identity is always a Duflo element
    assert table.dmap_report.holds and table.dmap is not None
    for c in table.cells.left.cells:
        images = {table.dmap[w] for w in c}
        assert len(images) == 1 and images <= set(c)


@pytest.mark.parametrize(
    "name,spec",
    [("I2(3)", None), ("I2(4)", None), ("I2(7)", None), ("I2(4)", UNEQ),
     ("I2(6)", UNEQ), ("I2(4)", UNEQ_REV), ("A2", None), ("A3", None),
     ("B2", None), ("B3", B3_WEIGHTS)],
)
def test_conjectures_hold(name, spec):
    reports = verify_conjectures(a_table(name, spec))
    assert all(r.holds for r in reports.values()), {
        k: r.witnesses for k, r in reports.items() if not r.holds
    }


def _brute_force_partition(alg, side):
    """Cells from multiplications by *all* elements, closure by reachability."""
    sysm = alg.system
    ids = sysm.all_ids()
    adj = {y: set() for y in ids}
    for x in ids:
        for y in ids:
            row = alg.h_row(x, y) if side == "left" else alg.h_row(y, x)
            target = y if side == "left" else y
            for z, p in row.items():
                if p:
                    adj[target].add(z)
    reach = {}
    for y in ids:
        seen = {y}
        stack = [y]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        reach[y] = seen
    return reach


@pytest.mark.parametrize("name", ["I2(3)", "I2(4)", "I2(5)", "A2"])
def test_generator_multiplications_generate_the_preorder(name):
    alg = algebra(name)
    dec = cells(name)
    sysm = alg.system
    for side, part in (("left", dec.left), ("right", dec.right)):
        reach = _brute_force_partition(alg, side)
        for y in sysm.all_ids():
            for z in sysm.all_ids():
                assert (z in reach[y]) == part.leq(z, y)


def _cs_row_reach(alg, sides):
    """Reflexive-transitive closure, by BFS, of the edges y -> z for z in a
    C_s row of y on any of the given sides."""
    sysm = alg.system
    reach = {}
    for y in sysm.all_ids():
        seen = {y}
        frontier = [y]
        while frontier:
            nxt = []
            for v in frontier:
                for side in sides:
                    for s in range(sysm.rank):
                        for z in alg.cs_row(side, s, v):
                            if z not in seen:
                                seen.add(z)
                                nxt.append(z)
            frontier = nxt
        reach[y] = seen
    return reach


@pytest.mark.parametrize(
    "name,spec",
    [("A3", None), ("B3", B3_WEIGHTS), ("B3", B3_LEX), ("H3", None), ("D4", None)],
    ids=["A3", "B3-t2", "B3-lex", "H3", "D4"],
)
def test_preorders_are_cs_row_reachability(name, spec):
    alg = algebra(name, spec)
    dec = cells(name, spec)
    ids = alg.system.all_ids()
    for part, sides in (
        (dec.left, ("left",)),
        (dec.right, ("right",)),
        (dec.two_sided, ("left", "right")),
    ):
        reach = _cs_row_reach(alg, sides)
        for y in ids:
            assert {z for z in ids if part.leq(z, y)} == reach[y], (part.side, y)


def test_check_report_of():
    assert CheckReport.of("empty", []) == CheckReport("empty", True, ())
    wit = ["w%02d" % i for i in reversed(range(25))]
    report = CheckReport.of("many", wit)
    assert not report.holds
    assert report.witnesses == tuple(wit[:10])
    assert CheckReport.of("lazy", iter(wit)).witnesses == report.witnesses
    few = CheckReport.of("few", ("b", "a"))
    assert not few and few.witnesses == ("b", "a")


@pytest.mark.parametrize(
    "name,spec",
    [("A3", None), ("H3", None), ("D4", None), ("B3", B3_WEIGHTS), ("B3", B3_LEX),
     ("I2(8)", (("s", 2), ("t", 3)))],
    ids=["A3", "H3", "D4", "B3-t2", "B3-lex", "I2(8)"],
)
def test_a_function_is_the_top_degree_over_the_whole_h_table(name, spec):
    """The a-table, read from the rows with x <= y^-1, against the plain
    maximum over every row."""
    alg = algebra(name, spec)
    top = {}
    for row in alg.full_h_table().values():
        for z, p in row.items():
            d = laurent.deg(p)
            top[z] = max(top.get(z, d), d)
    assert a_table(name, spec).a == tuple(top[z] for z in alg.system.all_ids())


def test_cell_module_constants_examples():
    name = "I2(5)"
    alg = algebra(name)
    dec = cells(name)
    sysm = alg.system
    # rank-1 module of the identity cell
    ident_cell = dec.left.cell_of[0]
    consts = cell_module_constants(alg, dec, ident_cell, "left")
    assert all(w == 0 and u == 0 for (_s, w, u) in consts)
    # the generator acts by v + v^{-1} on c_w exactly when it is a left descent
    xi = {1: 1, -1: 1}
    for w in sysm.all_ids():
        for sname in ("s", "t"):
            s = sysm.index_of[sname]
            if s in sysm.left_descents(w):
                assert alg.cs_left_row(s, w) == {w: xi}
    # constants restricted to a cell agree with the h-table
    gamma_s = dec.left.cell_of[elem(name, ["s"]).index]
    consts = cell_module_constants(alg, dec, gamma_s, "left")
    assert consts
    for (s, w, u), p in consts.items():
        assert alg.kl_table.h(alg.gen_id(s), w, u) == p


def test_cell_module_constants_keep_tuple_exponents():
    """At rank 2 the constants are GroupAlgebraElements whose exponents are
    weight tuples, on both sides."""
    alg = algebra("B3", B3_LEX)
    dec = cells("B3", B3_LEX)
    sysm = alg.system
    weight = {s: alg.weights.of(s) for s in range(sysm.rank)}
    for side, descents in (("left", sysm.left_descents), ("right", sysm.right_descents)):
        part = dec.partition(side)
        for cell in range(len(part.cells)):
            consts = cell_module_constants(alg, dec, cell, side)
            for (s, w, u), p in consts.items():
                x, y = (alg.gen_id(s), w) if side == "left" else (w, alg.gen_id(s))
                assert p == alg.kl_table.h(x, y, u)
                assert all(len(e) == 2 for e in p.terms)
            for w in part.members(cell):
                for s in descents(w):
                    e = weight[s]
                    assert consts[(s, w, w)].terms == {e: 1, tuple(-c for c in e): 1}


def test_gamma_values_dihedral():
    table = a_table("I2(3)")
    sysm = system("I2(3)")
    s = elem("I2(3)", ["s"]).index
    t = elem("I2(3)", ["t"]).index
    ts = elem("I2(3)", ["t", "s"]).index
    # C_t C_s = C_{ts}: h_{t,s,ts} = 1 sits in degree 0 = a(ts^{-1})? no --
    # gamma(t, s, st) is the top coefficient of h_{t,s,ts}; a(ts) = 1 so it vanishes
    st = elem("I2(3)", ["s", "t"]).index
    assert table.gamma(t, s, st) == 0
    # C_s C_s = (v + 1/v) C_s: top coefficient at a(s) = 1 is 1
    assert table.gamma(s, s, s) == 1
