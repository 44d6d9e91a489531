"""Coxeter systems: enumeration, canonical forms, Bruhat order, parabolics."""

import re
from itertools import combinations

import pytest

from cactuscells import (
    CoxeterSystem,
    WeightFunction,
    diagram_automorphisms,
    get_system,
    named_system,
    system_from_config,
)
from cactuscells.coxeter import apply_index_map, equivalence_classes

from support import elem, system


@pytest.mark.parametrize(
    "name,order",
    [("A1", 2), ("I2(2)", 4), ("I2(3)", 6), ("I2(6)", 12), ("A2", 6), ("A3", 24),
     ("A4", 120), ("B2", 8), ("B3", 48), ("B4", 384), ("D4", 192), ("H3", 120),
     ("A5", 720), ("B5", 3840), ("D5", 1920), ("F4", 1152), ("G2", 12)],
)
def test_enumeration_matches_classification(name, order):
    sysm = system(name)
    assert sysm.is_finite and sysm.order == order
    assert len(sysm.enumerate()) == order


def test_infinite_types_detected():
    # infinite bond, affine A~2 (triangle), affine C~2 (4-4 chain)
    assert not get_system(((1, 0), (0, 1)), ("s", "t")).is_finite
    tri = ((1, 3, 3), (3, 1, 3), (3, 3, 1))
    assert not get_system(tri, ("a", "b", "c")).is_finite
    c2aff = ((1, 4, 2), (4, 1, 4), (2, 4, 1))
    assert not get_system(c2aff, ("a", "b", "c")).is_finite


def test_enumerate_infinite_needs_bound():
    inf = get_system(((1, 0), (0, 1)), ("s", "t"))
    with pytest.raises(ValueError):
        inf.enumerate()
    els = inf.enumerate(5)
    assert len(els) == 11  # 1 + 2 per positive length
    assert [e.length for e in els] == sorted(e.length for e in els)


def _left_mult_table_agrees(sysm, ids):
    """left_mult_gen, asked for first on a fresh system (so half the entries
    come from their mirror's fill), against (w^-1 s)^-1 and the word s.w."""
    table = {(s, w): sysm.left_mult_gen(s, w) for w in ids for s in range(sysm.rank)}
    for (s, w), sw in table.items():
        assert sw == sysm.inverse(sysm.mult_gen(sysm.inverse(w), s))
        assert sw == sysm.id_of_word((s,) + sysm.word(w))
        assert sysm.left_mult_gen(s, sw) == w


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(5)"])
def test_left_multiplication_table(name):
    sysm = CoxeterSystem(system(name).matrix, system(name).labels)
    _left_mult_table_agrees(sysm, sysm.all_ids())


def test_left_multiplication_table_on_an_infinite_group():
    """Affine A~2 grown lazily: every element up to length 6 is reached by
    mult_gen before any all_ids call, and the table grows with the group."""
    sysm = CoxeterSystem(((1, 3, 3), (3, 1, 3), (3, 3, 1)), ("a", "b", "c"))
    ids, layer = [0], [0]
    for _ in range(6):
        layer = sorted({sysm.mult_gen(w, s) for w in layer for s in range(3)} - set(ids))
        ids += layer
    _left_mult_table_agrees(sysm, ids)
    assert sorted(ids) == sysm.all_ids(6)


def test_enumeration_order_i23():
    els = [e.render() for e in system("I2(3)").enumerate()]
    assert els == ["", "s", "t", "s.t", "t.s", "s.t.s"]


def test_concurrent_bruhat_queries_are_consistent():
    import threading

    from cactuscells.coxeter import CoxeterSystem

    sysm = CoxeterSystem(((1, 4, 2), (4, 1, 3), (2, 3, 1)), ("t", "s1", "s2"))
    ids = sysm.all_ids()
    pairs = [(x, y) for x in ids for y in ids]
    serial = {p: system("B3").bruhat_leq(*p) for p in pairs}
    results = {}

    def worker(chunk):
        for p in chunk:
            results[p] = sysm.bruhat_leq(*p)

    threads = [
        threading.Thread(target=worker, args=(pairs[i::8],)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == serial


def test_multiplication_examples():
    s = elem("I2(3)", ["s"])
    assert (s * s).index == 0
    st = elem("I2(3)", ["s", "t"])
    assert (st * st) == elem("I2(3)", ["t", "s"])
    w = elem("I2(3)", ["t", "s"])
    assert w * system("I2(3)").identity == w


def test_canonical_words_are_shortlex():
    # tst = sts in I2(3); canonical word must start with s
    w = elem("I2(3)", ["t", "s", "t"])
    assert w.render() == "s.t.s"
    # ids are sorted by (length, word)
    sysm = system("B3")
    words = [sysm.word(i) for i in sysm.all_ids()]
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_descents_examples():
    sysm = system("I2(5)")
    assert sysm.identity.descents("left") == frozenset()
    w0 = sysm.longest_element()
    assert w0.descents("left") == {"s", "t"} == w0.descents("right")
    ts = elem("I2(5)", ["t", "s"])
    assert ts.descents("right") == {"s"}
    assert ts.descents("left") == {"t"}


def test_length_identities():
    for name in ("I2(3)", "I2(4)", "I2(7)", "A3", "B3"):
        sysm = system(name)
        w0 = sysm.longest_id()
        n = sysm.length(w0)
        for w in sysm.all_ids():
            assert sysm.length(sysm.inverse(w)) == sysm.length(w)
            assert sysm.length(sysm.multiply(w, w0)) == n - sysm.length(w)


def _bruhat_brute(sysm, x, y):
    """Subword test on the canonical word of y."""
    word = sysm.word(y)
    targets = {x}
    for k in range(len(word) + 1):
        for positions in combinations(range(len(word)), k):
            sub = tuple(word[i] for i in positions)
            if sysm.id_of_word(sub) == x and len(sub) == sysm.length(x):
                return True
    return False


@pytest.mark.parametrize("name", ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "A3"])
def test_bruhat_agrees_with_subword_oracle(name):
    sysm = system(name)
    for x in sysm.all_ids():
        for y in sysm.all_ids():
            assert sysm.bruhat_leq(x, y) == _bruhat_brute(sysm, x, y)


def test_bruhat_examples():
    sysm = system("I2(3)")
    for w in sysm.all_ids():
        assert sysm.bruhat_leq(0, w)
    s, ts, st = elem("I2(3)", ["s"]), elem("I2(3)", ["t", "s"]), elem("I2(3)", ["s", "t"])
    assert s.bruhat_leq(ts)
    assert not elem("I2(3)", ["s", "t", "s"]).bruhat_leq(st)


@pytest.mark.parametrize("name,labels", [("I2(3)", ("s",)), ("B3", ("t", "s1")), ("B3", ("s1", "s2")), ("A3", ("s1", "s3"))])
def test_coset_decomposition(name, labels):
    sysm = system(name)
    pdata = sysm.parabolic(labels)
    idx = set(pdata.indices)
    for w in sysm.all_ids():
        x, u = pdata.decompose_left(w)
        assert sysm.multiply(x, u) == w
        assert sysm.length(x) + sysm.length(u) == sysm.length(w)
        assert u in pdata.parent_to_sub
        assert not (sysm.right_descents(x) & idx)
        xr, ur = pdata.decompose_right(w)
        assert sysm.multiply(ur, sysm.inverse(xr)) == w
        assert sysm.length(ur) + sysm.length(xr) == sysm.length(w)
    # |W| = |X_I| * |W_I|
    assert len(pdata.min_reps) * pdata.subsystem.order == sysm.order


def _peel_left(pdata, w):
    """w = x * u by peeling right descents in I one at a time."""
    sysm = pdata.parent
    peeled = []
    while True:
        ds = sysm.right_descents(w) & set(pdata.indices)
        if not ds:
            return w, sysm.id_of_word(reversed(peeled))
        s = min(ds)
        w = sysm.mult_gen(w, s)
        peeled.append(s)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(6)"])
def test_coset_table(name):
    """left_parts against descent peeling, and left_products as its inverse,
    for every parabolic, () and S included."""
    sysm = system(name)
    for r in range(sysm.rank + 1):
        for labels in combinations(sysm.labels, r):
            pdata = sysm.parabolic(labels)
            reps, members = set(pdata.min_reps), set(pdata.elements)
            assert len(pdata.left_parts) == sysm.order
            for w in sysm.all_ids():
                x, u = pdata.left_parts[w]
                assert sysm.multiply(x, u) == w
                assert x in reps and u in members
                assert (x, u) == _peel_left(pdata, w) == pdata.decompose_left(w)
                assert pdata.left_products[x, u] == w


def test_coset_examples():
    sysm = system("I2(3)")
    pdata = sysm.parabolic(["s"])
    s = elem("I2(3)", ["s"]).index
    assert pdata.decompose_left(s) == (0, s)
    ts = elem("I2(3)", ["t", "s"]).index
    t = elem("I2(3)", ["t"]).index
    assert pdata.decompose_left(ts) == (t, s)
    for u in pdata.elements:
        assert pdata.decompose_left(u) == (0, u)


def test_min_reps_characterization():
    for name, labels in (("A3", ("s1", "s2")), ("B3", ("t", "s1"))):
        sysm = system(name)
        pdata = sysm.parabolic(labels)
        idx = set(pdata.indices)
        expected = {w for w in sysm.all_ids() if not (sysm.right_descents(w) & idx)}
        assert set(pdata.min_reps) == expected


def test_parabolic_rejects_unknown_and_repeated_generators():
    sysm = system("B3")
    with pytest.raises(ValueError, match="^unknown generator 'zz' in parabolic subset$"):
        sysm.parabolic(["zz"])
    with pytest.raises(ValueError, match="^unknown generator 'zz' in parabolic subset$"):
        sysm.parabolic(iter(["t", "zz"]))
    with pytest.raises(ValueError, match="^repeated generators in parabolic subset$"):
        sysm.parabolic(["s1", "s1"])


def test_longest_and_omega():
    i3 = system("I2(3)")
    pd = i3.parabolic(["s", "t"])
    assert i3.element(pd.longest).render() == "s.t.s"
    s, t = i3.from_word(["s"]).index, i3.from_word(["t"]).index
    assert pd.omega(s) == t
    assert pd.omega_labels() == {"s": "t", "t": "s"}

    i4 = system("I2(4)")
    pd4 = i4.parabolic(["s", "t"])
    assert pd4.omega_labels() == {"s": "s", "t": "t"}

    single = system("I2(3)").parabolic(["s"])
    assert single.longest == s
    assert single.omega_labels() == {"s": "s"}


def test_projection_operators():
    sysm = system("B3")
    pdata = sysm.parabolic(["t", "s1"])
    for w in sysm.all_ids():
        assert pdata.project(w, "left") == pdata.decompose_left(w)[1]
        assert pdata.project(w, "right") == pdata.decompose_right(w)[1]
        # pr_R^I(w) = (pr_L^I(w^{-1}))^{-1}
        assert pdata.project(w, "right") == sysm.inverse(pdata.project(sysm.inverse(w), "left"))
    with pytest.raises(ValueError):
        pdata.project(0, "middle")


def test_infinite_parabolic_has_no_longest():
    inf = get_system(((1, 0), (0, 1)), ("s", "t"))
    pdata = inf.parabolic(["s", "t"])
    assert not pdata.is_finite
    with pytest.raises(ValueError):
        pdata.omega(0)
    with pytest.raises(ValueError):
        _ = pdata.elements
    # single-generator parabolics of an infinite group still work
    fin = inf.parabolic(["s"])
    assert fin.is_finite and fin.subsystem.order == 2
    s = inf.from_word(["s"]).index
    t = inf.from_word(["t"]).index
    tst = inf.from_word(["t", "s", "t"]).index
    assert fin.decompose_left(inf.multiply(t, s)) == (t, s)
    assert fin.decompose_left(tst) == (tst, 0)


def test_extend_map_identity_and_constant():
    sysm = system("B3")
    pdata = sysm.parabolic(["s1", "s2"])
    ident = {u: u for u in pdata.elements}
    ext = pdata.extend_left(ident)
    assert all(ext[w] == w for w in sysm.all_ids())
    const = {u: pdata.longest for u in pdata.elements}
    ext = pdata.extend_left(const)
    for w in sysm.all_ids():
        x, _u = pdata.decompose_left(w)
        assert ext[w] == sysm.multiply(x, pdata.longest)


def test_extend_right_via_opposite():
    sysm = system("B3")
    pdata = sysm.parabolic(["t", "s1"])
    # an arbitrary permutation of W_I: conjugation by its longest element
    delta = {u: pdata.omega(u) for u in pdata.elements}
    direct = pdata.extend_right(delta)
    via_op = pdata.extend_left(pdata.opposite_map(delta))
    mirrored = {w: sysm.inverse(via_op[sysm.inverse(w)]) for w in sysm.all_ids()}
    assert direct == mirrored


def test_projection_commutes_with_automorphism():
    # sigma o pr_L^I = pr_L^{sigma(I)} o sigma for every diagram automorphism
    sysm = system("A3")
    auto = [p for p in diagram_automorphisms(sysm) if p != (0, 1, 2)][0]
    pdata = sysm.parabolic(["s1", "s2"])
    image_labels = [sysm.labels[auto[i]] for i in pdata.indices]
    pdata2 = sysm.parabolic(image_labels)
    for w in sysm.all_ids():
        lhs = apply_index_map(sysm, auto, pdata.decompose_left(w)[1])
        rhs = pdata2.decompose_left(apply_index_map(sysm, auto, w))[1]
        assert lhs == rhs


def test_diagram_automorphisms():
    i5 = system("I2(5)")
    autos = diagram_automorphisms(i5, WeightFunction.constant(i5))
    assert autos == [(0, 1), (1, 0)]
    i4 = system("I2(4)")
    uneq4 = WeightFunction.from_mapping(i4, {"s": 1, "t": 2})
    assert diagram_automorphisms(i4, uneq4) == [(0, 1)]
    b3 = system("B3")
    assert diagram_automorphisms(b3) == [(0, 1, 2)]
    h3 = system("H3")
    assert diagram_automorphisms(h3) == [(0, 1, 2)]
    a3 = system("A3")
    assert (2, 1, 0) in diagram_automorphisms(a3, WeightFunction.constant(a3))


def test_equivalence_classes():
    # a chain 1-3-4 given out of order, the singleton 2, a repeated pair 0-5
    pairs = [(4, 3), (3, 1), (5, 0), (0, 5)]
    assert equivalence_classes(6, pairs) == [[0, 5], [1, 3, 4], [2]]
    assert equivalence_classes(3, []) == [[0], [1], [2]]
    # the infinite bond s-t joins the components; s-u (m = 2) does not
    rank3 = get_system(((1, 0, 2), (0, 1, 3), (2, 3, 1)), ("s", "t", "u"))
    assert rank3.components == [((0, 1, 2), None)]
    assert system("I2(2)").components == [((0,), ("A1", 2)), ((1,), ("A1", 2))]
    # classes are ordered by their least member
    a2xa1 = get_system(((1, 2, 3), (2, 1, 2), (3, 2, 1)), ("s", "t", "u"))
    assert a2xa1.components == [((0, 2), ("A2", 6)), ((1,), ("A1", 2))]


def test_weight_validation():
    i3 = system("I2(3)")
    with pytest.raises(ValueError):
        WeightFunction.from_mapping(i3, {"s": 1, "t": 2})  # conjugate in odd m
    with pytest.raises(ValueError):
        WeightFunction.from_mapping(system("I2(4)"), {"s": 0, "t": 1})
    # B3: t not conjugate to s1, s2; s1 ~ s2 must agree
    b3 = system("B3")
    WeightFunction.from_mapping(b3, {"t": 2, "s1": 1, "s2": 1})
    with pytest.raises(ValueError):
        WeightFunction.from_mapping(b3, {"t": 2, "s1": 1, "s2": 3})
    # rank-2 weights, lexicographic positivity
    i4 = system("I2(4)")
    WeightFunction.from_mapping(i4, {"s": (0, 1), "t": (1, 0)})
    with pytest.raises(ValueError):
        WeightFunction.from_mapping(i4, {"s": (0, -1), "t": (1, 0)})
    # every label must name a generator
    with pytest.raises(ValueError, match="unknown generator 'x' in weights"):
        WeightFunction.from_mapping(i4, {"s": 1, "t": 1, "x": 3})


def test_weight_values_are_not_coerced():
    """A weight is an int or a list or tuple of ints: a float, a bool or a
    float inside a list raises ValueError naming the generator."""
    i4 = system("I2(4)")
    for bad in ({"s": [2.7], "t": [1]}, {"s": True, "t": 2}, {"s": 2.0, "t": 1}):
        with pytest.raises(ValueError, match="weight of generator 's' must be"):
            WeightFunction.from_mapping(i4, bad)
    assert WeightFunction.from_mapping(i4, {"s": [2], "t": (1,)}).values == ((2,), (1,))


def test_labels_that_break_the_text_forms_are_rejected():
    """Labels are non-empty and free of whitespace and of the separators of
    element words, cactus words and --weights entries."""
    matrix = ((1, 3), (3, 1))
    for bad in ("", ".", "a.b", "a,b", "a|b", "a=b", "a b", "a\tb"):
        with pytest.raises(ValueError, match=re.escape("generator label %r must be" % bad)):
            CoxeterSystem(matrix, ("s", bad))
    assert CoxeterSystem(matrix, ("s_1", "t'")).labels == ("s_1", "t'")


def test_element_rendering_round_trip():
    sysm = system("B3")
    for w in sysm.all_ids():
        text = sysm.element(w).render()
        assert sysm.parse_element(text).index == w
    assert sysm.parse_element("").index == 0


def test_system_from_config():
    sysm = system_from_config({"type": "I2(5)"})
    assert sysm is named_system("I2(5)")
    sysm2 = system_from_config({"matrix": [[1, 5], [5, 1]], "labels": ["s", "t"]})
    assert sysm2 is sysm
    with pytest.raises(ValueError):
        system_from_config({})


def test_invalid_matrices_rejected():
    with pytest.raises(ValueError):
        get_system(((1, 3), (4, 1)), ("a", "b"))
    with pytest.raises(ValueError):
        get_system(((2, 3), (3, 1)), ("a", "b"))
    with pytest.raises(ValueError):
        get_system(((1, 1), (1, 1)), ("a", "b"))
