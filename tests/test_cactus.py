"""Cactus group presentation, relations on the realized permutations, orbits."""

import pytest

from cactuscells import get_system
from cactuscells.cactus import CactusAction, cactus_presentation, parse_word, render_word
from cactuscells.hecke import algebra_for
from cactuscells import WeightFunction

from support import UNEQ, B3_WEIGHTS, algebra, elem, s_i, system, t_i


def action(name, spec=None):
    return CactusAction(algebra(name, spec))


def test_presentation_dihedral():
    pres = cactus_presentation(system("I2(5)"))
    assert pres.generators == (("s",), ("t",), ("s", "t"))
    assert pres.commuting == ()
    assert {(i, o) for i, o, _img in pres.nested} == {(("s",), ("s", "t")), (("t",), ("s", "t"))}
    # odd m: omega of the full dihedral swaps the generators
    images = {i: img for i, _o, img in pres.nested}
    assert images[("s",)] == ("t",)


def test_presentation_a1xa1():
    pres = cactus_presentation(system("I2(2)"))
    assert pres.generators == (("s",), ("t",))
    assert pres.commuting == ((("s",), ("t",)),)
    assert pres.nested == ()


def test_presentation_b3():
    pres = cactus_presentation(system("B3"))
    assert pres.generators == (
        ("t",), ("s1",), ("s2",), ("t", "s1"), ("s1", "s2"), ("t", "s1", "s2"),
    )
    assert ("t", "s2") not in pres.generators  # disconnected subset
    assert pres.commuting == ((("t",), ("s2",)),)


def test_presentation_infinite_subsets_excluded():
    inf = get_system(((1, 0), (0, 1)), ("s", "t"))
    pres = cactus_presentation(inf)
    assert pres.generators == (("s",), ("t",))
    # (s, t) is connected but infinite, (s, u) finite but disconnected, and
    # the triple is infinite
    rank3 = get_system(((1, 0, 2), (0, 1, 3), (2, 3, 1)), ("s", "t", "u"))
    pres = cactus_presentation(rank3)
    assert pres.generators == (("s",), ("t",), ("u",), ("t", "u"))
    assert pres.commuting == ((("s",), ("u",)),)
    assert pres.nested == (
        (("t",), ("t", "u"), ("u",)),
        (("u",), ("t", "u"), ("t",)),
    )


@pytest.mark.parametrize(
    "name,spec",
    [("I2(%d)" % m, None) for m in range(3, 9)]
    + [("I2(%d)" % m, UNEQ) for m in (4, 6, 8)]
    + [("A3", None), ("B3", B3_WEIGHTS)],
)
def test_all_relations_hold(name, spec):
    act = action(name, spec)
    assert act.hypotheses_hold()
    checks = act.verify_relations()
    bad = [c for c in checks if not c.holds]
    assert not bad, [(c.kind, c.family, c.subsets, c.report.witnesses) for c in bad]


def test_act_examples():
    act = action("I2(5)")
    sysm = system("I2(5)")
    s = elem("I2(5)", ["s"]).index
    assert act.act((), "left", s) == s
    word = parse_word("s,t|s,t")
    for w in sysm.all_ids():
        assert act.act(word, "left", w) == w  # each generator is an involution
    # odd m: tau_{s,t} on the left sends s_i to t_{m-i}
    for i in range(1, 5):
        img = act.act(parse_word("s,t"), "left", s_i("I2(5)", i).index)
        assert img == t_i("I2(5)", 5 - i).index
    act6 = action("I2(6)")
    for i in range(1, 6):
        img = act6.act(parse_word("s,t"), "left", s_i("I2(6)", i).index)
        assert img == s_i("I2(6)", 6 - i).index


def test_act_respects_defining_relations_on_words():
    act = action("B3", B3_WEIGHTS)
    sysm = system("B3")
    for inner, outer, image in act.presentation.nested:
        w1 = (inner, outer)
        w2 = (outer, image)
        for w in sysm.all_ids():
            assert act.act(w1, "left", w) == act.act(w2, "left", w)
            assert act.act(w1, "right", w) == act.act(w2, "right", w)
    for ga, gb in act.presentation.commuting:
        for w in sysm.all_ids():
            assert act.act((ga, gb), "left", w) == act.act((gb, ga), "left", w)


def test_left_and_right_actions_commute_elementwise():
    act = action("A3")
    sysm = system("A3")
    u = parse_word("s1,s2|s2")
    v = parse_word("s1,s2,s3|s1")
    for w in sysm.all_ids():
        assert act.act(u, "left", act.act(v, "right", w)) == act.act(
            v, "right", act.act(u, "left", w)
        )


def test_orbit_fixed_points_and_refinement():
    act = action("I2(5)")
    sysm = system("I2(5)")
    orbits = act.orbits("left")
    w0 = sysm.longest_id()
    assert frozenset({0}) in orbits
    assert frozenset({w0}) in orbits
    # orbits of the left family consist of elements sharing the left descent set
    for orbit in orbits:
        assert len({sysm.left_descents(w) for w in orbit}) == 1
    # odd m: the swap glues the two middle left cells into common orbits
    from support import cells

    dec = cells("I2(5)")
    middle = [c for c in dec.left.cells if len(c) > 1]
    for orbit in orbits:
        if len(orbit) > 1:
            assert all(orbit & c for c in middle)


def test_left_family_permutes_left_cells():
    from support import cells

    for name, spec in (("A3", None), ("B3", B3_WEIGHTS)):
        act = action(name, spec)
        dec = cells(name, spec)
        cell_sets = set(dec.left.cells)
        for g in act.presentation.generators:
            perm = act.pair(g, "left").delta
            for c in dec.left.cells:
                assert frozenset(perm[w] for w in c) in cell_sets


def test_orbit_structure_depends_on_weights():
    equal = action("I2(4)").orbits("left")
    unequal = action("I2(4)", UNEQ).orbits("left")
    assert sorted(map(len, equal)) != sorted(map(len, unequal))
    # with phi(s) < phi(t) every involution in the family is the identity map
    assert all(len(o) == 1 for o in unequal)


def test_projection():
    act = action("I2(3)")
    sysm = system("I2(3)")
    assert act.project(parse_word("s")) == elem("I2(3)", ["s"]).index
    assert act.project(parse_word("s,t|s,t")) == 0
    assert act.project(parse_word("s,t")) == sysm.longest_id()


def test_act_with_sign_composition():
    act = action("I2(3)")
    sysm = system("I2(3)")
    s = elem("I2(3)", ["s"]).index
    img, sign = act.act_with_sign((), "left", s)
    assert (img, sign) == (s, 1)
    img, sign = act.act_with_sign(parse_word("s,t"), "left", s)
    assert img == t_i("I2(3)", 2).index and sign == -1
    # composing tau tau multiplies the signs along the orbit
    img2, sign2 = act.act_with_sign(parse_word("s,t|s,t"), "left", s)
    assert img2 == s and sign2 == 1


def test_word_parsing_round_trip():
    word = parse_word(" s,t | s ")
    assert word == (("s", "t"), ("s",))
    assert render_word(word) == "s,t|s"
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_word("s,|")


def test_action_requires_finite_group():
    inf = get_system(((1, 0), (0, 1)), ("s", "t"))
    wt = WeightFunction.constant(inf)
    with pytest.raises(ValueError):
        CactusAction(algebra_for(inf, wt))


def test_unknown_generator_rejected():
    act = action("A3")
    with pytest.raises(ValueError):
        act.pair(("s1", "s3"), "left")  # disconnected
