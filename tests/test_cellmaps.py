"""Longest-element involutions against the dihedral closed forms, cellularity,
induction, characterization, commutation, signs, equivariance, degree bounds."""

import gc
import weakref
from itertools import combinations

import pytest

from cactuscells import diagram_automorphisms
from cactuscells.cactus import CactusAction, cactus_presentation
from cactuscells.cellmaps import (
    CellularPair,
    ParabolicInvolutions,
    TheoremViolationError,
    degree_bounds_report,
    longest_element_involutions,
    parabolic_involutions,
    verify_cellular_pair,
    verify_characterization,
    verify_commutation,
    verify_descent_invariance,
    verify_mixed_basis_sign_identity,
)
from cactuscells.cells import build_a_table, compute_cells
from cactuscells.coxeter import apply_index_map
from cactuscells.hecke import HeckeAlgebra, algebra_for

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
    weights,
)


def involutions(name, spec=None):
    return longest_element_involutions(algebra(name, spec))


def pinv(name, labels, spec=None):
    return parabolic_involutions(algebra(name, spec), labels)


# -- dihedral closed forms -----------------------------------------------------------


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_equal_dihedral_closed_form(m):
    name = "I2(%d)" % m
    sysm = system(name)
    inv = involutions(name)
    w0 = sysm.longest_id()
    sigma = (1, 0)  # swaps s and t
    assert inv.left_map[0] == inv.right_map[0] == 0
    assert inv.left_map[w0] == inv.right_map[w0] == w0
    for w in sysm.all_ids():
        if w in (0, w0):
            continue
        sw = apply_index_map(sysm, sigma, w)
        assert inv.left_map[w] == sysm.multiply(sw, w0)
        assert inv.right_map[w] == sysm.multiply(w0, sw)
    # index form: rho(s_i) = s_{m-i}; lambda matches rho iff m is even
    for i in range(1, m):
        assert inv.right_map[s_i(name, i).index] == s_i(name, m - i).index
        assert inv.right_map[t_i(name, i).index] == t_i(name, m - i).index
        if m % 2 == 0:
            assert inv.left_map[s_i(name, i).index] == s_i(name, m - i).index
        else:
            assert inv.left_map[s_i(name, i).index] == t_i(name, m - i).index
            assert inv.left_map[t_i(name, i).index] == s_i(name, m - i).index
    # signs per class
    assert inv.sign[0] == (-1) ** m
    assert inv.sign[w0] == 1
    assert all(inv.sign[w] == -1 for w in sysm.all_ids() if w not in (0, w0))


@pytest.mark.parametrize("m", [4, 6, 8])
@pytest.mark.parametrize("spec", [UNEQ, UNEQ_REV])
def test_unequal_dihedral_closed_form(m, spec):
    name = "I2(%d)" % m
    sysm = system(name)
    inv = involutions(name, spec)
    half = m // 2
    w0 = sysm.longest_id()
    # phi(s) < phi(t) fixes {1, s, w0 s, w0}; the mirrored case fixes {1, t, w0 t, w0}
    low = "s" if dict(spec)["s"] < dict(spec)["t"] else "t"
    w0low = sysm.mult_gen(w0, sysm.index_of[low])
    fixed = {0, elem(name, [low]).index, w0low, w0}
    assert inv.left_map == inv.right_map  # w0 is central for even m
    for w in fixed:
        assert inv.left_map[w] == w
    if low == "s":
        for i in range(1, half):
            assert inv.left_map[s_i(name, 2 * i).index] == s_i(name, m - 2 * i).index
            assert inv.left_map[s_i(name, 2 * i + 1).index] == s_i(name, m + 1 - 2 * i).index
            assert inv.left_map[t_i(name, 2 * i).index] == t_i(name, m - 2 * i).index
            assert inv.left_map[t_i(name, 2 * i - 1).index] == t_i(name, m - 1 - 2 * i).index
    else:
        for i in range(1, half):
            assert inv.left_map[s_i(name, 2 * i).index] == s_i(name, m - 2 * i).index
            assert inv.left_map[s_i(name, 2 * i - 1).index] == s_i(name, m - 1 - 2 * i).index
            assert inv.left_map[t_i(name, 2 * i).index] == t_i(name, m - 2 * i).index
            assert inv.left_map[t_i(name, 2 * i + 1).index] == t_i(name, m + 1 - 2 * i).index
    assert inv.sign[0] == 1 and inv.sign[w0] == 1
    for w in fixed - {0, w0}:
        assert inv.sign[w] == (-1) ** half
    for w in sysm.all_ids():
        if w not in fixed:
            assert inv.sign[w] == -1


@pytest.mark.parametrize(
    "name,spec",
    [("I2(3)", None), ("I2(6)", UNEQ), ("A3", None), ("B3", B3_WEIGHTS)],
)
def test_extremes_fixed_with_known_signs(name, spec):
    sysm = system(name)
    inv = involutions(name, spec)
    w0 = sysm.longest_id()
    assert inv.left_map[0] == inv.right_map[0] == 0
    assert inv.left_map[w0] == inv.right_map[w0] == w0
    assert inv.sign[0] == (-1) ** sysm.length(w0)
    assert inv.sign[w0] == 1


def test_involution_identities_surface():
    name, spec = "B3", B3_WEIGHTS
    sysm = system(name)
    inv = involutions(name, spec)
    w0 = sysm.longest_id()
    for w in sysm.all_ids():
        assert inv.right_map[inv.right_map[w]] == w
        assert inv.left_map[w] == sysm.inverse(inv.right_map[sysm.inverse(w)])
        omega = sysm.multiply(sysm.multiply(w0, w), w0)
        assert inv.right_map[w] == inv.left_map[omega]


def test_duflo_compatibility_dihedral():
    # rho(d) = w0 * d_{w0 d} and lambda(d) = d_{w0 d} * w0 for Duflo d
    for name, spec in (("I2(5)", None), ("I2(6)", None), ("I2(6)", UNEQ)):
        sysm = system(name)
        inv = involutions(name, spec)
        table = a_table(name, spec)
        w0 = sysm.longest_id()
        for d in table.duflo:
            dd = table.dmap[sysm.multiply(w0, d)]
            assert inv.right_map[d] == sysm.multiply(w0, dd)
            assert inv.left_map[d] == sysm.multiply(dd, w0)


# -- sign constancy ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,spec", [("I2(3)", None), ("I2(4)", None), ("I2(7)", None),
                  ("I2(4)", UNEQ), ("I2(6)", UNEQ), ("I2(8)", UNEQ_REV)],
)
def test_sign_constant_on_two_sided_cells_dihedral(name, spec):
    inv = involutions(name, spec)
    for c in inv.cells.two_sided.cells:
        assert len({inv.sign[w] for w in c}) == 1


def test_sign_not_constant_on_b3_cell():
    inv = involutions("B3", B3_WEIGHTS)
    assert inv.hypotheses_hold
    mixed = [
        c for c in inv.cells.two_sided.cells if {inv.sign[w] for w in c} == {1, -1}
    ]
    assert mixed, "some two-sided cell must carry both signs"


def test_sign_constant_on_cells_for_constant_weights_a3():
    inv = involutions("A3")
    for c in inv.cells.two_sided.cells:
        assert len({inv.sign[w] for w in c}) == 1


# -- extensions ------------------------------------------------------------------------------


def test_extension_with_full_subset_is_core_map():
    name, spec = "B3", B3_WEIGHTS
    pv = pinv(name, ("t", "s1", "s2"), spec)
    inv = involutions(name, spec)
    pair = pv.extended_left()
    assert pair.delta == inv.left_map and pair.mu == inv.sign


@pytest.mark.parametrize("name,spec", [("A3", None), ("B3", B3_WEIGHTS), ("B3", B3_LEX)])
def test_longest_element_involutions_are_the_parabolic_of_s(name, spec):
    alg = algebra(name, spec)
    inv = longest_element_involutions(alg)
    assert isinstance(inv, ParabolicInvolutions) and inv.algebra is alg
    pv = parabolic_involutions(alg, alg.system.labels)
    for attr in ("left_map", "right_map", "sign", "alpha", "hypotheses_hold"):
        assert getattr(inv, attr) == getattr(pv, attr), attr
    with pytest.raises(ValueError, match="unknown generator 'zz'"):
        parabolic_involutions(alg, ("zz",))
    # every W_I carries the alpha of its own subsystem, on its ids in W
    labels = alg.system.labels
    for size in range(len(labels) + 1):
        for subset in combinations(labels, size):
            pv = parabolic_involutions(alg, subset)
            pdata = pv.pdata
            sub_alpha = build_a_table(algebra_for(pdata.subsystem, alg.weights.restrict(pdata))).alpha
            assert pv.alpha == {pdata.to_parent(e): a for e, a in enumerate(sub_alpha)}, subset


def test_extension_on_minimal_representatives():
    # for w in X_I: lambda_I^L(w) = w with sign (-1)^{l(w_I)}
    name, spec = "B3", B3_WEIGHTS
    sysm = system(name)
    for labels in (("t",), ("t", "s1"), ("s1", "s2")):
        pv = pinv(name, labels, spec)
        pair = pv.extended_left()
        pdata = sysm.parabolic(labels)
        lw = sysm.length(pdata.longest)
        for w in pdata.min_reps:
            assert pair.delta[w] == w
            assert pair.mu[w] == (-1) ** lw
        # restriction to W_I is the core involution
        for u in pdata.elements:
            assert pair.delta[u] == pv.left_map[u]
            assert pair.mu[u] == pv.sign[u]


def test_extensions_are_involutions():
    for name, spec, labels in (
        ("B3", B3_WEIGHTS, ("t", "s1")),
        ("A3", None, ("s1", "s3")),
        ("I2(6)", UNEQ, ("s",)),
    ):
        pv = pinv(name, labels, spec)
        for pair in (pv.extended_left(), pv.extended_right()):
            for w in system(name).all_ids():
                assert pair.delta[pair.delta[w]] == w


# -- cellularity (LC1-LC3), descent invariance ------------------------------------------------


CELLULAR_CASES = [
    ("I2(3)", None, ("s", "t")), ("I2(4)", None, ("s",)), ("I2(5)", None, ("s", "t")),
    ("I2(6)", UNEQ, ("s", "t")), ("I2(8)", UNEQ, ("s", "t")),
    ("A3", None, ("s1", "s2")), ("A3", None, ("s1", "s2", "s3")),
    ("B3", B3_WEIGHTS, ("t", "s1")), ("B3", B3_WEIGHTS, ("s1", "s2")),
    ("B3", B3_WEIGHTS, ("t", "s1", "s2")), ("B3", B3_WEIGHTS, ("t", "s2")),
]


@pytest.mark.parametrize("name,spec,labels", CELLULAR_CASES)
def test_extended_pairs_are_strongly_cellular(name, spec, labels):
    alg = algebra(name, spec)
    dec = cells(name, spec)
    pv = pinv(name, labels, spec)
    assert pv.hypotheses_hold
    left = verify_cellular_pair(alg, dec, pv.extended_left())
    assert all(r.holds for r in left.values()), left
    right = verify_cellular_pair(alg, dec, pv.extended_right())
    assert all(r.holds for r in right.values()), right


@pytest.mark.parametrize("name,spec,labels", CELLULAR_CASES)
def test_descent_invariance(name, spec, labels):
    alg = algebra(name, spec)
    pv = pinv(name, labels, spec)
    assert verify_descent_invariance(alg, pv.extended_left()).holds
    assert verify_descent_invariance(alg, pv.extended_right()).holds


def test_identity_pair_is_cellular():
    alg = algebra("I2(4)", UNEQ)
    dec = cells("I2(4)", UNEQ)
    ids = alg.system.all_ids()
    for side in ("left", "right"):
        pair = CellularPair.identity(side, ids)
        assert all(r.holds for r in verify_cellular_pair(alg, dec, pair).values())
        assert verify_descent_invariance(alg, pair).holds


def test_lambda_swaps_the_side_cells_for_odd_m():
    name = "I2(5)"
    dec = cells(name)
    pv = pinv(name, ("s", "t"))
    pair = pv.extended_left()
    gamma_s = frozenset(s_i(name, i).index for i in range(1, 5))
    gamma_t = frozenset(t_i(name, i).index for i in range(1, 5))
    assert frozenset(pair.delta[w] for w in gamma_s) == gamma_t
    assert frozenset(pair.delta[w] for w in gamma_t) == gamma_s


def test_cellular_pair_rejects_bad_signs():
    with pytest.raises(ValueError):
        CellularPair("left", {0: 0}, {0: 2})
    with pytest.raises(ValueError):
        CellularPair("middle", {0: 0}, {0: 1})


def test_violation_has_witness_payload():
    err = TheoremViolationError("boom", {"element": "s"})
    assert err.witness["element"] == "s"


def test_extraction_failure_reports_renormalised_remainder():
    # a fresh algebra, so no shared memo sees the doubled products
    alg = HeckeAlgebra(system("A2"), weights("A2"))
    t_word_kl = alg.t_word_kl
    alg.t_word_kl = lambda side, letters, klvec: {
        z: {e: 2 * c for e, c in p.items()} for z, p in t_word_kl(side, letters, klvec).items()
    }
    with pytest.raises(TheoremViolationError, match="not a signed basis element") as err:
        longest_element_involutions(alg)
    witness = err.value.witness
    assert witness["element"] == ""
    assert witness["remainder"] in ({"": "2*v^(0)"}, {"": "-2*v^(0)"})


def test_disagreeing_sign_maps_raise():
    # a fresh algebra whose right products by T_{w_0} are negated
    alg = HeckeAlgebra(system("A2"), weights("A2"))
    t_word_kl = alg.t_word_kl
    alg.t_word_kl = lambda side, letters, klvec: {
        z: {e: -c for e, c in p.items()} if side == "right" else p
        for z, p in t_word_kl(side, letters, klvec).items()
    }
    with pytest.raises(TheoremViolationError, match="the two sign maps disagree at '1'"):
        longest_element_involutions(alg)


def test_broken_involution_structure_raises_with_the_six_checks():
    # a fresh algebra whose left products by T_{w_0} have their ids inverted,
    # so the right map is w -> delta(w)^-1: signs agree, the structure fails
    alg = HeckeAlgebra(system("A2"), weights("A2"))
    inv = alg.system.inverse
    t_word_kl = alg.t_word_kl
    alg.t_word_kl = lambda side, letters, klvec: {
        inv(z) if side == "left" else z: p
        for z, p in t_word_kl(side, letters, klvec).items()
    }
    with pytest.raises(TheoremViolationError, match="involution structure fails at 's1'") as err:
        longest_element_involutions(alg)
    assert err.value.witness == {"checks": (False, True, False, False, False, True)}


# -- Geck sign identity (Cor 3.5-type) ---------------------------------------------------------


@pytest.mark.parametrize(
    "name,spec",
    [("B3", B3_WEIGHTS), ("A3", None)],
)
def test_mixed_basis_sign_identity_all_parabolics(name, spec):
    alg = algebra(name, spec)
    sysm = alg.system
    labels = sysm.labels

    for size in range(0, len(labels) + 1):
        for subset in combinations(labels, size):
            pv = pinv(name, subset, spec)
            report = verify_mixed_basis_sign_identity(pv)
            assert report.holds, (subset, report.witnesses)


# -- characterization (extended congruences) -----------------------------------------------------


@pytest.mark.parametrize(
    "name,spec,labels",
    [("B3", B3_WEIGHTS, ("s1", "s2")),  # the type-A2 parabolic, exhaustively
     ("B3", B3_WEIGHTS, ("t", "s1")),
     ("B3", B3_WEIGHTS, ("t", "s1", "s2")),
     ("A3", None, ("s1", "s2")),
     ("I2(6)", UNEQ, ("s", "t")),
     ("B3", B3_LEX, ("t", "s1")),
     ("B3", B3_LEX, ("s1", "s2")),
     ("B3", B3_LEX, ("t", "s1", "s2"))],
)
def test_characterization_congruences(name, spec, labels):
    pv = pinv(name, labels, spec)
    reports = verify_characterization(pv)
    assert reports["left"].holds, reports["left"].witnesses
    assert reports["right"].holds, reports["right"].witnesses


def test_characterization_detects_a_flipped_sign():
    # flipping the sign at s1 changes the extended sign on every w whose
    # W_I-part is s1, so both sides report exactly those eight elements
    import dataclasses

    pv = pinv("B3", ("s1", "s2"), B3_WEIGHTS)
    s1 = system("B3").from_word(["s1"]).index
    corrupted = dataclasses.replace(pv, sign={**pv.sign, s1: -pv.sign[s1]})
    reports = verify_characterization(corrupted)
    assert not reports["left"].holds and not reports["right"].holds
    assert reports["left"].witnesses == (
        "s1", "t.s1", "s1.t.s1", "t.s1.t.s1", "s2.s1.t.s1", "t.s2.s1.t.s1",
        "s1.t.s2.s1.t.s1", "t.s1.t.s2.s1.t.s1",
    )
    assert reports["right"].witnesses == (
        "s1", "s1.t", "s1.t.s1", "t.s1.t.s1", "s1.t.s1.s2", "t.s1.t.s1.s2",
        "t.s1.t.s1.s2.s1", "t.s1.t.s1.s2.s1.t",
    )


# -- commutation (strongly cellular pairs vs opposite extensions) -------------------------------


def test_commutation_across_generator_pairs():
    for name, spec in (("B3", B3_WEIGHTS), ("A3", None)):
        from cactuscells.cactus import cactus_presentation

        alg = algebra(name, spec)
        pres = cactus_presentation(alg.system)
        for I in pres.generators:
            pI = pinv(name, I, spec)
            for J in pres.generators:
                pJ = pinv(name, J, spec)
                rep = verify_commutation(pI, pJ.extended_left())
                assert rep["commute"].holds and rep["sign"].holds, (I, J)
                rep = verify_commutation(pI, pJ.extended_right())
                assert rep["commute"].holds and rep["sign"].holds, (I, J)


def test_sign_plain_invariance_along_opposite_action():
    # eta_L^I is constant along rho_J^R orbits (and mirrored), as computed
    for name, spec in (("B3", B3_WEIGHTS), ("I2(6)", UNEQ)):
        sysm = system(name)
        from cactuscells.cactus import cactus_presentation

        pres = cactus_presentation(sysm)
        for I in pres.generators:
            lam = pinv(name, I, spec).extended_left()
            for J in pres.generators:
                rho = pinv(name, J, spec).extended_right()
                for w in sysm.all_ids():
                    assert lam.mu[rho.delta[w]] == lam.mu[w]


def test_commutation_with_explicit_strongly_cellular_map():
    # unequal even dihedral: w -> ws away from {1, s, w0 s, w0} is strongly
    # left cellular with constant sign, and commutes with the right extension
    for m in (4, 6):
        name = "I2(%d)" % m
        alg = algebra(name, UNEQ)
        sysm = alg.system
        dec = cells(name, UNEQ)
        w0 = sysm.longest_id()
        s = sysm.index_of["s"]
        fixed = {0, alg.gen_id(s), sysm.mult_gen(w0, s), w0}
        delta = {
            w: (w if w in fixed else sysm.mult_gen(w, s)) for w in sysm.all_ids()
        }
        pair = CellularPair("left", delta, {w: 1 for w in sysm.all_ids()})
        reports = verify_cellular_pair(alg, dec, pair)
        assert all(r.holds for r in reports.values()), reports
        pv = pinv(name, ("s", "t"), UNEQ)
        rep = verify_commutation(pv, pair)
        assert rep["commute"].holds and rep["sign"].holds
        # the explicit consequence used in the dihedral computation
        rho = pv.extended_right()
        for w in sysm.all_ids():
            if w not in fixed:
                assert rho.delta[sysm.mult_gen(w, s)] == sysm.mult_gen(rho.delta[w], s)


def test_identity_pair_commutes():
    pv = pinv("A3", ("s1", "s2"))
    ids = system("A3").all_ids()
    rep = verify_commutation(pv, CellularPair.identity("left", ids))
    assert rep["commute"].holds and rep["sign"].holds


def test_verifiers_detect_corrupted_pairs():
    # transposing two elements of one left cell must trip LC2/LC3 and the
    # descent check; corrupting one sign must trip the mixed-basis identity
    import dataclasses

    name = "I2(4)"
    alg = algebra(name, UNEQ)
    sysm = alg.system
    dec = cells(name, UNEQ)
    t = elem(name, ["t"]).index
    st = elem(name, ["s", "t"]).index
    delta = {w: w for w in sysm.all_ids()}
    delta[t], delta[st] = st, t
    bad = CellularPair("left", delta, {w: 1 for w in sysm.all_ids()})
    reports = verify_cellular_pair(alg, dec, bad)
    assert reports["LC1"].holds and not reports["LC2"].holds and not reports["LC3"].holds
    assert reports["LC3"].witnesses
    assert not verify_descent_invariance(alg, bad).holds

    # flipping one sign inside a multi-element cell of W_I breaks the identity
    pv = pinv("B3", ("s1", "s2"), B3_WEIGHTS)
    s1 = system("B3").from_word(["s1"]).index
    flipped = dict(pv.sign)
    flipped[s1] = -flipped[s1]
    corrupted = dataclasses.replace(pv, sign=flipped)
    report = verify_mixed_basis_sign_identity(corrupted)
    assert not report.holds
    assert report.witnesses == (
        "(a=1, x=s2.s1, b=s2.s1.t, y=s1)",
        "(a=t, x=s2.s1, b=s2.s1.t, y=s1)",
        "(a=1, x=s2.s1, b=t.s2.s1.t, y=s1)",
        "(a=t, x=s2.s1, b=t.s2.s1.t, y=s1)",
        "(a=t, x=s2.s1, b=s1.t.s2.s1.t, y=s1)",
        "(a=s1.t, x=s2.s1, b=s1.t.s2.s1.t, y=s1)",
        "(a=s2.s1.t, x=s2.s1, b=s1.t.s2.s1.t, y=s1)",
        "(a=1, x=s2.s1, b=t.s1.t.s2.s1.t, y=s1)",
        "(a=t, x=s2.s1, b=t.s1.t.s2.s1.t, y=s1)",
        "(a=s1.t, x=s2.s1, b=t.s1.t.s2.s1.t, y=s1)",
    )
    # the copy extends its own signs and leaves the algebra's memoized pair alone
    assert corrupted.extended_left().mu[s1] == flipped[s1]
    assert pv.extended_left().mu[s1] == pv.sign[s1]


def test_conjecture_checker_detects_failures():
    import dataclasses

    table = a_table("I2(4)", UNEQ)
    wrong_a = list(table.a)
    wrong_a[0] = 99  # a(1) > Delta(1) breaks P1; also breaks P4 at the top
    broken = dataclasses.replace(table, a=tuple(wrong_a))
    from cactuscells.cells import verify_conjectures

    reports = verify_conjectures(broken, ("P1", "P4"))
    assert not reports["P1"].holds and reports["P1"].witnesses
    assert not reports["P4"].holds
    # a failing P-check sorts all its witnesses, then keeps the first 10
    table = a_table("A3")
    render = lambda w: table.algebra.system.element(w).render() or "1"
    wrong_a = list(table.a)
    wrong_a[0] = 99  # every other element lies below 1 with a smaller a
    p4 = verify_conjectures(dataclasses.replace(table, a=tuple(wrong_a)), ("P4",))["P4"]
    found = ["%s <=_LR 1 but a drops" % render(w) for w in table.algebra.system.all_ids()[1:]]
    assert found != sorted(found)
    assert p4.witnesses == tuple(sorted(found)[:10])


# -- equivariance under diagram automorphisms ----------------------------------------------------


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_swap_equivariance_equal_dihedral(m):
    name = "I2(%d)" % m
    sysm = system(name)
    inv = involutions(name)
    swap = (1, 0)
    autos = diagram_automorphisms(sysm, algebra(name).weights)
    assert swap in autos
    for w in sysm.all_ids():
        sw = apply_index_map(sysm, swap, w)
        assert apply_index_map(sysm, swap, inv.left_map[w]) == inv.left_map[sw]
        assert apply_index_map(sysm, swap, inv.right_map[w]) == inv.right_map[sw]


def test_no_nontrivial_automorphism_b3_h3():
    b3 = system("B3")
    assert diagram_automorphisms(b3, algebra("B3", B3_WEIGHTS).weights) == [(0, 1, 2)]
    h3 = system("H3")
    assert diagram_automorphisms(h3) == [(0, 1, 2)]


def test_longest_element_conjugation_equivariance_a3():
    # omega_0 is a weight-preserving diagram automorphism; conjugating the
    # parabolic transports the extended involution
    name = "A3"
    sysm = system(name)
    w0 = sysm.longest_id()

    def omega0(w):
        return sysm.multiply(sysm.multiply(w0, w), w0)

    sigma = tuple(sysm.word(omega0(sysm.id_of_word((i,))))[0] for i in range(sysm.rank))
    assert sigma == (2, 1, 0)
    for labels, image_labels in ((("s1", "s2"), ("s2", "s3")), (("s1",), ("s3",))):
        pair = pinv(name, labels).extended_left()
        pair2 = pinv(name, image_labels).extended_left()
        for w in sysm.all_ids():
            assert omega0(pair.delta[w]) == pair2.delta[omega0(w)]


@pytest.mark.parametrize("name", ["A3", "A4", "I2(6)"])
def test_extended_pairs_commute_with_diagram_automorphisms(name):
    """sigma(lambda_I(w)) = lambda_{sigma(I)}(sigma(w)) with equal signs, and
    the same for rho_I, for every diagram automorphism sigma and every proper
    cactus generator I."""
    sysm = system(name)
    gens = [g for g in cactus_presentation(sysm).generators if len(g) < sysm.rank]
    for sigma in diagram_automorphisms(sysm, algebra(name).weights):
        image = {w: apply_index_map(sysm, sigma, w) for w in sysm.all_ids()}
        for g in gens:
            sigma_g = [sysm.labels[sigma[sysm.index_of[lab]]] for lab in g]
            for side in ("left", "right"):
                pair = _extended(pinv(name, g), side)
                pair2 = _extended(pinv(name, sigma_g), side)
                for w in sysm.all_ids():
                    assert image[pair.delta[w]] == pair2.delta[image[w]]
                    assert pair.mu[w] == pair2.mu[image[w]]


def _extended(p, side):
    return p.extended_left() if side == "left" else p.extended_right()


# -- degree bounds -------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,spec",
    [("I2(4)", None), ("I2(5)", None), ("I2(6)", UNEQ), ("A3", None), ("B3", B3_WEIGHTS),
     ("B3", B3_LEX)],
)
def test_degree_bounds(name, spec):
    report = degree_bounds_report(algebra(name, spec))
    assert report.holds, report.witnesses


# -- memo ownership ------------------------------------------------------------------------------


def test_memos_are_freed_with_their_algebra():
    """Cells, the a-table and the involutions are memoized on the algebra
    itself, so a dropped algebra is freed and its id can never serve a
    later algebra another group's cells."""
    alg = HeckeAlgebra(system("B3"), weights("B3", B3_WEIGHTS))
    assert len(compute_cells(alg).left.cell_of) == 48
    assert build_a_table(alg).cells is compute_cells(alg)
    assert longest_element_involutions(alg).algebra is alg
    pv = parabolic_involutions(alg, ("t", "s1"))
    assert pv.algebra is alg
    assert pv.extended_left().side == "left"
    assert pv.extended_right().side == "right"
    assert CactusAction(alg).pair(("t", "s1"), "left") is pv.extended_left()
    del pv
    ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert ref() is None


def test_cactus_pairs_are_the_memoized_extensions():
    """CactusAction keeps no pairs of its own: each generator's pair is the
    extension memoized on the algebra, shared by every caller."""
    alg = algebra("B3", B3_WEIGHTS)
    act = CactusAction(alg)
    for g in act.presentation.generators:
        pv = parabolic_involutions(alg, g)
        for side in ("left", "right"):
            assert act.pair(g, side) is pv.extended(side)
        assert pv.extended("left") is pv.extended_left()
        assert pv.extended("right") is pv.extended_right()
