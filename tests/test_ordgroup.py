"""Group algebra of Z^rank: arithmetic, bar, degree/valuation, skew splitting."""

import pytest
from hypothesis import given, strategies as st

from cactuscells import laurent
from cactuscells.ordgroup import (
    NEG_INF,
    POS_INF,
    GroupAlgebraElement,
    OrderedAbelianGroup,
    bar_fixed_completion,
    skew_split,
)

Z1 = OrderedAbelianGroup(1)
Z2 = OrderedAbelianGroup(2)


def el(terms, group=Z1):
    return GroupAlgebraElement(group, terms)


def v(e, c=1, group=Z1):
    return GroupAlgebraElement.monomial(group, e, c)


def test_add_examples():
    assert v(1) + v(-1) == el({(1,): 1, (-1,): 1})
    a = el({(2,): 3, (0,): -1})
    assert a + el({}) == a
    assert (v(1) - v(-1)) + (v(-1) - v(1)) == el({})


def test_mul_examples():
    assert v(2) * v(3) == v(5)
    assert (v(1) + v(-1)) * (v(1) - v(-1)) == el({(2,): 1, (-2,): -1})
    a = el({(5,): 2, (-3,): 7})
    assert a * GroupAlgebraElement.constant(Z1, 1) == a


def test_mixed_rank_rejected():
    with pytest.raises(ValueError):
        v(1) + v((1, 0), group=Z2)


def test_bar_examples():
    assert v(2).bar() == v(-2)
    assert GroupAlgebraElement.constant(Z1, 3).bar() == GroupAlgebraElement.constant(Z1, 3)
    skew = v(1) - v(-1)
    assert skew.bar() == -skew


def test_deg_val_examples():
    a = el({(2,): 1, (-5,): 1})
    assert (a.degree(), a.valuation()) == ((2,), (-5,))
    zero = el({})
    assert zero.degree() is NEG_INF and zero.valuation() is POS_INF
    assert NEG_INF < (-10,) and (10,) < POS_INF
    c = GroupAlgebraElement.constant(Z1, 7)
    assert (c.degree(), c.valuation()) == ((0,), (0,))


def test_skew_split_examples():
    assert skew_split(v(-3) - v(3)) == v(-3)
    assert skew_split(el({})) == el({})
    assert skew_split(v(-1, 2) - v(1, 2)) == v(-1, 2)
    with pytest.raises(ValueError):
        skew_split(v(1))


def test_rank2_lex_order():
    a = el({(1, -5): 1, (0, 100): 2}, Z2)
    assert a.degree() == (1, -5)
    assert a.valuation() == (0, 100)


coeffs = st.integers(min_value=-40, max_value=40)
exps = st.integers(min_value=-6, max_value=6)


def elements(group):
    n = group.rank
    exp = st.tuples(*[exps] * n)
    return st.dictionaries(exp, coeffs, max_size=6).map(lambda d: GroupAlgebraElement(group, d))


@given(elements(Z1), elements(Z1), elements(Z1))
def test_ring_axioms_rank1(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(elements(Z2), elements(Z2), elements(Z2))
def test_ring_axioms_rank2(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(elements(Z1), elements(Z1))
def test_deg_val_multiplicative(a, b):
    p = a * b
    if a and b:
        assert p.degree() == tuple(x + y for x, y in zip(a.degree(), b.degree()))
        assert p.valuation() == tuple(x + y for x, y in zip(a.valuation(), b.valuation()))


@given(elements(Z2))
def test_bar_involutive(a):
    assert a.bar().bar() == a


@given(elements(Z1))
def test_skew_split_round_trip(a):
    skew = a - a.bar()
    part = skew_split(skew)
    assert part - part.bar() == skew
    assert part.degree() is NEG_INF or part.degree() < (0,)


@given(elements(Z1))
def test_bar_fixed_completion_matches_symmetrization(a):
    m = bar_fixed_completion(a)
    assert m.bar() == m
    diff = m - a
    assert diff.degree() is NEG_INF or diff.degree() < (0,)
    # explicit form: the part in degrees >= 0 survives and is mirrored downward
    explicit = {}
    for e, c in a.terms.items():
        if e >= (0,):
            explicit[e] = c
            if e > (0,):
                explicit[tuple(-x for x in e)] = c
    assert m == GroupAlgebraElement(Z1, explicit)


def naive_mul(a, b):
    """The product term by term through `add_term`, exponents by `zip`."""
    res = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            laurent.add_term(res, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return res


def raw(rank, coefficients=coeffs):
    return st.dictionaries(st.tuples(*[exps] * rank), coefficients, max_size=6)


def packed(a):
    """A tuple-keyed coefficient dict with its exponents packed."""
    return {laurent.pack(e): c for e, c in a.items()}


@pytest.mark.parametrize("rank", [1, 2, 3])
@given(data=st.data())
def test_add_mul_matches_naive_product(rank, data):
    # tuple exponents, multiplied by the zip sum and packed afterwards, so the
    # oracle shares none of the packed int arithmetic; the inputs may hold
    # zero coefficients, the accumulator never does
    a, b = data.draw(raw(rank)), data.draw(raw(rank))
    acc = data.draw(raw(rank, coeffs.filter(bool)))
    sign = data.draw(st.sampled_from((1, -1)))
    expected = packed(laurent.add(acc, laurent.scale(naive_mul(a, b), sign)))
    acc = packed(acc)
    laurent.add_mul(acc, packed(a), packed(b), sign)
    assert acc == expected and 0 not in acc.values()
    assert laurent.mul(packed(a), packed(b)) == packed(naive_mul(a, b))
    # a product taken back out cancels to zero
    acc = laurent.mul(packed(a), packed(b))
    laurent.add_mul(acc, packed(b), packed(a), -1)
    assert acc == {}


def test_add_mul_examples():
    acc = {0: 1}
    laurent.add_mul(acc, {1: 0}, {-1: 5})
    assert acc == {0: 1}
    acc = {}
    laurent.add_mul(acc, {1: 0, 0: 0}, {2: 3})
    assert acc == {}
    laurent.add_mul(acc, {1: 1, -1: 1}, {1: 1, -1: -1})
    assert acc == {2: 1, -2: -1}
    laurent.add_mul(acc, {1: 1}, {1: 1, -3: -1}, -1)
    assert acc == {}
    assert laurent.mul({1: 1}, {}) == {}


# -- the packed-int exponent codec ------------------------------------------------

BOUND = 2**32
# the leading component is unbounded, every later one has |e| < 2**32; small
# values are drawn often so that leading components tie
leads = st.integers(-3, 3) | st.integers()
lowers = st.integers(-3, 3) | st.integers(-BOUND + 1, BOUND - 1)
half_lowers = st.integers(-3, 3) | st.integers(-BOUND // 2 + 1, BOUND // 2 - 1)


def exponents(rank, lower=lowers):
    return st.tuples(leads, *[lower] * (rank - 1))


def componentwise(f, *exps):
    return tuple(map(f, *exps))


@pytest.mark.parametrize("rank", [1, 2, 3])
@given(data=st.data())
def test_pack_round_trips_and_orders_lexicographically(rank, data):
    a, b = data.draw(exponents(rank)), data.draw(exponents(rank))
    assert laurent.unpack(laurent.pack(a), rank) == a
    assert (laurent.pack(a) < laurent.pack(b)) == (a < b)
    assert (laurent.pack(a) == laurent.pack(b)) == (a == b)


@pytest.mark.parametrize("rank", [1, 2, 3])
@given(data=st.data())
def test_pack_is_additive_and_negation_is_bar(rank, data):
    a, b = data.draw(exponents(rank, half_lowers)), data.draw(exponents(rank, half_lowers))
    total = componentwise(lambda x, y: x + y, a, b)
    assert laurent.pack(a) + laurent.pack(b) == laurent.pack(total)
    assert laurent.unpack(laurent.pack(a) + laurent.pack(b), rank) == total
    assert -laurent.pack(a) == laurent.pack(componentwise(lambda x: -x, a))


@pytest.mark.parametrize(
    "exp", [(0, BOUND), (0, -BOUND), (7, 0, BOUND), (0, BOUND + 5, 0), (-1, 2**40)]
)
def test_pack_rejects_a_lower_component_out_of_range(exp):
    with pytest.raises(ValueError, match=r"\|e\| < 2\*\*32"):
        laurent.pack(exp)
    with pytest.raises(ValueError, match=r"2\*\*32"):
        GroupAlgebraElement(OrderedAbelianGroup(len(exp)), {exp: 1})


def test_pack_bounds_only_later_components():
    for exp in ((2**100,), (-(2**70), BOUND - 1), (2**40, -BOUND + 1, BOUND - 1)):
        assert laurent.unpack(laurent.pack(exp), len(exp)) == exp
    assert laurent.pack((5,)) == 5 and laurent.pack(()) == 0
    assert laurent.unpack(0, 0) == ()


def test_element_views_keep_tuple_exponents():
    a = el({(1, -5): 1, (0, 100): 2}, Z2)
    assert a.terms == {(1, -5): 1, (0, 100): 2}
    assert list(a) == [((1, -5), 1), ((0, 100), 2)]
    assert a.coefficient((0, 100)) == 2 and a.coefficient((0, 0)) == 0
    assert a.bar().terms == {(-1, 5): 1, (0, -100): 2}


@given(elements(Z2))
def test_render_parse_round_trip(a):
    assert GroupAlgebraElement.parse(Z2, a.render()) == a


def test_render_forms():
    assert el({}).render() == "0"
    assert (2 * v(0) - v(-1)).render() == "2*v^(0) + -1*v^(-1)"
    two_d = el({(1, -2): 3}, Z2)
    assert two_d.render() == "3*v^(1,-2)"
    assert GroupAlgebraElement.parse(Z2, "3*v^(1,-2)") == two_d


def test_hashable_and_structural_equality():
    a = el({(1,): 2, (0,): 1})
    b = el({(0,): 1, (1,): 2})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
