"""Shared builders for the test suite; everything is cached process-wide."""

from __future__ import annotations

from functools import lru_cache

from cactuscells import WeightFunction, named_system
from cactuscells.cells import build_a_table, compute_cells
from cactuscells.hecke import _acc, _acc_mul, algebra_for


@lru_cache(maxsize=None)
def system(name):
    return named_system(name)


@lru_cache(maxsize=None)
def weights(name, spec=None):
    sys = system(name)
    if spec is None:
        return WeightFunction.constant(sys)
    return WeightFunction.from_mapping(sys, dict(spec))


def algebra(name, spec=None):
    return algebra_for(system(name), weights(name, spec))


def a_table(name, spec=None):
    return build_a_table(algebra(name, spec))


def cells(name, spec=None):
    return compute_cells(algebra(name, spec))


def elem(name, letters):
    """Element of the named system from an iterable of generator labels."""
    return system(name).from_word(letters)


def alt_word(letter, i, other):
    """The alternating word of length i ending in `letter`."""
    return [letter if (i - k) % 2 == 1 else other for k in range(i)]


def s_i(name, i):
    """Dihedral s_i: the alternating element of length i ending in s."""
    return elem(name, alt_word("s", i, "t"))


def t_i(name, i):
    return elem(name, alt_word("t", i, "s"))


def render_set(sysm, ids):
    return sorted(sysm.element(w).render() for w in ids)


B3_WEIGHTS = (("t", 2), ("s1", 1), ("s2", 1))
B3_LEX = (("t", (1, -1)), ("s1", (1, 0)), ("s2", (1, 0)))
UNEQ = (("s", 1), ("t", 2))
UNEQ_REV = (("s", 2), ("t", 1))


def mul_gen_left(alg, s, h):
    """T_s * h in the standard basis by the quadratic relation: the oracles'
    left product, kept apart from the library's one-pass walk."""
    sys = alg.system
    xi = alg._xi[s]
    res: dict = {}
    for w, p in h.items():
        sw = sys.left_mult_gen(s, w)
        _acc(res, sw, p)
        if sys.length(sw) < sys.length(w):
            _acc_mul(res, w, xi, p)
    return res


def t_mul_word_left(alg, letters, h):
    """T_u * h in the standard basis, for u given by a reduced word (applied
    innermost-first): the oracles' product, sharing no arithmetic with the
    library's C-basis products."""
    for s in reversed(tuple(letters)):
        h = mul_gen_left(alg, s, h)
    return h
