"""Low-level sparse arithmetic for the group algebra Z[Z^r].

An element of the group algebra of the lexicographically ordered group Z^r is
stored as a plain dict mapping exponent tuples (length r, ints) to nonzero
integer coefficients.  The empty dict is zero.  These helpers are the hot path
for everything downstream (Hecke multiplication, basis conversion), so they
stay free of any class machinery; `ordgroup.GroupAlgebraElement` provides the
validated, immutable wrapper.  The one hot loop is `add_mul`, the in-place
`acc += sign * a * b`: `mul` is built on it, and every product of the Hecke
layer accumulates through it.

Exponents compare lexicographically, which Python tuple comparison already
implements for equal-length int tuples.
"""

from __future__ import annotations

from operator import add as _add
from typing import Iterator


class _NegInfinity:
    """Degree of the zero element; compares below every exponent tuple."""

    __slots__ = ()

    def __lt__(self, other):
        return not isinstance(other, _NegInfinity)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInfinity)

    def __neg__(self):
        return POS_INF

    def __repr__(self):
        return "-inf"


class _PosInfinity:
    """Valuation of the zero element; compares above every exponent tuple."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _PosInfinity)

    def __gt__(self, other):
        return not isinstance(other, _PosInfinity)

    def __ge__(self, other):
        return True

    def __neg__(self):
        return NEG_INF

    def __repr__(self):
        return "+inf"


NEG_INF = _NegInfinity()
POS_INF = _PosInfinity()


def add_term(acc: dict, exp: tuple, coeff: int) -> None:
    """In-place `acc += coeff * v^exp`, dropping a cancelled term."""
    c = acc.get(exp, 0) + coeff
    if c:
        acc[exp] = c
    elif exp in acc:
        del acc[exp]


def add(a: dict, b: dict) -> dict:
    res = dict(a)
    for e, c in b.items():
        add_term(res, e, c)
    return res


def sub(a: dict, b: dict) -> dict:
    res = dict(a)
    for e, c in b.items():
        add_term(res, e, -c)
    return res


def neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def scale(a: dict, coeff: int) -> dict:
    if coeff == 0:
        return {}
    return {e: c * coeff for e, c in a.items()}


def shift(a: dict, exp: tuple) -> dict:
    """Multiply by the monomial v^exp."""
    return {tuple(x + y for x, y in zip(e, exp)): c for e, c in a.items()}


def add_mul(acc: dict, a: dict, b: dict, sign: int = 1) -> None:
    """In-place `acc += sign * a * b`, dropping cancelled terms as `add_term` does."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for ea, ca in a.items():
        ca *= sign
        for eb, cb in b.items():
            e = tuple(map(_add, ea, eb))
            c = get(e, 0) + ca * cb
            if c:
                acc[e] = c
            elif e in acc:
                del acc[e]


def mul(a: dict, b: dict) -> dict:
    res: dict = {}
    add_mul(res, a, b)
    return res


def bar(a: dict) -> dict:
    """The involution v^e -> v^(-e)."""
    return {tuple(-x for x in e): c for e, c in a.items()}


def deg(a: dict):
    return max(a) if a else NEG_INF


def val(a: dict):
    return min(a) if a else POS_INF


def is_skew(a: dict) -> bool:
    """True iff a + bar(a) = 0."""
    for e, c in a.items():
        if a.get(tuple(-x for x in e), 0) != -c:
            return False
    return True


def negative_part(a: dict, zero: tuple) -> dict:
    """Terms with exponent strictly below zero (lexicographically)."""
    return {e: c for e, c in a.items() if e < zero}


def sorted_terms(a: dict) -> Iterator[tuple[tuple, int]]:
    """Terms by descending exponent (leading term first)."""
    for e in sorted(a, reverse=True):
        yield e, a[e]


def render(a: dict) -> str:
    """Canonical text form, e.g. ``2*v^(0) + -1*v^(-1,3)``.  Zero is ``0``."""
    if not a:
        return "0"
    return " + ".join(
        "%d*v^(%s)" % (c, ",".join(str(x) for x in e)) for e, c in sorted_terms(a)
    )


def parse(text: str, rank: int) -> dict:
    """Exact inverse of :func:`render` for elements of the given rank."""
    text = text.strip()
    if text == "0":
        return {}
    res: dict = {}
    for part in text.split(" + "):
        coeff_s, _, exp_s = part.partition("*v^(")
        if not exp_s.endswith(")"):
            raise ValueError("malformed term %r" % part)
        exp = tuple(int(x) for x in exp_s[:-1].split(","))
        if len(exp) != rank:
            raise ValueError("exponent %r has rank %d, expected %d" % (exp, len(exp), rank))
        add_term(res, exp, int(coeff_s))
    return res
