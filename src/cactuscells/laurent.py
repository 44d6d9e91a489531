"""Low-level sparse arithmetic for the group algebra Z[Z^r].

An element of the group algebra of the lexicographically ordered group Z^r is
stored as a plain dict mapping exponents to nonzero integer coefficients.  The
empty dict is zero.  These helpers are the hot path for everything downstream
(Hecke multiplication, basis conversion), so they stay free of any class
machinery; `ordgroup.GroupAlgebraElement` provides the validated, immutable
wrapper with tuple exponents.  The one hot loop is `add_mul`, the in-place
`acc += sign * a * b`: `mul` is built on it, and every product of the Hecke
layer accumulates through it.

Every exponent is one Python int.  Rank 1 is the exponent itself; an r-tuple
(e1, ..., er) is packed in the balanced radix R = 2**64,

    pack((e1, ..., er)) = (...(e1*R + e2)*R + ...)*R + er,

with e1 unbounded and |ei| < 2**32 for every later component (`pack` raises
ValueError otherwise).  Packing is additive, so `+` on packed ints is the
group law and unary `-` is the bar involution's v^e -> v^-e; and as long as
every component after the first stays inside (-R/2, R/2), integer order is
the lexicographic order and `unpack` reads the components back as balanced
digits.  No exponent the library forms comes near that edge: each is a sum
of well under 2**31 weights and their negatives (products of coefficients
add exponents, and the degrees of Kazhdan-Lusztig and structure-constant
coefficients are bounded by the weight of the longest element), so each
later component stays below 2**31 * 2**32 = R/2 and never carries into the
next.  Exponents are tuples only at the public boundary: `render` and
`parse` unpack and pack, and so do `ordgroup`'s views and the weights.
"""

from __future__ import annotations

from typing import Iterator

RADIX = 1 << 64
COMPONENT_BOUND = 1 << 32
_HALF = RADIX >> 1


def pack(exp) -> int:
    """The packed int of an exponent tuple; see the module docstring."""
    it = iter(exp)
    packed = next(it, 0)
    for x in it:
        if not -COMPONENT_BOUND < x < COMPONENT_BOUND:
            raise ValueError(
                "exponent component %d out of range: every component after the "
                "first must satisfy |e| < 2**32" % x
            )
        packed = packed * RADIX + x
    return packed


def unpack(packed: int, rank: int) -> tuple:
    """The exponent tuple of rank `rank` that `pack` sends to `packed`."""
    if rank <= 1:
        return (packed,) if rank else ()
    digits = []
    for _ in range(rank - 1):
        digit = (packed + _HALF) % RADIX - _HALF
        digits.append(digit)
        packed = (packed - digit) // RADIX
    digits.append(packed)
    return tuple(reversed(digits))


class _NegInfinity:
    """Degree of the zero element; compares below every exponent."""

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
    """Valuation of the zero element; compares above every exponent."""

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


def add_term(acc: dict, exp: int, coeff: int) -> None:
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


def shift(a: dict, exp: int) -> dict:
    """Multiply by the monomial v^exp."""
    return {e + exp: c for e, c in a.items()}


def add_mul(acc: dict, a: dict, b: dict, sign: int = 1) -> None:
    """In-place `acc += sign * a * b`, dropping cancelled terms as `add_term` does."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for ea, ca in a.items():
        ca *= sign
        for eb, cb in b.items():
            e = ea + eb
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
    return {-e: c for e, c in a.items()}


def deg(a: dict):
    return max(a) if a else NEG_INF


def val(a: dict):
    return min(a) if a else POS_INF


def is_skew(a: dict) -> bool:
    """True iff a + bar(a) = 0."""
    for e, c in a.items():
        if a.get(-e, 0) != -c:
            return False
    return True


def negative_part(a: dict) -> dict:
    """Terms with exponent strictly below zero (lexicographically)."""
    return {e: c for e, c in a.items() if e < 0}


def sorted_terms(a: dict) -> Iterator[tuple[int, int]]:
    """Terms by descending exponent (leading term first)."""
    for e in sorted(a, reverse=True):
        yield e, a[e]


def render(a: dict, rank: int) -> str:
    """Canonical text form, e.g. ``2*v^(0) + -1*v^(-1,3)``.  Zero is ``0``."""
    if not a:
        return "0"
    return " + ".join(
        "%d*v^(%s)" % (c, ",".join(str(x) for x in unpack(e, rank)))
        for e, c in sorted_terms(a)
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
        add_term(res, pack(exp), int(coeff_s))
    return res
