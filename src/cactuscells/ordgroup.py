"""Totally ordered abelian groups and their group algebras over Z.

The exponent group is Z^rank with the lexicographic order; rank 1 is the
single-parameter case, higher ranks give generic multi-parameter weights.
The group algebra A = Z[Z^rank] carries

* the bar involution  v^e -> v^(-e),
* degree and valuation (max/min exponent of the support, with deg 0 = -inf
  and val 0 = +inf),
* the skew-splitting primitive: for skew a (meaning a + bar(a) = 0) the
  strictly-negative part a_- is the unique element supported below 0 with
  a_- - bar(a_-) = a.  This is what makes bar-invariant bases computable by
  triangular correction.

Elements are immutable and hashable; all arithmetic is exact over Python's
arbitrary-precision integers, so overflow cannot occur.  An element stores
its terms keyed by the packed int exponents of `laurent` (integer order is
the lexicographic order, `+` the group law, `-` the bar involution); its
public views (`terms`, iteration, `coefficient`, `degree`, `valuation`) take
and return exponent tuples.  A component after the first must satisfy
|e| < 2**32, and construction raises ValueError otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import laurent
from .laurent import NEG_INF, POS_INF

__all__ = [
    "OrderedAbelianGroup",
    "GroupAlgebraElement",
    "skew_split",
    "bar_fixed_completion",
    "NEG_INF",
    "POS_INF",
]


@dataclass(frozen=True)
class OrderedAbelianGroup:
    """Z^rank ordered lexicographically."""

    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be >= 0")

    @property
    def zero(self) -> tuple:
        return (0,) * self.rank

    def element(self, value) -> tuple:
        """Coerce an int (rank 1) or an iterable of ints to a group element."""
        if isinstance(value, int):
            if self.rank != 1:
                raise ValueError("bare integers only encode rank-1 exponents")
            return (value,)
        exp = tuple(int(x) for x in value)
        if len(exp) != self.rank:
            raise ValueError("expected %d components, got %r" % (self.rank, value))
        return exp


class GroupAlgebraElement:
    """A finitely supported integer combination of symbols v^e, e in Z^rank."""

    __slots__ = ("group", "_terms", "_key")

    def __init__(self, group: OrderedAbelianGroup, terms: Mapping[tuple, int] | None = None):
        self.group = group
        clean: dict = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[laurent.pack(group.element(e))] = int(c)
        self._terms = clean
        self._key = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def monomial(cls, group: OrderedAbelianGroup, exponent, coeff: int = 1) -> "GroupAlgebraElement":
        return cls(group, {group.element(exponent): coeff})

    @classmethod
    def constant(cls, group: OrderedAbelianGroup, coeff: int) -> "GroupAlgebraElement":
        return cls(group, {group.zero: coeff})

    @classmethod
    def _raw(cls, group: OrderedAbelianGroup, terms: dict) -> "GroupAlgebraElement":
        # trusted constructor: terms already packed and normalized
        self = cls.__new__(cls)
        self.group = group
        self._terms = terms
        self._key = None
        return self

    # -- views ----------------------------------------------------------------

    @property
    def terms(self) -> dict:
        """Copy of the exponent tuple -> coefficient map."""
        rank = self.group.rank
        return {laurent.unpack(e, rank): c for e, c in self._terms.items()}

    def coefficient(self, exponent) -> int:
        return self._terms.get(laurent.pack(self.group.element(exponent)), 0)

    def __bool__(self):
        return bool(self._terms)

    def __iter__(self):
        """(exponent tuple, coefficient) pairs, leading term first."""
        rank = self.group.rank
        return ((laurent.unpack(e, rank), c) for e, c in laurent.sorted_terms(self._terms))

    def __len__(self):
        return len(self._terms)

    # -- ring structure ---------------------------------------------------------

    def _check(self, other: "GroupAlgebraElement") -> None:
        if self.group != other.group:
            raise ValueError("elements live over different exponent groups")

    def __add__(self, other):
        self._check(other)
        return GroupAlgebraElement._raw(self.group, laurent.add(self._terms, other._terms))

    def __sub__(self, other):
        self._check(other)
        return GroupAlgebraElement._raw(self.group, laurent.sub(self._terms, other._terms))

    def __neg__(self):
        return GroupAlgebraElement._raw(self.group, laurent.neg(self._terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupAlgebraElement._raw(self.group, laurent.scale(self._terms, other))
        self._check(other)
        return GroupAlgebraElement._raw(self.group, laurent.mul(self._terms, other._terms))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.group == other.group and self._terms == other._terms

    def __hash__(self):
        if self._key is None:
            self._key = (self.group, tuple(laurent.sorted_terms(self._terms)))
        return hash(self._key)

    # -- structure maps --------------------------------------------------------

    def bar(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement._raw(self.group, laurent.bar(self._terms))

    def degree(self):
        return laurent.unpack(max(self._terms), self.group.rank) if self._terms else NEG_INF

    def valuation(self):
        return laurent.unpack(min(self._terms), self.group.rank) if self._terms else POS_INF

    def is_skew(self) -> bool:
        return laurent.is_skew(self._terms)

    # -- text form ---------------------------------------------------------------

    def render(self) -> str:
        return laurent.render(self._terms, self.group.rank)

    @classmethod
    def parse(cls, group: OrderedAbelianGroup, text: str) -> "GroupAlgebraElement":
        return cls._raw(group, laurent.parse(text, group.rank))

    def __repr__(self):
        return "<A[%d] %s>" % (self.group.rank, self.render())


def skew_split(a: GroupAlgebraElement) -> GroupAlgebraElement:
    """The unique a_- supported strictly below 0 with a_- - bar(a_-) = a.

    Requires a to be skew (a + bar(a) = 0); concretely a_- is just the
    strictly-negative-exponent part of a.
    """
    if not a.is_skew():
        raise ValueError("skew_split requires a + bar(a) = 0, got %s" % a.render())
    return GroupAlgebraElement._raw(a.group, laurent.negative_part(a._terms))


def bar_fixed_completion(a: GroupAlgebraElement) -> GroupAlgebraElement:
    """The unique bar-fixed element congruent to ``a`` modulo A_{<0}.

    Equals a + mu where mu is the skew split of bar(a) - a; explicitly it is
    sum_{e >= 0} a_e v^e + sum_{e > 0} a_e v^{-e}, so v + 2v^-1 goes to
    v + v^-1.  `hecke._left_walk` peels off this completion of each T_z
    coefficient as its M_z.
    """
    return a + skew_split(a.bar() - a)
