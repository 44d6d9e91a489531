"""Exact integer arithmetic in Z[2cos(pi/M)].

Root coordinates in the reflection representation of a Coxeter group live in
the subring of algebraic integers generated by the numbers 2cos(pi/m(s,t)).
With M the lcm of the finite bond orders, all of these lie in Z[zeta] for
zeta a primitive 2M-th root of unity, since 2cos(k*pi/M) = zeta^k + zeta^-k.

Elements are represented as integer coefficient tuples of polynomials in
zeta reduced modulo the cyclotomic polynomial Phi_{2M}, which makes equality
testing exact coefficient comparison.  Only ring operations are ever needed
(no sign tests): a reflection sends a positive root to a negative one only
when the root is the reflecting simple root itself.
"""

from __future__ import annotations

from functools import lru_cache


def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Division of integer polynomials; den must be monic."""
    num = list(num)
    d = len(den) - 1
    if d < 0 or den[-1] != 1:
        raise ValueError("divisor must be monic")
    quo = [0] * max(0, len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            quo[i - d] = c
            for j, dc in enumerate(den):
                num[i - d + j] -= c * dc
    return _poly_trim(quo), _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be >= 1")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            if rem:
                raise AssertionError("cyclotomic division must be exact")
    return tuple(poly)


class CyclotomicIntegers:
    """The ring Z[zeta_n] with elements as reduced coefficient tuples."""

    def __init__(self, n: int):
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1
        self.zero = (0,) * self.degree
        self.one = self._from_poly([1])
        # reductions of zeta^k for k = 0 .. 2n-1, enough for root-of-unity sums
        self._power = [self._from_poly([0] * k + [1]) for k in range(2 * n)]

    def _from_poly(self, coeffs: list[int]) -> tuple[int, ...]:
        _, rem = _poly_divmod(list(coeffs), list(self.modulus))
        rem = rem + [0] * (self.degree - len(rem))
        return tuple(rem)

    def from_int(self, c: int) -> tuple[int, ...]:
        out = [0] * self.degree
        if self.degree:
            out[0] = c
        return tuple(out)

    def root_of_unity(self, k: int) -> tuple[int, ...]:
        return self._power[k % self.n]

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        return tuple(-x for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        d = self.degree
        conv = [0] * (2 * d - 1 if d else 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return self._from_poly(conv)


class CosineRing:
    """Z[2cos(pi/M)] inside Z[zeta_{2M}]; the coefficient ring for roots."""

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.ring = CyclotomicIntegers(2 * order)
        self.zero = self.ring.zero
        self.one = self.ring.one
        self.two = self.ring.from_int(2)

    def two_cos(self, k: int) -> tuple:
        """2cos(k*pi/order) = zeta^k + zeta^-k for zeta = exp(i*pi/order)."""
        r = self.ring
        return r.add(r.root_of_unity(k), r.root_of_unity(-k))

    def bond_value(self, m: int) -> tuple:
        """2cos(pi/m) for a finite bond order m, or 2 for an infinite bond (m=0)."""
        if m == 0:
            return self.two
        if self.order % m:
            raise ValueError("bond order %d does not divide %d" % (m, self.order))
        return self.two_cos(self.order // m)
