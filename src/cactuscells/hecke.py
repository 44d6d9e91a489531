"""Iwahori-Hecke algebras with arbitrary positive weight functions.

The algebra H(W, S, phi) is a free module over A = Z[Z^rank] on a standard
basis (T_w), with T_w T_w' = T_{ww'} when lengths add and the quadratic
relation (T_s - v^phi(s))(T_s + v^-phi(s)) = 0.  The bar involution is the
A-semilinear ring involution with v -> v^-1 and T_w -> (T_{w^-1})^-1.

The Kazhdan-Lusztig element C_w is the unique bar-fixed element congruent
to T_w modulo strictly-negative-degree combinations of the T_x.  Both C_w
and the rows of C_s multiplication come from the left C_s recursion, which
holds for any weights (Lusztig, Hecke algebras with unequal parameters,
section 6): for y < s y,

    C_s C_y = C_{sy} + sum_{z < sy} M^s_{z,y} C_z

with bar-fixed M.  Expanding C_s C_y in the standard basis and peeling off,
from the top down, the bar-fixed completion of each coefficient that is not
strictly negative leaves C_{sy} and yields the M (`_left_walk`).  So C_w is
the walk on (s, s w) for s the first letter of w, and cs_left_row reads its
M.  The anti-involution T_w -> T_{w^-1} commutes with bar and sends C_w to
C_{w^-1}, so the right rows are the left rows of the inverses; `cs_row`
is the one place that picks the left or the right row by side.  The bar
images of the T_w serve only `HeckeElement.bar()`.

Structure constants come from the same recursion: for x' = s x < x,
C_s C_x' = C_x + sum_{z < x} M^s_{z,x'} C_z, so the row of C_x C_y in the
C basis is built from the row of C_x' C_y and the rows of the lower C_z C_y,
without passing through the standard basis.  Products by T_u also stay in
the C basis (`t_word_kl`): T_s = C_s - v^-L(s) acts through the C_s rows.

The M do not depend on the basis the C are written in, so the same recursion
writes C_w over the induced basis T_a C_x of a parabolic W_I (a minimal in
a W_I, x in W_I; `MixedBasisTable`): C_x is its own row for x in W_I, and
otherwise C_w = C_s C_{sw} - sum_{z != w} M_z C_z.  C_s = T_s + v^-L(s) acts
on T_a C_x by Deodhar's lemma: T_{sa} C_x + v^L(s) T_a C_x if sa < a;
T_{sa} C_x + v^-L(s) T_a C_x if sa is minimal in its coset; otherwise
sa = a t with t in I, and the product is T_a C_t C_x, read off the C_t row
of x inside W_I.  Its coefficients are Geck's relative Kazhdan-Lusztig
polynomials (On the induction of Kazhdan-Lusztig cells).

Internally coefficients are the plain dicts of `laurent`; element vectors
are dicts mapping element ids to coefficient dicts.  All memo tables belong
to the algebra, including the cells, a-tables and involutions that other
modules keep in `HeckeAlgebra.memo`; they are lock-protected and immutable
once inserted, so concurrent readers are safe and results do not depend on
scheduling.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass

from . import laurent
from .coxeter import CoxeterElement, CoxeterSystem, ParabolicData, WeightFunction
from .ordgroup import GroupAlgebraElement, OrderedAbelianGroup

__all__ = [
    "ConsistencyError",
    "HeckeAlgebra",
    "HeckeElement",
    "KLTable",
    "MixedBasisTable",
    "algebra_for",
]


class ConsistencyError(Exception):
    """An internal structural invariant failed; indicates a bug, not bad input."""


def _acc(vec: dict, w: int, poly: dict) -> None:
    """In-place vec[w] += poly on an id -> coefficient-dict vector."""
    cur = vec.get(w)
    if cur is None:
        if poly:
            vec[w] = dict(poly)
        return
    for e, c in poly.items():
        laurent.add_term(cur, e, c)
    if not cur:
        del vec[w]


class HeckeAlgebra:
    """H(W, S, phi) with memoized bar, Kazhdan-Lusztig and structure tables."""

    def __init__(self, system: CoxeterSystem, weights: WeightFunction):
        if weights.system is not system:
            raise ValueError("weight function belongs to a different system")
        self.system = system
        self.weights = weights
        self.rank = weights.rank
        self.group = OrderedAbelianGroup(self.rank)
        self.zero_exp = (0,) * self.rank
        # v^L(s) + v^-L(s), the diagonal of C_s C_y for sy < y
        self._cs_diag = [
            laurent.add({weights.of(s): 1}, {tuple(-x for x in weights.of(s)): 1})
            for s in range(system.rank)
        ]
        self._xi = [
            {weights.of(s): 1, tuple(-x for x in weights.of(s)): -1}
            for s in range(system.rank)
        ]
        self._bar: list[dict] = []
        self._kl: list[dict] = []
        self._h: dict = {}
        self._h_complete = False
        self._memo: dict = {}
        self._lock = threading.RLock()

    def memo(self, key, build):
        """The value memoized on this algebra under `key`, made by `build()` on
        first use, so it lives exactly as long as the algebra."""
        with self._lock:
            value = self._memo.get(key)
        if value is None:
            value = build()
            with self._lock:
                value = self._memo.setdefault(key, value)
        return value

    # -- standard-basis plumbing -------------------------------------------------

    def gen_id(self, s: int) -> int:
        return self.system.id_of_word((s,))

    def unit(self) -> dict:
        return {0: {self.zero_exp: 1}}

    def t_of(self, w: int) -> dict:
        return {w: {self.zero_exp: 1}}

    def mul_gen_right(self, h: dict, s: int) -> dict:
        """h * T_s in the standard basis."""
        sys = self.system
        xi = self._xi[s]
        res: dict = {}
        for w, p in h.items():
            ws = sys.mult_gen(w, s)
            _acc(res, ws, p)
            if sys.length(ws) < sys.length(w):
                _acc(res, w, laurent.mul(xi, p))
        return res

    def mul_gen_left(self, s: int, h: dict) -> dict:
        """T_s * h in the standard basis."""
        sys = self.system
        xi = self._xi[s]
        res: dict = {}
        for w, p in h.items():
            sw = sys.left_mult_gen(s, w)
            _acc(res, sw, p)
            if sys.length(sw) < sys.length(w):
                _acc(res, w, laurent.mul(xi, p))
        return res

    def t_mul(self, h1: dict, h2: dict) -> dict:
        """Product of two standard-basis vectors."""
        sys = self.system
        res: dict = {}
        for w, c in h2.items():
            cur = h1
            for s in sys.word(w):
                cur = self.mul_gen_right(cur, s)
            for z, p in cur.items():
                _acc(res, z, laurent.mul(p, c))
        return res

    # -- bar involution -------------------------------------------------------------

    def _ensure_bar(self, upto: int) -> None:
        with self._lock:
            sys = self.system
            while len(self._bar) <= upto:
                i = len(self._bar)
                if i == 0:
                    self._bar.append(self.unit())
                    continue
                s = sys.word(i)[-1]
                parent = self._bar[sys.mult_gen(i, s)]
                # bar(T_i) = bar(T_parent) (T_s - xi_s)
                vec = self.mul_gen_right(parent, s)
                xi = self._xi[s]
                for w, p in parent.items():
                    _acc(vec, w, laurent.neg(laurent.mul(xi, p)))
                self._bar.append(vec)

    def bar_vec(self, h: dict) -> dict:
        """Image of a standard-basis vector under the bar involution."""
        if h:
            self._ensure_bar(max(h))
        res: dict = {}
        for w, p in h.items():
            bp = laurent.bar(p)
            for z, q in self._bar[w].items():
                _acc(res, z, laurent.mul(bp, q))
        return res

    # -- Kazhdan-Lusztig basis ----------------------------------------------------------

    def _ensure_kl(self, upto: int) -> None:
        with self._lock:
            while len(self._kl) <= upto:
                self._kl.append(self._compute_kl(len(self._kl)))

    def _left_walk(self, s: int, y: int) -> tuple[dict, dict]:
        """For y < s y: C_{sy} in the standard basis and the M with
        C_s C_y = C_{sy} + sum_z M_z C_z."""
        zero = self.zero_exp
        cy = self.kl_vec(y)
        sy = self.system.left_mult_gen(s, y)
        vec = self.mul_gen_left(s, cy)
        neg_weight = tuple(-x for x in self.weights.of(s))
        for z, p in cy.items():
            _acc(vec, z, laurent.shift(p, neg_weight))
        heap = [-z for z in vec if z != sy]
        heapq.heapify(heap)
        ms: dict = {}
        while heap:
            z = -heapq.heappop(heap)
            p = vec.get(z)
            if p is None or max(p) < zero:
                continue
            # the bar-fixed M_z that leaves a strictly negative coefficient
            # at T_z: the terms of p of degree >= 0, mirrored
            m = {}
            for e, c in p.items():
                if e >= zero:
                    m[e] = c
                    if e > zero:
                        m[tuple(-x for x in e)] = c
            ms[z] = m
            neg_m = laurent.neg(m)
            # C_z lives on ids <= z, so no id above z changes again
            for x, q in self.kl_vec(z).items():
                if x not in vec:
                    heapq.heappush(heap, -x)
                _acc(vec, x, laurent.mul(neg_m, q))
        return vec, ms

    def _compute_kl(self, w: int) -> dict:
        """C_w from the walk on (s, s w), s the first letter of w; the walk's
        row C_s C_{sw} goes into the memo of cs_left_row."""
        zero = self.zero_exp
        if w == 0:
            return self.unit()
        s = self.system.word(w)[0]
        sw = self.system.left_mult_gen(s, w)
        cur, ms = self._left_walk(s, sw)
        for x, p in cur.items():
            if x == w:
                if p != {zero: 1}:
                    raise ConsistencyError("C_%d is not unitriangular" % w)
            elif laurent.deg(p) >= zero:
                raise ConsistencyError(
                    "coefficient of T_%d in C_%d is not strictly negative" % (x, w)
                )
        self._h.setdefault((self.gen_id(s), sw), {w: {zero: 1}, **ms})
        return cur

    def kl_vec(self, w: int) -> dict:
        """C_w expanded in the standard basis (id -> coefficient dict)."""
        self._ensure_kl(w)
        return self._kl[w]

    def pstar_poly(self, x: int, y: int) -> dict:
        return self.kl_vec(y).get(x, {})

    def to_kl(self, h: dict) -> dict:
        """Rewrite a standard-basis vector over the Kazhdan-Lusztig basis."""
        rem = {w: dict(p) for w, p in h.items()}
        out: dict = {}
        while rem:
            x = max(rem)
            c = dict(rem[x])
            out[x] = c
            for y, p in self.kl_vec(x).items():
                _acc(rem, y, laurent.neg(laurent.mul(c, p)))
            if x in rem:
                raise ConsistencyError("triangular reduction failed at %d" % x)
        return out

    def to_standard(self, klvec: dict) -> dict:
        res: dict = {}
        for x, c in klvec.items():
            for y, p in self.kl_vec(x).items():
                _acc(res, y, laurent.mul(c, p))
        return res

    # -- structure constants -----------------------------------------------------------

    def h_row(self, x: int, y: int) -> dict:
        """C_x C_y in the Kazhdan-Lusztig basis: a dict z -> h_{x,y,z}.

        With s the first letter of x and x' = s x, C_s C_x' = C_x + sum m_z C_z
        over z < x, so C_x C_y = C_s (C_x' C_y) - sum m_z C_z C_y.
        """
        key = (x, y)
        row = self._h.get(key)
        if row is not None:
            return row
        if x == 0:
            row = {y: {self.zero_exp: 1}}
        else:
            s = self.system.word(x)[0]
            xp = self.system.left_mult_gen(s, x)
            row = {}
            for u, c in self.h_row(xp, y).items():
                for z, p in self.cs_left_row(s, u).items():
                    _acc(row, z, laurent.mul(c, p))
            for z, m in self.cs_left_row(s, xp).items():
                if z != x:
                    for w, p in self.h_row(z, y).items():
                        _acc(row, w, laurent.neg(laurent.mul(m, p)))
        with self._lock:
            return self._h.setdefault(key, row)

    def h_poly(self, x: int, y: int, z: int) -> dict:
        return self.h_row(x, y).get(z, {})

    def full_h_table(self, jobs: int = 1) -> dict:
        """All structure-constant rows, keyed (x, y).

        `jobs` is ignored; it stays accepted because the `h_table_jobs2` probe
        in perfbench/workloads.py passes jobs=2.
        """
        if not self._h_complete:
            ids = self.system.all_ids()
            for y in ids:
                for x in ids:
                    self.h_row(x, y)
            self._h_complete = True
        return self._h

    def cs_row(self, side: str, s: int, y: int) -> dict:
        """C_s C_y (side "left") or C_y C_s (otherwise) in the Kazhdan-Lusztig basis."""
        return self.cs_left_row(s, y) if side == "left" else self.cs_right_row(y, s)

    def cs_right_row(self, y: int, s: int) -> dict:
        """C_y C_s in the Kazhdan-Lusztig basis: cs_left_row(s, y^-1) inverted."""
        inv = self.system.inverse
        return {inv(z): p for z, p in self.cs_left_row(s, inv(y)).items()}

    def cs_left_row(self, s: int, y: int) -> dict:
        """C_s C_y in the Kazhdan-Lusztig basis (memo shared with h_row)."""
        key = (self.gen_id(s), y)
        row = self._h.get(key)
        if row is not None:
            return row
        sy = self.system.left_mult_gen(s, y)
        if sy < y:
            row = {y: dict(self._cs_diag[s])}
        else:
            csy = self.kl_vec(sy)
            row = self._h.get(key)
            if row is None:
                rem, ms = self._left_walk(s, y)
                if rem != csy:
                    raise ConsistencyError(
                        "C_%d C_%d does not peel down to C_%d" % (self.gen_id(s), y, sy)
                    )
                row = {sy: {self.zero_exp: 1}, **ms}
        with self._lock:
            return self._h.setdefault(key, row)

    def t_word_kl(self, side: str, letters, klvec: dict) -> dict:
        """T_u h (side "left") or h T_u (side "right") in the Kazhdan-Lusztig
        basis, for a C-basis vector h and u given by a reduced word.

        Each letter applies T_s = C_s - v^-L(s) through the C_s rows, so the
        product never passes through the standard basis.
        """
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        letters = tuple(letters)
        for s in reversed(letters) if side == "left" else letters:
            neg_weight = tuple(-x for x in self.weights.of(s))
            out: dict = {}
            for y, c in klvec.items():
                for z, p in self.cs_row(side, s, y).items():
                    _acc(out, z, laurent.mul(c, p))
                _acc(out, y, laurent.neg(laurent.shift(c, neg_weight)))
            klvec = out
        return klvec

    # -- mixed basis for a parabolic subgroup ------------------------------------------

    def mixed_basis_table(self, pdata: ParabolicData) -> "MixedBasisTable":
        return self.memo(("mixed", pdata.indices), lambda: _build_mixed_table(self, pdata))

    # -- public element-level API ----------------------------------------------------------

    def _wrap_poly(self, p: dict) -> GroupAlgebraElement:
        return GroupAlgebraElement(self.group, p)

    def element(self, coeffs, basis: str = "T") -> "HeckeElement":
        vec: dict = {}
        for w, c in coeffs.items():
            wid = w.index if isinstance(w, CoxeterElement) else int(w)
            p = c.terms if isinstance(c, GroupAlgebraElement) else dict(c)
            _acc(vec, wid, p)
        return HeckeElement(self, basis, vec)

    def t_element(self, w) -> "HeckeElement":
        wid = w.index if isinstance(w, CoxeterElement) else int(w)
        return HeckeElement(self, "T", self.t_of(wid))

    def kl_element(self, w) -> "HeckeElement":
        """C_w, expanded in the standard basis."""
        wid = w.index if isinstance(w, CoxeterElement) else int(w)
        return HeckeElement(self, "T", {z: dict(p) for z, p in self.kl_vec(wid).items()})

    def structure_constants(self, x, y) -> dict:
        xid = x.index if isinstance(x, CoxeterElement) else int(x)
        yid = y.index if isinstance(y, CoxeterElement) else int(y)
        row = self.h_row(xid, yid)
        sys = self.system
        return {
            CoxeterElement(sys, z): self._wrap_poly(p) for z, p in sorted(row.items())
        }

    @property
    def kl_table(self) -> "KLTable":
        return KLTable(self)


@dataclass(frozen=True, eq=False)
class HeckeElement:
    """A finitely supported A-combination of basis elements T_w or C_w."""

    algebra: HeckeAlgebra
    basis: str
    vec: dict

    def __post_init__(self):
        if self.basis not in ("T", "C"):
            raise ValueError("basis must be 'T' or 'C'")

    @property
    def support(self) -> dict:
        sys = self.algebra.system
        return {
            CoxeterElement(sys, w): self.algebra._wrap_poly(p)
            for w, p in sorted(self.vec.items())
        }

    def coefficient(self, w) -> GroupAlgebraElement:
        wid = w.index if isinstance(w, CoxeterElement) else int(w)
        return self.algebra._wrap_poly(self.vec.get(wid, {}))

    def _same(self, other: "HeckeElement") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("elements of different Hecke algebras")

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        self._same(other)
        if self.basis != other.basis:
            raise ValueError("cannot add %s- and %s-basis elements" % (self.basis, other.basis))
        vec = {w: dict(p) for w, p in self.vec.items()}
        for w, p in other.vec.items():
            _acc(vec, w, p)
        return HeckeElement(self.algebra, self.basis, vec)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        self._same(other)
        if self.basis != other.basis:
            raise ValueError("cannot mix bases")
        vec = {w: dict(p) for w, p in self.vec.items()}
        for w, p in other.vec.items():
            _acc(vec, w, laurent.neg(p))
        return HeckeElement(self.algebra, self.basis, vec)

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        self._same(other)
        a = self.to_standard() if self.basis == "C" else self
        b = other.to_standard() if other.basis == "C" else other
        prod = self.algebra.t_mul(a.vec, b.vec)
        if self.basis == "C" and other.basis == "C":
            return HeckeElement(self.algebra, "C", self.algebra.to_kl(prod))
        return HeckeElement(self.algebra, "T", prod)

    def bar(self) -> "HeckeElement":
        if self.basis != "T":
            raise ValueError("bar is computed in the standard basis")
        return HeckeElement(self.algebra, "T", self.algebra.bar_vec(self.vec))

    def to_kl(self) -> "HeckeElement":
        if self.basis == "C":
            return self
        return HeckeElement(self.algebra, "C", self.algebra.to_kl(self.vec))

    def to_standard(self) -> "HeckeElement":
        if self.basis == "T":
            return self
        return HeckeElement(self.algebra, "T", self.algebra.to_standard(self.vec))

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if self.algebra is not other.algebra:
            return False
        a, b = self, other
        if a.basis != b.basis:
            a, b = a.to_standard(), b.to_standard()
        return a.vec == b.vec

    def __bool__(self):
        return bool(self.vec)

    def __repr__(self):
        sys = self.algebra.system
        parts = [
            "(%s)%s_%s" % (laurent.render(p), self.basis, sys.word(w) and ".".join(sys.labels[s] for s in sys.word(w)) or "1")
            for w, p in sorted(self.vec.items())
        ]
        return "<H %s>" % (" + ".join(parts) if parts else "0")


class KLTable:
    """Read-only view of the memoized p* and h tables."""

    def __init__(self, algebra: HeckeAlgebra):
        self.algebra = algebra

    def pstar(self, x, y) -> GroupAlgebraElement:
        xid = x.index if isinstance(x, CoxeterElement) else int(x)
        yid = y.index if isinstance(y, CoxeterElement) else int(y)
        return self.algebra._wrap_poly(self.algebra.pstar_poly(xid, yid))

    def h(self, x, y, z) -> GroupAlgebraElement:
        ids = [v.index if isinstance(v, CoxeterElement) else int(v) for v in (x, y, z)]
        return self.algebra._wrap_poly(self.algebra.h_poly(*ids))


@dataclass
class MixedBasisTable:
    """Expansion of the C-basis over the induced basis T_a C_x (a minimal, x in W_I).

    Rows are keyed by the element by (= b*y) and columns by u = a*x; the
    decomposition of u recovers the pair (a, x).  The rows come from the left
    C_s recursion: row(x) = {x: 1} for x in W_I, and otherwise, with s the
    first letter of w and y = s w, row(w) = C_s row(y) - sum_{z != w} M_z
    row(z), the M read off cs_left_row(s, y).  C_s sends the column u = a x
    to s u with coefficient 1 plus u itself with v^L(s) if sa < a, or with
    v^-L(s) if sa is minimal in its coset; otherwise sa = a t with t in I
    and the column becomes T_a C_t C_x.  Construction checks that the
    diagonal coefficient is 1 and that off-diagonal coefficients are
    strictly negative in degree; the finer support constraints are exposed
    for the verification layer.
    """

    algebra: HeckeAlgebra
    pdata: ParabolicData
    rows: dict  # w -> {u: coefficient dict}

    def coefficient(self, a: int, x: int, b: int, y: int) -> dict:
        sys = self.algebra.system
        u = sys.multiply(a, x)
        w = sys.multiply(b, y)
        return self.rows[w].get(u, {})


def _build_mixed_table(algebra: HeckeAlgebra, pdata: ParabolicData) -> MixedBasisTable:
    sys = algebra.system
    if not sys.is_finite:
        raise ValueError("mixed basis tables need a finite group")
    zero = algebra.zero_exp
    one = {zero: 1}
    parts = pdata.left_parts
    products = pdata.left_products
    columns: dict = {}

    def cs_column(s: int, u: int) -> tuple:
        """C_s T_a C_x for u = a x (Deodhar's lemma): (s u, e, None) when it is
        T_{sa} C_x + v^e T_a C_x, else (None, None, the row over the basis)."""
        key = (s, u)
        col = columns.get(key)
        if col is None:
            a, x = parts[u]
            sa = sys.left_mult_gen(s, a)
            weight = algebra.weights.of(s)
            if sys.length(sa) < sys.length(a):
                col = (sys.left_mult_gen(s, u), weight, None)
            elif parts[sa][1] == 0:
                col = (sys.left_mult_gen(s, u), tuple(-e for e in weight), None)
            else:
                # s a = a t with t in I, so C_s T_a C_x = T_a C_t C_x
                row = algebra.cs_left_row(sys.word(parts[sa][1])[0], x)
                col = (None, None, {products[a, z]: p for z, p in row.items()})
            columns[key] = col
        return col

    rows: dict = {}
    for w in sys.all_ids():  # ids ascend in length, so every row used is built
        if parts[w][0] == 0:
            rows[w] = {w: dict(one)}
            continue
        s = sys.word(w)[0]
        y = sys.left_mult_gen(s, w)
        out: dict = {}
        for u, c in rows[y].items():
            su, e, col = cs_column(s, u)
            if col is None:
                _acc(out, su, c)
                _acc(out, u, laurent.shift(c, e))
            else:
                for z, p in col.items():
                    _acc(out, z, laurent.mul(c, p))
        # C_s C_y = C_w + sum_z M_z C_z
        for z, m in algebra.cs_left_row(s, y).items():
            if z != w:
                neg_m = laurent.neg(m)
                for u, p in rows[z].items():
                    _acc(out, u, laurent.mul(neg_m, p))
        if out.get(w) != one:
            raise ConsistencyError("mixed-basis diagonal coefficient is not 1 at %d" % w)
        for u, p in out.items():
            if u != w and laurent.deg(p) >= zero:
                raise ConsistencyError(
                    "mixed-basis coefficient (%d in %d) not strictly negative" % (u, w)
                )
        rows[w] = out
    return MixedBasisTable(algebra, pdata, rows)


_registry: dict = {}
_registry_lock = threading.Lock()


def algebra_for(system: CoxeterSystem, weights: WeightFunction) -> HeckeAlgebra:
    """Shared algebra instances so memo tables are reused process-wide."""
    key = (id(system), weights.values)
    with _registry_lock:
        alg = _registry.get(key)
        if alg is None:
            alg = HeckeAlgebra(system, weights)
            _registry[key] = alg
    return alg
