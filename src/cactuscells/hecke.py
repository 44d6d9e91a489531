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

with bar-fixed M.  As C_s = T_s + v^-L(s), the coefficient of T_x in C_s C_y
is v^L(s) p_x + p_{sx} if sx < x and v^-L(s) p_x + p_{sx} otherwise, p_x
being that of C_y, so one pass over C_y expands the product in the standard
basis.  Peeling off, from the top down, the bar-fixed completion of each
coefficient that is not strictly negative leaves C_{sy} and yields the M
(`_left_walk`).  Only left descents z (sz < z) are peeled: M^s_{z,y} is
nonzero only for sz < z < y (ibid., section 6).  So C_w is the walk on
(s, s w) for s the first letter of w, and cs_left_row reads its M.  The
anti-involution T_w -> T_{w^-1} commutes with bar and sends C_w to
C_{w^-1}, so each right-hand product is the image (`_mirror`: ids inverted,
coefficients shared) of a left-hand one, and only left C_s rows are computed
or stored.  The bar images of the T_w serve only `HeckeElement.bar()`.

Structure constants come from the same recursion: for x' = s x < x,
C_s C_x' = C_x + sum_{z < x} M^s_{z,x'} C_z, so C_x C_y = C_s (C_x' C_y) -
sum_{z != x} M_z C_z C_y in the C basis.  The M do not depend on the basis
the C are written in, so `_peel_rows` is the one routine that runs this
recursion, given the first rows and the action of C_s on a row.
`h_column(y)` starts it from C_1 C_y = C_y and yields column y in id order,
keeping nothing once the column is done; the a-function and gamma consume
it directly.  Only x <= y^-1 run it: h_{x,y,z} = h_{y^-1,x^-1,z^-1} by the
anti-involution, so every other row is a mirror row.  `h_row` memoizes it
on demand: a miss stores the whole column, and a mirror row shares the
coefficient dicts of its source row.  `mixed_basis_table` starts it from C_x
for x in W_I and writes C_w over the induced basis T_a C_x of a parabolic
W_I (a minimal in a W_I; `MixedBasisTable`), where C_s = T_s + v^-L(s) acts
by Deodhar's lemma: T_{sa} C_x + v^L(s) T_a C_x if sa < a, T_{sa} C_x +
v^-L(s) T_a C_x if sa is minimal in its coset, and otherwise sa = a t with
t in I and the product is T_a C_t C_x, read off the C_t row of x.  Those
coefficients are Geck's relative Kazhdan-Lusztig polynomials (On the
induction of Kazhdan-Lusztig cells).  The h columns multiply by C_s through
the one left step `_cs_times`.  Products by T_u (`t_word_kl`) apply T_s =
C_s - v^-L(s) in one pass per letter: at a left descent y, T_s C_y =
v^L(s) C_y, and otherwise T_s C_y is the row C_s C_y less v^-L(s) C_y.  A
right product by T_u is a mirrored left one.

Internally coefficients are the plain dicts of `laurent`, keyed by packed
int exponents (`zero_exp` is 0, and the bar of v^e is v^-e); element vectors
are dicts mapping element ids to coefficient dicts.  Every product of
coefficients accumulates in place through `laurent.add_mul` (`_acc_mul`),
whose inner step is one int add per term product.  The monomials v^L(s)
and v^-L(s) are never multiplied: L(s) is packed once per generator from the
`WeightFunction`, and the walk, `t_word_kl` and the Deodhar step add L(s) or
-L(s) to each exponent (`_acc_shift`).  Exponent
tuples appear only at the public boundary: `element` packs them, and the
`GroupAlgebraElement` views unpack them.

Stored coefficients are pooled: each algebra keeps one pool of read-only
coefficient dicts keyed by their terms, and every finished vector it stores
(the C_w, the C_s rows, the memoized h rows, the mixed-basis rows) passes
once through `_share`, so equal polynomials are one object.  Mirror rows and
right rows reuse their source row's dicts.  A pooled dict is never an
accumulator's target: `_acc` copies a coefficient before it stores it, and
`_acc_shift` and `_acc_mul` write only dicts they created.  All memo tables
belong to the algebra, including the cells, a-tables and involutions that
other modules keep in `HeckeAlgebra.memo`; they are lock-protected and
immutable once inserted, so concurrent readers are safe and results do not
depend on scheduling.  Mixed-basis tables are the exception:
`mixed_basis_table` builds one per call and keeps none, as each is read once.
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


def _acc_shift(vec: dict, w: int, p: dict, e: int) -> None:
    """In-place vec[w] += v^e * p for a packed exponent e: one int add per
    term, dropping w when its coefficient cancels."""
    cur = vec.get(w)
    if cur is None:
        if p:
            vec[w] = {f + e: c for f, c in p.items()}
        return
    get = cur.get
    for f, c in p.items():
        f += e
        c = get(f, 0) + c
        if c:
            cur[f] = c
        elif f in cur:
            del cur[f]
    if not cur:
        del vec[w]


def _acc_mul(vec: dict, w: int, a: dict, b: dict, sign: int = 1) -> None:
    """In-place vec[w] += sign * a * b, dropping w when its coefficient cancels."""
    cur = vec.get(w)
    if cur is None:
        cur = vec[w] = {}
    laurent.add_mul(cur, a, b, sign)
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
        self.zero_exp = 0
        # the packed L(s); v^L(s) + v^-L(s), the diagonal of C_s C_y for
        # sy < y; and xi_s = v^L(s) - v^-L(s)
        self._weight = [laurent.pack(weights.of(s)) for s in range(system.rank)]
        self._cs_diag = [laurent.add({e: 1}, {-e: 1}) for e in self._weight]
        self._xi = [laurent.sub({e: 1}, {-e: 1}) for e in self._weight]
        self._bar: list[dict] = []
        self._kl: list[dict] = []
        self._h: dict = {}
        self._h_complete = False
        self._pool: dict = {}
        self._gen_ids = [system.id_of_word((s,)) for s in range(system.rank)]
        self._memo: dict = {}
        self._lock = threading.RLock()

    def _share(self, vec: dict) -> dict:
        """Swap each coefficient of a finished vector, in place, for the
        pooled read-only dict equal to it, and return the vector."""
        pool = self._pool
        for w, p in vec.items():
            vec[w] = pool.setdefault(frozenset(p.items()), p)
        return vec

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
        return self._gen_ids[s]

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
                _acc_mul(res, w, xi, p)
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
                _acc_mul(res, z, p, c)
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
                    _acc_mul(vec, w, xi, p, -1)
                self._bar.append(vec)

    def bar_vec(self, h: dict) -> dict:
        """Image of a standard-basis vector under the bar involution."""
        if h:
            self._ensure_bar(max(h))
        res: dict = {}
        for w, p in h.items():
            bp = laurent.bar(p)
            for z, q in self._bar[w].items():
                _acc_mul(res, z, bp, q)
        return res

    # -- Kazhdan-Lusztig basis ----------------------------------------------------------

    def _ensure_kl(self, upto: int) -> None:
        with self._lock:
            while len(self._kl) <= upto:
                self._kl.append(self._share(self._compute_kl(len(self._kl))))

    def _left_walk(self, s: int, y: int) -> tuple[dict, dict]:
        """For y < s y: C_{sy} in the standard basis and the M with
        C_s C_y = C_{sy} + sum_z M_z C_z.

        With C_y = sum_x p_x T_x and C_s = T_s + v^-L(s), the coefficient of
        T_x in C_s C_y is v^L(s) p_x + p_{sx} if sx < x and v^-L(s) p_x +
        p_{sx} otherwise, so one pass over C_y builds it: p_x shifted by
        +-L(s) at x, and p_x added at sx.  Then, from the top down, each
        coefficient of degree >= 0 is peeled.  Only left descents are
        candidates: M_z is nonzero only when sz < z < y (Lusztig, Hecke
        algebras with unequal parameters, section 6), and at x < sx both
        terms of the coefficient are strictly negative.
        """
        zero = self.zero_exp
        lmul = self.system.left_mult_gen
        cy = self.kl_vec(y)
        up = self._weight[s]
        vec: dict = {}
        heap = []
        for x, p in cy.items():
            sx = lmul(s, x)
            if sx < x:
                heap.append(-x)
                e = up
            else:
                e = -up
            _acc_shift(vec, x, p, e)
            _acc(vec, sx, p)
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
                        m[-e] = c
            ms[z] = m
            # C_z lives on ids <= z, so no id above z changes again
            for x, q in self.kl_vec(z).items():
                if x not in vec and lmul(s, x) < x:
                    heapq.heappush(heap, -x)
                _acc_mul(vec, x, m, q, -1)
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
        self._h.setdefault((self.gen_id(s), sw), self._share({w: {zero: 1}, **ms}))
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
                _acc_mul(rem, y, c, p, -1)
            if x in rem:
                raise ConsistencyError("triangular reduction failed at %d" % x)
        return out

    def to_standard(self, klvec: dict) -> dict:
        res: dict = {}
        for x, c in klvec.items():
            for y, p in self.kl_vec(x).items():
                _acc_mul(res, y, c, p)
        return res

    # -- structure constants -----------------------------------------------------------

    def _mirror(self, vec: dict) -> dict:
        """C_w -> C_{w^-1} on a C-basis vector: ids inverted, coefficients shared."""
        inv = self.system.inverse
        return {inv(z): p for z, p in vec.items()}

    def _cs_times(self, s: int, vec: dict) -> dict:
        """C_s h for a C-basis vector h, through the left C_s rows."""
        out: dict = {}
        for y, c in vec.items():
            for z, p in self.cs_left_row(s, y).items():
                _acc_mul(out, z, c, p)
        return out

    def _peel_rows(self, ids, first, cs_times):
        """Yield (w, row(w)) for each w of the ascending `ids`: first(w) when
        that is not None, else cs_times(s, row(s w)) - sum_{z != w} M_z row(z),
        with s the first letter of w and the M read off cs_left_row(s, s w).
        As the M sit at z < w, every row read is built and already yielded.
        """
        word = self.system.word
        lmul = self.system.left_mult_gen
        rows: dict = {}
        for w in ids:
            row = first(w)
            if row is None:
                s = word(w)[0]
                sw = lmul(s, w)
                row = cs_times(s, rows[sw])
                for z, m in self.cs_left_row(s, sw).items():
                    if z != w:
                        for u, p in rows[z].items():
                            _acc_mul(row, u, m, p, -1)
            rows[w] = row
            yield w, row

    def h_column(self, y: int):
        """Yield (x, C_x C_y) in the Kazhdan-Lusztig basis for x <= y^-1, in
        id order: column y of the structure constants, peeled from C_1 C_y =
        C_y with no row kept beyond this column.  The rows are not pooled.
        """
        unit = {y: {self.zero_exp: 1}}
        return self._peel_rows(
            range(self.system.inverse(y) + 1),
            lambda x: unit if x == 0 else None,
            self._cs_times,
        )

    def h_row(self, x: int, y: int) -> dict:
        """C_x C_y in the Kazhdan-Lusztig basis: a dict z -> h_{x,y,z}, memoized.

        For x <= y^-1 in id order, a miss runs `h_column(y)` to the end and
        memoizes every row it yields, pooled, so no column is run twice.  For
        x > y^-1 the row is read off the mirror h_{x,y,z} = h_{y^-1,x^-1,z^-1}
        of the anti-involution C_w -> C_{w^-1}, and shares its coefficient
        dicts with the row of (y^-1, x^-1).
        """
        key = (x, y)
        row = self._h.get(key)
        if row is not None:
            return row
        inv = self.system.inverse
        if x > inv(y):
            row = self._mirror(self.h_row(inv(y), inv(x)))
            with self._lock:
                return self._h.setdefault(key, row)
        column = [(u, self._share(r)) for u, r in self.h_column(y)]
        with self._lock:
            for u, r in column:
                self._h.setdefault((u, y), r)
            return self._h[key]

    def h_poly(self, x: int, y: int, z: int) -> dict:
        return self.h_row(x, y).get(z, {})

    def full_h_table(self, jobs: int = 1) -> dict:
        """All structure-constant rows, keyed (x, y).

        Only the pairs with x <= y^-1 run the C_s recursion; each other row
        is the mirror of its (y^-1, x^-1) row and shares that row's
        coefficient dicts.  `jobs` is ignored; it stays accepted because the
        `h_table_jobs2` probe in perfbench/workloads.py passes jobs=2.
        """
        if not self._h_complete:
            ids = self.system.all_ids()
            for y in ids:
                for x in ids:
                    self.h_row(x, y)
            self._h_complete = True
        return self._h

    def cs_row(self, side: str, s: int, y: int) -> dict:
        """C_s C_y (side "left") or C_y C_s (side "right") in the Kazhdan-Lusztig basis."""
        if side == "left":
            return self.cs_left_row(s, y)
        if side == "right":
            return self.cs_right_row(y, s)
        raise ValueError("side must be 'left' or 'right'")

    def cs_right_row(self, y: int, s: int) -> dict:
        """C_y C_s in the Kazhdan-Lusztig basis, mirrored from cs_left_row(s, y^-1)."""
        return self._mirror(self.cs_left_row(s, self.system.inverse(y)))

    def cs_left_row(self, s: int, y: int) -> dict:
        """C_s C_y in the Kazhdan-Lusztig basis (memo shared with h_row)."""
        key = (self._gen_ids[s], y)
        row = self._h.get(key)
        if row is not None:
            return row
        sy = self.system.left_mult_gen(s, y)
        if sy < y:
            row = self._share({y: self._cs_diag[s]})
        else:
            csy = self.kl_vec(sy)
            row = self._h.get(key)
            if row is None:
                rem, ms = self._left_walk(s, y)
                if rem != csy:
                    raise ConsistencyError(
                        "C_%d C_%d does not peel down to C_%d" % (self.gen_id(s), y, sy)
                    )
                row = self._share({sy: {self.zero_exp: 1}, **ms})
        with self._lock:
            return self._h.setdefault(key, row)

    def t_word_kl(self, side: str, letters, klvec: dict) -> dict:
        """T_u h (side "left") or h T_u (side "right") in the Kazhdan-Lusztig
        basis, for a C-basis vector h and u given by a reduced word.

        Each letter is one pass over h with T_s = C_s - v^-L(s): at a left
        descent y (s y < y), C_s C_y = (v^L(s) + v^-L(s)) C_y, so T_s C_y =
        v^L(s) C_y is the coefficient shifted by L(s); otherwise T_s C_y is
        the row cs_left_row(s, y), which lives on s y and on left descents,
        less v^-L(s) C_y.  The product never passes through the standard
        basis.  h T_u is the `_mirror` of T_{u^-1} applied to the mirror of h.
        """
        letters = tuple(letters)
        if side == "right":
            letters, klvec = letters[::-1], self._mirror(klvec)
        elif side != "left":
            raise ValueError("side must be 'left' or 'right'")
        lmul = self.system.left_mult_gen
        for s in reversed(letters):
            up = self._weight[s]
            out: dict = {}
            for y, c in klvec.items():
                if lmul(s, y) < y:
                    _acc_shift(out, y, c, up)
                else:
                    for z, p in self.cs_left_row(s, y).items():
                        _acc_mul(out, z, c, p)
                    # every other write of this pass lands on a left
                    # descent, which y is not: this is y's whole coefficient
                    out[y] = {f - up: -a for f, a in c.items()}
            klvec = out
        return self._mirror(klvec) if side == "right" else klvec

    # -- mixed basis for a parabolic subgroup ------------------------------------------

    def mixed_basis_table(self, pdata: ParabolicData) -> "MixedBasisTable":
        """Every C_w over the induced basis T_a C_x of W_I, peeled from the
        C_x of W_I; a new table on each call, as tables are not memoized."""
        sys = self.system
        if not sys.is_finite:
            raise ValueError("mixed basis tables need a finite group")
        zero = self.zero_exp
        one = {zero: 1}
        parts = pdata.left_parts
        products = pdata.left_products
        columns: dict = {}

        def cs_column(s: int, u: int) -> tuple:
            """C_s T_a C_x for u = a x: (s u, e, None) when it is T_{sa} C_x
            + v^e T_a C_x (e packed), else (None, None, the row over the basis)."""
            key = (s, u)
            col = columns.get(key)
            if col is None:
                a, x = parts[u]
                sa = sys.left_mult_gen(s, a)
                if sys.length(sa) < sys.length(a):
                    col = (sys.left_mult_gen(s, u), self._weight[s], None)
                elif parts[sa][1] == 0:
                    col = (sys.left_mult_gen(s, u), -self._weight[s], None)
                else:
                    # s a = a t with t in I, so C_s T_a C_x = T_a C_t C_x
                    row = self.cs_left_row(sys.word(parts[sa][1])[0], x)
                    col = (None, None, {products[a, z]: p for z, p in row.items()})
                columns[key] = col
            return col

        def deodhar(s: int, vec: dict) -> dict:
            out: dict = {}
            for u, c in vec.items():
                su, e, col = cs_column(s, u)
                if col is None:
                    _acc(out, su, c)
                    _acc_shift(out, u, c, e)
                else:
                    for z, p in col.items():
                        _acc_mul(out, z, c, p)
            return out

        rows: dict = {}
        peeled = self._peel_rows(
            sys.all_ids(),  # ids ascend in length, so every row used is built
            lambda w: {w: {zero: 1}} if parts[w][0] == 0 else None,
            deodhar,
        )
        for w, row in peeled:
            if row.get(w) != one:
                raise ConsistencyError("mixed-basis diagonal coefficient is not 1 at %d" % w)
            for u, p in row.items():
                if u != w and laurent.deg(p) >= zero:
                    raise ConsistencyError(
                        "mixed-basis coefficient (%d in %d) not strictly negative" % (u, w)
                    )
            rows[w] = self._share(row)
        return MixedBasisTable(self, pdata, rows)

    # -- public element-level API ----------------------------------------------------------

    def _wrap_poly(self, p: dict) -> GroupAlgebraElement:
        return GroupAlgebraElement._raw(self.group, p)

    def element(self, coeffs, basis: str = "T") -> "HeckeElement":
        """The element sum_w c_w T_w (or C_w); each c_w is a GroupAlgebraElement
        over this algebra's group or a mapping of exponent tuples (bare ints
        at rank 1) to integers.  Zero coefficients are dropped; an exponent
        of the wrong rank raises ValueError."""
        vec: dict = {}
        for w, c in coeffs.items():
            wid = w.index if isinstance(w, CoxeterElement) else int(w)
            if not isinstance(c, GroupAlgebraElement):
                c = GroupAlgebraElement(self.group, c)
            elif c.group != self.group:
                raise ValueError("coefficient lives over a different exponent group")
            _acc(vec, wid, c._terms)
        return HeckeElement(self, basis, vec)

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
            "(%s)%s_%s" % (laurent.render(p, self.algebra.rank), self.basis, sys.word(w) and ".".join(sys.labels[s] for s in sys.word(w)) or "1")
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
    decomposition of u recovers the pair (a, x).  `mixed_basis_table` builds
    them and checks that the diagonal coefficient is 1 and that off-diagonal
    coefficients are strictly negative in degree; the finer support
    constraints are exposed for the verification layer.
    """

    algebra: HeckeAlgebra
    pdata: ParabolicData
    rows: dict  # w -> {u: coefficient dict}


_registry: dict = {}
_registry_lock = threading.Lock()


def algebra_for(system: CoxeterSystem, weights: WeightFunction) -> HeckeAlgebra:
    """Shared algebra instances so memo tables are reused process-wide; keyed
    by the weights, whose equality compares their system by identity."""
    if weights.system is not system:
        raise ValueError("weight function belongs to a different system")
    with _registry_lock:
        alg = _registry.get(weights)
        if alg is None:
            alg = _registry[weights] = HeckeAlgebra(system, weights)
    return alg
