"""Cell involutions induced by longest elements, sign maps, cellular pairs.

For a finite standard parabolic W_I whose triple satisfies the structural
hypotheses P1, P4, P8, P9, multiplying C_w (w in W_I) by T_{w_I} and
renormalising by v^{alpha_I(w)} fixes, modulo strictly lower two-sided
terms, a single Kazhdan-Lusztig element with coefficient +-1.  This yields
two involutions of W_I (one from each side) sharing one sign map; extending
through the minimal coset representatives gives a permutation of all of W
together with its sign.  These extended pairs are the generators of the
cactus group action.

A pair (delta, mu) of a permutation of W and a sign map is *left cellular*
when delta permutes the left cells and c_w -> mu_w c_{delta(w)} intertwines
the generator action on every cell module, and *strongly* so when delta
additionally preserves right cells elementwise.  All of those conditions
are checked exhaustively by the verifiers below, which report witnesses
instead of raising; only a failure of the defining congruence itself (a
remainder that is not a signed basis element) raises TheoremViolationError,
since downstream constructions would be meaningless.

Hypothesis enforcement is soft: when the P-checks fail for a triple the
computation is still attempted and the result is tagged unverified.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from . import laurent
from .cells import (
    AFunctionTable,
    CellDecomposition,
    CheckReport,
    MAX_WITNESSES,
    build_a_table,
    verify_conjectures,
)
from .coxeter import ParabolicData
from .hecke import HeckeAlgebra, algebra_for

__all__ = [
    "TheoremViolationError",
    "CellularPair",
    "LongestElementInvolutions",
    "ParabolicInvolutions",
    "longest_element_involutions",
    "parabolic_involutions",
    "verify_cellular_pair",
    "verify_descent_invariance",
    "verify_mixed_basis_sign_identity",
    "verify_characterization",
    "verify_commutation",
    "degree_bounds_report",
]


class TheoremViolationError(Exception):
    """A congruence that is guaranteed under verified hypotheses failed."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}


@dataclass(frozen=True)
class CellularPair:
    """A permutation of W with a sign map, acting on one side's cell modules."""

    side: str
    delta: dict
    mu: dict

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if set(self.mu.values()) - {1, -1}:
            raise ValueError("mu must take values +-1")

    def compose(self, other: "CellularPair") -> "CellularPair":
        """self after other, with signs multiplied along the composition."""
        if self.side != other.side:
            raise ValueError("cannot compose pairs of different sides")
        delta = {w: self.delta[other.delta[w]] for w in other.delta}
        mu = {w: other.mu[w] * self.mu[other.delta[w]] for w in other.delta}
        return CellularPair(self.side, delta, mu)

    @classmethod
    def identity(cls, side: str, ids) -> "CellularPair":
        return cls(side, {w: w for w in ids}, {w: 1 for w in ids})


@dataclass
class LongestElementInvolutions:
    """The involutions and sign map of one finite (W, S, phi)."""

    algebra: HeckeAlgebra
    table: AFunctionTable
    cells: CellDecomposition
    left_map: dict  # from right multiplication by T_{w_0}; strongly left cellular
    right_map: dict  # from left multiplication by T_{w_0}; strongly right cellular
    sign: dict
    hypotheses: dict
    hypotheses_hold: bool


def _extract_signed_element(algebra: HeckeAlgebra, klvec: dict, w: int, part) -> tuple[int, int]:
    """Drop the strictly-lower two-sided part, then demand exactly +-C_z."""
    remainder = {
        z: p for z, p in klvec.items() if p and not part.less(z, w)
    }
    zero = algebra.zero_exp
    if len(remainder) == 1:
        (z, p), = remainder.items()
        if p == {zero: 1}:
            return z, 1
        if p == {zero: -1}:
            return z, -1
    sys = algebra.system
    raise TheoremViolationError(
        "renormalised product at %r is not a signed basis element"
        % (sys.element(w).render() or "1"),
        witness={
            "element": sys.element(w).render(),
            "remainder": {
                sys.element(z).render(): laurent.render(p) for z, p in sorted(remainder.items())
            },
        },
    )


_lei_cache: dict = {}
_lei_lock = threading.Lock()


def longest_element_involutions(algebra: HeckeAlgebra, jobs: int = 1) -> LongestElementInvolutions:
    """Both involutions of W induced by w_0, with their common sign map."""
    with _lei_lock:
        cached = _lei_cache.get(id(algebra))
    if cached is not None:
        return cached
    sys = algebra.system
    if not sys.is_finite:
        raise ValueError("longest-element involutions need a finite group")
    table = build_a_table(algebra, jobs=jobs)
    cells = table.cells
    hypotheses = verify_conjectures(table)
    hypotheses_hold = all(r.holds for r in hypotheses.values())

    w0 = sys.longest_id()
    w0_word = sys.word(w0)
    right_map: dict = {}
    left_map: dict = {}
    sign: dict = {}
    part = cells.two_sided
    for w in sys.all_ids():
        alpha = table.alpha[w]
        lhs = algebra.t_mul_word_left(w0_word, algebra.kl_vec(w))
        lhs = {z: laurent.shift(p, alpha) for z, p in lhs.items()}
        z, eps = _extract_signed_element(algebra, algebra.to_kl(lhs), w, part)
        right_map[w] = z
        sign[w] = eps

        rhs = algebra.kl_vec(w)
        for s in w0_word:
            rhs = algebra.mul_gen_right(rhs, s)
        rhs = {z2: laurent.shift(p, alpha) for z2, p in rhs.items()}
        z2, eps2 = _extract_signed_element(algebra, algebra.to_kl(rhs), w, part)
        left_map[w] = z2
        if eps2 != eps:
            raise TheoremViolationError(
                "the two sign maps disagree at %r" % (sys.element(w).render() or "1")
            )

    inv = sys.inverse
    for w in sys.all_ids():
        checks = (
            right_map[right_map[w]] == w,
            left_map[left_map[w]] == w,
            left_map[w] == inv(right_map[inv(w)]),
            right_map[w] == left_map[sys.multiply(sys.multiply(w0, w), w0)],
            cells.left.same_cell(right_map[w], w),
            cells.right.same_cell(left_map[w], w),
        )
        if not all(checks):
            raise TheoremViolationError(
                "involution structure fails at %r" % (sys.element(w).render() or "1"),
                witness={"checks": checks},
            )

    out = LongestElementInvolutions(
        algebra=algebra,
        table=table,
        cells=cells,
        left_map=left_map,
        right_map=right_map,
        sign=sign,
        hypotheses=hypotheses,
        hypotheses_hold=hypotheses_hold,
    )
    with _lei_lock:
        _lei_cache.setdefault(id(algebra), out)
        out = _lei_cache[id(algebra)]
    return out


@dataclass
class ParabolicInvolutions:
    """The W_I-involutions transported into W, with their coset extensions."""

    algebra: HeckeAlgebra  # the ambient algebra H(W, S, phi)
    pdata: ParabolicData
    core: LongestElementInvolutions  # computed in the standalone subsystem
    left_map: dict  # on parent ids of W_I
    right_map: dict
    sign: dict

    @property
    def hypotheses_hold(self) -> bool:
        return self.core.hypotheses_hold

    @property
    def hypotheses(self) -> dict:
        return self.core.hypotheses

    def a_value(self, u: int) -> tuple:
        """a_I at a parent id of an element of W_I."""
        return self.core.table.a[self.pdata.to_sub(u)]

    def alpha_value(self, u: int) -> tuple:
        return self.core.table.alpha[self.pdata.to_sub(u)]

    def sub_cells(self) -> CellDecomposition:
        return self.core.cells

    def extended_left(self) -> CellularPair:
        """(lambda_I^L, eta_L^I): strongly left cellular on all of W."""
        return CellularPair("left", self.pdata.extend_left(self.left_map), self._extended_sign("left"))

    def extended_right(self) -> CellularPair:
        """(rho_I^R, eta_R^I): strongly right cellular on all of W."""
        return CellularPair("right", self.pdata.extend_right(self.right_map), self._extended_sign("right"))

    def _extended_sign(self, side: str) -> dict:
        """The sign of the W_I-component of each w on the given side."""
        return {w: self.sign[self.pdata.project(w, side)] for w in self.algebra.system.all_ids()}


_par_cache: dict = {}
_par_lock = threading.Lock()


def parabolic_involutions(algebra: HeckeAlgebra, labels, jobs: int = 1) -> ParabolicInvolutions:
    """Involutions of W_I inside (W, phi), computed in the standalone subsystem."""
    pdata = algebra.system.parabolic(labels)
    key = (id(algebra), pdata.indices)
    with _par_lock:
        cached = _par_cache.get(key)
    if cached is not None:
        return cached
    if not pdata.is_finite:
        raise ValueError("W_I must be finite")
    sub_algebra = algebra_for(pdata.subsystem, algebra.weights.restrict(pdata))
    core = longest_element_involutions(sub_algebra, jobs=jobs)
    to_parent = pdata.to_parent
    left_map = {to_parent(e): to_parent(core.left_map[e]) for e in range(pdata.subsystem.size())}
    right_map = {to_parent(e): to_parent(core.right_map[e]) for e in range(pdata.subsystem.size())}
    sign = {to_parent(e): core.sign[e] for e in range(pdata.subsystem.size())}
    out = ParabolicInvolutions(
        algebra=algebra,
        pdata=pdata,
        core=core,
        left_map=left_map,
        right_map=right_map,
        sign=sign,
    )
    with _par_lock:
        _par_cache.setdefault(key, out)
        out = _par_cache[key]
    return out


# -- verification -----------------------------------------------------------------------


def _render(algebra: HeckeAlgebra, w: int) -> str:
    return algebra.system.element(w).render() or "1"


def verify_cellular_pair(algebra: HeckeAlgebra, cells: CellDecomposition, pair: CellularPair) -> dict:
    """LC1 (cells map to cells), LC2 (module isomorphism), LC3 (strongness)."""
    sys = algebra.system
    part = cells.partition(pair.side)
    other = cells.partition("right" if pair.side == "left" else "left")
    delta, mu = pair.delta, pair.mu

    wit1 = []
    cell_index = {c: i for i, c in enumerate(part.cells)}
    for i, cell in enumerate(part.cells):
        image = frozenset(delta[w] for w in cell)
        if image not in cell_index:
            wit1.append("image of cell %d is not a cell" % i)
    lc1 = CheckReport("LC1", not wit1, tuple(wit1[:MAX_WITNESSES]))

    wit2 = []
    for w in sys.all_ids():
        cw = part.cell_of[w]
        for s in range(sys.rank):
            row = (
                algebra.cs_left_row(s, w)
                if pair.side == "left"
                else algebra.cs_right_row(w, s)
            )
            slice_w = {u: p for u, p in row.items() if part.cell_of[u] == cw and p}
            drow = (
                algebra.cs_left_row(s, delta[w])
                if pair.side == "left"
                else algebra.cs_right_row(delta[w], s)
            )
            cd = part.cell_of[delta[w]]
            slice_d = {u: p for u, p in drow.items() if part.cell_of[u] == cd and p}
            mapped = {
                delta[u]: laurent.scale(p, mu[w] * mu[u]) for u, p in slice_w.items()
            }
            if mapped != slice_d:
                wit2.append(
                    "generator %s at %s" % (sys.labels[s], _render(algebra, w))
                )
    lc2 = CheckReport("LC2", not wit2, tuple(wit2[:MAX_WITNESSES]))

    wit3 = [
        "%s moves %s-cell" % (_render(algebra, w), "right" if pair.side == "left" else "left")
        for w in sys.all_ids()
        if not other.same_cell(delta[w], w)
    ]
    lc3 = CheckReport("LC3", not wit3, tuple(wit3[:MAX_WITNESSES]))
    return {"LC1": lc1, "LC2": lc2, "LC3": lc3}


def verify_descent_invariance(algebra: HeckeAlgebra, pair: CellularPair) -> CheckReport:
    """Left pairs preserve left descent sets; right pairs preserve right ones."""
    sys = algebra.system
    descents = sys.left_descents if pair.side == "left" else sys.right_descents
    wit = [
        _render(algebra, w)
        for w in sys.all_ids()
        if descents(pair.delta[w]) != descents(w)
    ]
    return CheckReport("descent-invariance", not wit, tuple(wit[:MAX_WITNESSES]))


def verify_mixed_basis_sign_identity(pinv: ParabolicInvolutions) -> CheckReport:
    """Coefficients over the induced basis agree, up to signs, along the involution."""
    algebra = pinv.algebra
    sys = algebra.system
    pdata = pinv.pdata
    table = algebra.mixed_basis_table(pdata)
    sub_left = pinv.sub_cells().left
    to_sub = pdata.to_sub
    members = list(pdata.elements)
    reps = list(pdata.min_reps)
    wit = []
    for y in members:
        for x in members:
            if not sub_left.same_cell(to_sub(x), to_sub(y)):
                continue
            dx, dy = pinv.left_map[x], pinv.left_map[y]
            eps = pinv.sign[x] * pinv.sign[y]
            for b in reps:
                row = table.rows[sys.multiply(b, y)]
                drow = table.rows[sys.multiply(b, dy)]
                for a in reps:
                    p = row.get(sys.multiply(a, x), {})
                    q = drow.get(sys.multiply(a, dx), {})
                    if p != laurent.scale(q, eps):
                        wit.append(
                            "(a=%s, x=%s, b=%s, y=%s)"
                            % tuple(_render(algebra, v) for v in (a, x, b, y))
                        )
    return CheckReport("mixed-basis-sign-identity", not wit, tuple(wit[:MAX_WITNESSES]))


def verify_characterization(pinv: ParabolicInvolutions) -> dict:
    """The extended maps are characterised by congruences in the full algebra.

    Left version: eta_L(w) v^{alpha_I(pr_L(w))} C_w T_{w_I} = C_{lambda_I^L(w)}
    modulo the span of the C_u with pr_L(u) strictly below omega_I(pr_L(w))
    in the left preorder of W_I; mirrored on the right.
    """
    algebra = pinv.algebra
    sys = algebra.system
    pdata = pinv.pdata
    wI_word = sys.word(pdata.longest)
    sub = pinv.sub_cells()
    to_sub = pdata.to_sub
    left_pair = pinv.extended_left()
    right_pair = pinv.extended_right()
    wit_l: list = []
    wit_r: list = []
    for w in sys.all_ids():
        # left version
        y = pdata.decompose_left(w)[1]
        omega_y = to_sub(pdata.omega(y))
        vec = dict(algebra.kl_vec(w))
        for s in wI_word:
            vec = algebra.mul_gen_right(vec, s)
        alpha = pinv.alpha_value(y)
        vec = {z: laurent.shift(p, alpha) for z, p in vec.items()}
        klc = algebra.to_kl(vec)
        target = left_pair.delta[w]
        eps = left_pair.mu[w]
        for z, p in klc.items():
            expected = {algebra.zero_exp: eps} if z == target else {}
            if laurent.sub(p, expected):
                if not sub.left.less(to_sub(pdata.decompose_left(z)[1]), omega_y):
                    wit_l.append(_render(algebra, w))
                    break
        else:
            if target not in klc:
                wit_l.append("%s (target missing)" % _render(algebra, w))

        # right version
        u = pdata.decompose_right(w)[1]
        omega_u = to_sub(pdata.omega(u))
        vec = algebra.t_mul_word_left(wI_word, algebra.kl_vec(w))
        alpha = pinv.alpha_value(u)
        vec = {z: laurent.shift(p, alpha) for z, p in vec.items()}
        klc = algebra.to_kl(vec)
        target = right_pair.delta[w]
        eps = right_pair.mu[w]
        for z, p in klc.items():
            expected = {algebra.zero_exp: eps} if z == target else {}
            if laurent.sub(p, expected):
                if not sub.right.less(to_sub(pdata.decompose_right(z)[1]), omega_u):
                    wit_r.append(_render(algebra, w))
                    break
        else:
            if target not in klc:
                wit_r.append("%s (target missing)" % _render(algebra, w))

    return {
        "left": CheckReport("characterization-left", not wit_l, tuple(wit_l[:MAX_WITNESSES])),
        "right": CheckReport("characterization-right", not wit_r, tuple(wit_r[:MAX_WITNESSES])),
    }


def verify_commutation(pinv: ParabolicInvolutions, pair: CellularPair) -> dict:
    """A strongly cellular pair commutes with the opposite-side extension.

    For a left pair (delta, mu): delta commutes with rho_I^R and
    eta_R(delta(w)) = mu_w mu_{rho_I^R(w)} eta_R(w); mirrored for right
    pairs with lambda_I^L and eta_L.
    """
    sys = pinv.algebra.system
    ext = pinv.extended_right() if pair.side == "left" else pinv.extended_left()
    wit_c = []
    wit_s = []
    for w in sys.all_ids():
        if pair.delta[ext.delta[w]] != ext.delta[pair.delta[w]]:
            wit_c.append(_render(pinv.algebra, w))
        if ext.mu[pair.delta[w]] != pair.mu[w] * pair.mu[ext.delta[w]] * ext.mu[w]:
            wit_s.append(_render(pinv.algebra, w))
    return {
        "commute": CheckReport("commutation", not wit_c, tuple(wit_c[:MAX_WITNESSES])),
        "sign": CheckReport("commutation-sign", not wit_s, tuple(wit_s[:MAX_WITNESSES])),
    }


def degree_bounds_report(algebra: HeckeAlgebra, jobs: int = 1) -> CheckReport:
    """Writing T_{w_0} C_y = sum lambda_{x,y} C_x: deg lambda_{x,y} <= -alpha(x),
    with equality only if x and y share a left cell."""
    sys = algebra.system
    table = build_a_table(algebra, jobs=jobs)
    cells = table.cells
    w0_word = sys.word(sys.longest_id())
    wit = []
    for y in sys.all_ids():
        klc = algebra.to_kl(algebra.t_mul_word_left(w0_word, algebra.kl_vec(y)))
        for x, p in klc.items():
            if not p:
                continue
            bound = tuple(-v for v in table.alpha[x])
            d = laurent.deg(p)
            if d > bound or (d == bound and not cells.left.same_cell(x, y)):
                wit.append("(x=%s, y=%s)" % (_render(algebra, x), _render(algebra, y)))
    return CheckReport("degree-bounds", not wit, tuple(wit[:MAX_WITNESSES]))
