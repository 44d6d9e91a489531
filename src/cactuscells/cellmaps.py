"""Cell involutions induced by longest elements, sign maps, cellular pairs.

For a finite standard parabolic W_I whose triple satisfies the structural
hypotheses P1, P4, P8, P9, multiplying C_w (w in W_I) by T_{w_I} and
renormalising by v^{alpha_I(w)} fixes, modulo strictly lower two-sided
terms, a single Kazhdan-Lusztig element with coefficient +-1.  This yields
two involutions of W_I (one from each side) sharing one sign map; extending
through the minimal coset representatives gives a permutation of all of W
together with its sign.  These extended pairs are the generators of the
cactus group action.  Every product by T_{w_I} is taken in the C basis by
`HeckeAlgebra.t_word_kl`, and the involutions are memoized on the algebra,
as are the extended pairs: `ParabolicInvolutions.extended(side)` is the one
place that picks the left or the right extension by side.

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


def _render(algebra: HeckeAlgebra, w: int) -> str:
    return algebra.system.element(w).render() or "1"


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
        "renormalised product at %r is not a signed basis element" % _render(algebra, w),
        witness={
            "element": sys.element(w).render(),
            "remainder": {
                sys.element(z).render(): laurent.render(p) for z, p in sorted(remainder.items())
            },
        },
    )


def _t_word_shifted(algebra: HeckeAlgebra, side: str, letters, w: int, alpha) -> dict:
    """v^alpha T_u C_w (side "left") or v^alpha C_w T_u (side "right"), in the C basis."""
    vec = algebra.t_word_kl(side, letters, {w: {algebra.zero_exp: 1}})
    return {z: laurent.shift(p, alpha) for z, p in vec.items()}


def longest_element_involutions(algebra: HeckeAlgebra) -> LongestElementInvolutions:
    """Both involutions of W induced by w_0, with their common sign map."""
    return algebra.memo("involutions", lambda: _longest_element_involutions(algebra))


def _longest_element_involutions(algebra: HeckeAlgebra) -> LongestElementInvolutions:
    sys = algebra.system
    if not sys.is_finite:
        raise ValueError("longest-element involutions need a finite group")
    table = build_a_table(algebra)
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
        # T_{w_0} C_w gives the right map and C_w T_{w_0} the left one
        for side, image in (("left", right_map), ("right", left_map)):
            vec = _t_word_shifted(algebra, side, w0_word, w, table.alpha[w])
            image[w], eps = _extract_signed_element(algebra, vec, w, part)
            if sign.setdefault(w, eps) != eps:
                raise TheoremViolationError(
                    "the two sign maps disagree at %r" % _render(algebra, w)
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
                "involution structure fails at %r" % _render(algebra, w),
                witness={"checks": checks},
            )

    return LongestElementInvolutions(
        algebra=algebra,
        table=table,
        cells=cells,
        left_map=left_map,
        right_map=right_map,
        sign=sign,
        hypotheses=hypotheses,
        hypotheses_hold=hypotheses_hold,
    )


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

    def extended(self, side: str) -> CellularPair:
        """The coset extension on the given side ("left" or "right").

        The algebra's own involutions memoize it on the algebra, so each pair
        lives exactly as long as it does; a modified copy (say, from
        dataclasses.replace) builds its own and leaves that memo alone.
        """
        if self is not parabolic_involutions(self.algebra, self.pdata.labels):
            return self._extend(side)
        return self.algebra.memo(("extended", self.pdata.indices, side), lambda: self._extend(side))

    def extended_left(self) -> CellularPair:
        """(lambda_I^L, eta_L^I): strongly left cellular on all of W."""
        return self.extended("left")

    def extended_right(self) -> CellularPair:
        """(rho_I^R, eta_R^I): strongly right cellular on all of W."""
        return self.extended("right")

    def _extend(self, side: str) -> CellularPair:
        if side == "left":
            delta = self.pdata.extend_left(self.left_map)
        else:
            delta = self.pdata.extend_right(self.right_map)
        # the sign of the W_I-component of each w on the given side
        sign = {w: self.sign[self.pdata.project(w, side)] for w in self.algebra.system.all_ids()}
        return CellularPair(side, delta, sign)


def parabolic_involutions(algebra: HeckeAlgebra, labels) -> ParabolicInvolutions:
    """Involutions of W_I inside (W, phi), computed in the standalone subsystem."""
    pdata = algebra.system.parabolic(labels)
    return algebra.memo(("parabolic", pdata.indices), lambda: _parabolic_involutions(algebra, pdata))


def _parabolic_involutions(algebra: HeckeAlgebra, pdata: ParabolicData) -> ParabolicInvolutions:
    if not pdata.is_finite:
        raise ValueError("W_I must be finite")
    sub_algebra = algebra_for(pdata.subsystem, algebra.weights.restrict(pdata))
    core = longest_element_involutions(sub_algebra)
    to_parent = pdata.to_parent
    left_map = {to_parent(e): to_parent(core.left_map[e]) for e in range(pdata.subsystem.size())}
    right_map = {to_parent(e): to_parent(core.right_map[e]) for e in range(pdata.subsystem.size())}
    sign = {to_parent(e): core.sign[e] for e in range(pdata.subsystem.size())}
    return ParabolicInvolutions(
        algebra=algebra,
        pdata=pdata,
        core=core,
        left_map=left_map,
        right_map=right_map,
        sign=sign,
    )


# -- verification -----------------------------------------------------------------------


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
            row = algebra.cs_row(pair.side, s, w)
            slice_w = {u: p for u, p in row.items() if part.cell_of[u] == cw and p}
            drow = algebra.cs_row(pair.side, s, delta[w])
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
    pdata = pinv.pdata
    table = algebra.mixed_basis_table(pdata)
    sub_left = pinv.sub_cells().left
    to_sub = pdata.to_sub
    members = list(pdata.elements)
    reps = list(pdata.min_reps)
    ids = pdata.left_products
    wit = []
    for y in members:
        for x in members:
            if not sub_left.same_cell(to_sub(x), to_sub(y)):
                continue
            dx, dy = pinv.left_map[x], pinv.left_map[y]
            eps = pinv.sign[x] * pinv.sign[y]
            for b in reps:
                row = table.rows[ids[b, y]]
                drow = table.rows[ids[b, dy]]
                for a in reps:
                    p = row.get(ids[a, x], {})
                    q = drow.get(ids[a, dx], {})
                    if p != (q if eps == 1 else laurent.neg(q)):
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
    return {side: _characterization(pinv, side) for side in ("left", "right")}


def _characterization(pinv: ParabolicInvolutions, side: str) -> CheckReport:
    algebra = pinv.algebra
    sys = algebra.system
    pdata = pinv.pdata
    wI_word = sys.word(pdata.longest)
    part = pinv.sub_cells().partition(side)
    to_sub = pdata.to_sub
    pair = pinv.extended(side)
    ids = sys.all_ids()
    pr = {w: pdata.project(w, side) for w in ids}
    # the left version multiplies by T_{w_I} on the right, and vice versa
    t_side = "right" if side == "left" else "left"
    wit: list = []
    for w in ids:
        y = pr[w]
        omega_y = to_sub(pdata.omega(y))
        klc = _t_word_shifted(algebra, t_side, wI_word, w, pinv.alpha_value(y))
        target = pair.delta[w]
        eps = pair.mu[w]
        for z, p in klc.items():
            expected = {algebra.zero_exp: eps} if z == target else {}
            if laurent.sub(p, expected):
                if not part.less(to_sub(pr[z]), omega_y):
                    wit.append(_render(algebra, w))
                    break
        else:
            if target not in klc:
                wit.append("%s (target missing)" % _render(algebra, w))
    return CheckReport("characterization-" + side, not wit, tuple(wit[:MAX_WITNESSES]))


def verify_commutation(pinv: ParabolicInvolutions, pair: CellularPair) -> dict:
    """A strongly cellular pair commutes with the opposite-side extension.

    For a left pair (delta, mu): delta commutes with rho_I^R and
    eta_R(delta(w)) = mu_w mu_{rho_I^R(w)} eta_R(w); mirrored for right
    pairs with lambda_I^L and eta_L.
    """
    sys = pinv.algebra.system
    ext = pinv.extended("right" if pair.side == "left" else "left")
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


def degree_bounds_report(algebra: HeckeAlgebra) -> CheckReport:
    """Writing T_{w_0} C_y = sum lambda_{x,y} C_x: deg lambda_{x,y} <= -alpha(x),
    with equality only if x and y share a left cell."""
    sys = algebra.system
    table = build_a_table(algebra)
    cells = table.cells
    w0_word = sys.word(sys.longest_id())
    one = {algebra.zero_exp: 1}
    wit = []
    for y in sys.all_ids():
        klc = algebra.t_word_kl("left", w0_word, {y: one})
        for x, p in klc.items():
            if not p:
                continue
            bound = tuple(-v for v in table.alpha[x])
            d = laurent.deg(p)
            if d > bound or (d == bound and not cells.left.same_cell(x, y)):
                wit.append("(x=%s, y=%s)" % (_render(algebra, x), _render(algebra, y)))
    return CheckReport("degree-bounds", not wit, tuple(wit[:MAX_WITNESSES]))
