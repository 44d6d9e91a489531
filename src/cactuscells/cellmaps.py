"""Cell involutions induced by longest elements, sign maps, cellular pairs.

For a finite standard parabolic W_I whose triple satisfies the structural
hypotheses P1, P4, P8, P9, multiplying C_w (w in W_I) by T_{w_I} and
renormalising by v^{alpha_I(w)} fixes, modulo strictly lower two-sided
terms, a single Kazhdan-Lusztig element with coefficient +-1.  This yields
two involutions of W_I (one from each side) sharing one sign map; extending
through the minimal coset representatives gives a permutation of all of W
together with its sign.  These extended pairs are the generators of the
cactus group action.  One class, `ParabolicInvolutions`, holds them for
every finite W_I, the whole group I = S included (that case is
`longest_element_involutions`), together with alpha of W_I on its ids in W,
the cells of W_I and its P-checks.  Every product by T_{w_I} is taken in the
C basis by `HeckeAlgebra.t_word_kl`, and one reader,
`_extract_signed_element`, finds the surviving signed basis element, both
when the involutions are built and when the characterization is checked.
The characterization takes one product per element for both sides: as w_I
is an involution, C_{w^-1} T_{w_I} is the mirror of T_{w_I} C_w.
The involutions are memoized on the algebra, each with its extended pairs:
`ParabolicInvolutions.extended(side)` is the one place that picks the left
or the right extension by side.

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

from dataclasses import dataclass, field

from . import laurent
from .cells import (
    CellDecomposition,
    CheckReport,
    build_a_table,
    verify_conjectures,
)
from .coxeter import ParabolicData
from .hecke import HeckeAlgebra, algebra_for

__all__ = [
    "TheoremViolationError",
    "CellularPair",
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

    @classmethod
    def identity(cls, side: str, ids) -> "CellularPair":
        return cls(side, {w: w for w in ids}, {w: 1 for w in ids})


def _render(algebra: HeckeAlgebra, w: int) -> str:
    return algebra.system.element(w).render() or "1"


def _extract_signed_element(algebra: HeckeAlgebra, klvec: dict, w: int, below, alpha) -> tuple[int, int]:
    """The (z, +-1) with v^alpha klvec = +-C_z modulo the C_u with below(u).

    klvec is the unrenormalised product, so the one surviving coefficient is
    compared with +-v^-alpha in place; the failure witness renders the
    remainder renormalised by v^alpha.
    """
    remainder = {z: p for z, p in klvec.items() if p and not below(z)}
    if len(remainder) == 1:
        (z, p), = remainder.items()
        if p == {-alpha: 1}:
            return z, 1
        if p == {-alpha: -1}:
            return z, -1
    sys = algebra.system
    raise TheoremViolationError(
        "renormalised product at %r is not a signed basis element" % _render(algebra, w),
        witness={
            "element": sys.element(w).render(),
            "remainder": {
                sys.element(z).render(): laurent.render(laurent.shift(p, alpha), algebra.rank)
                for z, p in sorted(remainder.items())
            },
        },
    )


def longest_element_involutions(algebra: HeckeAlgebra) -> ParabolicInvolutions:
    """Both involutions of W induced by w_0, with their common sign map: the
    parabolic involutions of I = S, computed in this algebra itself."""
    return algebra.memo("involutions", lambda: _longest_element_involutions(algebra))


def _longest_element_involutions(algebra: HeckeAlgebra) -> ParabolicInvolutions:
    sys = algebra.system
    if not sys.is_finite:
        raise ValueError("longest-element involutions need a finite group")
    pdata = sys.parabolic(sys.labels)
    table = build_a_table(algebra)
    cells = table.cells

    w0_word = sys.word(pdata.longest)
    right_map: dict = {}
    left_map: dict = {}
    sign: dict = {}
    part = cells.two_sided
    one = {algebra.zero_exp: 1}
    for w in sys.all_ids():
        # T_{w_0} C_w gives the right map and C_w T_{w_0} the left one
        for side, image in (("left", right_map), ("right", left_map)):
            vec = algebra.t_word_kl(side, w0_word, {w: one})
            image[w], eps = _extract_signed_element(
                algebra, vec, w, lambda z: part.less(z, w), table.alpha[w]
            )
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
            right_map[w] == left_map[pdata.omega(w)],
            cells.left.same_cell(right_map[w], w),
            cells.right.same_cell(left_map[w], w),
        )
        if not all(checks):
            raise TheoremViolationError(
                "involution structure fails at %r" % _render(algebra, w),
                witness={"checks": checks},
            )

    return ParabolicInvolutions(
        algebra=algebra,
        pdata=pdata,
        left_map=left_map,
        right_map=right_map,
        sign=sign,
        alpha=dict(enumerate(table.alpha)),
        cells=cells,
        hypotheses=verify_conjectures(table),
    )


@dataclass
class ParabolicInvolutions:
    """The involutions and sign map of one finite W_I, on its ids in W, with
    their coset extensions to all of W; I = S is the longest-element case."""

    algebra: HeckeAlgebra  # the ambient algebra H(W, S, phi)
    pdata: ParabolicData
    left_map: dict  # from right multiplication by T_{w_I}; strongly left cellular
    right_map: dict  # from left multiplication by T_{w_I}; strongly right cellular
    sign: dict
    alpha: dict  # alpha of the subsystem W_I (packed), keyed by the ids of W_I in W
    cells: CellDecomposition  # the cells of W_I, on its own ids
    hypotheses: dict  # P1, P4, P8, P9 for W_I
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def hypotheses_hold(self) -> bool:
        return all(r.holds for r in self.hypotheses.values())

    def extended(self, side: str) -> CellularPair:
        """The coset extension on the given side ("left" or "right").

        Each pair is cached on these involutions, so it lives exactly as long
        as they do; setdefault keeps the first of two concurrent builds.  A
        copy (say, from dataclasses.replace) starts with an empty cache and
        extends its own maps and signs.
        """
        return self._pairs.get(side) or self._pairs.setdefault(side, self._extend(side))

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
    sub = longest_element_involutions(algebra_for(pdata.subsystem, algebra.weights.restrict(pdata)))
    up = pdata.to_parent
    return ParabolicInvolutions(
        algebra=algebra,
        pdata=pdata,
        left_map={up(e): up(d) for e, d in sub.left_map.items()},
        right_map={up(e): up(d) for e, d in sub.right_map.items()},
        sign={up(e): eps for e, eps in sub.sign.items()},
        alpha={up(e): a for e, a in sub.alpha.items()},
        cells=sub.cells,
        hypotheses=sub.hypotheses,
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
    lc1 = CheckReport.of("LC1", wit1)

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
    lc2 = CheckReport.of("LC2", wit2)

    wit3 = [
        "%s moves %s-cell" % (_render(algebra, w), "right" if pair.side == "left" else "left")
        for w in sys.all_ids()
        if not other.same_cell(delta[w], w)
    ]
    lc3 = CheckReport.of("LC3", wit3)
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
    return CheckReport.of("descent-invariance", wit)


def verify_mixed_basis_sign_identity(pinv: ParabolicInvolutions) -> CheckReport:
    """Coefficients over the induced basis agree, up to signs, along the involution.

    Rows are grouped once into slices x -> {a: coefficient}; only a slice
    that differs from its signed image is scanned over a for witnesses."""
    algebra = pinv.algebra
    pdata = pinv.pdata
    table = algebra.mixed_basis_table(pdata)
    sub_left = pinv.cells.left
    to_sub = pdata.to_sub
    members = list(pdata.elements)
    reps = list(pdata.min_reps)
    ids = pdata.left_products
    parts = pdata.left_parts
    slices: dict = {}
    for w, row in table.rows.items():
        by_x = slices[w] = {}
        for u, p in row.items():
            a, x = parts[u]
            by_x.setdefault(x, {})[a] = p
    wit = []
    for y in members:
        for x in members:
            if not sub_left.same_cell(to_sub(x), to_sub(y)):
                continue
            dx, dy = pinv.left_map[x], pinv.left_map[y]
            eps = pinv.sign[x] * pinv.sign[y]
            for b in reps:
                p, q = slices[ids[b, y]].get(x, {}), slices[ids[b, dy]].get(dx, {})
                if eps == -1:
                    q = {a: laurent.neg(c) for a, c in q.items()}
                if p != q:
                    wit += [
                        "(a=%s, x=%s, b=%s, y=%s)" % tuple(_render(algebra, v) for v in (a, x, b, y))
                        for a in reps
                        if p.get(a, {}) != q.get(a, {})
                    ]
    return CheckReport.of("mixed-basis-sign-identity", wit)


def verify_characterization(pinv: ParabolicInvolutions) -> dict:
    """The extended maps are characterised by congruences in the full algebra.

    Left version: eta_L(w) v^{alpha_I(pr_L(w))} C_w T_{w_I} = C_{lambda_I^L(w)}
    modulo the span of the C_u with pr_L(u) strictly below omega_I(pr_L(w))
    in the left preorder of W_I; mirrored on the right.  One product serves
    both sides: T_{w_I} C_w is read by the right version at w, and its
    mirror, C_{w^-1} T_{w_I} (w_I is an involution), by the left one at w^-1.
    """
    algebra = pinv.algebra
    found = _characterization_found(pinv)
    out = {}
    for side in ("left", "right"):
        pair = pinv.extended(side)
        wit = [
            _render(algebra, w)
            for w in algebra.system.all_ids()
            if found[side][w] != (pair.delta[w], pair.mu[w])
        ]
        out[side] = CheckReport.of("characterization-" + side, wit)
    return out


def _characterization_reader(pinv: ParabolicInvolutions, side: str):
    """read(klvec, w): the (z, +-1) that the side's congruence at w finds in
    klvec, which is C_w T_{w_I} (side "left") or T_{w_I} C_w (side "right"),
    or None when the renormalised remainder is not a signed basis element."""
    algebra = pinv.algebra
    pdata = pinv.pdata
    part = pinv.cells.partition(side)
    to_sub = pdata.to_sub
    pr = {w: pdata.project(w, side) for w in algebra.system.all_ids()}

    def read(klvec: dict, w: int):
        y = pr[w]
        omega_y = to_sub(pdata.omega(y))
        try:
            return _extract_signed_element(
                algebra, klvec, w, lambda z: part.less(to_sub(pr[z]), omega_y), pinv.alpha[y]
            )
        except TheoremViolationError:
            return None

    return read


def _characterization_found(pinv: ParabolicInvolutions) -> dict:
    """side -> {w: what that side's congruence at w finds}, from one product
    T_{w_I} C_w per w; only the findings are kept, not the products."""
    algebra = pinv.algebra
    sys = algebra.system
    wI_word = sys.word(pinv.pdata.longest)
    inv = sys.inverse
    one = {algebra.zero_exp: 1}
    read_left = _characterization_reader(pinv, "left")
    read_right = _characterization_reader(pinv, "right")
    left: dict = {}
    right: dict = {}
    for w in sys.all_ids():
        prod = algebra.t_word_kl("left", wI_word, {w: one})
        right[w] = read_right(prod, w)
        left[inv(w)] = read_left(algebra._mirror(prod), inv(w))
    return {"left": left, "right": right}


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
        "commute": CheckReport.of("commutation", wit_c),
        "sign": CheckReport.of("commutation-sign", wit_s),
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
            bound = -table.alpha[x]
            d = laurent.deg(p)
            if d > bound or (d == bound and not cells.left.same_cell(x, y)):
                wit.append("(x=%s, y=%s)" % (_render(algebra, x), _render(algebra, y)))
    return CheckReport.of("degree-bounds", wit)
