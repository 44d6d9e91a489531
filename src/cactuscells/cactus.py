"""The cactus group of (W, S) and its two-sided action on W.

Generators are indexed by the connected subsets I of S spanning a finite
standard parabolic; relations are tau_I^2 = 1, commutation when W_{I u J}
splits as a direct product (no bonds between I and J), and the nesting rule
tau_I tau_J = tau_J tau_{omega_J(I)} for I inside J, where omega_J is the
diagram involution induced by the longest element of W_J.

The left family tau_I -> lambda_I^L and the right family tau_I -> rho_I^R
define two commuting actions on the set W.  Words are never reduced to a
normal form; relation verification happens on the realized permutations,
and composite sign maps are reported per decomposition only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cells import CheckReport, MAX_WITNESSES
from .cellmaps import CellularPair, ParabolicInvolutions, parabolic_involutions
from .coxeter import CoxeterSystem
from .hecke import HeckeAlgebra

__all__ = [
    "CactusPresentation",
    "cactus_presentation",
    "CactusAction",
    "RelationCheck",
    "parse_word",
    "render_word",
]


@dataclass(frozen=True)
class CactusPresentation:
    """Generators tau_I and the defining relation instances for one system."""

    system: CoxeterSystem
    generators: tuple[tuple[str, ...], ...]
    commuting: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    nested: tuple[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]], ...]

    def canonical(self, labels) -> tuple[str, ...]:
        return tuple(
            sorted({str(x) for x in labels}, key=self.system.index_of.get)
        )

    def is_generator(self, labels) -> bool:
        return self.canonical(labels) in set(self.generators)


def cactus_presentation(system: CoxeterSystem) -> CactusPresentation:
    gens = []
    for size in range(1, system.rank + 1):
        for subset in combinations(system.labels, size):
            sub = system.parabolic(subset).subsystem
            if len(sub.components) == 1 and sub.is_finite:
                gens.append(subset)
    gen_sets = [frozenset(system.index_of[x] for x in g) for g in gens]

    commuting = []
    for (ga, sa), (gb, sb) in combinations(zip(gens, gen_sets), 2):
        if sa & sb:
            continue
        if all(system.matrix[i][j] == 2 for i in sa for j in sb):
            commuting.append((ga, gb))

    nested = []
    for (ga, sa), (gb, sb) in combinations(zip(gens, gen_sets), 2):
        for inner, outer, si, so in ((ga, gb, sa, sb), (gb, ga, sb, sa)):
            if si < so:
                omega = system.parabolic(outer).omega_labels()
                image = tuple(sorted((omega[x] for x in inner), key=system.index_of.get))
                nested.append((inner, outer, image))
    return CactusPresentation(
        system=system,
        generators=tuple(gens),
        commuting=tuple(commuting),
        nested=tuple(sorted(nested)),
    )


def parse_word(text: str) -> tuple[tuple[str, ...], ...]:
    """Parse ``"s,t|s"`` into the word (tau_{s,t}, tau_{s}), leftmost first."""
    text = text.strip()
    if not text:
        return ()
    letters = []
    for part in text.split("|"):
        labels = tuple(sorted(x.strip() for x in part.split(",") if x.strip()))
        if not labels:
            raise ValueError("empty letter in cactus word %r" % text)
        letters.append(labels)
    return tuple(letters)


def render_word(word) -> str:
    return "|".join(",".join(letter) for letter in word)


@dataclass(frozen=True)
class RelationCheck:
    kind: str  # "C1", "C2", "C3", "cross"
    family: str  # "left", "right", or "both"
    subsets: tuple
    report: CheckReport

    @property
    def holds(self) -> bool:
        return self.report.holds


class CactusAction:
    """The two commuting realizations of the cactus group inside Sym(W)."""

    def __init__(self, algebra: HeckeAlgebra):
        if not algebra.system.is_finite:
            raise ValueError("the cactus action is computed for finite W")
        self.algebra = algebra
        self.presentation = cactus_presentation(algebra.system)

    # -- generator data ------------------------------------------------------------

    def involutions(self, labels) -> ParabolicInvolutions:
        return parabolic_involutions(self.algebra, labels)

    def pair(self, labels, side: str) -> CellularPair:
        labels = self.presentation.canonical(labels)
        if not self.presentation.is_generator(labels):
            raise ValueError("%r is not a cactus generator for this system" % (labels,))
        return self.involutions(labels).extended(side)

    def hypotheses_hold(self) -> bool:
        return all(
            self.involutions(g).hypotheses_hold for g in self.presentation.generators
        )

    # -- the action ---------------------------------------------------------------------

    def act(self, word, side: str, w: int) -> int:
        """Apply the word (leftmost letter outermost) to element id w."""
        for letter in reversed(tuple(word)):
            w = self.pair(letter, side).delta[w]
        return w

    def act_with_sign(self, word, side: str, w: int) -> tuple[int, int]:
        """Image and the per-decomposition composite sign along the orbit."""
        sign = 1
        for letter in reversed(tuple(word)):
            pair = self.pair(letter, side)
            sign *= pair.mu[w]
            w = pair.delta[w]
        return w, sign

    def project(self, word) -> int:
        """The image of the word under tau_I -> w_I."""
        sys = self.algebra.system
        out = 0
        for letter in word:
            out = sys.multiply(out, sys.parabolic(letter).longest)
        return out

    # -- relation verification --------------------------------------------------------------

    def _perm(self, labels, side: str) -> dict:
        return self.pair(labels, side).delta

    def verify_relations(self) -> list[RelationCheck]:
        sys = self.algebra.system
        ids = sys.all_ids()
        out = []

        def diff(p, q):
            return tuple(
                sys.element(w).render() or "1" for w in ids if p[w] != q[w]
            )[:MAX_WITNESSES]

        for side in ("left", "right"):
            for g in self.presentation.generators:
                p = self._perm(g, side)
                wit = diff({w: p[p[w]] for w in ids}, {w: w for w in ids})
                out.append(
                    RelationCheck("C1", side, (g,), CheckReport("C1", not wit, wit))
                )
            for ga, gb in self.presentation.commuting:
                pa, pb = self._perm(ga, side), self._perm(gb, side)
                wit = diff({w: pa[pb[w]] for w in ids}, {w: pb[pa[w]] for w in ids})
                out.append(
                    RelationCheck("C2", side, (ga, gb), CheckReport("C2", not wit, wit))
                )
            for inner, outer, image in self.presentation.nested:
                pi, po, pim = (
                    self._perm(inner, side),
                    self._perm(outer, side),
                    self._perm(image, side),
                )
                wit = diff({w: pi[po[w]] for w in ids}, {w: po[pim[w]] for w in ids})
                out.append(
                    RelationCheck(
                        "C3", side, (inner, outer, image), CheckReport("C3", not wit, wit)
                    )
                )
        for ga in self.presentation.generators:
            for gb in self.presentation.generators:
                pl, pr = self._perm(ga, "left"), self._perm(gb, "right")
                wit = diff({w: pl[pr[w]] for w in ids}, {w: pr[pl[w]] for w in ids})
                out.append(
                    RelationCheck(
                        "cross", "both", (ga, gb), CheckReport("cross", not wit, wit)
                    )
                )
        return out

    # -- orbits ---------------------------------------------------------------------------------

    def orbits(self, side: str) -> tuple[frozenset, ...]:
        """Orbit partition of W under the chosen generator family (or both)."""
        sys = self.algebra.system
        ids = sys.all_ids()
        parent = list(ids)

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        perms = []
        if side in ("left", "two_sided", "two-sided"):
            perms += [self._perm(g, "left") for g in self.presentation.generators]
        if side in ("right", "two_sided", "two-sided"):
            perms += [self._perm(g, "right") for g in self.presentation.generators]
        if not perms:
            raise ValueError("side must be 'left', 'right' or 'two-sided'")
        for p in perms:
            for w in ids:
                ra, rb = find(w), find(p[w])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        groups: dict = {}
        for w in ids:
            groups.setdefault(find(w), []).append(w)
        return tuple(
            frozenset(v) for _, v in sorted(groups.items(), key=lambda kv: kv[0])
        )
