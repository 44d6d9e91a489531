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

from .cells import CheckReport
from .cellmaps import CellularPair, ParabolicInvolutions, parabolic_involutions
from .coxeter import CoxeterSystem, equivalence_classes
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
        labels = tuple(labels)
        if not all(str(x) in self.system.index_of for x in labels):
            return False
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
        labels = tuple(labels)
        if not self.presentation.is_generator(labels):
            raise ValueError("%r is not a cactus generator for this system" % (labels,))
        return self.involutions(self.presentation.canonical(labels)).extended(side)

    def hypotheses_hold(self) -> bool:
        return all(
            self.involutions(g).hypotheses_hold for g in self.presentation.generators
        )

    # -- the action ---------------------------------------------------------------------

    def act(self, word, side: str, w: int) -> int:
        """Apply the word (leftmost letter outermost) to element id w."""
        return self.act_with_sign(word, side, w)[0]

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

    def verify_relations(self) -> list[RelationCheck]:
        """Each relation as f(g(w)) = h(k(w)) on W, witnessed where they differ."""
        sys = self.algebra.system
        ids = sys.all_ids()
        pres = self.presentation
        perm = {
            (g, side): self.pair(g, side).delta
            for side in ("left", "right")
            for g in pres.generators
        }
        identity = {w: w for w in ids}
        out = []

        def check(kind, family, subsets, f, g, h, k):
            wit = [sys.element(w).render() or "1" for w in ids if f[g[w]] != h[k[w]]]
            out.append(RelationCheck(kind, family, subsets, CheckReport.of(kind, wit)))

        for side in ("left", "right"):
            for g in pres.generators:
                p = perm[g, side]
                check("C1", side, (g,), p, p, identity, identity)
            for ga, gb in pres.commuting:
                pa, pb = perm[ga, side], perm[gb, side]
                check("C2", side, (ga, gb), pa, pb, pb, pa)
            for inner, outer, image in pres.nested:
                pi, po, pim = perm[inner, side], perm[outer, side], perm[image, side]
                check("C3", side, (inner, outer, image), pi, po, po, pim)
        for ga in pres.generators:
            for gb in pres.generators:
                pl, pr = perm[ga, "left"], perm[gb, "right"]
                check("cross", "both", (ga, gb), pl, pr, pr, pl)
        return out

    # -- orbits ---------------------------------------------------------------------------------

    def orbits(self, side: str) -> tuple[frozenset, ...]:
        """Orbit partition of W under the chosen generator family (or both)."""
        sides = [s for s in ("left", "right") if side in (s, "two_sided", "two-sided")]
        if not sides:
            raise ValueError("side must be 'left', 'right' or 'two-sided'")
        ids = self.algebra.system.all_ids()
        perms = [self.pair(g, s).delta for s in sides for g in self.presentation.generators]
        moves = ((w, p[w]) for p in perms for w in ids)
        return tuple(frozenset(c) for c in equivalence_classes(len(ids), moves))
