"""Coxeter systems with exact combinatorial element arithmetic.

Elements are canonical ShortLex-minimal reduced words, discovered by a
breadth-first walk of the Cayley graph.  Multiplication, length, descent
sets and Bruhat order are all driven by the reflection table on positive
roots of the standard geometric representation; root coordinates are exact
cyclotomic integers (see `cyclo`), so non-crystallographic bond orders
(I2(5), I2(7), H3, ...) cost nothing in correctness.

For a finite group the whole table is built on first use; for an infinite
group the table grows lazily up to whatever length the caller explores.
Two facts keep this purely combinatorial: a simple reflection sends every
positive root except its own simple root to a positive root, and in a
finite group every positive root appears at bounded depth, so the walk
closes by itself.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .cyclo import CosineRing

__all__ = [
    "CoxeterSystem",
    "CoxeterElement",
    "WeightFunction",
    "ParabolicData",
    "get_system",
    "named_system",
    "system_from_config",
    "weights_from_config",
    "diagram_automorphisms",
]

INFINITE_BOND = 0  # matrix entry encoding m(s,t) = infinity


def _factorial(n: int) -> int:
    return math.factorial(n)


def _classify_component(nodes: tuple[int, ...], matrix) -> tuple[str, int] | None:
    """Match one connected Coxeter-graph component against the finite types.

    Returns (type name, |W|) or None when the component is of infinite type.
    """
    n = len(nodes)
    if n == 1:
        return "A1", 2
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            m = matrix[nodes[a]][nodes[b]]
            if m == INFINITE_BOND:
                return None
            if m >= 3:
                edges.append((a, b, m))
    if n == 2:
        m = edges[0][2]
        names = {3: "A2", 4: "B2", 5: "H2", 6: "G2"}
        return names.get(m, "I2(%d)" % m), 2 * m
    if len(edges) != n - 1:
        return None  # a cycle: affine or worse
    degree = [0] * n
    adj = [[] for _ in range(n)]
    for a, b, m in edges:
        degree[a] += 1
        degree[b] += 1
        adj[a].append(b)
        adj[b].append(a)
    high = [(a, b, m) for a, b, m in edges if m >= 4]
    if len(high) > 1 or any(d > 3 for d in degree):
        return None
    branch = [v for v in range(n) if degree[v] == 3]

    if not high and not branch:
        return "A%d" % n, _factorial(n + 1)

    if not high:
        if len(branch) != 1:
            return None
        # branch arm lengths from the unique degree-3 node
        arms = []
        for start in adj[branch[0]]:
            prev, cur, ln = branch[0], start, 1
            while True:
                nxt = [x for x in adj[cur] if x != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                ln += 1
            arms.append(ln)
        arms.sort()
        if arms[:2] == [1, 1]:
            return "D%d" % n, 2 ** (n - 1) * _factorial(n)
        if arms == [1, 2, 2]:
            return "E6", 51840
        if arms == [1, 2, 3]:
            return "E7", 2903040
        if arms == [1, 2, 4]:
            return "E8", 696729600
        return None

    if branch:
        return None
    # a path with exactly one bond > 3; locate the bond along the path
    a, b, m = high[0]
    at_end = degree[a] == 1 or degree[b] == 1
    if m == 4:
        if at_end:
            return "B%d" % n, 2**n * _factorial(n)
        if n == 4 and degree[a] == 2 and degree[b] == 2:
            return "F4", 1152
        return None
    if m == 5 and at_end:
        if n == 3:
            return "H3", 120
        if n == 4:
            return "H4", 14400
    return None


class CoxeterSystem:
    """A Coxeter system (W, S) given by its Coxeter matrix."""

    def __init__(self, matrix, labels=None):
        matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        n = len(matrix)
        for i, row in enumerate(matrix):
            if len(row) != n:
                raise ValueError("Coxeter matrix must be square")
            if row[i] != 1:
                raise ValueError("diagonal entries must be 1")
            for j, m in enumerate(row):
                if m != matrix[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if i != j and m != INFINITE_BOND and m < 2:
                    raise ValueError("off-diagonal entries must be >= 2 (0 = infinity)")
        if labels is None:
            labels = tuple("s%d" % (i + 1) for i in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n or len(set(labels)) != n:
                raise ValueError("need %d distinct generator labels" % n)
        self.matrix = matrix
        self.labels = labels
        self.rank = n
        self.index_of = {lab: i for i, lab in enumerate(labels)}

        # finiteness by classification of connected components
        comps = self._components()
        self.components = []
        order = 1
        finite = True
        for nodes in comps:
            cls = _classify_component(nodes, matrix)
            if cls is None:
                finite = False
                self.components.append((nodes, None))
            else:
                self.components.append((nodes, cls))
                order *= cls[1]
        self.is_finite = finite
        self.order = order if finite else None

        # exact coefficient ring for root coordinates
        bonds = [m for row in matrix for m in row if m >= 3]
        lcm = 1
        for m in bonds:
            lcm = lcm * m // math.gcd(lcm, m)
        self._ring = CosineRing(max(lcm, 1))
        ring = self._ring
        self._bond = [
            [
                ring.zero if i == j or matrix[i][j] == 2 else ring.bond_value(matrix[i][j])
                for j in range(n)
            ]
            for i in range(n)
        ]

        # positive roots; the first n are the simple roots
        self._roots: list[tuple] = []
        self._root_index: dict = {}
        for i in range(n):
            vec = tuple(ring.one if j == i else ring.zero for j in range(n))
            self._root_index[vec] = i
            self._roots.append(vec)
        self._refl: list[dict] = [{} for _ in range(n)]

        # element table (grows by length)
        self._words: list[tuple[int, ...]] = [()]
        self._key_of = {self._element_key(()): 0}
        self._rmul: list[list] = [[None] * n]
        self._inv: list = [0]
        self._frontier = [0]
        self._explored = 0
        self._closed = n == 0
        self._bruhat: dict = {}
        self._lock = threading.RLock()
        self._parabolics: dict = {}

    # -- identity-based hashing: systems are shared through get_system ---------

    def __repr__(self):
        kind = "x".join(c[1][0] for c in self.components) if self.is_finite else "infinite"
        return "<CoxeterSystem %s rank=%d>" % (kind or "trivial", self.rank)

    def _components(self):
        seen = [False] * self.rank
        comps = []
        for start in range(self.rank):
            if seen[start]:
                continue
            stack, nodes = [start], []
            seen[start] = True
            while stack:
                v = stack.pop()
                nodes.append(v)
                for u in range(self.rank):
                    if not seen[u] and v != u and self.matrix[v][u] != 2:
                        seen[u] = True
                        stack.append(u)
            comps.append(tuple(sorted(nodes)))
        return comps

    # -- root reflection table ---------------------------------------------------

    def _reflect_vec(self, s: int, vec: tuple) -> tuple:
        ring = self._ring.ring
        new_s = ring.neg(vec[s])
        for j in range(self.rank):
            if j != s:
                bond = self._bond[s][j]
                if bond != self._ring.zero and vec[j] != self._ring.zero:
                    new_s = ring.add(new_s, ring.mul(bond, vec[j]))
        return tuple(new_s if j == s else vec[j] for j in range(self.rank))

    def _reflect_root(self, s: int, idx: int) -> int:
        table = self._refl[s]
        out = table.get(idx)
        if out is None:
            vec = self._reflect_vec(s, self._roots[idx])
            out = self._root_index.get(vec)
            if out is None:
                out = len(self._roots)
                self._roots.append(vec)
                self._root_index[vec] = out
            table[idx] = out
            table[out] = idx
        return out

    def _walk_root(self, letters, idx: int) -> tuple[int, int]:
        """Apply generators (first letter applied first) to a signed root."""
        sign = 1
        for s in letters:
            if idx == s:
                sign = -sign
            else:
                idx = self._reflect_root(s, idx)
        return idx, sign

    def _element_key(self, word: tuple[int, ...]) -> tuple:
        rev = word[::-1]
        return tuple(self._walk_root(rev, j) for j in range(self.rank))

    # -- element table growth -----------------------------------------------------

    def _grow_step(self) -> None:
        new_frontier = []
        n = self.rank
        for w in self._frontier:
            word = self._words[w]
            row = self._rmul[w]
            for s in range(n):
                if row[s] is not None:
                    continue
                child_word = word + (s,)
                key = self._element_key(child_word)
                child = self._key_of.get(key)
                if child is None:
                    child = len(self._words)
                    self._words.append(child_word)
                    self._key_of[key] = child
                    self._rmul.append([None] * n)
                    self._inv.append(None)
                    new_frontier.append(child)
                row[s] = child
                self._rmul[child][s] = w
        self._frontier = new_frontier
        self._explored += 1
        if not new_frontier:
            self._closed = True
            if self.is_finite and len(self._words) != self.order:
                raise AssertionError(
                    "enumeration found %d elements, classification says %d"
                    % (len(self._words), self.order)
                )

    def _ensure_length(self, length: int) -> None:
        with self._lock:
            while not self._closed and self._explored < length:
                self._grow_step()

    def _ensure_all(self) -> None:
        if self._closed:
            return
        if not self.is_finite:
            raise ValueError("group is infinite; a length bound is required")
        with self._lock:
            while not self._closed:
                self._grow_step()

    # -- id-level operations ---------------------------------------------------------

    def size(self) -> int:
        self._ensure_all()
        return len(self._words)

    def word(self, w: int) -> tuple[int, ...]:
        return self._words[w]

    def length(self, w: int) -> int:
        return len(self._words[w])

    def mult_gen(self, w: int, s: int) -> int:
        out = self._rmul[w][s]
        if out is None:
            self._ensure_length(len(self._words[w]) + 1)
            out = self._rmul[w][s]
        return out

    def multiply(self, w: int, u: int) -> int:
        for s in self._words[u]:
            w = self.mult_gen(w, s)
        return w

    def inverse(self, w: int) -> int:
        out = self._inv[w]
        if out is None:
            acc = 0
            for s in reversed(self._words[w]):
                acc = self.mult_gen(acc, s)
            self._inv[w] = acc
            self._inv[acc] = w
            out = acc
        return out

    def left_mult_gen(self, s: int, w: int) -> int:
        return self.inverse(self.mult_gen(self.inverse(w), s))

    def right_descents(self, w: int) -> frozenset[int]:
        lw = len(self._words[w])
        return frozenset(
            s for s in range(self.rank) if len(self._words[self.mult_gen(w, s)]) < lw
        )

    def left_descents(self, w: int) -> frozenset[int]:
        return self.right_descents(self.inverse(w))

    def id_of_word(self, letters) -> int:
        w = 0
        for s in letters:
            w = self.mult_gen(w, s)
        return w

    def bruhat_leq(self, x: int, y: int) -> bool:
        """Bruhat order by the lifting property, memoized."""
        if x == y:
            return True
        if len(self._words[x]) >= len(self._words[y]):
            return False
        memo = self._bruhat
        out = memo.get((x, y))
        if out is not None:
            return out
        stack = [(x, y)]
        while stack:
            cx, cy = stack[-1]
            res = memo.get((cx, cy))
            if res is not None or cx == cy or len(self._words[cx]) >= len(self._words[cy]):
                stack.pop()
                if res is None:
                    res = cx == cy
                with self._lock:
                    memo[(cx, cy)] = res
                continue
            s = self._words[cy][-1]
            ys = self.mult_gen(cy, s)
            xs = self.mult_gen(cx, s)
            nxt = (xs, ys) if len(self._words[xs]) < len(self._words[cx]) else (cx, ys)
            if nxt in memo:
                stack.pop()
                with self._lock:
                    memo[(cx, cy)] = memo[nxt]
            else:
                stack.append(nxt)
        return memo[(x, y)]

    def all_ids(self, max_length: int | None = None) -> list[int]:
        if max_length is None:
            self._ensure_all()
            return list(range(len(self._words)))
        self._ensure_length(max_length + 1)
        return [w for w in range(len(self._words)) if len(self._words[w]) <= max_length]

    def longest_id(self) -> int:
        self._ensure_all()
        return len(self._words) - 1

    # -- public element API ------------------------------------------------------------

    @property
    def identity(self) -> "CoxeterElement":
        return CoxeterElement(self, 0)

    def element(self, index: int) -> "CoxeterElement":
        return CoxeterElement(self, index)

    def generator(self, label: str) -> "CoxeterElement":
        return CoxeterElement(self, self.id_of_word((self.index_of[label],)))

    def from_word(self, labels) -> "CoxeterElement":
        """Product of generators named by `labels` (need not be reduced)."""
        return CoxeterElement(self, self.id_of_word(self.index_of[x] for x in labels))

    def parse_element(self, text: str) -> "CoxeterElement":
        text = text.strip()
        if not text:
            return self.identity
        return self.from_word(text.split("."))

    def enumerate(self, max_length: int | None = None) -> list["CoxeterElement"]:
        """All elements in ShortLex order, optionally truncated by length."""
        if max_length is None and not self.is_finite:
            raise ValueError("group is infinite; pass max_length")
        return [CoxeterElement(self, w) for w in self.all_ids(max_length)]

    def longest_element(self) -> "CoxeterElement":
        return CoxeterElement(self, self.longest_id())

    def parabolic(self, labels) -> "ParabolicData":
        indices = tuple(sorted(self.index_of[str(x)] for x in labels))
        if len(set(indices)) != len(indices):
            raise ValueError("repeated generators in parabolic subset")
        with self._lock:
            data = self._parabolics.get(indices)
            if data is None:
                data = _build_parabolic(self, indices)
                self._parabolics[indices] = data
        return data


@dataclass(frozen=True)
class CoxeterElement:
    """An element of W in canonical (ShortLex-minimal reduced word) form."""

    system: CoxeterSystem
    index: int

    @property
    def word(self) -> tuple[str, ...]:
        return tuple(self.system.labels[s] for s in self.system.word(self.index))

    @property
    def length(self) -> int:
        return self.system.length(self.index)

    def render(self) -> str:
        return ".".join(self.word)

    def __mul__(self, other: "CoxeterElement") -> "CoxeterElement":
        if self.system is not other.system:
            raise ValueError("elements of different Coxeter systems")
        return CoxeterElement(self.system, self.system.multiply(self.index, other.index))

    def inverse(self) -> "CoxeterElement":
        return CoxeterElement(self.system, self.system.inverse(self.index))

    def descents(self, side: str = "right") -> frozenset[str]:
        if side == "right":
            ids = self.system.right_descents(self.index)
        elif side == "left":
            ids = self.system.left_descents(self.index)
        else:
            raise ValueError("side must be 'left' or 'right'")
        return frozenset(self.system.labels[s] for s in ids)

    def bruhat_leq(self, other: "CoxeterElement") -> bool:
        if self.system is not other.system:
            raise ValueError("elements of different Coxeter systems")
        return self.system.bruhat_leq(self.index, other.index)

    def __repr__(self):
        return "<w %s>" % (self.render() or "1")


# -- weight functions ---------------------------------------------------------------


def _conjugacy_classes(system: CoxeterSystem) -> list[set[int]]:
    """Classes of generators under the closure of 'm(s,t) odd'."""
    parent = list(range(system.rank))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(system.rank):
        for j in range(i + 1, system.rank):
            m = system.matrix[i][j]
            if m != INFINITE_BOND and m % 2 == 1:
                parent[find(i)] = find(j)
    classes: dict[int, set[int]] = {}
    for i in range(system.rank):
        classes.setdefault(find(i), set()).add(i)
    return list(classes.values())


@dataclass(frozen=True)
class WeightFunction:
    """A strictly positive weight on S, constant on conjugate generators."""

    system: CoxeterSystem
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ranks = {len(v) for v in self.values}
        if len(self.values) != self.system.rank:
            raise ValueError("one weight per generator required")
        if self.system.rank and len(ranks) != 1:
            raise ValueError("all weights must share the same rank")
        zero = (0,) * self.rank
        for v in self.values:
            if not v > zero:
                raise ValueError("weights must be strictly positive, got %r" % (v,))
        for cls in _conjugacy_classes(self.system):
            vals = {self.values[i] for i in cls}
            if len(vals) > 1:
                bad = sorted(self.system.labels[i] for i in cls)
                raise ValueError(
                    "generators %s are conjugate but carry different weights" % ", ".join(bad)
                )

    @property
    def rank(self) -> int:
        return len(self.values[0]) if self.values else 1

    def of(self, s: int) -> tuple[int, ...]:
        return self.values[s]

    def of_label(self, label: str) -> tuple[int, ...]:
        return self.values[self.system.index_of[label]]

    @classmethod
    def constant(cls, system: CoxeterSystem, value: int = 1, rank: int = 1) -> "WeightFunction":
        vec = tuple(value if i == 0 else 0 for i in range(rank))
        return cls(system, tuple(vec for _ in range(system.rank)))

    @classmethod
    def from_mapping(cls, system: CoxeterSystem, mapping) -> "WeightFunction":
        vals = []
        for lab in system.labels:
            if lab not in mapping:
                raise ValueError("missing weight for generator %r" % lab)
            v = mapping[lab]
            vals.append((int(v),) if isinstance(v, int) else tuple(int(x) for x in v))
        return cls(system, tuple(vals))

    def restrict(self, pdata: "ParabolicData") -> "WeightFunction":
        return WeightFunction(
            pdata.subsystem, tuple(self.values[i] for i in pdata.indices)
        )

    def mapping(self) -> dict:
        return {lab: self.values[i] for i, lab in enumerate(self.system.labels)}


# -- parabolic subgroups ----------------------------------------------------------------


@dataclass
class ParabolicData:
    """A standard parabolic W_I with its embedding and coset machinery."""

    parent: CoxeterSystem
    indices: tuple[int, ...]
    labels: tuple[str, ...]
    subsystem: CoxeterSystem
    sub_to_parent: tuple[int, ...] | None
    parent_to_sub: dict | None
    longest: int | None
    min_reps: tuple[int, ...] | None

    @property
    def is_finite(self) -> bool:
        return self.subsystem.is_finite

    @property
    def elements(self) -> tuple[int, ...]:
        if self.sub_to_parent is None:
            raise ValueError("W_I is infinite; elements are not enumerable")
        return self.sub_to_parent

    @cached_property
    def left_parts(self) -> dict:
        """w -> (x, u) with w = x * u, x in min_reps and u in W_I, for every w
        of a finite parent; built once from min_reps x elements."""
        if self.min_reps is None:
            raise ValueError("W is infinite; its cosets are not enumerable")
        mul = self.parent.multiply
        return {mul(x, u): (x, u) for x in self.min_reps for u in self.elements}

    @cached_property
    def left_products(self) -> dict:
        """(x, u) -> x * u, the inverse of left_parts."""
        return {xu: w for w, xu in self.left_parts.items()}

    def decompose_left(self, w: int) -> tuple[int, int]:
        """w = x * u with x of minimal length in x W_I and u in W_I.

        A lookup in left_parts for a finite parent; an infinite one peels
        right descents in I one at a time.
        """
        if self.min_reps is not None:
            return self.left_parts[w]
        sys = self.parent
        peeled = []
        while True:
            ds = sys.right_descents(w) & set(self.indices)
            if not ds:
                break
            s = min(ds)
            w = sys.mult_gen(w, s)
            peeled.append(s)
        u = sys.id_of_word(reversed(peeled))
        return w, u

    def decompose_right(self, w: int) -> tuple[int, int]:
        """w = u * x^{-1} with x of minimal length in x W_I and u in W_I."""
        x, u_inv = self.decompose_left(self.parent.inverse(w))
        return x, self.parent.inverse(u_inv)

    def project(self, w: int, side: str) -> int:
        if side == "left":
            return self.decompose_left(w)[1]
        if side == "right":
            return self.decompose_right(w)[1]
        raise ValueError("side must be 'left' or 'right'")

    def to_parent(self, sub_id: int) -> int:
        return self.sub_to_parent[sub_id]

    def to_sub(self, parent_id: int) -> int:
        return self.parent_to_sub[parent_id]

    def omega(self, w: int) -> int:
        """Conjugation by the longest element of W_I (w must lie in W_I)."""
        if self.longest is None:
            raise ValueError("W_I is infinite; it has no longest element")
        sys = self.parent
        return sys.multiply(sys.multiply(self.longest, w), self.longest)

    def omega_labels(self) -> dict:
        """The diagram involution of (W_I, I) induced by its longest element."""
        out = {}
        for s in self.indices:
            img = self.omega(self.parent.id_of_word((s,)))
            sword = self.parent.word(img)
            if len(sword) != 1:
                raise AssertionError("omega_I must permute I")
            out[self.parent.labels[s]] = self.parent.labels[sword[0]]
        return out

    def extend_left(self, delta: dict) -> dict:
        """delta on W_I (parent ids) extended by delta^L(x u) = x delta(u)."""
        sys = self.parent
        out = {}
        for w in sys.all_ids():
            x, u = self.decompose_left(w)
            out[w] = sys.multiply(x, delta[u])
        return out

    def extend_right(self, delta: dict) -> dict:
        """delta on W_I (parent ids) extended by delta^R(u x^{-1}) = delta(u) x^{-1}."""
        sys = self.parent
        out = {}
        for w in sys.all_ids():
            x, u = self.decompose_right(w)
            out[w] = sys.multiply(delta[u], sys.inverse(x))
        return out

    def opposite_map(self, delta: dict) -> dict:
        """delta^op(w) = delta(w^{-1})^{-1} on W_I."""
        sys = self.parent
        return {w: sys.inverse(delta[sys.inverse(w)]) for w in delta}


def _build_parabolic(parent: CoxeterSystem, indices: tuple[int, ...]) -> ParabolicData:
    labels = tuple(parent.labels[i] for i in indices)
    submatrix = tuple(tuple(parent.matrix[i][j] for j in indices) for i in indices)
    subsystem = get_system(submatrix, labels)
    sub_to_parent = None
    parent_to_sub = None
    longest = None
    min_reps = None
    if subsystem.is_finite:
        subsystem._ensure_all()
        embed = [0] * subsystem.size()
        for e in range(1, subsystem.size()):
            word = subsystem.word(e)
            prefix = subsystem.id_of_word(word[:-1])
            embed[e] = parent.mult_gen(embed[prefix], indices[word[-1]])
        sub_to_parent = tuple(embed)
        parent_to_sub = {p: e for e, p in enumerate(embed)}
        longest = embed[-1]
    if parent.is_finite:
        idx_set = set(indices)
        min_reps = tuple(
            x for x in parent.all_ids() if not (parent.right_descents(x) & idx_set)
        )
    return ParabolicData(
        parent=parent,
        indices=indices,
        labels=labels,
        subsystem=subsystem,
        sub_to_parent=sub_to_parent,
        parent_to_sub=parent_to_sub,
        longest=longest,
        min_reps=min_reps,
    )


# -- diagram automorphisms -----------------------------------------------------------------


def diagram_automorphisms(system: CoxeterSystem, weights: WeightFunction | None = None):
    """All graph automorphisms preserving the Coxeter matrix (and weights)."""
    from itertools import permutations

    n = system.rank
    out = []
    for perm in permutations(range(n)):
        if any(
            system.matrix[perm[i]][perm[j]] != system.matrix[i][j]
            for i in range(n)
            for j in range(i + 1, n)
        ):
            continue
        if weights is not None and any(weights.of(perm[i]) != weights.of(i) for i in range(n)):
            continue
        out.append(perm)
    out.sort()
    return out


def apply_index_map(system: CoxeterSystem, perm, w: int) -> int:
    """Image of element w under the automorphism extending s_i -> s_perm[i]."""
    return system.id_of_word(perm[s] for s in system.word(w))


# -- catalog and config ----------------------------------------------------------------------


def _chain_matrix(orders: list[int]) -> tuple[tuple[int, ...], ...]:
    n = len(orders) + 1
    mat = [[2] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = 1
    for i, m in enumerate(orders):
        mat[i][i + 1] = mat[i + 1][i] = m
    return tuple(tuple(row) for row in mat)


_I2_RE = re.compile(r"^I2\((\d+)\)$")


def _named_matrix(name: str):
    m = _I2_RE.match(name)
    if m:
        order = int(m.group(1))
        if order < 2:
            raise ValueError("I2(m) needs m >= 2")
        return _chain_matrix([order]), ("s", "t")
    if name == "A1":
        return ((1,),), ("s",)
    if name in ("A2", "A3", "A4"):
        n = int(name[1])
        return _chain_matrix([3] * (n - 1)), tuple("s%d" % (i + 1) for i in range(n))
    if name in ("B2", "B3", "B4"):
        n = int(name[1])
        return (
            _chain_matrix([4] + [3] * (n - 2)),
            ("t",) + tuple("s%d" % (i + 1) for i in range(n - 1)),
        )
    if name == "D4":
        mat = [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]
        return tuple(tuple(r) for r in mat), ("s1", "s2", "s3", "s4")
    if name == "H3":
        return _chain_matrix([5, 3]), ("s1", "s2", "s3")
    raise ValueError("unknown named Coxeter type %r" % name)


@lru_cache(maxsize=None)
def get_system(matrix: tuple, labels: tuple) -> CoxeterSystem:
    """Shared registry: identical (matrix, labels) yield the same system object."""
    return CoxeterSystem(matrix, labels)


def named_system(name: str) -> CoxeterSystem:
    matrix, labels = _named_matrix(name)
    return get_system(matrix, labels)


def system_from_config(cfg: dict) -> CoxeterSystem:
    """Build a system from a config mapping: {"type": name} or {"matrix": [...]}."""
    if "type" in cfg and cfg["type"]:
        return named_system(cfg["type"])
    if "matrix" in cfg and cfg["matrix"]:
        matrix = tuple(tuple(int(x) for x in row) for row in cfg["matrix"])
        labels = cfg.get("labels")
        return get_system(matrix, tuple(labels) if labels else tuple("s%d" % (i + 1) for i in range(len(matrix))))
    raise ValueError("config needs either 'type' or 'matrix'")


def weights_from_config(system: CoxeterSystem, weights) -> WeightFunction:
    if weights is None:
        return WeightFunction.constant(system)
    return WeightFunction.from_mapping(system, weights)
