"""Cell preorders and partitions, the a-function, and structural checks.

The left preorder is the finest preorder making the span of the C_x below
any C_w a left ideal; it is generated by the relation "C_z appears in
C_s C_y for some generator s".  Cells are the strongly connected components
of that relation, the preorder is reachability on the condensation, and
the right/two-sided versions use right multiplication (the left edges
mirrored by C_w -> C_{w^-1}) resp. the union of both edge sets.  Generator
multiplications suffice because the C_s generate the algebra; the
brute-force all-element oracle for that fact lives in the test suite.

The a-function of z is the maximal degree of any structure constant
h_{x,y,z}, and gamma_{x,y,z} is the coefficient of the top degree
v^{a(z^{-1})} in h_{x,y,z^{-1}}.  Both come from one streamed pass over the
columns of the h table (`HeckeAlgebra.h_column`), which stores no h row: per
orbit {z, z^-1} it keeps the running maximum degree and the triples that
reach it with their coefficients, dropping them when the maximum rises.  As
h_{x,y,z} = h_{y^-1,x^-1,z^-1}, the pass reads only the rows with
x <= y^-1 in id order, and gamma and P8 read every other triple through
that mirror.  Delta(z) is minus the degree of the coefficient of T_1 in
C_z, and the Duflo set collects the z with a(z) = Delta(z).  The checks
P1, P4, P8, P9 are reported with explicit witnesses on failure; a failed
check is a result, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from . import laurent
from .hecke import HeckeAlgebra

__all__ = [
    "CheckReport",
    "CellPartition",
    "CellDecomposition",
    "compute_cells",
    "AFunctionTable",
    "build_a_table",
    "CONJECTURES",
    "check_conjecture_names",
    "verify_conjectures",
    "cell_module_constants",
]

MAX_WITNESSES = 10


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one structural check, with witnesses when it fails."""

    name: str
    holds: bool
    witnesses: tuple = ()

    def __bool__(self) -> bool:
        return self.holds

    @classmethod
    def of(cls, name: str, witnesses) -> "CheckReport":
        """The report that holds iff `witnesses` is empty, keeping the first
        MAX_WITNESSES of them in the order given."""
        kept = tuple(islice(witnesses, MAX_WITNESSES))
        return cls(name, not kept, kept)


def _strongly_connected_components(n: int, adj: list[set]) -> list[list[int]]:
    """Iterative Tarjan; components are returned in reverse topological order,
    each after every component it reaches."""
    index = [0] * n
    low = [0] * n
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done
    comp_stack: list[int] = []
    comps: list[list[int]] = []
    counter = 1
    for root in range(n):
        if state[root]:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        state[root] = 1
        comp_stack.append(root)
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if not state[u]:
                    index[u] = low[u] = counter
                    counter += 1
                    state[u] = 1
                    comp_stack.append(u)
                    work.append((u, iter(adj[u])))
                    advanced = True
                    break
                if state[u] == 1:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    u = comp_stack.pop()
                    state[u] = 2
                    comp.append(u)
                    if u == v:
                        break
                comps.append(comp)
    return comps


@dataclass(frozen=True)
class CellPartition:
    """Cells of one side together with the preorder on the condensation."""

    side: str
    cells: tuple[frozenset, ...]
    cell_of: tuple[int, ...]
    below: tuple[frozenset, ...]  # per cell: ids of cells <= it (including itself)

    def members(self, cell: int) -> frozenset:
        return self.cells[cell]

    def same_cell(self, x: int, y: int) -> bool:
        return self.cell_of[x] == self.cell_of[y]

    def leq(self, x: int, y: int) -> bool:
        """x <= y in the preorder (x lies in the ideal generated below y)."""
        return self.cell_of[x] in self.below[self.cell_of[y]]

    def less(self, x: int, y: int) -> bool:
        return self.cell_of[x] != self.cell_of[y] and self.leq(x, y)

    def cover_edges(self) -> list[tuple[int, int]]:
        """Hasse edges (a, b) with a < b, for rendering the condensation."""
        k = len(self.cells)
        pairs = [
            (a, b)
            for b in range(k)
            for a in self.below[b]
            if a != b
        ]
        covers = []
        for a, b in pairs:
            if not any(
                c != a and c != b and c in self.below[b] and a in self.below[c]
                for c in range(k)
            ):
                covers.append((a, b))
        return sorted(covers)


def _partition_from_edges(side: str, n: int, adj: list[set]) -> CellPartition:
    """Cells and preorder of the edge relation y -> z for z in adj[y].

    Cells are numbered by their least member.  Tarjan emits each component
    after every component it reaches, so one pass in emission order folds the
    preorder: a cell's `below` is itself plus the `below` of each cell one
    of its edges leads to.
    """
    comps = _strongly_connected_components(n, adj)
    cells = sorted(comps, key=min)
    cell_of = [0] * n
    for i, comp in enumerate(cells):
        for w in comp:
            cell_of[w] = i
    below: list = [None] * len(cells)
    for comp in comps:
        c = cell_of[comp[0]]
        reached = {cell_of[z] for y in comp for z in adj[y]}
        reached.discard(c)
        below[c] = frozenset({c}.union(*(below[d] for d in reached)))
    return CellPartition(
        side=side,
        cells=tuple(frozenset(c) for c in cells),
        cell_of=tuple(cell_of),
        below=tuple(below),
    )


@dataclass(frozen=True)
class CellDecomposition:
    left: CellPartition
    right: CellPartition
    two_sided: CellPartition

    def partition(self, side: str) -> CellPartition:
        if side == "left":
            return self.left
        if side == "right":
            return self.right
        if side == "two_sided":
            return self.two_sided
        raise ValueError("unknown side %r" % side)


def compute_cells(algebra: HeckeAlgebra) -> CellDecomposition:
    """Left, right and two-sided cells of a finite W with the given weights."""
    return algebra.memo("cells", lambda: _compute_cells(algebra))


def _compute_cells(algebra: HeckeAlgebra) -> CellDecomposition:
    sys = algebra.system
    ids = sys.all_ids()
    n = len(ids)
    left_adj: list[set] = [set() for _ in range(n)]
    for y in ids:
        for s in range(sys.rank):
            left_adj[y].update(algebra.cs_left_row(s, y))
    inv = sys.inverse
    right_adj = [{inv(z) for z in left_adj[inv(y)]} for y in ids]
    both = [left_adj[y] | right_adj[y] for y in ids]
    return CellDecomposition(
        left=_partition_from_edges("left", n, left_adj),
        right=_partition_from_edges("right", n, right_adj),
        two_sided=_partition_from_edges("two_sided", n, both),
    )


# -- a-function, Duflo set, conjectures --------------------------------------------------


@dataclass
class AFunctionTable:
    """a, alpha, Delta, the Duflo set, the d-map and gamma for one (W, phi).

    The values of a, alpha and delta are packed exponents (`laurent.pack`);
    `laurent.unpack(x, algebra.rank)` gives the tuple.  `top` maps each
    (x, y, z) with x <= y^-1 in id order and deg h_{x,y,z} = a(z) to the
    coefficient of v^{a(z)} in h_{x,y,z}; every other triple with x <= y^-1
    has no term of that degree."""

    algebra: HeckeAlgebra
    cells: CellDecomposition
    a: tuple
    alpha: tuple
    delta: tuple
    duflo: frozenset
    dmap: dict | None
    dmap_report: CheckReport
    top: dict

    def gamma(self, x: int, y: int, z: int) -> int:
        """Coefficient of v^{a(z^{-1})} in h_{x,y,z^{-1}}, read through the
        mirror (y^-1, x^-1, z) when x > y^-1."""
        inv = self.algebra.system.inverse
        if x > inv(y):
            return self.top.get((inv(y), inv(x), z), 0)
        return self.top.get((x, y, inv(z)), 0)


def build_a_table(algebra: HeckeAlgebra) -> AFunctionTable:
    """a, alpha, Delta, the Duflo set, the d-map and gamma, from one streamed
    pass over the columns of the h table."""
    return algebra.memo("a_table", lambda: _build_a_table(algebra))


def _build_a_table(algebra: HeckeAlgebra) -> AFunctionTable:
    sys = algebra.system
    cells = compute_cells(algebra)
    ids = sys.all_ids()
    inv = sys.inverse
    # h_{x,y,z} = h_{y^-1,x^-1,z^-1}: the rows with x <= y^-1 give every
    # degree, each counting for the orbit {z, z^-1}, keyed by its least id.
    # Per orbit, the running maximum degree and the triples that reach it.
    top_deg: dict = {}
    top_at: dict = {}
    for y in ids:
        for x, row in algebra.h_column(y):
            for z, p in row.items():
                d = laurent.deg(p)
                o = min(z, inv(z))
                cur = top_deg.get(o)
                if cur is None or d > cur:
                    top_deg[o] = d
                    top_at[o] = {(x, y, z): p[d]}
                elif d == cur:
                    top_at[o][x, y, z] = p[d]
    a = tuple(top_deg[min(z, inv(z))] for z in ids)
    top = {t: c for at in top_at.values() for t, c in at.items()}
    w0 = sys.longest_id()
    alpha = tuple(a[sys.multiply(w0, z)] - a[z] for z in ids)
    delta = []
    for z in ids:
        p = algebra.pstar_poly(0, z)
        delta.append(-laurent.deg(p) if p else None)
    duflo = frozenset(z for z in ids if delta[z] is not None and a[z] == delta[z])
    dmap: dict | None = {}
    bad = []
    for cell in cells.left.cells:
        found = sorted(cell & duflo)
        if len(found) == 1:
            for w in cell:
                dmap[w] = found[0]
        else:
            bad.append(
                "left cell %s contains %d Duflo elements"
                % (sorted(cell), len(found))
            )
    if bad:
        dmap = None
    report = CheckReport.of("unique-duflo-per-left-cell", bad)
    return AFunctionTable(
        algebra=algebra,
        cells=cells,
        a=a,
        alpha=alpha,
        delta=tuple(delta),
        duflo=duflo,
        dmap=dmap,
        dmap_report=report,
        top=top,
    )


CONJECTURES = ("P1", "P4", "P8", "P9")


def check_conjecture_names(which) -> None:
    """Raise ValueError naming every entry of `which` that is not one of
    CONJECTURES; cheap, so a caller can run it before building any table."""
    unknown = [c for c in which if c not in CONJECTURES]
    if unknown:
        raise ValueError(
            "unknown check %s; choose from %s"
            % (", ".join(map(repr, unknown)), ", ".join(CONJECTURES))
        )


def verify_conjectures(table: AFunctionTable, which=CONJECTURES) -> dict:
    """Check P1/P4/P8/P9 for (W, S, phi); failures carry witnesses."""
    check_conjecture_names(which)
    algebra = table.algebra
    sys = algebra.system
    cells = table.cells
    ids = sys.all_ids()
    out = {}
    render = lambda w: sys.element(w).render() or "1"

    if "P1" in which:
        wit = []
        for z in ids:
            if table.delta[z] is None or not table.a[z] <= table.delta[z]:
                wit.append("a(%s) > Delta(%s)" % (render(z), render(z)))
        out["P1"] = CheckReport.of("P1", sorted(wit))

    if "P4" in which:
        wit = []
        for z in ids:
            for zp in ids:
                if cells.two_sided.leq(zp, z) and not table.a[zp] >= table.a[z]:
                    wit.append("%s <=_LR %s but a drops" % (render(zp), render(z)))
        out["P4"] = CheckReport.of("P4", sorted(wit))

    if "P8" in which:
        wit = []
        same_l = cells.left.same_cell
        inv = sys.inverse
        for t in table.top:
            x, y, zp = t
            # the mirror of a triple with x = y^-1 lies in the same row, so in `top`
            triples = (t,) if x == inv(y) else (t, (inv(y), inv(x), inv(zp)))
            for x, y, zp in triples:
                z = inv(zp)
                if not (same_l(x, inv(y)) and same_l(y, zp) and same_l(z, inv(x))):
                    wit.append(
                        "gamma(%s,%s,%s) != 0 off the cell triangle"
                        % (render(x), render(y), render(z))
                    )
        out["P8"] = CheckReport.of("P8", sorted(wit))

    if "P9" in which:
        wit = []
        for z in ids:
            for zp in ids:
                if (
                    cells.left.leq(zp, z)
                    and table.a[zp] == table.a[z]
                    and not cells.left.same_cell(zp, z)
                ):
                    wit.append("%s <=_L %s, equal a, different cells" % (render(zp), render(z)))
        out["P9"] = CheckReport.of("P9", sorted(wit))

    return out


def cell_module_constants(algebra: HeckeAlgebra, cells: CellDecomposition, cell: int, side: str = "left") -> dict:
    """Action of the generators on the cell module basis (c_w), as h-constants:
    (s, w, u) -> the coefficient of C_u in C_s C_w (side "left") or C_w C_s
    (side "right"), for w and u in the cell."""
    part = cells.partition(side)
    members = sorted(part.members(cell))
    out = {}
    for s in range(algebra.system.rank):
        for w in members:
            for u, p in algebra.cs_row(side, s, w).items():
                if part.cell_of[u] == cell and p:
                    out[(s, w, u)] = algebra._wrap_poly(p)
    return out
