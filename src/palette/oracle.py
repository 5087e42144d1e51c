"""Exact offline optima for the dual edge coloring objective.

OPT(instance) is the largest number of edges that can be properly colored
with k colors.  Paths have a closed form, trees and forests a dynamic
program over degree-constrained subforests (any forest with maximum degree
at most k is k-edge-colorable), and small arbitrary graphs a brute-force
search that doubles as an independent cross-check of the tree DP.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, GraphError

BRUTE_FORCE_EDGE_LIMIT = 16


@dataclass(frozen=True)
class OptWitness:
    """A maximum colorable edge set, held as its proper k-coloring: the edge set
    and its size are read from the coloring's keys."""

    coloring: dict[int, int]  # edge id -> color in 1..k

    @property
    def edges(self):
        return self.coloring.keys()

    @property
    def count(self) -> int:
        return len(self.coloring)


def audit_witness(g: Graph, k: int, witness: OptWitness) -> None:
    """Raise GraphError unless the witness properly colors edges of g in 1..k."""
    if witness.coloring and not 0 <= min(witness.coloring) <= max(witness.coloring) < g.num_edges:
        raise GraphError(f"witness edge ids outside 0..{g.num_edges - 1}")
    # colors in 1..k that differ at every vertex keep at most k edges there;
    # each (vertex, color) pair, keyed by the int x*k + c - 1, is claimed by
    # one edge, so the check is O(m)
    owner: dict[int, int] = {}
    for eid, c in witness.coloring.items():
        if not 1 <= c <= k:
            raise GraphError(f"witness color {c} outside 1..{k}")
        for x in g.edges[eid]:
            f = owner.setdefault(x * k + c - 1, eid)
            if f != eid:
                raise GraphError(f"witness colors adjacent edges {f},{eid} alike")


def opt_path(m: int, k: int) -> int:
    """Optimum for a path of m edges: all of them when k >= 2, else a matching."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 0:
        raise ValueError(f"edge count must be >= 0, got {m}")
    if k >= 2:
        return m
    return (m + 1) // 2


def opt_tree(g: Graph, k: int) -> OptWitness:
    """Optimum on a forest: max edge set with all degrees <= k, properly colored.

    Per-vertex DP with two states (parent edge kept or not), bottom-up over
    the graph's walk.  Keeping a child edge changes the subtree value by 0 or
    1, so the best children are the ones that gain 1, lowest edge id first,
    capped by the remaining degree budget.  One top-down pass then keeps and
    colors them: a vertex's kept child edges take the lowest colors not used
    by its kept parent edge, which always suffices.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not g.is_forest():
        raise GraphError("tree oracle requires an acyclic graph")
    n, view = g.num_vertices, g.walk

    # best count in x's subtree with x's parent edge free to keep / kept, and
    # how many of x's child edges gain 1 when kept: those to children y with
    # free[y] == tight[y]
    incident, edges, parent_edge = g.incident, g.edges, view.parent_edge
    free, tight, gainers = [0] * n, [0] * n, [0] * n
    for x in reversed(view.order):
        base, up, pe = 0, 0, parent_edge[x]
        for f in incident[x]:
            if f == pe:
                continue
            u, y = edges[f]
            if y == x:
                y = u
            fy = free[y]
            base += fy
            if fy == tight[y]:
                up += 1
        gainers[x] = up
        free[x] = base + (up if up < k else k)
        tight[x] = base + (up if up < k else k - 1)

    coloring: dict[int, int] = {}
    parent_color = [0] * n  # color of x's kept parent edge, 0 if none
    for x in view.order:
        pc, take = parent_color[x], gainers[x]
        take = take if take < k else (k - 1 if pc else k)  # x keeps at most k edges
        if not take:
            continue
        c, pe = 0, parent_edge[x]
        for f in incident[x]:  # the gaining child edges again, in reveal order
            if f == pe:
                continue
            u, y = edges[f]
            if y == x:
                y = u
            if free[y] == tight[y]:
                c += 1
                if c == pc:
                    c += 1
                coloring[f] = c
                parent_color[y] = c
                take -= 1
                if not take:
                    break
    return OptWitness(coloring)


def _colorable(g: Graph, k: int, subset: tuple[int, ...]) -> dict[int, int] | None:
    """Backtracking proper k-coloring of the edge subset, or None.

    Colors are interchangeable, so each new edge may only use colors up to
    one past the highest color used so far.
    """
    adj = []
    chosen = set(subset)
    for eid in subset:
        adj.append([f for f in g.adjacent_edges(eid) if f in chosen])
    assignment: dict[int, int] = {}

    def backtrack(i: int, highest: int) -> bool:
        if i == len(subset):
            return True
        eid = subset[i]
        blocked = 0
        for f in adj[i]:
            c = assignment.get(f)
            if c:
                blocked |= 1 << (c - 1)
        limit = min(k, highest + 1)
        for c in range(1, limit + 1):
            if blocked >> (c - 1) & 1:
                continue
            assignment[eid] = c
            if backtrack(i + 1, max(highest, c)):
                return True
            del assignment[eid]
        return False

    return dict(assignment) if backtrack(0, 0) else None


def opt_bruteforce(g: Graph, k: int) -> OptWitness:
    """Exact optimum on any small graph by searching edge subsets.

    Scans subset sizes downward and returns the first properly k-colorable
    subset found.  Refuses instances above BRUTE_FORCE_EDGE_LIMIT edges.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = g.num_edges
    if m > BRUTE_FORCE_EDGE_LIMIT:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_EDGE_LIMIT} edges, got {m}"
        )
    all_edges = tuple(range(m))
    for size in range(m, -1, -1):
        for subset in combinations(all_edges, size):
            loads = [0] * g.num_vertices
            ok = True
            for eid in subset:
                u, v = g.endpoints(eid)
                loads[u] += 1
                loads[v] += 1
                if loads[u] > k or loads[v] > k:
                    ok = False
                    break
            if not ok:
                continue
            coloring = _colorable(g, k, subset)
            if coloring is not None:
                return OptWitness(coloring)
    raise AssertionError("unreachable: the empty subset is always colorable")


def opt_witness(g: Graph, k: int) -> OptWitness:
    """opt_tree's witness, or brute force's where opt_tree's walk finds a cycle."""
    try:
        return opt_tree(g, k)
    except GraphError:
        return opt_bruteforce(g, k)
