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
    """A maximum colorable edge set together with a proper k-coloring of it."""

    edges: frozenset[int]
    coloring: dict[int, int]  # edge id -> color in 1..k
    count: int


def audit_witness(g: Graph, k: int, witness: OptWitness) -> None:
    """Raise GraphError unless the witness is internally consistent."""
    if witness.count != len(witness.edges):
        raise GraphError("witness count does not match its edge set")
    if set(witness.coloring) != set(witness.edges):
        raise GraphError("witness coloring does not cover exactly its edges")
    loads = [0] * g.num_vertices
    for eid, c in witness.coloring.items():
        if not 1 <= c <= k:
            raise GraphError(f"witness color {c} outside 1..{k}")
        u, v = g.endpoints(eid)
        loads[u] += 1
        loads[v] += 1
        for f in g.adjacent_edges(eid):
            if witness.coloring.get(f) == c:
                raise GraphError(f"witness colors adjacent edges {eid},{f} alike")
    if any(load > k for load in loads):
        raise GraphError("witness keeps more than k edges at a vertex")


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

    Per-vertex DP with two states (parent edge kept or not); keeping a child
    edge changes the subtree value by 0 or 1, so the best children are just
    the positive gains, capped by the remaining degree budget.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not g.is_forest():
        raise GraphError("tree oracle requires an acyclic graph")

    n, incident = g.num_vertices, g.incident
    parent_eid = [-1] * n
    kept: set[int] = set()
    roots = []

    for comp in g.components():
        root = min(comp)
        roots.append(root)
        order = []
        parent_eid[root] = -1
        stack = [(root, -1)]
        while stack:
            x, pe = stack.pop()
            order.append(x)
            for f in incident[x]:
                if f != pe:
                    y = g.other_end(f, x)
                    parent_eid[y] = f
                    stack.append((y, f))

        # value[x][kept_parent] and, per vertex, the child edges chosen when
        # its parent edge is / is not kept
        value = [[0, 0] for _ in range(len(order))]
        index = {x: i for i, x in enumerate(order)}
        choice: dict[int, tuple[list[int], list[int]]] = {}
        for x in reversed(order):
            base = 0
            gains = []  # (gain, child edge)
            for f in incident[x]:
                if f == parent_eid[x]:
                    continue
                y = g.other_end(f, x)
                skip_y, keep_y = value[index[y]][0], value[index[y]][1]
                base += skip_y
                gains.append((keep_y + 1 - skip_y, f))
            gains.sort(key=lambda t: (-t[0], t[1]))
            sel_free = [(gain, f) for gain, f in gains[:k] if gain > 0]
            sel_tight = [(gain, f) for gain, f in gains[: k - 1] if gain > 0]
            choice[x] = ([f for _, f in sel_free], [f for _, f in sel_tight])
            value[index[x]][0] = base + sum(gain for gain, _ in sel_free)
            value[index[x]][1] = base + sum(gain for gain, _ in sel_tight)

        # reconstruct kept edges top-down
        stack = [(root, False)]
        while stack:
            x, parent_kept = stack.pop()
            take = choice[x][1] if parent_kept else choice[x][0]
            take_set = set(take)
            for f in (f for f in incident[x] if f != parent_eid[x]):
                y = g.other_end(f, x)
                if f in take_set:
                    kept.add(f)
                    stack.append((y, True))
                else:
                    stack.append((y, False))

    coloring = _color_forest(g, k, kept, roots, parent_eid)
    return OptWitness(edges=frozenset(kept), coloring=coloring, count=len(kept))


def _color_forest(g, k, kept, roots, parent_eid):
    """Greedy proper coloring of a kept subforest with max degree <= k.

    Child edges at each vertex take the lowest colors not used by the kept
    parent edge, which always suffices.
    """
    coloring, incident = {}, g.incident
    for root in roots:
        stack = [(root, 0)]  # (vertex, color of kept parent edge; 0 = none)
        while stack:
            x, parent_color = stack.pop()
            c = 0
            for f in incident[x]:
                if f == parent_eid[x]:
                    continue
                y = g.other_end(f, x)
                if f not in kept:
                    stack.append((y, 0))
                    continue
                c += 1
                if c == parent_color:
                    c += 1
                if c > k:
                    raise GraphError("kept forest exceeded its color budget")
                coloring[f] = c
                stack.append((y, c))
    return coloring


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
                return OptWitness(
                    edges=frozenset(subset), coloring=coloring, count=size
                )
    raise AssertionError("unreachable: the empty subset is always colorable")


def opt_value(g: Graph, k: int) -> int:
    """OPT for any instance this package produces: forests exactly, small
    graphs by brute force."""
    if g.is_forest():
        return opt_tree(g, k).count
    return opt_bruteforce(g, k).count
