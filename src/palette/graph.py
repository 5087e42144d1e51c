"""Incremental simple-graph state shared by the online games and the oracles.

Vertices and edges are dense 0-based integer ids.  Vertices come into
existence the first time an edge mentions them; edge ids are assigned in
reveal order.  Colors are the integers ``1..k`` and sets of colors are
stored as bitmasks (bit ``c-1`` set means color ``c`` is present), one per
vertex in a list that a coloring grows as it colors.  A graph's edge list
is its record; its indexes are made from it.  The adjacency
(`Graph.incident`) is one tuple of edge ids per vertex, built on first
read and kept current by `add_edge` after that, so a game whose strategy
reads only color masks never builds it.  Tuples rather than lists: the
cyclic garbage collector stops tracking a tuple of ints at its first
collection, so a big graph leaves it nothing per vertex to sweep.  The
duplicate-edge set, one int per edge, is released by `engine.run` when the
game ends and rebuilt by the next `add_edge`, so a finished game keeps only
its edges and decisions.  `rooted_view` walks the adjacency: components,
the forest and tree tests, the tree oracle and both tree certificates read
its parent edges and its parents-first vertex order, and the walk from
every vertex in id order is made once per graph and kept until the next
edge (`Graph.walk`).  On a forest every other incident edge of a vertex is
a child edge, so a walk records nothing more.  `path_positions` walks a
path with no adjacency, by one xor link per vertex, for the random-pair
kernel and ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate


class GraphError(ValueError):
    """Structural problem: self-loop, duplicate edge, bad id, wrong shape."""


# ---------------------------------------------------------------------------
# color bitmask helpers

def full_mask(k: int) -> int:
    """Bitmask of all colors 1..k."""
    return (1 << k) - 1


def color_bit(c: int) -> int:
    return 1 << (c - 1)


def lowest_free_color(used: int, k: int) -> int | None:
    """Smallest color in 1..k absent from the ``used`` mask, or None."""
    free = ~used & full_mask(k)
    if not free:
        return None
    return (free & -free).bit_length()


class Graph:
    """Simple undirected graph built one edge at a time."""

    __slots__ = ("edges", "num_vertices", "_incident", "_walk", "_seen")

    def __init__(self):
        self.edges: list[tuple[int, int]] = []
        self.num_vertices = 0
        self._incident: list[tuple[int, ...]] | None = None  # built on first read
        self._walk: RootedView | None = None  # made on first read, dropped by add_edge
        self._seen: set[int] | None = None  # one int per unordered pair, rebuilt by add_edge

    @property
    def incident(self) -> list[tuple[int, ...]]:
        """vertex -> tuple of incident edge ids, in reveal order.

        Built in O(m) on first read: the degrees, one flat array of edge ids
        grouped by vertex, then a tuple slice of it per vertex, so no
        per-vertex list is left alive.  After that `add_edge` appends each
        new edge id to its endpoints' tuples, O(deg) per edge.
        """
        if self._incident is None:
            edges = self.edges
            deg = [0] * self.num_vertices
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            pos = [0, *accumulate(deg)]  # where each vertex's ids go next
            flat = [0] * pos[-1]
            for eid, (u, v) in enumerate(edges):
                p = pos[u]
                flat[p] = eid
                pos[u] = p + 1
                p = pos[v]
                flat[p] = eid
                pos[v] = p + 1
            flat = tuple(flat)  # so each slice is a tuple already
            incident, start = [], 0
            for stop in pos[:-1]:  # x's ids now end where x + 1's start
                incident.append(flat[start:stop])
                start = stop
            self._incident = incident
        return self._incident

    @property
    def walk(self) -> RootedView:
        """`rooted_view(self, range(num_vertices))`: made on first read and kept
        until the next `add_edge`.  Callers share it, so they only read it."""
        if self._walk is None:
            self._walk = rooted_view(self, range(self.num_vertices))
        return self._walk

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def drop_duplicate_index(self) -> None:
        """Release the duplicate-edge set; the next `add_edge` rebuilds it, O(m)."""
        self._seen = None

    def add_edge(self, u: int, v: int) -> int:
        """Add edge (u, v), creating vertices as needed; returns its id.  A
        duplicate is found by the int hi*(hi-1)//2 + lo, one per pair lo < hi."""
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        lo, hi = (u, v) if u < v else (v, u)
        if lo < 0:
            raise GraphError(f"negative vertex id in ({u}, {v})")
        key, seen = hi * (hi - 1) // 2 + lo, self._seen
        if seen is None:
            seen = self._seen = {a * (a - 1) // 2 + b if a > b else b * (b - 1) // 2 + a
                                 for a, b in self.edges}
        if key in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        eid = len(self.edges)
        self.edges.append((u, v))
        if hi >= self.num_vertices:
            self.num_vertices = hi + 1
        incident = self._incident
        if incident is not None:  # a walk reads the adjacency, so none exists before it
            incident.extend([()] * (hi + 1 - len(incident)))
            incident[u] += (eid,)
            incident[v] += (eid,)
            self._walk = None
        return eid

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.edges[eid]

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        return w if v == u else u

    def adjacent_edges(self, eid: int):
        """Edge ids sharing an endpoint with eid."""
        u, v = self.edges[eid]
        for f in self.incident[u]:
            if f != eid:
                yield f
        for f in self.incident[v]:
            if f != eid:
                yield f

    def components(self) -> list[list[int]]:
        """Connected components as lists of vertex ids (isolated ones too),
        each from its least vertex, parents first, as `walk` visits them.
        The benchmark's tracer wraps it and tests call it; no package code does."""
        view = self.walk
        comps = []
        for x in view.order:
            if view.parent_edge[x] == -1:  # a root starts the next component
                comps.append([])
            comps[-1].append(x)
        return comps

    def is_forest(self) -> bool:
        """Acyclic: `walk` roots one tree per component, so m + roots == n."""
        return self.num_edges + self.walk.parent_edge.count(-1) == self.num_vertices

    def is_tree(self) -> bool:
        return self.num_edges + 1 == self.num_vertices and self.is_forest()

    def classify(self) -> str:
        """Shape of the final graph: 'path', 'star', 'tree' or 'other'.

        A path wins over a star for the ambiguous sizes (one or two edges);
        'tree' is any other connected acyclic graph.  A star's size is its
        edge count.  The benchmark's tracer wraps it and tests call it; no
        package code does.
        """
        if self.num_edges == 0:
            return "other"
        if not self.is_tree():
            return "other"
        degs = [len(edges) for edges in self.incident]
        if max(degs) <= 2:
            return "path"
        if max(degs) == self.num_edges:
            return "star"
        return "tree"


@dataclass
class RootedView:
    """The trees a walk reached, each rooted at its start: each vertex's parent
    edge and a parents-first order.  On a forest, x's child edges are the edges
    of `Graph.incident[x]` other than `parent_edge[x]`, in reveal order, and
    x's parent vertex is `Graph.other_end(parent_edge[x], x)`."""

    parent_edge: list[int]  # -1 at a root and at vertices not reached
    order: list[int]  # reached vertices, parents before children


def rooted_view(g: Graph, starts) -> RootedView:
    """Walk g from each start not reached yet; each such start roots a tree.

    On a forest the parent relations depend only on the roots, not on the
    order of the walk.  On a graph with cycles the view is a spanning forest
    of what was reached: the walk does not check for cycles, so callers that
    need a forest ask `Graph.is_forest` or `is_tree`, which count `walk`'s
    roots (the tree certificates ask once per trace, not once per root).
    """
    n, incident, edges = g.num_vertices, g.incident, g.edges
    parent_edge = [-1] * n
    seen = [False] * n
    order: list[int] = []
    for root in starts:
        if not 0 <= root < n:
            raise GraphError(f"root {root} out of range")
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for f in incident[x]:
                u, y = edges[f]
                if y == x:
                    y = u
                if not seen[y]:
                    seen[y] = True
                    parent_edge[y] = f
                    stack.append(y)
    return RootedView(parent_edge, order)


class PartialColoring:
    """A game's decisions plus the per-vertex used-color masks.

    `colors` is the one record of the decisions, in reveal order: edge e's
    color, or None if it was rejected.  `color` and `reject` append to it
    and refuse any edge but the next undecided one.  Coloring enforces
    properness: the color must be absent at both endpoints at the time of
    the call.  This is the package's one properness check; every coloring,
    played or read from a file, is built through `color`.
    """

    __slots__ = ("k", "colors", "_used", "_all")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k, self._all = k, full_mask(k)
        self.colors: list[int | None] = []  # edge id -> color, None if rejected
        self._used: list[int] = []  # vertex -> color bitmask, grown by color; 0 past its end

    def used_mask(self, v: int) -> int:
        return self._used[v] if 0 <= v < len(self._used) else 0

    def used_masks(self, n: int) -> list[int]:
        """A new list of the masks of vertices 0..n-1."""
        return self._used[:n] + [0] * (n - len(self._used))

    def available_mask(self, g: Graph, eid: int) -> int:
        """Colors open at both endpoints of eid, as a mask."""
        (u, v), used = g.edges[eid], self._used
        n = len(used)
        return ~((used[u] if u < n else 0) | (used[v] if v < n else 0)) & self._all

    def _out_of_turn(self, eid: int) -> GraphError:
        """The refusal of a decision on eid, which is not the next undecided edge."""
        n = len(self.colors)
        return GraphError(f"edge {eid} already decided" if 0 <= eid < n
                          else f"edge {eid} is not the next undecided edge {n}")

    def color(self, g: Graph, eid: int, c: int) -> None:
        if not 1 <= c <= self.k:
            raise GraphError(f"color {c} outside 1..{self.k}")
        if eid != len(self.colors):
            raise self._out_of_turn(eid)
        u, v = g.edges[eid]
        used, hi = self._used, (u if u > v else v)
        if hi >= len(used):  # an eighth to spare, so a game that adds vertices grows it rarely
            used += [0] * (hi + 1 - len(used) + (len(used) >> 3))
        mu, mv, bit = used[u], used[v], 1 << (c - 1)
        if (mu | mv) & bit:
            raise GraphError(
                f"color {c} already used at an endpoint of edge {eid}"
            )
        self.colors.append(c)
        used[u] = mu | bit
        used[v] = mv | bit

    def reject(self, eid: int) -> None:
        if eid != len(self.colors):
            raise self._out_of_turn(eid)
        self.colors.append(None)

    @property
    def colored_count(self) -> int:
        return len(self.colors) - self.colors.count(None)

    @property
    def rejected_count(self) -> int:
        return self.colors.count(None)

    def colored_edges(self) -> list[int]:
        return [e for e, c in enumerate(self.colors) if c is not None]


def build_graph(edges) -> Graph:
    g = Graph()
    for u, v in edges:
        g.add_edge(u, v)
    return g


def path_positions(edges: list[tuple[int, int]]) -> list[int]:
    """Map each edge of a path to its position 1..m along the path.

    ``edges`` may list the path's edges in any order; the result is indexed
    like ``edges``.  One endpoint of the path is anchored at position 1 (the
    end with the smaller vertex id, for determinism).  Raises GraphError when
    the edges do not form a single path.
    """
    edges = build_graph(edges).edges  # raises on self-loops, negative ids, duplicates
    m = len(edges)
    not_a_path = GraphError("edges do not form a path")
    if m == 0 or max(map(max, edges)) != m:  # a path's vertices are 0..m
        raise not_a_path
    deg, link = [0] * (m + 1), [0] * (m + 1)  # per vertex: degree, xor of (edge id + 1)
    for tag, (u, v) in enumerate(edges, 1):
        deg[u] += 1
        deg[v] += 1
        link[u] ^= tag
        link[v] ^= tag
    if max(deg) > 2 or 1 not in deg:
        raise not_a_path
    # from the smaller end, m steps without a dead end walk the whole path
    pos_of_eid, v, tag = [0] * m, deg.index(1), 0
    for pos in range(1, m + 1):
        tag ^= link[v]  # the edge at v other than the one the walk came in by
        if not tag:
            raise not_a_path
        pos_of_eid[tag - 1] = pos
        u, w = edges[tag - 1]
        v = w if v == u else u
    return pos_of_eid


# ---------------------------------------------------------------------------
# edge-list text format: one reveal per line "u v", '#' starts a comment

def parse_edge_list(text: str) -> list[tuple[int, int]]:
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer endpoint in {raw!r}")
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id in {raw!r}")
        edges.append((u, v))
    return edges


def format_edge_list(edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)
