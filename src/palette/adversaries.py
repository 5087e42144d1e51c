"""Adversarial inputs: fixed reveal orders and adaptive reveal strategies.

Fixed constructions are `RevealSequence` values.  Adaptive adversaries are
script objects whose `session()` generator yields the next edge and receives
the algorithm's decision for it via ``send``, so the upcoming reveals can
depend on everything the algorithm has done so far.  Each script is
oblivious to the opponent's coins: it reads only what those coins cannot
change, so it takes any deterministic or fair opponent its reads allow
(`_require_coin_free_opponent`).  Arbitrary choices left open by the
constructions are resolved by lowest-id tie-breaking, with an optional rng
to randomize them, so runs stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import engine
from .graph import Graph, PartialColoring, build_graph


@dataclass
class RevealSequence:
    """A fixed reveal order: endpoint pairs plus the color budget it targets."""

    edges: list[tuple[int, int]]
    k: int
    # nextfit_order sets "edge_ids": the source graph's edge id of each step
    params: dict = field(default_factory=dict)

    def session(self):
        for e in self.edges:
            yield e

    def graph(self) -> Graph:
        return build_graph(self.edges)


def path_edges(m: int) -> list[tuple[int, int]]:
    """The m edges of a path on vertices 0..m; edge i (1-based) is (i-1, i)."""
    return [(i - 1, i) for i in range(1, m + 1)]


def _path_pairs(indices) -> list[tuple[int, int]]:
    return [(i - 1, i) for i in indices]


# ---------------------------------------------------------------------------
# fixed path orders


def nf_path_killer(m: int) -> RevealSequence:
    """Order on a (2m+1)-edge path that makes next-fit reject every even edge.

    The odd-position edges come first in increasing order; next-fit colors
    them alternately, so every even-position edge then faces both colors.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    total = 2 * m + 1
    order = list(range(1, total + 1, 2)) + list(range(2, total + 1, 2))
    return RevealSequence(edges=_path_pairs(order), k=2)


def rp_strategy_mod3(m: int) -> RevealSequence:
    """Path order: positions 1 mod 3 ascending, then 0 mod 3, then the rest.

    Requires m = 1 (mod 3).  Every position-2-mod-3 edge ends up between two
    already-colored edges whose colors agree only part of the time, which is
    what hurts the biased random strategy.
    """
    if m < 1 or (m - 1) % 3 != 0:
        raise ValueError(f"m must be >= 1 with 3 dividing m-1, got {m}")
    order = (
        [i for i in range(1, m + 1) if i % 3 == 1]
        + [i for i in range(1, m + 1) if i % 3 == 0]
        + [i for i in range(1, m + 1) if i % 3 == 2]
    )
    return RevealSequence(edges=_path_pairs(order), k=2)


def rp_strategy_oddeven(m: int) -> RevealSequence:
    """Path order: odd positions ascending, then even positions ascending.

    Requires odd m.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 1, got {m}")
    order = list(range(1, m + 1, 2)) + list(range(2, m + 1, 2))
    return RevealSequence(edges=_path_pairs(order), k=2)


# ---------------------------------------------------------------------------
# randomized path distribution (two-color lower bound for any algorithm)


@dataclass
class YaoInstance:
    """One sample from the randomized path-order distribution.

    The path has a-2 edges, a = 3^b.  Phase one deals L rounds of isolated
    edges (round i gives every second edge among the next 2*a/3^i positions),
    phase two gives every third remaining position, and phase three fills in
    the rest.  L is geometric: each extra round happens with probability 1/2,
    capped at b-1 rounds.
    """

    L: int
    subphases: list[list[int]]  # 1-based path positions, rounds 1..L+1
    order: list[int]  # full reveal order over positions 1..a-2

    def reveal_sequence(self) -> RevealSequence:
        return RevealSequence(edges=_path_pairs(self.order), k=2)


def sample_subphase_count(b: int, rng) -> int:
    """Number of phase-one rounds: P[L=i] = 2^-(i+1), capped at b-1."""
    L = 0
    while L < b - 1 and rng.random() < 0.5:
        L += 1
    return L


def yao_sample(b: int, rng) -> YaoInstance:
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    return yao_instance(b, sample_subphase_count(b, rng))


def yao_instance(b: int, L: int) -> YaoInstance:
    """The deterministic instance for a given round count L."""
    a = 3**b
    if not 0 <= L <= b - 1:
        raise ValueError(f"L must lie in 0..{b - 1}, got {L}")
    subphases = []
    n_prev = 0  # isolated edges dealt in rounds 1..i-1
    for i in range(1, L + 1):
        a_i = a // 3**i
        subphases.append([2 * n_prev + 2 * j - 1 for j in range(1, a_i + 1)])
        n_prev += a_i
    a_last = a // 3 ** (L + 1)
    subphases.append([2 * n_prev + 3 * j - 2 for j in range(1, a_last + 1)])
    dealt = {p for sub in subphases for p in sub}
    order = [p for sub in subphases for p in sub]
    order += [p for p in range(1, a - 1) if p not in dealt]
    return YaoInstance(L=L, subphases=subphases, order=order)


# ---------------------------------------------------------------------------
# adaptive adversaries


class AdversaryScript:
    """Base for adaptive adversaries; subclasses implement session()."""

    k = 2

    def session(self):
        raise NotImplementedError


def _require_coin_free_opponent(script: str, alg, *, reads_colors: bool):
    """Refuse an adaptive script's opponent unless what the script reads of
    its decisions cannot depend on the opponent's coins.

    A deterministic opponent has no coins.  A fair one colors an edge
    exactly when a color is open, which on the star-chain and
    path-then-stars reveals does not depend on which colors earlier edges
    took; so whether an edge was colored is coin-free there, but its color
    is not.
    """
    algorithm = engine.resolve_algorithm(alg)
    if algorithm.deterministic or (algorithm.fair and not reads_colors):
        return
    need, read = ("", "the colors of") if reads_colors else (" or fair", "which")
    raise ValueError(
        f"{script} needs a deterministic{need} opponent: it reads {read} edges the opponent colored"
    )


class _DetPathKiller(AdversaryScript):
    """Two-edge fragments, then connectors chosen from observed colors.

    Fragments where the deterministic opponent colored both edges are chained
    color-1 end to color-2 end, which forces every connector to be rejected;
    fragments with a rejection are chained separately, and a final bridge
    joins the two chains into one path of 3n-1 edges.
    """

    def __init__(self, n: int, alg):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        _require_coin_free_opponent("det-path-killer", alg, reads_colors=True)
        self.n = n

    def session(self):
        n = self.n
        full, partial = [], []  # (fragment index, first edge's color), fragment index
        for i in range(n):
            a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
            d1 = yield (a, b)
            d2 = yield (b, c)
            if d1 is not None and d2 is not None:
                full.append((i, d1))
            else:
                partial.append(i)

        # a full fragment's free end on its first edge is 3i, on its second 3i+2
        for (i, c1), (j, d1) in zip(full, full[1:]):
            yield (3 * i if c1 == 1 else 3 * i + 2, 3 * j if d1 == 2 else 3 * j + 2)
        for i, j in zip(partial, partial[1:]):
            yield (3 * i + 2, 3 * j)
        if full and partial:
            i, c1 = full[-1]
            yield (3 * i if c1 == 1 else 3 * i + 2, 3 * partial[0])


def det_path_killer(n: int, alg) -> AdversaryScript:
    """Adaptive path order capping any deterministic opponent at 2n of 3n-1."""
    return _DetPathKiller(n, alg)


class _StarChain(AdversaryScript):
    """Stars of k+1 edges, each centered on a leaf of the previous star.

    The new center sits at a colored edge of the previous star whenever one
    exists, so at most k-1 edges of each later star can be colored, while
    offline all k non-chain edges of every star are colorable.
    """

    def __init__(self, k: int, N: int, alg, rng=None):
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        _require_coin_free_opponent("star-chain", alg, reads_colors=False)
        self.k = k
        self.N = N
        self.rng = rng

    def session(self):
        k, rng = self.k, self.rng
        fresh = 1
        center = 0
        for i in range(self.N):
            if i > 0:
                colored = [leaf for leaf, d in star if d is not None]
                pool = colored if colored else [leaf for leaf, _ in star]
                center = rng.choice(pool) if rng is not None else pool[0]
            star = []
            for _ in range(k + 1):
                leaf = fresh
                fresh += 1
                d = yield (center, leaf)
                star.append((leaf, d))


def star_chain(k: int, N: int, alg, rng=None) -> AdversaryScript:
    """Adaptive tree keeping deterministic-or-fair opponents near (k-1)/k."""
    return _StarChain(k, N, alg, rng)


class _PathThenStars(AdversaryScript):
    """A path in order, then (only if the opponent did too well on it) a star
    at every path vertex.

    Each path edge meets at most one earlier edge, so with k >= 2 a fair
    opponent colors the whole path whatever its coins, and a deterministic
    one colors exactly what its decisions show: the session's count of
    colored path edges is the opponent's expected path score.  The stars
    phase is entered only above k*m/(k+1), where the path colors start
    blocking the stars.
    """

    def __init__(self, k: int, m: int, alg):
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        _require_coin_free_opponent("path-then-stars", alg, reads_colors=False)
        self.k = k
        self.m = m
        self.stars_revealed: bool | None = None

    def session(self):
        m, k = self.m, self.k
        colored = 0
        for u, v in path_edges(m):
            colored += (yield (u, v)) is not None
        self.stars_revealed = colored * (k + 1) > k * m
        if not self.stars_revealed:
            return
        fresh = m + 1
        for v in range(m + 1):
            for _ in range(k):
                leaf = fresh
                fresh += 1
                yield (v, leaf)


def path_then_stars(k: int, m: int, alg) -> AdversaryScript:
    """Adaptive tree keeping any deterministic or fair opponent near k/(k+1)."""
    return _PathThenStars(k, m, alg)


# ---------------------------------------------------------------------------
# next-fit reproduction of a given coloring


def color_usage(coloring: PartialColoring) -> dict[int, int]:
    """Edges per color, including zero counts, over colors 1..k."""
    counts = {c: 0 for c in range(1, coloring.k + 1)}
    for eid in coloring.colored_edges():
        counts[coloring.state[eid]] += 1
    return counts


def nextfit_order(g: Graph, coloring: PartialColoring) -> RevealSequence:
    """An edge order making next-fit reproduce the given coloring of g (up
    to renaming the colors).

    Requires every color's usage count to be n or n+1 for some n.  Colors
    are renamed so the heavier classes come first, then the classes are
    dealt round-robin; next-fit's cyclic scan then lands on each edge's
    target color, which properness keeps available.  The coloring is proper
    because `PartialColoring.color` built it.
    """
    counts = color_usage(coloring)
    values = sorted(set(counts.values()))
    if len(values) > 2 or (len(values) == 2 and values[1] - values[0] != 1):
        raise ValueError(
            f"color usage counts {sorted(counts.values())} are not two "
            "consecutive values; no next-fit order exists via this construction"
        )
    by_load = sorted(counts, key=lambda c: (-counts[c], c))
    rename = {old: new for new, old in enumerate(by_load, start=1)}
    classes: list[list[int]] = [[] for _ in range(coloring.k + 1)]
    for eid in sorted(coloring.colored_edges()):
        classes[rename[coloring.state[eid]]].append(eid)
    order: list[int] = []
    for round_no in range(max(counts.values())):
        for c in range(1, coloring.k + 1):
            if round_no < len(classes[c]):
                order.append(classes[c][round_no])
    return RevealSequence(
        edges=[g.endpoints(eid) for eid in order],
        k=coloring.k,
        params={"edge_ids": order},
    )


def equivalent(c1: PartialColoring, c2: PartialColoring) -> bool:
    """True when some renaming of the colors maps one coloring to the other.

    The colored and rejected edge sets must agree edge for edge; the induced
    color correspondence must then be a well-defined injection.
    """
    if c1.k != c2.k:
        return False
    if set(c1.state) != set(c2.state):
        return False
    mapping: dict[int, int] = {}
    for eid, a in c1.state.items():
        b = c2.state[eid]
        if (a < 0) != (b < 0):
            return False
        if a < 0:
            continue
        if mapping.setdefault(a, b) != b:
            return False
    return len(set(mapping.values())) == len(mapping)


# ---------------------------------------------------------------------------
# worst-case trees for next-fit


@dataclass
class BunchPlan:
    """Layout of the star-bunch tree family and its reveal order.

    One tree is N bunches; a bunch is a large star of k-s edges plus s-1
    small stars of s edges.  The pre-colored part gives large stars one band
    of colors and small stars the complementary band, so the uncolored
    connectors (large center to each small center, plus bunch-to-bunch links)
    see all k colors.  The whole thing is replicated k times with cyclically
    shifted bands, which equalizes the color counts and lets the next-fit
    reproduction order drive next-fit into exactly the planned coloring;
    k-1 final leaf-to-leaf edges tie the copies into a single tree.
    """

    k: int
    colored_part: RevealSequence  # reproduction order for the pre-colored edges
    connectors: list[tuple[int, int]]
    joins: list[tuple[int, int]]

    @property
    def reveal(self) -> RevealSequence:
        return RevealSequence(
            edges=list(self.colored_part.edges) + self.connectors + self.joins, k=self.k
        )

    @property
    def expected_colored(self) -> int:
        return len(self.colored_part.edges) + len(self.joins)


def bunch_plan(k: int, N: int, star_size: int | None = None) -> BunchPlan:
    """Build the k-copy bunch tree; star_size defaults to floor(sqrt(k))."""
    if k < 4:
        raise ValueError(f"k must be >= 4, got {k}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    s = star_size if star_size is not None else math.isqrt(k)
    if not 2 <= s <= k - 2:
        raise ValueError(f"star size {s} incompatible with k={k}")

    g = Graph()
    coloring = PartialColoring(k)
    connectors: list[tuple[int, int]] = []
    joins: list[tuple[int, int]] = []
    fresh = 0

    def new_vertex():
        nonlocal fresh
        fresh += 1
        return fresh - 1

    first_leaf: list[int] = []  # per copy, a degree-one vertex for the joins
    last_leaf: list[int] = []
    for copy in range(k):
        shift = lambda c: (c - 1 + copy) % k + 1
        prev_small = None
        for bunch in range(N):
            center = new_vertex()
            if bunch > 0:
                connectors.append((center, prev_small))
            for c in range(1, k - s + 1):
                leaf = new_vertex()
                coloring.color(g, g.add_edge(center, leaf), shift(c))
                if bunch == 0 and c == 1:
                    first_leaf.append(leaf)
            for _ in range(s - 1):
                small = new_vertex()
                connectors.append((center, small))
                for c in range(k - s + 1, k + 1):
                    leaf = new_vertex()
                    coloring.color(g, g.add_edge(small, leaf), shift(c))
                prev_small = small
        last_leaf.append(leaf)
    for copy in range(k - 1):
        joins.append((last_leaf[copy], first_leaf[copy + 1]))

    colored_part = nextfit_order(g, coloring)
    return BunchPlan(
        k=k,
        colored_part=colored_part,
        connectors=connectors,
        joins=joins,
    )


def nf_tree_worstcase(k: int, N: int) -> RevealSequence:
    """Tree order on which next-fit hits its fair-algorithm floor.

    Requires k to be a perfect square >= 4.
    """
    s = math.isqrt(k)
    if s * s != k or k < 4:
        raise ValueError(f"k must be a perfect square >= 4, got {k}")
    return bunch_plan(k, N, s).reveal


def nf_tree_worstcase_rounded(k: int, N: int) -> RevealSequence:
    """Non-square variant of nf_tree_worstcase using ceil(sqrt(k)) stars."""
    if k < 4:
        raise ValueError(f"k must be >= 4, got {k}")
    s = math.isqrt(k)
    if s * s != k:
        s += 1
    return bunch_plan(k, N, s).reveal
