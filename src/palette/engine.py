"""The online game loop and the built-in coloring strategies.

An algorithm sees each revealed edge immediately and must either color it
(properly, with one of the k colors) or reject it, irrevocably.  Algorithms
are small stateful objects so that adaptive adversaries can attack
user-supplied strategies through the same interface:

    reset(k, rng)                  -- start a fresh run (rng is None when
                                      the algorithm is deterministic)
    decide(coloring, g, eid)       -- return a color in 1..k, or None to reject
    name / deterministic / fair    -- its label and the properties adversaries read

A run's record, `Trace`, is its graph and its coloring: edge ids are reveal
steps, and `Trace.steps` builds the per-step `Step` view from the two on read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .graph import (
    REJECTED,
    Graph,
    PartialColoring,
    color_bit,
    full_mask,
    lowest_free_color,
    path_positions,
)


class FirstFit:
    """Color with the lowest color available at both endpoints."""

    name = "ff"
    deterministic = True
    fair = True

    def reset(self, k: int, rng) -> None:
        self.k = k

    def decide(self, coloring: PartialColoring, g: Graph, eid: int) -> int | None:
        u, v = g.endpoints(eid)
        used = coloring.used_mask(u) | coloring.used_mask(v)
        return lowest_free_color(used, self.k)


class NextFit:
    """Scan colors cyclically, starting just after the last color used.

    The very first edge gets color 1.  The scan pointer advances only when
    an edge is actually colored; rejections leave it untouched.
    """

    name = "nf"
    deterministic = True
    fair = True

    def reset(self, k: int, rng) -> None:
        self.k = k
        self.c_last = k  # makes the first scan start at color 1

    def decide(self, coloring: PartialColoring, g: Graph, eid: int) -> int | None:
        u, v = g.endpoints(eid)
        used = coloring.used_mask(u) | coloring.used_mask(v)
        k = self.k
        for step in range(1, k + 1):
            c = (self.c_last + step - 1) % k + 1
            if not used >> (c - 1) & 1:
                self.c_last = c
                return c
        return None


class RandomParity:
    """Two-color randomized strategy biased toward color 1.

    When no adjacent edge is colored yet, pick color 1 with probability p
    (else color 2).  With exactly one color blocked, use the other; with
    both blocked, reject.  Only defined for k = 2 and 1/2 <= p <= 1.
    """

    name = "rp"
    deterministic = False
    fair = True

    def __init__(self, p):
        if not 0.5 <= p <= 1:
            raise ValueError(f"p must lie in [1/2, 1], got {p}")
        self.p = p

    def reset(self, k: int, rng) -> None:
        if k != 2:
            raise ValueError(f"random-parity strategy requires k=2, got k={k}")
        self.rng = rng

    def decide(self, coloring: PartialColoring, g: Graph, eid: int) -> int | None:
        u, v = g.endpoints(eid)
        used = coloring.used_mask(u) | coloring.used_mask(v)
        if used == 0b11:
            return None
        if used == 0b01:
            return 2
        if used == 0b10:
            return 1
        return 1 if self.rng.random() < self.p else 2


def derive_rng(seed, *path) -> random.Random:
    """Independent stream for (seed, label...) so trial results never depend
    on worker count or evaluation order."""
    return random.Random(f"{seed}/" + "/".join(map(str, path)))


def make_algorithm(name: str, p=None):
    """Resolve an algorithm id ('ff', 'nf', 'rp') to a fresh instance."""
    if name == "ff":
        return FirstFit()
    if name == "nf":
        return NextFit()
    if name == "rp":
        if p is None:
            raise ValueError("algorithm 'rp' needs a bias parameter p")
        return RandomParity(p)
    raise ValueError(f"unknown algorithm {name!r}")


def resolve_algorithm(alg):
    """Accept an algorithm instance or its name."""
    if isinstance(alg, str):
        return make_algorithm(alg)
    return alg


@dataclass(frozen=True)
class Step:
    edge: int
    u: int
    v: int
    color: int | None  # None means rejected


@dataclass
class Trace:
    """One online run: step i revealed graph.edges[i], decided coloring.state[i]."""

    k: int
    algorithm: str
    graph: Graph
    coloring: PartialColoring

    def colors(self) -> list[int | None]:
        """Each step's color, None where it was rejected, in reveal order."""
        state = self.coloring.state
        return [None if (c := state[e]) == REJECTED else c for e in range(self.graph.num_edges)]

    @property
    def steps(self) -> list[Step]:
        """The per-step view, built from the graph and the coloring on each read."""
        return [Step(e, u, v, c) for e, ((u, v), c) in enumerate(zip(self.graph.edges, self.colors()))]

    @property
    def colored_count(self) -> int:
        return self.coloring.colored_count

    @property
    def rejected_count(self) -> int:
        return self.coloring.rejected_count


def run(alg, script, *, seed=None, rng=None) -> Trace:
    """Play ``alg`` against ``script`` and return the full Trace.

    ``script`` is anything with a ``k`` attribute and a ``session()`` method
    returning a generator that yields (u, v) pairs and receives each decision
    through ``send`` (fixed reveal sequences simply ignore what is sent).
    """
    algorithm = resolve_algorithm(alg)
    if rng is None and not algorithm.deterministic:
        rng = random.Random(seed)  # a deterministic algorithm never reads one
    k = script.k
    algorithm.reset(k, rng)
    g = Graph()
    coloring = PartialColoring(k)
    session = script.session()
    decision: int | None = None
    first = True
    while True:
        try:
            u, v = next(session) if first else session.send(decision)
        except StopIteration:
            break
        first = False
        eid = g.add_edge(u, v)
        decision = algorithm.decide(coloring, g, eid)
        if decision is None:
            coloring.reject(eid)
        else:
            coloring.color(g, eid, decision)  # raises if improper/unavailable
    return Trace(
        k=k,
        algorithm=getattr(algorithm, "name", type(algorithm).__name__),
        graph=g,
        coloring=coloring,
    )


def audit_fair(trace: Trace, *, first_fit: bool = False) -> bool:
    """Check that every rejection happened with all k colors blocked, and
    with first_fit also that every colored edge took the lowest open color:
    fairness plus lowest-color is exactly first-fit.

    Replays per-vertex color masks in reveal order, so the verdict reflects
    the state each decision saw, not the final coloring.  Properness is not
    re-checked: `PartialColoring.color` built the trace's coloring.
    """
    k, edges = trace.k, trace.graph.edges
    used = [0] * trace.graph.num_vertices
    all_colors = full_mask(k)
    for (u, v), c in zip(edges, trace.colors()):
        seen = used[u] | used[v]
        if c is None:
            if seen != all_colors:
                return False
        elif first_fit and c != lowest_free_color(seen, k):
            return False
        else:
            used[u] |= color_bit(c)
            used[v] |= color_bit(c)
    return True


#: trials per chunk of the random-pair kernel, which bounds its state
RP_CHUNK_TRIALS = 1 << 14
_RP_STEP_BLOCK = 32  # steps whose uniforms are drawn in one call
# (neighbours' color bits | 4 when a fresh draw picks color 2) -> new color bits
_RP_TABLE = np.array([1, 2, 1, 0, 2, 2, 1, 0], dtype=np.uint8)


def rp_path_colored_counts(
    order: list[tuple[int, int]],
    p: float,
    trials: int,
    *,
    seed=None,
    draws: np.ndarray | None = None,
) -> np.ndarray:
    """Colored-edge counts of many independent random-parity runs on a path.

    Vectorizes the runs across trials with numpy; the reveal order is fixed
    and must form a path.  The state holds color bits (0 open or rejected, 1
    and 2 the colors) in an (m+2, trials) uint8 array, one row per path
    position plus a sentinel at each end, and each step looks its new bits up
    in an 8-entry table.  Trials run in chunks of RP_CHUNK_TRIALS: chunk 0
    reads ``default_rng(seed)``, the stream of an unchunked run, and chunk
    c > 0 the c-th child spawned by ``SeedSequence(seed)``.  ``draws``, when
    given, is a (trials, m) array of the uniform for every (trial, step) pair
    and overrides the seed; the draw at a step is consumed only by trials
    whose edge has no colored neighbor at that moment, which matches the
    sequential engine's behavior edge for edge.
    """
    if not 0.5 <= p <= 1:
        raise ValueError(f"p must lie in [1/2, 1], got {p}")
    positions = path_positions(order)
    m = len(order)
    root = np.random.SeedSequence(seed)
    counts = np.zeros(trials, dtype=np.int64)
    for lo in range(0, trials, RP_CHUNK_TRIALS):
        n = min(RP_CHUNK_TRIALS, trials - lo)
        gen = np.random.default_rng(root if lo == 0 else root.spawn(1)[0])
        uniforms = np.empty((_RP_STEP_BLOCK, n))
        state = np.zeros((m + 2, n), dtype=np.uint8)
        for b0 in range(0, m, _RP_STEP_BLOCK):
            steps = positions[b0 : b0 + _RP_STEP_BLOCK]
            block = (gen.random(out=uniforms[: len(steps)]) if draws is None
                     else draws[lo : lo + n, b0 : b0 + len(steps)].T)
            for pos, fresh in zip(steps, (block >= p).view(np.uint8) << 2):
                row = state[pos]
                np.bitwise_or(state[pos - 1], state[pos + 1], out=row)
                row |= fresh
                np.take(_RP_TABLE, row, out=row, mode="clip")
        for r0 in range(1, m + 1, _RP_STEP_BLOCK):
            counts[lo : lo + n] += np.count_nonzero(state[r0 : r0 + _RP_STEP_BLOCK], axis=0)
    return counts
