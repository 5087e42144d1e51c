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
steps, `coloring.colors[e]` is step e's color (None where it was rejected),
and `Trace.steps` builds the per-step `Step` view from the two on read.
The random-pair kernel, `rp_path_colored_counts`, keeps 64 trials to a uint64
word, one bit plane per color; it is the package's only numpy reader, and
numpy loads at its first call, not with this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import (
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
        free = coloring.available_mask(g, eid)
        return (free & -free).bit_length() or None


class NextFit:
    """Scan colors cyclically, starting just after the last color used.

    The very first edge gets color 1.  The scan pointer advances only when
    an edge is actually colored; rejections leave it untouched.  The scan is
    two mask steps: the lowest open color above the last one used, else the
    lowest open color.
    """

    name = "nf"
    deterministic = True
    fair = True

    def reset(self, k: int, rng) -> None:
        self.k = k
        self.c_last = k  # makes the first scan start at color 1

    def decide(self, coloring: PartialColoring, g: Graph, eid: int) -> int | None:
        free = coloring.available_mask(g, eid)
        if not free:
            return None
        low = free >> self.c_last << self.c_last or free  # colors above c_last, else all
        self.c_last = (low & -low).bit_length()
        return self.c_last


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
        free = coloring.available_mask(g, eid)
        if free == 0b11:
            return 1 if self.rng.random() < self.p else 2
        return free.bit_length() or None  # the one open color, if any


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


@dataclass(frozen=True, slots=True)
class Step:
    edge: int
    u: int
    v: int
    color: int | None  # None means rejected


@dataclass
class Trace:
    """One online run: step i revealed graph.edges[i] and decided coloring.colors[i]."""

    algorithm: str
    graph: Graph
    coloring: PartialColoring

    @property
    def k(self) -> int:
        return self.coloring.k

    @property
    def steps(self) -> list[Step]:
        """The per-step view, built on each read; an undecided edge raises ValueError."""
        steps = zip(self.graph.edges, self.coloring.colors, strict=True)
        return [Step(e, u, v, c) for e, ((u, v), c) in enumerate(steps)]

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
    A randomized algorithm needs ``seed`` or ``rng``, so every play can be
    replayed from what the caller passed.
    """
    algorithm = resolve_algorithm(alg)
    if algorithm.deterministic:
        rng = None  # the contract: a deterministic algorithm never gets one
    elif rng is None:
        if seed is None:
            raise ValueError("a randomized algorithm needs seed= or rng= to play reproducibly")
        rng = random.Random(seed)
    k = script.k
    algorithm.reset(k, rng)
    g = Graph()
    coloring = PartialColoring(k)
    add_edge, decide, color, reject = g.add_edge, algorithm.decide, coloring.color, coloring.reject
    send = script.session().send
    decision: int | None = None  # a fresh generator's send(None) is its next()
    while True:
        try:
            u, v = send(decision)
        except StopIteration:
            break
        eid = add_edge(u, v)
        decision = decide(coloring, g, eid)
        if decision is None:
            reject(eid)
        else:
            color(g, eid, decision)  # raises if improper/unavailable
    g.drop_duplicate_index()  # the record keeps only edges and decisions
    return Trace(getattr(algorithm, "name", type(algorithm).__name__), g, coloring)


def audit_fair(trace: Trace, *, first_fit: bool = False) -> bool:
    """Check that every edge was decided, that every rejection happened with
    all k colors blocked, and with first_fit also that every colored edge
    took the lowest open color: fairness plus lowest-color is exactly
    first-fit.

    Replays per-vertex color masks in reveal order, so the verdict reflects
    the state each decision saw, not the final coloring.  Properness is not
    re-checked: `PartialColoring.color` built the trace's coloring.
    """
    k, edges, colors = trace.k, trace.graph.edges, trace.coloring.colors
    if len(colors) != len(edges):  # an undecided edge: not a finished run
        return False
    used = [0] * trace.graph.num_vertices
    all_colors = full_mask(k)
    for (u, v), c in zip(edges, colors):
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


def rp_path_colored_counts(
    order: list[tuple[int, int]],
    p: float,
    trials: int,
    *,
    seed=None,
    draws: np.ndarray | None = None,
) -> np.ndarray:
    """Colored-edge counts of many independent random-parity runs on a path.

    Vectorizes the runs across trials with numpy, which the first call
    imports; the reveal order is fixed and must form a path.  The state is
    bit-sliced, 64 trials to a word: an (m+2, 2, ceil(trials/64)) uint64
    array, one row per path position plus a zero sentinel at each end, whose
    plane c-1 has lane t set where trial t colored that edge c.  With n the
    neighbors' planes OR-ed and f the lanes whose fresh draw picks color 2, a
    step sets c1 = ~n1 & (n2 | ~f) and c2 = ~n2 & (n1 | f).  Trials run in
    chunks of RP_CHUNK_TRIALS: chunk 0 reads ``default_rng(seed)``, the
    stream of an unchunked run, and chunk c > 0 the c-th child spawned by
    ``SeedSequence(seed)``.  ``draws``, when given, is a (trials, m) array of
    the uniform for every (trial, step) pair and overrides the seed; the draw
    at a step is consumed only by trials whose edge has no colored neighbor at
    that moment, which matches the sequential engine's behavior edge for edge.
    A call with neither is refused, as `run` refuses an unseeded player.
    """
    if not 0.5 <= p <= 1:
        raise ValueError(f"p must lie in [1/2, 1], got {p}")
    if seed is None and draws is None:
        raise ValueError("the random-pair kernel needs seed= or draws= to run reproducibly")
    m = len(order)
    if draws is not None and draws.shape != (trials, m):
        raise ValueError(f"draws has shape {draws.shape}, expected {(trials, m)}")
    import numpy as np
    positions = path_positions(order)
    root = np.random.SeedSequence(seed)
    counts = np.zeros(trials, dtype=np.int64)
    for lo in range(0, trials, RP_CHUNK_TRIALS):
        n = min(RP_CHUNK_TRIALS, trials - lo)
        gen = np.random.default_rng(root if lo == 0 else root.spawn(1)[0])
        uniforms = np.empty((_RP_STEP_BLOCK, n))
        state = np.zeros((m + 2, 2, -(-n // 64)), dtype=np.uint64)
        picks2 = np.zeros((_RP_STEP_BLOCK, 64 * state.shape[2]), dtype=bool)  # pad lanes stay 0
        for b0 in range(0, m, _RP_STEP_BLOCK):
            steps = positions[b0 : b0 + _RP_STEP_BLOCK]
            s = len(steps)
            block = (gen.random(out=uniforms[:s]) if draws is None
                     else draws[lo : lo + n, b0 : b0 + s].T)
            np.greater_equal(block, p, out=picks2[:s, :n])
            f2 = np.packbits(picks2[:s], axis=-1, bitorder="little").view(np.uint64)
            fresh = np.stack((~f2, f2), axis=1)  # plane c-1: lanes whose draw picks color c
            for pos, f in zip(steps, fresh):
                near, row = state[pos - 1] | state[pos + 1], state[pos]
                np.bitwise_or(near[::-1], f, out=row)
                row &= ~near
        for r0 in range(1, m + 1, _RP_STEP_BLOCK):
            colored = state[r0 : r0 + _RP_STEP_BLOCK, 0] | state[r0 : r0 + _RP_STEP_BLOCK, 1]
            lanes = np.unpackbits(colored.view(np.uint8), axis=-1, count=n, bitorder="little")
            counts[lo : lo + n] += lanes.sum(axis=0, dtype=np.int64)
    return counts
