"""The online game loop and the built-in coloring strategies.

An algorithm sees each revealed edge immediately and must either color it
(properly, with one of the k colors) or reject it, irrevocably.  Algorithms
are small stateful objects so that adaptive adversaries can attack
user-supplied strategies through the same interface:

    reset(k, rng)                  -- start a fresh run (rng is None when
                                      the algorithm is deterministic)
    decide(coloring, g, eid)       -- return a color in 1..k, or None to reject
    clone()                        -- unstarted copy (used for replays)
    deterministic / fair           -- declared properties, used by adversaries
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    Graph,
    GraphError,
    PartialColoring,
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

    def clone(self) -> "FirstFit":
        return FirstFit()


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

    def clone(self) -> "NextFit":
        return NextFit()


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

    def clone(self) -> "RandomParity":
        return RandomParity(self.p)


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
    """Complete record of one online run."""

    k: int
    algorithm: str
    graph: Graph
    steps: list[Step]
    coloring: PartialColoring

    @property
    def colored_count(self) -> int:
        return sum(1 for s in self.steps if s.color is not None)

    @property
    def rejected_count(self) -> int:
        return sum(1 for s in self.steps if s.color is None)

    def reveal_order(self) -> list[tuple[int, int]]:
        return [(s.u, s.v) for s in self.steps]

    def replay(self) -> PartialColoring:
        """Re-apply the recorded decisions onto a fresh coloring."""
        coloring = PartialColoring(self.k)
        for s in self.steps:
            if s.color is None:
                coloring.reject(s.edge)
            else:
                coloring.color(self.graph, s.edge, s.color)
        return coloring

    def write_csv(self, out) -> None:
        """Trace CSV: step,u,v,decision,color (decision C/R, color empty on R)."""
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["step", "u", "v", "decision", "color"])
        for i, s in enumerate(self.steps):
            if s.color is None:
                w.writerow([i, s.u, s.v, "R", ""])
            else:
                w.writerow([i, s.u, s.v, "C", s.color])

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


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
    steps: list[Step] = []
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
        steps.append(Step(eid, u, v, decision))
    return Trace(
        k=k,
        algorithm=getattr(algorithm, "name", type(algorithm).__name__),
        graph=g,
        steps=steps,
        coloring=coloring,
    )


def audit_fair(trace: Trace) -> bool:
    """Check that every rejection happened with all k colors blocked.

    Replays the trace, so the verdict reflects the state each decision
    actually saw, not the final coloring.
    """
    coloring = PartialColoring(trace.k)
    all_colors = full_mask(trace.k)
    for s in trace.steps:
        if s.color is None:
            used = coloring.used_mask(s.u) | coloring.used_mask(s.v)
            if used != all_colors:
                return False
            coloring.reject(s.edge)
        else:
            coloring.color(trace.graph, s.edge, s.color)
    return True


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
    and must form a path.  ``draws``, when given, supplies the uniform draw
    for every (trial, step) pair and overrides the seeded generator; the
    draw at a step is consumed only by trials whose edge has no colored
    neighbor at that moment, which matches the sequential engine's behavior
    edge for edge.
    """
    if not 0.5 <= p <= 1:
        raise ValueError(f"p must lie in [1/2, 1], got {p}")
    positions = path_positions(order)
    m = len(order)
    if draws is None:
        gen = np.random.default_rng(seed)
    state = np.zeros((trials, m + 2), dtype=np.int8)  # 0 open, 1/2 colored, -1 rejected
    colored = np.zeros(trials, dtype=np.int64)
    for step, pos in enumerate(positions):
        left = state[:, pos - 1]
        right = state[:, pos + 1]
        used1 = (left == 1) | (right == 1)
        used2 = (left == 2) | (right == 2)
        u = draws[:, step] if draws is not None else gen.random(trials)
        fresh = np.where(u < p, 1, 2).astype(np.int8)
        col = np.where(
            used1 & used2,
            np.int8(-1),
            np.where(used1, np.int8(2), np.where(used2, np.int8(1), fresh)),
        )
        state[:, pos] = col
        colored += col > 0
    return colored
