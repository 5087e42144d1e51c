"""Shared test helpers: a plug-in fair randomized algorithm, instance
builders, a played trace as CSV and the rp path ledger's edge depth."""

import random

from palette import charging, cli, engine, harness
from palette.adversaries import RevealSequence


class RandomFair:
    """Plug-in strategy: color with a uniformly random open color, reject
    only when forced.  Exercises the external-algorithm contract."""

    name = "random-fair"
    deterministic = False
    fair = True

    def reset(self, k, rng):
        self.k = k
        self.rng = rng

    def decide(self, coloring, g, eid):
        mask = coloring.available_mask(g, eid)
        if not mask:
            return None
        choices = [c for c in range(1, self.k + 1) if mask >> (c - 1) & 1]
        return self.rng.choice(choices)

    def clone(self):
        return RandomFair()


class RejectAll:
    """Plug-in strategy that rejects everything (deterministic, unfair)."""

    name = "reject-all"
    deterministic = True
    fair = False

    def reset(self, k, rng):
        pass

    def decide(self, coloring, g, eid):
        return None

    def clone(self):
        return RejectAll()


def random_tree_sequence(seed: int, max_edges: int, k: int) -> RevealSequence:
    rng = random.Random(seed)
    m = rng.randrange(1, max_edges + 1)
    edges = harness.random_reveal(rng, harness.random_tree_edges(rng, m))
    return RevealSequence(edges=edges, k=k)


def estimate_initial_values(alg, script, trials: int, seed=0) -> list[float]:
    """Per-step colored frequency of a randomized algorithm over fresh seeds."""
    counts = None
    for t in range(trials):
        trace = engine.run(alg, script, rng=engine.derive_rng(seed, "vi", t))
        if counts is None:
            counts = [0] * len(trace.steps)
        for i, step in enumerate(trace.steps):
            if step.color is not None:
                counts[i] += 1
    return [c / trials for c in counts]


def trace_csv(trace) -> str:
    """A played trace in the CSV format `opt --out` writes and `nf-order` reads."""
    return cli.format_trace_csv(trace.graph.edges, trace.colors())


def path_depth(order, step: int) -> int:
    """Depth of a non-critical step in its run of non-critical path edges, as
    the rp path ledger reads it; the depth of a critical step is undefined."""
    _, _, crit, depth = charging._path_layout(order)
    if step in crit:
        raise ValueError(f"edge at step {step} is critical; depth is undefined")
    return depth[step]
