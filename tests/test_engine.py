import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RandomFair, random_tree_sequence
from palette import charging, engine, harness
from palette.adversaries import RevealSequence, path_edges, rp_strategy_oddeven
from palette.engine import (
    FirstFit,
    NextFit,
    RandomParity,
    Step,
    Trace,
    audit_fair,
    make_algorithm,
    rp_path_colored_counts,
    run,
)
from palette.graph import PartialColoring, build_graph
from palette.oracle import opt_bruteforce


def run_fixed(alg, edges, k, seed=None):
    return run(alg, RevealSequence(edges=edges, k=k), seed=seed)


# ---------------------------------------------------------------------------
# first-fit


def test_ff_isolated_edge_gets_color_one():
    trace = run_fixed("ff", [(0, 1)], 2)
    assert trace.steps[0].color == 1


def test_ff_rejects_when_both_colors_blocked():
    # path e1,e2,e4,e3: e3 faces {2} on one side and {1} on the other
    trace = run_fixed("ff", [(0, 1), (1, 2), (3, 4), (2, 3)], 2)
    assert [s.color for s in trace.steps] == [1, 2, 1, None]


def test_ff_takes_lowest_gap():
    trace = run_fixed("ff", [(0, 1), (0, 2), (0, 3)], 3)
    assert [s.color for s in trace.steps] == [1, 2, 3]


def test_ff_fills_lowest_gap():
    # vertex 0 ends up with {1,3}; a fresh edge there gets the gap color 2
    edges = [(0, 1), (2, 3), (3, 4), (0, 3), (0, 5)]
    trace = run_fixed("ff", edges, 3)
    assert [s.color for s in trace.steps] == [1, 1, 2, 3, 2]


# ---------------------------------------------------------------------------
# next-fit


def test_nf_first_edge_uses_color_one():
    trace = run_fixed("nf", [(0, 1)], 4)
    assert trace.steps[0].color == 1


def test_nf_alternates_on_isolated_edges():
    edges = [(2 * i, 2 * i + 1) for i in range(6)]
    trace = run_fixed("nf", edges, 2)
    assert [s.color for s in trace.steps] == [1, 2, 1, 2, 1, 2]


def test_nf_cyclic_scan_wraps():
    # c_last becomes 2, the next edge sees color 2 blocked: scan 1,2 -> 1
    edges = [(0, 1), (1, 2), (2, 3)]
    trace = run_fixed("nf", edges, 2)
    assert [s.color for s in trace.steps] == [1, 2, 1]


def test_nf_c_last_survives_rejections():
    # reject in the middle must not advance the scan pointer
    trace = run_fixed("nf", [(0, 1), (2, 3), (1, 2), (4, 5)], 2)
    # colors: 1, 2, reject (sees {1,2}), then scan resumes after 2 -> 1
    assert [s.color for s in trace.steps] == [1, 2, None, 1]


# ---------------------------------------------------------------------------
# the biased random pair strategy


def test_rp_requires_k2_and_valid_p():
    with pytest.raises(ValueError):
        RandomParity(0.3)
    with pytest.raises(ValueError):
        run_fixed("rp", [(0, 1)], 3, seed=0) or None
    with pytest.raises(ValueError):
        make_algorithm("rp")


def test_rp_isolated_edge_draw():
    class FixedRng:
        def __init__(self, value):
            self.value = value

        def random(self):
            return self.value

    alg = RandomParity(0.7)
    alg.reset(2, FixedRng(0.3))
    g = build_graph([(0, 1)])
    assert alg.decide(PartialColoring(2), g, 0) == 1  # 0.3 < p
    alg.reset(2, FixedRng(0.9))
    assert alg.decide(PartialColoring(2), g, 0) == 2


def test_rp_forced_color_is_deterministic():
    g = build_graph([(0, 1), (1, 2)])
    c = PartialColoring(2)
    c.color(g, 0, 1)
    alg = RandomParity(0.7)
    alg.reset(2, random.Random(0))
    assert alg.decide(c, g, 1) == 2


def test_rp_rejects_when_both_blocked():
    g = build_graph([(0, 1), (2, 3), (1, 2)])
    c = PartialColoring(2)
    c.color(g, 0, 1)
    c.color(g, 1, 2)
    alg = RandomParity(0.7)
    alg.reset(2, random.Random(0))
    assert alg.decide(c, g, 2) is None


def test_rp_draws_when_neighbors_rejected():
    # adjacent edges exist but carry no color: the random rule applies
    g = build_graph([(0, 1), (1, 2)])
    c = PartialColoring(2)
    c.reject(0)
    alg = RandomParity(1.0)
    alg.reset(2, random.Random(0))
    assert alg.decide(c, g, 1) == 1


def test_rp1_is_first_fit():
    for seed in range(10):
        rng = random.Random(seed)
        m = rng.randrange(1, 20)
        edges = harness.random_reveal(rng, path_edges(m))
        ff = run_fixed("ff", edges, 2)
        rp = run(RandomParity(1.0), RevealSequence(edges=edges, k=2), seed=seed)
        assert [s.color for s in ff.steps] == [s.color for s in rp.steps]


# ---------------------------------------------------------------------------
# the run loop and traces


def test_run_empty_script():
    trace = run_fixed("ff", [], 2)
    assert trace.steps == [] and trace.colored_count == 0


def test_run_path_out_of_order():
    trace = run_fixed("ff", [(0, 1), (2, 3), (1, 2)], 2)
    assert [s.color for s in trace.steps] == [1, 1, 2]
    assert trace.colored_count == 3


def test_deterministic_algorithms_ignore_seed():
    edges = [(0, 1), (1, 2), (2, 3), (0, 4)]
    a = run_fixed("ff", edges, 2, seed=1)
    b = run_fixed("ff", edges, 2, seed=999)
    assert [s.color for s in a.steps] == [s.color for s in b.steps]


def test_same_seed_same_randomized_trace():
    edges = harness.random_reveal(random.Random(3), path_edges(30))
    a = run(RandomParity(0.7), RevealSequence(edges=edges, k=2), seed=5)
    b = run(RandomParity(0.7), RevealSequence(edges=edges, k=2), seed=5)
    assert [s.color for s in a.steps] == [s.color for s in b.steps]


def test_trace_replay_reproduces_coloring():
    trace = run_fixed("nf", [(0, 1), (1, 2), (2, 3)], 2)
    replay = trace.replay()
    assert replay.state == trace.coloring.state


def test_trace_csv_format():
    trace = run_fixed("ff", [(0, 1), (1, 2), (3, 4), (2, 3)], 2)
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "step,u,v,decision,color"
    assert lines[1] == "0,0,1,C,1"
    assert lines[4] == "3,2,3,R,"


def test_engine_rejects_improper_decision():
    class Cheater:
        name = "cheater"
        deterministic = True
        fair = False

        def reset(self, k, rng):
            pass

        def decide(self, coloring, g, eid):
            return 1

        def clone(self):
            return Cheater()

    from palette.graph import GraphError

    with pytest.raises(GraphError):
        run(Cheater(), RevealSequence(edges=[(0, 1), (1, 2)], k=2))


def test_prefix_colored_counts_bounded_by_prefix_opt():
    for seed in range(12):
        rng = random.Random(seed)
        m = rng.randrange(1, 9)
        edges = harness.random_reveal(rng, harness.random_tree_edges(rng, m))
        k = rng.choice([1, 2, 3])
        trace = run_fixed("ff", edges, k)
        colored = 0
        prev = 0
        for i, step in enumerate(trace.steps):
            if step.color is not None:
                colored += 1
            assert colored >= prev
            prev = colored
            prefix = build_graph(edges[: i + 1])
            assert colored <= opt_bruteforce(prefix, k).count


# ---------------------------------------------------------------------------
# fairness auditing


def test_ff_and_nf_traces_are_fair():
    for seed in range(8):
        seq = random_tree_sequence(seed, 12, k=seed % 3 + 2)
        assert audit_fair(run("ff", seq))
        assert audit_fair(run("nf", seq))


def test_rp_traces_are_fair():
    edges = harness.random_reveal(random.Random(1), path_edges(40))
    assert audit_fair(run(RandomParity(0.6), RevealSequence(edges=edges, k=2), seed=2))


def test_synthetic_unfair_trace_detected():
    g = build_graph([(0, 1)])
    coloring = PartialColoring(2)
    coloring.reject(0)
    trace = Trace(
        k=2, algorithm="synthetic", graph=g,
        steps=[Step(0, 0, 1, None)], coloring=coloring,
    )
    assert not audit_fair(trace)


def test_external_plugin_runs():
    seq = random_tree_sequence(17, 10, k=3)
    trace = run(RandomFair(), seq, seed=4)
    assert audit_fair(trace)
    assert trace.colored_count + trace.rejected_count == len(seq.edges)


# ---------------------------------------------------------------------------
# the vectorized path runner


def test_vectorized_matches_engine_exactly_with_shared_draws():
    """On orders where draw steps are history-independent, injecting the same
    uniforms into both runners must give identical counts trial by trial."""
    m = 13
    seq = rp_strategy_oddeven(m)
    trials = 64
    rng = np.random.default_rng(12)
    draws = rng.random((trials, m))
    counts_vec = rp_path_colored_counts(seq.edges, 0.7, trials, draws=draws)

    class ListRng:
        def __init__(self, values):
            self.values = list(values)

        def random(self):
            return self.values.pop(0)

    draw_steps = [i for i in range(m) if i < (m + 1) // 2]  # phase-one steps
    for t in range(trials):
        feed = [draws[t][i] for i in draw_steps]
        trace = run(RandomParity(0.7), seq, rng=ListRng(feed))
        assert trace.colored_count == counts_vec[t]


def test_vectorized_agrees_statistically_on_random_orders():
    rng = random.Random(9)
    edges = harness.random_reveal(rng, path_edges(25))
    trials = 4000
    counts = rp_path_colored_counts(edges, 0.7236068, trials, seed=7)
    sequential = [
        run(RandomParity(0.7236068), RevealSequence(edges=edges, k=2),
            rng=engine.derive_rng(11, t)).colored_count
        for t in range(1500)
    ]
    mv, ms = float(np.mean(counts)), float(np.mean(sequential))
    pooled = math.sqrt(np.var(counts) / trials + np.var(sequential) / 1500)
    assert abs(mv - ms) <= 4 * pooled + 1e-9


# ---------------------------------------------------------------------------
# the depth-parity law of the pair strategy


def test_color_one_frequency_follows_depth_parity():
    """On a fixed path order, a non-critical edge draws color 1 with
    probability p at odd depth and 1-p at even depth (within 3 sigma)."""
    seq = rp_strategy_oddeven(31)
    trials = 10_000
    p = 0.7236068
    crit = charging.critical_edges(seq)
    color1 = [0] * len(seq.edges)
    for t in range(trials):
        trace = run(RandomParity(p), seq, rng=engine.derive_rng(23, "parity", t))
        for i, step in enumerate(trace.steps):
            if step.color == 1:
                color1[i] += 1
    for i in range(len(seq.edges)):
        if i in crit:
            continue
        depth = charging.compute_l(seq, i)
        expect = p if depth % 2 == 1 else 1 - p
        sigma = math.sqrt(expect * (1 - expect) / trials)
        assert abs(color1[i] / trials - expect) <= 3 * sigma + 0.005


def test_run_builds_an_rng_only_for_randomized_algorithms():
    seen = []

    class Spy(FirstFit):
        def reset(self, k, rng):
            seen.append(rng)
            super().reset(k, rng)

    run_fixed(Spy(), [(0, 1), (1, 2)], 2, seed=3)
    assert seen == [None]
    # a randomized algorithm still gets a generator seeded from seed=
    plays = [run_fixed(RandomParity(0.7), path_edges(30), 2, seed=4) for _ in range(2)]
    assert [s.color for s in plays[0].steps] == [s.color for s in plays[1].steps]
