import gc
import hashlib
import math
import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from conftest import RandomFair, path_depth, random_tree_sequence, trace_csv
from palette import charging, engine, harness
from palette.adversaries import (
    RevealSequence,
    det_path_killer,
    nf_path_killer,
    path_edges,
    rp_strategy_mod3,
    rp_strategy_oddeven,
)
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
from palette.graph import GraphError, PartialColoring, build_graph, color_bit, lowest_free_color
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


def test_rp1_is_first_fit_on_every_small_path_order():
    # at p = 1 every free choice is color 1, first-fit's pick, so the pair
    # ledger's initial values add up to first-fit's colored count
    orders = 0
    for m in range(1, 8):
        for perm in permutations(range(1, m + 1)):
            seq = RevealSequence(edges=[(i - 1, i) for i in perm], k=2)
            ff = run("ff", seq)
            assert run(RandomParity(1), seq).coloring.colors == ff.coloring.colors
            assert charging.rp_path_charge(seq, 1).initial() == ff.colored_count
            orders += 1
    assert orders == 5913


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


def test_trace_csv_format():
    trace = run_fixed("ff", [(0, 1), (1, 2), (3, 4), (2, 3)], 2)
    lines = trace_csv(trace).strip().split("\n")
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

    from palette.graph import GraphError

    with pytest.raises(GraphError):
        run(Cheater(), RevealSequence(edges=[(0, 1), (1, 2)], k=2))


def test_deterministic_plug_in_gets_no_rng():
    # the contract: reset sees None whatever rng the caller hands run
    class Recorder:
        name = "recorder"
        deterministic = True
        fair = False

        def reset(self, k, rng):
            self.rng = rng

        def decide(self, coloring, g, eid):
            return None

    alg = Recorder()
    run(alg, RevealSequence(edges=[(0, 1)], k=2), rng=random.Random(1))
    assert alg.rng is None


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
    trace = Trace(algorithm="synthetic", graph=g, coloring=coloring)
    assert trace.steps == [Step(0, 0, 1, None)]
    assert not audit_fair(trace)


def test_a_record_shorter_than_its_edges_is_refused():
    """The path 0-1-2-3 with only edge 0 decided: its steps and its trace CSV
    raise rather than drop the undecided edges."""
    from palette.cli import format_trace_csv

    g = build_graph([(0, 1), (1, 2), (2, 3)])
    coloring = PartialColoring(2)
    coloring.color(g, 0, 1)
    trace = Trace(algorithm="synthetic", graph=g, coloring=coloring)
    with pytest.raises(ValueError):
        trace.steps
    with pytest.raises(ValueError):
        format_trace_csv(g.edges, coloring.colors)
    coloring.reject(1)
    coloring.reject(2)
    assert [s.color for s in trace.steps] == [1, None, None] and trace.k == 2


def test_first_fit_audit_matches_a_first_fit_replay():
    """Fairness plus lowest-color is first-fit: the audit agrees with a replay
    on every tree order with m <= 5, for traces first-fit did and did not play."""
    agree = {True: 0, False: 0}
    for k in (2, 3):
        for m in range(1, 6):
            for t, edges in enumerate(harness.tree_reveal_orders(m)):
                seq = RevealSequence(edges=edges, k=k)
                replay = run("ff", seq).coloring.colors
                for alg in ("ff", "nf", RandomFair()):
                    trace = run(alg, seq, seed=t)
                    verdict = audit_fair(trace, first_fit=True)
                    assert verdict == (trace.coloring.colors == replay), (edges, k, alg)
                    agree[verdict] += 1
    assert agree == {True: 735, False: 747}  # 494 of the agreements are the ff traces


def test_external_plugin_runs():
    seq = random_tree_sequence(17, 10, k=3)
    trace = run(RandomFair(), seq, seed=4)
    assert audit_fair(trace)
    assert trace.colored_count + trace.rejected_count == len(seq.edges)


# ---------------------------------------------------------------------------
# the vectorized path runner


class StepDrawParity(RandomParity):
    """Random parity whose draw at step e is row[e], as the kernel's ``draws``
    contract reads it."""

    def __init__(self, p, row):
        super().__init__(p)
        self.row = row

    def reset(self, k, rng):
        super().reset(k, self)

    def random(self):
        return self.row[self.eid]

    def decide(self, coloring, g, eid):
        self.eid = eid
        return super().decide(coloring, g, eid)


def test_vectorized_matches_engine_exactly_with_shared_draws(monkeypatch):
    """Injecting the same uniforms into both runners gives identical counts
    trial by trial, at trial counts that leave padding lanes in the last
    64-trial word (1, 63, 65, 130) or none (64), and with chunks that end on a
    word edge (64) or inside a word (100)."""
    rng = random.Random(12)
    orders = [rp_strategy_oddeven(13).edges]
    orders += [harness.random_reveal(rng, path_edges(m)) for m in (1, 33, 70)]
    for i, edges in enumerate(orders):
        draws = np.random.default_rng(i).random((130, len(edges)))
        seq = RevealSequence(edges=edges, k=2)
        expected = [run(StepDrawParity(0.7, row), seq).colored_count for row in draws]
        for chunk in (engine.RP_CHUNK_TRIALS, 64, 100):
            monkeypatch.setattr(engine, "RP_CHUNK_TRIALS", chunk)
            for trials in (1, 63, 64, 65, 130):
                counts = rp_path_colored_counts(edges, 0.7, trials, draws=draws[:trials])
                assert counts.tolist() == expected[:trials], (i, chunk, trials)


@pytest.mark.parametrize("shape", [(5, 10), (4, 40), (6, 40)])
def test_kernel_refuses_misshaped_draws(shape):
    """Too few columns, too few rows and too many rows are each refused with
    both shapes named, not dropped or broadcast."""
    draws = np.random.default_rng(0).random(shape)
    with pytest.raises(ValueError, match=rf"draws has shape \({shape[0]}, {shape[1]}\), expected \(5, 40\)"):
        rp_path_colored_counts(path_edges(40), 0.7, 5, draws=draws)


KERNEL_COUNTS_SHA256 = "7d3a815ed76754914da9ce0546f9331c4ba27582d1315e3cc0608cf7325b2124"


def test_kernel_counts_are_pinned():
    """Seeded kernel counts on both adversarial orders at m=301 and on 20
    random orders, at the boundary, optimal and deterministic biases."""
    rng = random.Random(77)
    orders = [rp_strategy_mod3(301).edges, rp_strategy_oddeven(301).edges]
    orders += [harness.random_reveal(rng, path_edges(rng.randrange(1, 80))) for _ in range(20)]
    h = hashlib.sha256()
    for p in (0.5, 0.7236068, 1.0):
        for i, edges in enumerate(orders):
            counts = rp_path_colored_counts(edges, p, 2000, seed=[i, 5])
            h.update(counts.astype(np.int64).tobytes())
    assert h.hexdigest() == KERNEL_COUNTS_SHA256


def test_kernel_seed_is_the_draws_stream():
    """A seeded run reads the same uniforms as draws taken step-major from
    default_rng(seed)."""
    rng = random.Random(5)
    for m in (1, 7, 40):
        edges = harness.random_reveal(rng, path_edges(m))
        draws = np.random.default_rng(9).random((m, 300)).T
        assert np.array_equal(rp_path_colored_counts(edges, 0.7, 300, seed=9),
                              rp_path_colored_counts(edges, 0.7, 300, draws=draws))


def test_kernel_chunks_are_deterministic_and_keep_the_first_chunk(monkeypatch):
    """Trials run in chunks: a chunked run repeats itself, its first chunk is
    the unchunked run of that many trials, and draws are chunked alike."""
    edges = harness.random_reveal(random.Random(4), path_edges(30))
    single = rp_path_colored_counts(edges, 0.7236068, 8, seed=3)
    draws = np.random.default_rng(2).random((20, 30))
    whole = rp_path_colored_counts(edges, 0.7236068, 20, draws=draws)
    monkeypatch.setattr(engine, "RP_CHUNK_TRIALS", 8)
    chunked = rp_path_colored_counts(edges, 0.7236068, 20, seed=3)
    assert chunked.shape == (20,)
    assert np.array_equal(chunked, rp_path_colored_counts(edges, 0.7236068, 20, seed=3))
    assert np.array_equal(chunked[:8], single)
    child = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
    second = rp_path_colored_counts(edges, 0.7236068, 8, draws=child.random((30, 8)).T)
    assert np.array_equal(chunked[8:16], second)  # chunk 1 reads the first spawned child
    assert np.array_equal(rp_path_colored_counts(edges, 0.7236068, 20, draws=draws), whole)


def test_kernel_mean_matches_the_exact_expectation():
    """The kernel's mean colored count lies within 5 standard errors of the
    ledger's exact expectation (the sum of its v_i), on both adversarial
    orders and on random orders."""
    rng = random.Random(31)
    orders = [rp_strategy_mod3(301).edges, rp_strategy_oddeven(301).edges]
    orders += [harness.random_reveal(rng, path_edges(rng.randrange(20, 200))) for _ in range(4)]
    p, trials = 0.72360679, 4000
    for i, edges in enumerate(orders):
        exact = sum(r.v_i for r in charging.rp_path_charge(edges, p).rows)
        counts = rp_path_colored_counts(edges, p, trials, seed=[i, 31])
        stderr = counts.std(ddof=1) / math.sqrt(trials)
        assert abs(counts.mean() - float(exact)) <= 5 * stderr, (i, counts.mean(), exact)


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
        depth = path_depth(seq, i)
        expect = p if depth % 2 == 1 else 1 - p
        sigma = math.sqrt(expect * (1 - expect) / trials)
        assert abs(color1[i] / trials - expect) <= 3 * sigma + 0.005


# sha256 of every record below, dumped while a Trace still stored its Step list
TRACE_SHA256 = "63364a901b2537e9491d135ea1eba21a415072972a0ca0064bb86c86b535ef8a"


def _pinned_traces():
    """Every construction at small sizes under ff and nf, a seeded random-pair
    run and 30 random trees under ff, nf and a randomized plug-in."""
    for name, spec in harness.CONSTRUCTIONS.items():
        for alg in ("ff", "nf"):
            if alg not in spec.algorithms:
                continue
            config = harness.ExperimentConfig(
                algorithm=alg, adversary=name, k={"nf-tree": 4, "nf-tree-rounded": 5}.get(name, 3),
                m=7, n=5, N=3, b=4, trials=4, seed=3,
            )
            script = spec.build(config, make_algorithm(alg), engine.derive_rng(3, "adv", 0))
            yield run(alg, script)
    yield run(RandomParity(0.7), rp_strategy_mod3(31), seed=5)
    for t in range(30):
        yield run(("ff", "nf", RandomFair())[t % 3], random_tree_sequence(t, 12, 2 + t % 3), seed=t)


def test_trace_records_are_pinned():
    h = hashlib.sha256()
    for trace in _pinned_traces():
        # the decisions hashed as an {edge: color, or -1 if rejected} dict's repr
        state = {e: -1 if c is None else c for e, c in enumerate(trace.coloring.colors)}
        h.update(f"{trace.k} {trace.algorithm} {trace.steps!r} {trace.colored_count} "
                 f"{trace.rejected_count} {state!r}\n".encode())
        h.update(trace_csv(trace).encode())
    assert h.hexdigest() == TRACE_SHA256


def test_a_path_game_keeps_no_per_edge_objects():
    """A finished game holds its edges and decisions in untracked ints and
    tuples, so the cyclic collector has nothing per edge to scan."""
    script = nf_path_killer(20000)
    gc.collect()
    before = len(gc.get_objects())
    trace = run("nf", script)
    gc.collect()
    assert len(gc.get_objects()) - before < 100
    assert trace.colored_count == 20001


def test_a_finished_path_game_retains_little_per_edge():
    """A finished game keeps its graph and one list of decisions.  The limit
    sits between decisions kept in a dict keyed by edge id (242.6 bytes per
    edge on CPython 3.11) and in one color list (190.7)."""
    script = nf_path_killer(20000)
    gc.collect()
    tracemalloc.start()
    try:
        trace = run("nf", script)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / trace.graph.num_edges < 216


def _retained_by(make, *args):
    """(make(*args), the bytes it still holds after a collection), with args
    made before the count starts, as the test above makes its script."""
    gc.collect()
    tracemalloc.start()
    try:
        made = make(*args)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return made, retained


def test_a_finished_game_keeps_only_its_edges_and_decisions():
    """Masks in a list, no duplicate-edge set after the game and a slotted
    `Step`.  On CPython 3.11 a next-fit path game retained 190.7 bytes per
    edge with masks in a dict and the set kept (83.6 without), a first-fit
    deterministic path game 237.3 (134.8), and its steps 140.3 bytes per
    step with a `Step` that has a __dict__ (100.2 slotted)."""
    trace, retained = _retained_by(run, "nf", nf_path_killer(20000))
    assert retained / trace.graph.num_edges < 120
    trace, retained = _retained_by(run, "ff", det_path_killer(20000, "ff"))
    assert retained / trace.graph.num_edges < 170
    steps, retained = _retained_by(lambda: trace.steps)
    assert retained / len(steps) < 120


def test_a_finished_game_still_refuses_duplicates():
    """The duplicate-edge index a finished game releases comes back on the
    next `add_edge`, rebuilt from the edge list."""
    g = run("ff", nf_path_killer(6)).graph
    u, v = g.edges[3]
    for a, b in ((u, v), (v, u)):
        with pytest.raises(GraphError, match=rf"^duplicate edge \({a}, {b}\)$"):
            g.add_edge(a, b)
    fresh = g.num_vertices
    assert g.add_edge(u, fresh) == len(g.edges) - 1
    with pytest.raises(GraphError, match=rf"^duplicate edge \({fresh}, {u}\)$"):
        g.add_edge(fresh, u)


def test_kernel_state_is_bit_sliced():
    """The kernel's peak sits below half a byte per trial-step: one uint8 per
    (position, trial) peaked at 1.13, two bit planes per 64 trials at 0.38."""
    order = rp_strategy_mod3(3001).edges
    rp_path_colored_counts(path_edges(1), 0.7, 1, seed=1)  # numpy's import is not counted
    gc.collect()
    tracemalloc.start()
    try:
        rp_path_colored_counts(order, 0.72360679, 10_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (len(order) * 10_000) < 0.5


class AdjacencyFirstFit(FirstFit):
    """First-fit that reads the colors of adjacent edges through the graph's
    adjacency instead of the cached color masks."""

    name = "adjacency-ff"

    def decide(self, coloring, g, eid):
        used = 0
        for f in g.adjacent_edges(eid):
            c = coloring.colors[f]  # f < eid, so decided
            if c is not None:
                used |= color_bit(c)
        return lowest_free_color(used, self.k)


def test_plugin_reading_adjacency_reproduces_first_fit():
    scripts = [random_tree_sequence(s, 20, 2 + s % 3) for s in range(20)]
    scripts += [nf_path_killer(30), det_path_killer(20, "ff")]
    for script in scripts:
        assert run(AdjacencyFirstFit(), script).steps == run("ff", script).steps


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


# -- reference decide bodies: two used_mask reads, then a scan or a case per mask --


class ScanFirstFit(FirstFit):
    """First-fit from two `used_mask` reads and `lowest_free_color`."""

    def decide(self, coloring, g, eid):
        u, v = g.endpoints(eid)
        return lowest_free_color(coloring.used_mask(u) | coloring.used_mask(v), self.k)


class ScanNextFit(NextFit):
    """Next-fit as a k-step cyclic scan from the color after c_last."""

    def decide(self, coloring, g, eid):
        u, v = g.endpoints(eid)
        used = coloring.used_mask(u) | coloring.used_mask(v)
        k = self.k
        for step in range(1, k + 1):
            c = (self.c_last + step - 1) % k + 1
            if not used >> (c - 1) & 1:
                self.c_last = c
                return c
        return None


class CaseRandomParity(RandomParity):
    """Random parity with one case per used mask."""

    def decide(self, coloring, g, eid):
        u, v = g.endpoints(eid)
        used = coloring.used_mask(u) | coloring.used_mask(v)
        if used == 0b11:
            return None
        if used == 0b01:
            return 2
        if used == 0b10:
            return 1
        return 1 if self.rng.random() < self.p else 2


def test_mask_strategies_decide_as_their_scan_references_on_every_small_tree():
    orders = 0
    for m in range(1, 7):
        for edges in harness.tree_reveal_orders(m):
            orders += 1
            for k in range(2, 6):
                seq = RevealSequence(edges=edges, k=k)
                assert run(FirstFit(), seq).coloring.colors == run(ScanFirstFit(), seq).coloring.colors
                assert run(NextFit(), seq).coloring.colors == run(ScanNextFit(), seq).coloring.colors
            seq = RevealSequence(edges=edges, k=2)
            for p in (0.5, 0.7, 1):
                seed = f"{orders}/{p}"
                fast = run(RandomParity(p), seq, rng=random.Random(seed)).coloring.colors
                assert fast == run(CaseRandomParity(p), seq, rng=random.Random(seed)).coloring.colors
    assert orders == 2648  # every reveal-order class of the trees with m <= 6
