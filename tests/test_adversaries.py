import random
from itertools import permutations

import pytest

from conftest import RandomFair, RejectAll
from palette import engine, harness
from palette.adversaries import (
    RevealSequence,
    bunch_plan,
    color_usage,
    det_path_killer,
    equivalent,
    nextfit_order,
    nf_path_killer,
    nf_tree_worstcase,
    nf_tree_worstcase_rounded,
    path_then_stars,
    rp_strategy_mod3,
    rp_strategy_oddeven,
    sample_subphase_count,
    star_chain,
    yao_instance,
    yao_sample,
)
from palette.graph import PartialColoring, build_graph, path_positions
from palette.oracle import opt_tree


# ---------------------------------------------------------------------------
# fixed path orders


def test_nf_path_killer_order():
    seq = nf_path_killer(1)
    assert seq.edges == [(0, 1), (2, 3), (1, 2)]  # e1, e3, e2
    assert nf_path_killer(0).edges == [(0, 1)]


def test_nf_path_killer_pins_next_fit():
    seq = nf_path_killer(1000)
    trace = engine.run("nf", seq)
    assert trace.colored_count == 1001
    assert trace.graph.classify() == "path"


def test_rp_strategy_mod3_order():
    assert rp_strategy_mod3(4).edges == [(0, 1), (3, 4), (2, 3), (1, 2)]
    assert rp_strategy_mod3(1).edges == [(0, 1)]
    with pytest.raises(ValueError):
        rp_strategy_mod3(5)


def test_rp_strategy_oddeven_order():
    assert rp_strategy_oddeven(5).edges == [
        (0, 1), (2, 3), (4, 5), (1, 2), (3, 4)
    ]
    assert rp_strategy_oddeven(1).edges == [(0, 1)]
    with pytest.raises(ValueError):
        rp_strategy_oddeven(4)


def test_strategy_orders_form_paths():
    for seq in (nf_path_killer(7), rp_strategy_mod3(13), rp_strategy_oddeven(9)):
        assert build_graph(seq.edges).classify() == "path"


def test_rp_mean_matches_formula_on_mod3_order():
    # Monte Carlo vs (2/3)(-p^2+p+1)(m-1)+1
    m, p, trials = 301, 0.7236, 3000
    counts = engine.rp_path_colored_counts(rp_strategy_mod3(m).edges, p, trials, seed=6)
    expect = 2 / 3 * (-p * p + p + 1) * (m - 1) + 1
    stderr = counts.std(ddof=1) / trials**0.5
    assert abs(counts.mean() - expect) <= 3 * stderr + 0.01


def test_rp_mean_matches_formula_on_oddeven_order():
    m, p, trials = 301, 0.7236, 3000
    counts = engine.rp_path_colored_counts(
        rp_strategy_oddeven(m).edges, p, trials, seed=8
    )
    expect = (p * p - p + 1) * (m - 1) + 1
    stderr = counts.std(ddof=1) / trials**0.5
    assert abs(counts.mean() - expect) <= 3 * stderr + 0.01


# ---------------------------------------------------------------------------
# the adaptive deterministic-path adversary


def test_det_path_killer_counts():
    for n, alg in [(2, "ff"), (1000, "ff"), (1000, "nf")]:
        script = det_path_killer(n, alg)
        trace = engine.run(alg, script)
        assert trace.graph.num_edges == 3 * n - 1
        assert trace.colored_count <= 2 * n
        assert trace.graph.classify() == "path"


def test_det_path_killer_n1_degenerate():
    trace = engine.run("ff", det_path_killer(1, "ff"))
    assert trace.graph.num_edges == 2
    assert trace.colored_count == 2


def test_det_path_killer_refuses_randomized():
    with pytest.raises(ValueError):
        det_path_killer(5, engine.RandomParity(0.7))


def test_det_path_killer_unfair_deterministic():
    # an unfair opponent puts fragments in the partial bucket; bound still holds
    trace = engine.run(RejectAll(), det_path_killer(4, RejectAll()))
    assert trace.graph.num_edges == 11
    assert trace.colored_count <= 8


class _SplitFirstFit(engine.FirstFit):
    """Deterministic plug-in: first-fit, except that it rejects the fragment
    edges revealed at steps 3 mod 4, so both chains are non-empty."""

    name = "split-ff"
    fair = False

    def __init__(self, fragment_edges):
        self.fragment_edges = fragment_edges

    def decide(self, coloring, g, eid):
        if eid < self.fragment_edges and eid % 4 == 3:
            return None
        return super().decide(coloring, g, eid)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 10])
def test_det_path_killer_bridges_full_and_partial_chains(n):
    alg = _SplitFirstFit(2 * n)
    trace = engine.run(alg, det_path_killer(n, alg))
    path_positions(trace.graph.edges)  # one path: the bridge joined the chains
    assert trace.graph.num_edges == 3 * n - 1
    assert trace.colored_count <= 2 * n


# ---------------------------------------------------------------------------
# star chains


def test_star_chain_small_counts():
    assert engine.run("ff", star_chain(2, 1, "ff")).colored_count == 2
    assert engine.run("ff", star_chain(2, 3, "ff")).colored_count <= 4


def test_star_chain_large():
    trace = engine.run("ff", star_chain(5, 200, "ff"))
    assert trace.colored_count <= 801
    assert opt_tree(trace.graph, 5).count == 1000
    assert trace.graph.classify() == "tree"


def test_star_chain_bound_for_fair_randomized():
    k, N = 3, 30
    trace = engine.run(RandomFair(), star_chain(k, N, RandomFair()), seed=9)
    assert trace.colored_count <= N * (k - 1) + 1


class UnfairRandom(RandomFair):
    fair = False


@pytest.mark.parametrize("build,fair_ok", [
    (lambda alg: star_chain(2, 5, alg), True),
    (lambda alg: path_then_stars(2, 5, alg), True),
    (lambda alg: det_path_killer(5, alg), False),
], ids=["star-chain", "path-then-stars", "det-path-killer"])
def test_adaptive_script_takes_only_coin_free_opponents(build, fair_ok):
    # det-path-killer reads colors, so only a deterministic opponent is
    # coin-free; the tree scripts read only whether an edge was colored
    accepted = ["ff", "nf", RejectAll()]
    refused = [UnfairRandom()]
    (accepted if fair_ok else refused).extend([engine.RandomParity(0.7), RandomFair()])
    for alg in accepted:
        engine.run(alg, build(alg), seed=1)
    for alg in refused:
        with pytest.raises(ValueError, match="needs a deterministic"):
            build(alg)


# ---------------------------------------------------------------------------
# path then stars


def test_path_then_stars_triggers_on_first_fit():
    for k in (2, 3):
        script = path_then_stars(k, 12, "ff")
        trace = engine.run("ff", script)
        assert script.stars_revealed is True
        assert opt_tree(trace.graph, k).count == k * 13
        assert trace.graph.classify() == "tree"
        # stars can recover at most what the path colors left open
        path_colored = sum(1 for s in trace.steps[:12] if s.color is not None)
        stars_colored = trace.colored_count - path_colored
        assert stars_colored <= k * 13 - 2 * path_colored


def test_path_then_stars_halts_on_weak_opponent():
    script = path_then_stars(2, 9, RejectAll())
    trace = engine.run(RejectAll(), script)
    assert script.stars_revealed is False
    assert trace.graph.num_edges == 9


def test_path_then_stars_randomized_estimation():
    # a fair opponent colors the whole in-order path whatever its coins, so
    # stars must follow
    for k, alg in [(2, engine.RandomParity(0.7)), (3, RandomFair())]:
        script = path_then_stars(k, 8, alg)
        trace = engine.run(alg, script, seed=2)
        assert script.stars_revealed is True
        assert trace.graph.num_edges == 8 + k * 9


# ---------------------------------------------------------------------------
# the randomized path-order distribution


def test_yao_subphase_law():
    rng = random.Random(5)
    trials = 20000
    draws = [sample_subphase_count(6, rng) for _ in range(trials)]
    freq0 = draws.count(0) / trials
    assert abs(freq0 - 0.5) < 0.02
    freq4 = draws.count(4) / trials
    assert abs(freq4 - 2**-5) < 0.01


def test_yao_instance_structure():
    inst = yao_instance(2, 1)
    assert inst.subphases == [[1, 3, 5], [7]]
    assert inst.order[:4] == [1, 3, 5, 7]
    assert len(inst.order) == 7


def test_yao_edge_count_identity():
    for b in range(1, 9):
        a = 3**b
        for L in range(b):
            inst = yao_instance(b, L)
            assert sorted(inst.order) == list(range(1, a - 1))
            assert all(
                len(inst.subphases[i]) == a // 3 ** (i + 1)
                for i in range(len(inst.subphases))
            )


def test_yao_sample_is_a_path_order():
    seq = yao_sample(4, random.Random(3)).reveal_sequence()
    assert build_graph(seq.edges).classify() == "path"
    assert len(seq.edges) == 3**4 - 2


# ---------------------------------------------------------------------------
# next-fit reproduction orders


def test_nextfit_order_simple_path():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    c = PartialColoring(2)
    c.color(g, 0, 1)
    c.color(g, 1, 2)
    c.color(g, 2, 1)
    order = nextfit_order(g, c)
    assert order.edges == [(0, 1), (1, 2), (2, 3)]
    replay = engine.run("nf", order)
    assert [s.color for s in replay.steps] == [1, 2, 1]


def test_nextfit_order_single_color_class():
    g = build_graph([(0, 1), (2, 3)])
    c = PartialColoring(1)
    c.color(g, 0, 1)
    c.color(g, 1, 1)
    order = nextfit_order(g, c)
    assert order.params["edge_ids"] == [0, 1]


def test_nextfit_order_refuses_uneven_counts():
    g = build_graph([(0, 1), (2, 3), (4, 5), (6, 7)])
    c = PartialColoring(3)
    # color 1 thrice, color 2 once, color 3 never: counts {3,1,0}
    c.color(g, 0, 1)
    c.color(g, 1, 1)
    c.color(g, 2, 1)
    c.color(g, 3, 2)
    with pytest.raises(ValueError):
        nextfit_order(g, c)


def brute_force_equivalent(c1, c2, g1, g2, k):
    """Equivalence by explicit search over color permutations."""
    if len(c1.colors) != len(c2.colors):
        return False
    for perm in permutations(range(1, k + 1)):
        mapping = {c: perm[c - 1] for c in range(1, k + 1)}
        ok = True
        for col, other in zip(c1.colors, c2.colors):
            if col is None or other is None:
                if (col is None) != (other is None):
                    ok = False
                    break
                continue
            if mapping[col] != other:
                ok = False
                break
        if ok:
            return True
    return False


def test_nextfit_order_reproduces_random_colorings():
    """Next-fit replay is equivalent to the target on random balanced
    forest colorings; equivalence double-checked by permutation search."""
    rng = random.Random(77)
    accepted = 0
    while accepted < 40:
        m = rng.randrange(1, 13)
        k = rng.choice([2, 3, 4])
        base = harness.random_tree_edges(rng, m)
        keep = [e for e in base if rng.random() < 0.75]
        if not keep:
            continue
        source = engine.run(
            RandomFair(), RevealSequence(edges=harness.random_reveal(rng, keep), k=k),
            seed=rng.random(),
        )
        colored = sorted(source.coloring.colored_edges())
        if not colored:
            continue
        sub = build_graph(source.graph.endpoints(e) for e in colored)
        target = PartialColoring(k)
        for i, e in enumerate(colored):
            target.color(sub, i, source.coloring.colors[e])
        counts = sorted(set(color_usage(target).values()))
        if len(counts) > 2 or (len(counts) == 2 and counts[1] - counts[0] != 1):
            continue
        accepted += 1
        order = nextfit_order(sub, target)
        replay = engine.run("nf", order)
        renamed = PartialColoring(k)
        for i, eid in enumerate(order.params["edge_ids"]):
            renamed.color(replay.graph, i, target.colors[eid])
        assert equivalent(replay.coloring, renamed)
        assert brute_force_equivalent(
            replay.coloring, renamed, replay.graph, replay.graph, k
        )


def test_nextfit_replay_hits_cyclic_targets():
    """During replay the target color is always the next cyclic color and is
    open at both endpoints."""
    rng = random.Random(31)
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    c = PartialColoring(3)
    for eid, col in enumerate([1, 2, 3, 1, 2, 3]):
        c.color(g, eid, col)
    order = nextfit_order(g, c)
    # the documented renaming: heavier color classes first, ties by color
    counts = color_usage(c)
    rename = {old: new for new, old in enumerate(sorted(counts, key=lambda x: (-counts[x], x)), 1)}
    targets = [rename[c.colors[eid]] for eid in order.params["edge_ids"]]
    replay_g = build_graph(order.edges)
    state = PartialColoring(3)
    c_last = 0
    for i, (u, v) in enumerate(order.edges):
        expect = c_last % 3 + 1
        assert targets[i] == expect
        assert state.available_mask(replay_g, i) >> (expect - 1) & 1
        state.color(replay_g, i, expect)
        c_last = expect


def test_equivalent():
    g = build_graph([(0, 1), (1, 2)])
    a = PartialColoring(2)
    a.color(g, 0, 1)
    a.color(g, 1, 2)
    assert equivalent(a, a)
    b = PartialColoring(2)
    b.color(g, 0, 2)
    b.color(g, 1, 1)
    assert equivalent(a, b)
    c = PartialColoring(2)
    c.color(g, 0, 1)
    c.reject(1)
    assert not equivalent(a, c)
    # non-injective renaming is not an equivalence
    d = build_graph([(0, 1), (2, 3)])
    x = PartialColoring(2)
    x.color(d, 0, 1)
    x.color(d, 1, 2)
    y = PartialColoring(2)
    y.color(d, 0, 1)
    y.color(d, 1, 1)
    assert not equivalent(x, y)
    # nor is one that maps a color to two
    assert not equivalent(y, x)
    # the color count and the decided edges must agree
    z = PartialColoring(3)
    z.color(d, 0, 1)
    z.color(d, 1, 2)
    assert not equivalent(x, z)
    partial = PartialColoring(2)
    partial.color(d, 0, 1)
    assert not equivalent(x, partial)
    # an edge rejected in both matches
    e = PartialColoring(2)
    e.color(g, 0, 2)
    e.reject(1)
    assert equivalent(c, e)


# ---------------------------------------------------------------------------
# worst-case trees for next-fit


def test_bunch_plan_layout():
    plan = bunch_plan(4, 3)
    assert len(plan.reveal.edges) == 4 * 3 * (4 + 4 - 4) + 4 * (3 * 1 + 2) + 3
    g = build_graph(plan.reveal.edges)
    assert g.classify() == "tree"
    assert max(map(len, g.incident)) <= 4


def test_bunch_plan_connectors_blocked_by_target():
    plan = bunch_plan(9, 2)
    g = build_graph(plan.colored_part.edges)
    coloring = PartialColoring(9)
    # next-fit's replay lands on each edge's target color
    for eid, color in enumerate(engine.run("nf", plan.colored_part).coloring.colors):
        coloring.color(g, eid, color)
    position = {}
    for eid, (u, v) in enumerate(plan.colored_part.edges):
        position[u] = position.get(u, 0) | coloring.used_mask(u)
        position[v] = position.get(v, 0) | coloring.used_mask(v)
    full = (1 << 9) - 1
    for u, v in plan.connectors:
        assert coloring.used_mask(u) | coloring.used_mask(v) == full


def test_nf_tree_worstcase_counts():
    seq = nf_tree_worstcase(4, 10)
    trace = engine.run("nf", seq)
    assert trace.colored_count == 163
    assert trace.rejected_count == 76
    assert opt_tree(trace.graph, 4).count == 239
    assert trace.graph.classify() == "tree"
    assert max(map(len, trace.graph.incident)) <= 4


def test_nf_tree_worstcase_k9():
    seq = nf_tree_worstcase(9, 2)
    plan = bunch_plan(9, 2)
    trace = engine.run("nf", seq)
    assert trace.colored_count == plan.expected_colored
    assert trace.rejected_count == len(plan.connectors)  # every connector is rejected


def test_nf_tree_worstcase_rejects_non_square():
    with pytest.raises(ValueError):
        nf_tree_worstcase(5, 3)
    with pytest.raises(ValueError):
        nf_tree_worstcase(2, 3)


@pytest.mark.parametrize("build,message", [
    (lambda: nf_path_killer(-1), "m must be >= 0, got -1"),
    (lambda: det_path_killer(0, "ff"), "n must be >= 1, got 0"),
    (lambda: star_chain(1, 1, "ff"), "k must be >= 2, got 1"),
    (lambda: star_chain(2, 0, "ff"), "N must be >= 1, got 0"),
    (lambda: path_then_stars(1, 1, "ff"), "k must be >= 2, got 1"),
    (lambda: path_then_stars(2, 0, "ff"), "m must be >= 1, got 0"),
    (lambda: bunch_plan(3, 1), "k must be >= 4, got 3"),
    (lambda: bunch_plan(4, 0), "N must be >= 1, got 0"),
    (lambda: nf_tree_worstcase_rounded(3, 1), "k must be >= 4, got 3"),
    (lambda: yao_sample(0, random.Random(0)), "b must be >= 1, got 0"),
    (lambda: yao_instance(3, 3), r"L must lie in 0\.\.2, got 3"),
])
def test_constructions_refuse_sizes_outside_their_range(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_nf_tree_rounded_for_non_square():
    seq = nf_tree_worstcase_rounded(5, 5)
    trace = engine.run("nf", seq)
    plan = bunch_plan(5, 5)
    assert trace.colored_count == plan.expected_colored
    assert trace.rejected_count == len(plan.connectors)  # every connector is rejected
    assert trace.graph.classify() == "tree"
