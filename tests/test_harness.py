import io
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from palette import engine, harness
from palette.harness import (
    CONSTRUCTIONS,
    ExperimentConfig,
    exhaustive_fair_paths,
    exhaustive_paths,
    exhaustive_trees,
    run_experiment,
    tree_reveal_orders,
    yao_experiment,
)


def config(**kw):
    base = dict(algorithm="ff", adversary="nf-path-killer", k=2, m=9, seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_registry_names_are_wired():
    for name, spec in CONSTRUCTIONS.items():
        assert spec.name == name
        assert callable(spec.build)


def test_run_nf_path_killer():
    report = run_experiment(config(algorithm="nf", m=1000))
    assert report.colored_mean == 1001
    assert report.opt == 2001
    assert report.bound == pytest.approx(1001 / 2001)
    assert not report.violates_bound()


def test_run_det_path_killer():
    report = run_experiment(
        config(adversary="det-path-killer", algorithm="ff", m=None, n=50)
    )
    assert report.colored_mean <= 100
    assert report.opt == 149
    assert not report.violates_bound()


def test_run_rejects_unknown_construction():
    with pytest.raises(ValueError):
        run_experiment(config(adversary="nope"))


def test_run_rejects_algorithm_mismatch():
    with pytest.raises(ValueError):
        run_experiment(config(adversary="det-path-killer", algorithm="rp", p=0.7, n=5))


def test_run_requires_parameters():
    with pytest.raises(ValueError):
        run_experiment(config(m=None))


def test_run_rp_uses_vectorized_path_runner():
    report = run_experiment(
        config(adversary="rp-oddeven", algorithm="rp", p=0.7236068, m=301,
               trials=4000, seed=9)
    )
    assert report.trials == 4000
    assert report.colored_stderr is not None
    expect = (0.7236068**2 - 0.7236068 + 1) * 300 + 1
    assert abs(report.colored_mean - expect) <= 4 * report.colored_stderr


def test_run_star_chain_and_bound():
    report = run_experiment(
        config(adversary="star-chain", algorithm="ff", k=5, m=None, N=40)
    )
    assert report.opt == 200
    assert report.colored_mean <= 40 * 4 + 1
    assert not report.violates_bound()


@pytest.mark.parametrize("trials", [5, 20])
def test_path_then_stars_estimates_a_randomized_opponent_once(monkeypatch, trials):
    # the replayed path estimate does not depend on a session's decisions, so
    # run plays each trial once plus `trials` replays in all, not per session
    calls = []
    real_run = engine.run

    def counting_run(*args, **kwargs):
        calls.append(1)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(engine, "run", counting_run)
    report = run_experiment(config(adversary="path-then-stars", algorithm="rp", p=0.7,
                                   m=20, trials=trials))
    assert len(calls) == 2 * trials
    # rp colors the whole path, so every trial enters the stars phase
    assert Counter(report.per_trial) == {(22, 42): trials}
    assert report.ratio == Fraction(11, 21)


def test_report_csv_reproducible():
    a, b = io.StringIO(), io.StringIO()
    run_experiment(config(adversary="yao", algorithm="ff", m=None, b=3,
                          trials=200, seed=5)).write_csv(a)
    run_experiment(config(adversary="yao", algorithm="ff", m=None, b=3,
                          trials=200, seed=5)).write_csv(b)
    assert a.getvalue() == b.getvalue()
    c = io.StringIO()
    run_experiment(config(adversary="yao", algorithm="ff", m=None, b=3,
                          trials=200, seed=6)).write_csv(c)
    assert a.getvalue() != c.getvalue()


def test_yao_experiment_means_below_bound():
    reports = yao_experiment(4, trials=20_000, seed=2)
    bound = float(harness.yao_colored_bound(4))
    for report in reports:
        assert report.colored_mean <= bound
        assert 0 <= report.ratio <= 1
        assert report.colored_stderr is not None


def test_sampled_runs_need_two_trials():
    # one sample has no spread, so a report on it could only be judged as if exact
    for cfg in (config(adversary="yao", algorithm="ff", m=None, b=3, trials=1),
                config(adversary="rp-oddeven", algorithm="rp", p=0.7, m=11, trials=1)):
        with pytest.raises(ValueError, match="trials >= 2"):
            run_experiment(cfg)
    with pytest.raises(ValueError, match="trials >= 2"):
        yao_experiment(3, trials=1)


@pytest.mark.parametrize("kw,sampled", [
    (dict(algorithm="nf", m=5, trials=1), False),
    (dict(algorithm="nf", m=5, trials=7), False),
    (dict(adversary="star-chain", algorithm="ff", m=None, N=3, trials=9), False),
    (dict(adversary="rp-oddeven", algorithm="rp", p=0.7, m=11, trials=2), True),
    (dict(adversary="star-chain", algorithm="rp", p=0.7, m=None, N=3, trials=3), True),
    (dict(adversary="yao", algorithm="nf", m=None, b=3, trials=2), True),
])
def test_spread_reported_exactly_for_sampled_runs(kw, sampled):
    report = run_experiment(config(**kw))
    assert (report.colored_stderr is not None) == sampled
    assert report.trials == (kw["trials"] if sampled else 1)


def test_verify_summary_folds_failures_and_the_exact_minimum():
    from palette.charging import VerdictReport

    tally = harness.VerifySummary("ff-tree", 3)
    for passed, margin in [(True, Fraction(1, 3)), (True, None), (False, Fraction(-1, 2)),
                           (True, Fraction(0))]:
        tally.add(VerdictReport("ff-tree", Fraction(1, 2), [], passed, margin))
    assert (tally.instances, tally.failures, tally.min_margin) == (3, 1, Fraction(-1, 2))
    assert not tally.passed


def test_yao_experiment_rejects_randomized():
    with pytest.raises(ValueError):
        yao_experiment(3, algorithms=("rp",), trials=10)


def test_exhaustive_paths_ff_floor():
    summary = exhaustive_paths(6, 2, "ff")
    assert summary.passed
    assert summary.min_ratio >= Fraction(2, 3)
    assert summary.instances == sum(
        len(list(permutations(range(m)))) for m in range(1, 7)
    )


def test_exhaustive_fair_paths_floor():
    summary = exhaustive_fair_paths(5, 2)
    assert summary.passed
    assert summary.min_ratio >= Fraction(1, 2)


def test_exhaustive_guard():
    with pytest.raises(ValueError):
        exhaustive_paths(9, 2)


def test_tree_sweeps_need_two_colors():
    # at k=1 the floor (k-1)/k is 0 and the sweep would certify nothing
    with pytest.raises(ValueError, match="k >= 2"):
        harness.verify_trees("ff-tree", 3, 4, 1)
    with pytest.raises(ValueError, match="k >= 2"):
        exhaustive_trees(3, ks=(2, 1))


def test_tree_reveal_orders_counts():
    # one sequence per isomorphism class: (m+1)^(m-2) of them
    for m, expect in [(1, 1), (2, 1), (3, 4), (4, 25), (5, 216)]:
        assert sum(1 for _ in tree_reveal_orders(m)) == expect


def test_tree_reveal_orders_cover_all_labeled_instances():
    """Brute-force every labeled tree and order for tiny m; each canonical
    form must be reachable from the enumeration."""
    import heapq

    def all_labeled_trees(n):
        if n == 2:
            yield [(0, 1)]
            return
        for code in product(range(n), repeat=n - 2):
            degree = [1] * n
            for x in code:
                degree[x] += 1
            leaves = [v for v in range(n) if degree[v] == 1]
            heapq.heapify(leaves)
            edges = []
            for x in code:
                leaf = heapq.heappop(leaves)
                edges.append((min(leaf, x), max(leaf, x)))
                degree[x] -= 1
                if degree[x] == 1:
                    heapq.heappush(leaves, x)
            u, v = heapq.heappop(leaves), heapq.heappop(leaves)
            edges.append((min(u, v), max(u, v)))
            yield edges

    for m in (2, 3, 4):
        mine = set()
        for seq in tree_reveal_orders(m):
            form = harness._canonical_form(seq)
            assert form == tuple((min(u, v), max(u, v)) for u, v in seq)
            mine.add(form)
        brute = set()
        for tree in all_labeled_trees(m + 1):
            for perm in permutations(tree):
                brute.add(harness._canonical_form(list(perm)))
        assert mine == brute


def test_exhaustive_trees_small():
    summaries = exhaustive_trees(4, ks=(2,), all_roots=True)
    assert len(summaries) == 1
    s = summaries[0]
    assert s.passed
    assert s.min_ratio >= Fraction(1, 2)
    assert s.charge_failures == 0


def test_random_tree_edges_are_trees():
    from palette.graph import build_graph

    rng = random.Random(12)
    for _ in range(50):
        m = rng.randrange(1, 15)
        g = build_graph(harness.random_tree_edges(rng, m))
        assert g.num_edges == m and g.is_tree()


def test_verify_loops():
    assert harness.verify_ff_trees(40, 10, 2, seed=1).passed
    assert harness.verify_fair_trees(40, 10, 4, seed=2).passed
    assert harness.verify_rp_paths(40, 30, Fraction(7, 10), seed=3).passed
    report = harness.verify_construction(ExperimentConfig(adversary="nf-tree", k=4, N=3))
    assert report.passed and report.min_margin == 0
