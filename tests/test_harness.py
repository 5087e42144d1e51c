import hashlib
import io
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from palette import engine, harness
from palette.adversaries import RevealSequence
from palette.exact import PHI_OVER_SQRT5
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
from palette.oracle import opt_path, opt_tree


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
    with pytest.raises(ValueError, match="does not accept algorithm"):
        run_experiment(config(adversary="det-path-killer", algorithm="rp", p=0.7, m=None, n=5))


def test_run_refuses_what_the_matchup_never_reads():
    with pytest.raises(ValueError, match="does not read --N"):
        run_experiment(config(algorithm="nf", m=5, N=3))
    with pytest.raises(ValueError, match="--alg ff does not read --p"):
        run_experiment(config(p=0.7))


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


@pytest.mark.parametrize("adversary,size,trials,outcome", [
    pytest.param("path-then-stars", dict(m=20), 5, (22, 42), id="path-then-stars-5"),
    pytest.param("path-then-stars", dict(m=20), 20, (22, 42), id="path-then-stars-20"),
    pytest.param("star-chain", dict(m=None, N=50), 20, (51, 100), id="star-chain-20"),
])
def test_coin_free_matchup_is_played_once(monkeypatch, adversary, size, trials, outcome):
    # rp's coins cannot change which edges these scripts see colored, so one
    # play is every trial's outcome and the exact expectation
    calls = []
    real_run = engine.run

    def counting_run(*args, **kwargs):
        calls.append(1)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(engine, "run", counting_run)
    report = run_experiment(config(adversary=adversary, algorithm="rp", p=0.7,
                                   trials=trials, **size))
    assert len(calls) == 1
    assert Counter(report.per_trial) == {outcome: trials}
    assert report.ratio == report.expected == Fraction(*outcome)


def test_report_csv_reproducible():
    a, b = io.StringIO(), io.StringIO()
    harness.write_ratio_csv([run_experiment(config(adversary="yao", algorithm="ff", m=None,
                                                   b=3, trials=200, seed=5))], a)
    harness.write_ratio_csv([run_experiment(config(adversary="yao", algorithm="ff", m=None,
                                                   b=3, trials=200, seed=5))], b)
    assert a.getvalue() == b.getvalue()
    c = io.StringIO()
    harness.write_ratio_csv([run_experiment(config(adversary="yao", algorithm="ff", m=None,
                                                   b=3, trials=200, seed=6))], c)
    assert a.getvalue() != c.getvalue()


# sizes per construction for the pinned reports; yao is left out, as
# `run --adv yao` samples exactly as `palette yao` does
RATIO_PIN_SIZES = {
    "nf-path-killer": [dict(m=5), dict(m=40)],
    "det-path-killer": [dict(n=5), dict(n=12)],
    "rp-mod3": [dict(m=7), dict(m=31)],
    "rp-oddeven": [dict(m=7), dict(m=21)],
    "star-chain": [dict(k=2, N=4), dict(k=3, N=5)],
    "path-then-stars": [dict(m=5), dict(k=3, m=4)],
    "nf-tree": [dict(k=4, N=2)],
    "nf-tree-rounded": [dict(k=5, N=2)],
}
# sha256 of every record below, dumped before the reports shared one builder
RATIO_REPORTS_SHA256 = "69362cb0133be4550d0fa51c2c30295e383acd9b89fc011962d0c014d1efe8ab"


def _pinned_ratio_reports():
    """Every non-yao construction and algorithm at small sizes: deterministic
    algorithms once, random-parity sampled at two trial counts and seeds,
    and once past the kernel's first chunk."""
    runs = [
        (name, alg, size, trials, seed)
        for name, sizes in RATIO_PIN_SIZES.items()
        for size in sizes
        for alg in CONSTRUCTIONS[name].algorithms
        if alg != "rp" or size.get("k", 2) == 2  # random-parity plays k=2 only
        for trials, seed in ([(2, 1), (40, "pin")] if alg == "rp" else [(1, 1)])
    ]
    runs.append(("rp-mod3", "rp", dict(m=31), 20_000, 4))
    for name, alg, size, trials, seed in runs:
        report = run_experiment(ExperimentConfig(
            algorithm=alg, p=0.7 if alg == "rp" else None, adversary=name,
            trials=trials, seed=seed, **size,
        ))
        csv = io.StringIO()
        harness.write_ratio_csv([report], csv)
        yield (report.summary(), csv.getvalue(), repr(report.ratio),
               repr(report.colored_mean), repr(report.bound))


def test_ratio_reports_are_pinned():
    h = hashlib.sha256()
    for record in _pinned_ratio_reports():
        h.update("\n".join(record).encode() + b"\n")
    assert h.hexdigest() == RATIO_REPORTS_SHA256


def test_yao_experiment_means_below_bound():
    reports = yao_experiment(4, trials=20_000, seed=2)
    bound = float(harness.yao_colored_bound(4))
    for report in reports:
        assert report.colored_mean <= bound
        assert 0 <= report.ratio <= 1
        assert report.colored_stderr is not None


def test_yao_expectations_are_exact():
    # first-fit attains 4*3^b/5 - 1 - 4/(5*2^b) on the (3^b - 2)-edge path
    for b in range(1, 8):
        ff, nf = yao_experiment(b, trials=2)
        closed = Fraction(4 * 3**b, 5) - 1 - Fraction(4, 5 * 2**b)
        assert ff.expected * (3**b - 2) == closed
        assert not ff.violates_bound() and not nf.violates_bound()
    assert ff.expected * 2185 == Fraction(55955, 32)
    assert nf.expected * 2185 == Fraction(111847, 64)


@pytest.mark.parametrize("adversary,m", [
    ("rp-mod3", 31), ("rp-mod3", 3001), ("rp-oddeven", 21), ("rp-oddeven", 3001),
])
@pytest.mark.parametrize("p", [0.5, 0.7, 0.7236068, 1.0])
def test_rp_expectation_meets_the_bound_exactly(adversary, m, p):
    report = run_experiment(config(adversary=adversary, algorithm="rp", p=p, m=m, trials=2))
    assert report.expected == report.bound
    assert not report.violates_bound()


def test_samplers_agree_with_the_exact_expectations():
    # the sampled means are a self-test of the yao sampler and the rp kernel
    reports = yao_experiment(6, trials=100_000)
    reports += [run_experiment(config(adversary=name, algorithm="rp", p=0.7236068, m=3001,
                                      trials=10_000)) for name in ("rp-mod3", "rp-oddeven")]
    for report in reports:
        assert report.colored_stderr > 0
        assert abs(report.colored_mean - report.expected * report.opt) <= 5 * report.colored_stderr


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

    tally = harness.VerifySummary("ff-tree")
    for passed, margin in [(True, Fraction(1, 3)), (True, None), (False, Fraction(-1, 2)),
                           (True, Fraction(0))]:
        tally.add(VerdictReport("ff-tree", Fraction(1, 2), passed, margin, list))
    assert (tally.instances, tally.failures, tally.min_margin) == (4, 1, Fraction(-1, 2))
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


class _ChoiceFair:
    """Fair plug-in that colors its i-th edge with an open color using the
    choices[i]-th open color (the first one past the list), and records how
    many open colors each such edge had."""

    name = "choice-fair"
    deterministic = True
    fair = True

    def __init__(self, choices):
        self.choices, self.widths = choices, []

    def reset(self, k, rng):
        self.k = k

    def decide(self, coloring, g, eid):
        mask = coloring.available_mask(g, eid)
        if not mask:
            return None
        open_colors = [c for c in range(1, self.k + 1) if mask >> (c - 1) & 1]
        i = len(self.widths)
        self.widths.append(len(open_colors))
        return open_colors[self.choices[i] if i < len(self.choices) else 0]


@pytest.mark.parametrize("k,branches,least", [
    (1, 153, Fraction(1, 2)), (2, 614, Fraction(3, 5)), (3, 6423, Fraction(1))])
def test_fair_path_walker_matches_every_engine_branch(k, branches, least):
    """Walk every fair branch of every path order with m <= 5 through the
    engine, the choice sequences in odometer order, and compare with the
    walker's flat-array sweep."""
    instances, low = 0, None
    for m in range(1, 6):
        for perm in permutations(range(1, m + 1)):
            seq = RevealSequence(edges=[(i - 1, i) for i in perm], k=k)
            choices = []
            while True:
                alg = _ChoiceFair(choices)
                trace = engine.run(alg, seq)
                assert engine.audit_fair(trace)
                instances += 1
                ratio = Fraction(trace.colored_count, opt_path(m, k))
                low = ratio if low is None else min(low, ratio)
                choices += [0] * (len(alg.widths) - len(choices))
                while choices and choices[-1] + 1 == alg.widths[len(choices) - 1]:
                    choices.pop()
                if not choices:
                    break
                choices[-1] += 1
    summary = exhaustive_fair_paths(5, k)
    assert (summary.instances, summary.min_ratio) == (instances, low) == (branches, least)


def test_exhaustive_guard():
    # the limit is checked before k, and k before the algorithm
    for sweep in (lambda: exhaustive_paths(9, 2), lambda: exhaustive_paths(9, 1, "rp"),
                  lambda: exhaustive_paths(0, 2), lambda: exhaustive_fair_paths(9, 1),
                  lambda: exhaustive_trees(9, ks=(1,))):
        with pytest.raises(ValueError, match="^order-exhaustive mode takes 1 to 8 edges$"):
            sweep()
    with pytest.raises(ValueError, match="path floors are proven for k >= 2, got k=1"):
        exhaustive_paths(8, 1, "rp")
    with pytest.raises(ValueError, match="needs a bias parameter p"):
        exhaustive_paths(8, 2, "rp")
    with pytest.raises(ValueError, match="unknown algorithm 'xx'"):
        exhaustive_paths(8, 2, "xx")
    with pytest.raises(ValueError, match="tree floors need k >= 2, got k=1"):
        exhaustive_trees(8, ks=(2, 1))
    summary = exhaustive_fair_paths(4, 1)
    assert (summary.instances, summary.min_ratio, summary.passed) == (33, Fraction(1, 2), True)


def test_tree_sweeps_need_two_colors():
    # at k=1 the floor (k-1)/k is 0 and the sweep would certify nothing
    with pytest.raises(ValueError, match="k >= 2"):
        harness.verify_trees("ff-tree", 3, 4, 1)
    with pytest.raises(ValueError, match="k >= 2"):
        exhaustive_trees(3, ks=(2, 1))


def test_tree_reveal_orders_counts():
    # one sequence per isomorphism class: (m+1)^(m-2) of them
    for m, expect in [(1, 1), (2, 1), (3, 4), (4, 25), (5, 216), (6, 2401), (7, 32768)]:
        assert sum(1 for _ in tree_reveal_orders(m)) == expect


# every canonical order for m <= 7, in enumeration order
TREE_ORDERS_SHA256 = "cdd1589070ce0f0d0349eafdbba847220d278ea92bb5172e86870def0e314607"


def test_tree_reveal_orders_are_pinned():
    h = hashlib.sha256()
    for m in range(1, 8):
        for seq in tree_reveal_orders(m):
            h.update(f"{m}:{seq}\n".encode())
    assert h.hexdigest() == TREE_ORDERS_SHA256


def test_tree_reveal_orders_cover_all_labeled_instances():
    """Brute-force every labeled tree and order for tiny m: the enumeration
    lists each isomorphism class exactly once, as its least relabeling."""
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

    def relabel(seq, label):
        return tuple((label[u], label[v]) if label[u] < label[v] else (label[v], label[u])
                     for u, v in seq)

    for m in (2, 3, 4, 5):
        mine = [tuple(seq) for seq in tree_reveal_orders(m)]
        # each class once, as its least relabeling over every vertex bijection
        classes, seen = [], set()
        for tree in all_labeled_trees(m + 1):
            for order in permutations(tree):
                if order in seen:
                    continue
                orbit = {relabel(order, label) for label in permutations(range(m + 1))}
                seen |= orbit
                classes.append(min(orbit))
        assert len(mine) == len(set(mine)) == len(classes)
        assert set(mine) == set(classes)


def test_exhaustive_trees_small():
    summaries = exhaustive_trees(4, ks=(2,), all_roots=True)
    assert len(summaries) == 1
    s = summaries[0]
    assert s.passed
    assert s.min_ratio >= Fraction(1, 2)
    assert s.charge_failures == 0


def test_exhaustive_trees_count_the_orders_they_charge():
    """charges.instances is the number of orders whose witness keeps an edge
    first-fit rejected: the only orders a certificate is charged on."""
    charged = Counter()
    for m in range(1, 6):
        for edges in tree_reveal_orders(m):
            for k in (2, 3):
                trace = engine.run("ff", RevealSequence(edges=edges, k=k))
                colors = trace.coloring.colors
                charged[k] += any(colors[e] is None for e in opt_tree(trace.graph, k).edges)
    summaries = exhaustive_trees(5, ks=(2, 3))
    assert [(s.k, s.charges.instances) for s in summaries] == sorted(charged.items())
    assert all(s.charges.instances < s.instances for s in summaries) and charged[3] > 0


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


# sha256 of every sweep record below, first dumped before the sweeps shared
# one running tally and one certify step; re-dumped when the fair ledger went
# to ints scaled by 2*sqrt(k)-1 at every k, equal to the first dump value for
# value, with nf-tree-rounded's rational values at k = 5 now reported as surds
SWEEP_SUMMARIES_SHA256 = "4a396d9cb7e901f8173ffaa427730e77a869a197fe9f910083d5c072f350caa7"


def _sweep_records():
    summaries = [exhaustive_paths(m, k, alg)
                 for alg in ("ff", "nf") for k in (2, 3) for m in (1, 4, 7)]
    summaries += [exhaustive_fair_paths(m, k) for k in (1, 2, 3) for m in (1, 3, 6)]
    summaries += [s for all_roots in (False, True)
                  for s in exhaustive_trees(5, ks=(2, 3, 4), all_roots=all_roots)]
    for s in summaries:
        yield f"{s.summary()} {s.witness} {s.passed} {s.instances} {s.charge_failures}"
    tallies = [harness.verify_trees(strategy, 25, 9, k, seed=k, all_roots=all_roots)
               for strategy in ("ff-tree", "fair-tree") for k in (2, 3, 4, 5, 9)
               for all_roots in (False, True)]
    tallies += [harness.verify_rp_paths(40, 30, p, seed=3)
                for p in (Fraction(1, 2), Fraction(7, 10), PHI_OVER_SQRT5, 1)]
    for t in tallies:
        yield f"{t.summary()} {t.passed} {t.instances} {t.failures} {t.min_margin!r}"
    for adv, k, N in [("nf-tree", 4, 3), ("nf-tree", 9, 1), ("nf-tree-rounded", 5, 2)]:
        report = harness.verify_construction(ExperimentConfig(adversary=adv, k=k, N=N))
        yield f"{report.passed} {report.min_margin!r} {report.C!r} {report.rows!r}"


def test_sweep_summaries_are_pinned():
    h = hashlib.sha256()
    for record in _sweep_records():
        h.update(record.encode() + b"\n")
    assert h.hexdigest() == SWEEP_SUMMARIES_SHA256
