"""Acceptance suite: one test per headline guarantee, at stated tolerances.

Each test prints a single PASS line (visible with ``pytest -s`` or ``-rA``)
after its assertions go through; wall-clock limits are asserted where the
criterion carries one.
"""

import math
import random
import time
from fractions import Fraction
from itertools import permutations

from conftest import RandomFair
from palette import engine, harness
from palette.adversaries import (
    RevealSequence,
    det_path_killer,
    equivalent,
    nextfit_order,
    nf_path_killer,
    nf_tree_worstcase,
    nf_tree_worstcase_rounded,
    path_edges,
    path_then_stars,
    rp_strategy_mod3,
    rp_strategy_oddeven,
    star_chain,
    color_usage,
)
from palette.charging import (
    fair_tree_charge,
    rp_competitive_ratio,
    rp_path_charge,
)
from palette.exact import PHI_OVER_SQRT5
from palette.graph import PartialColoring, build_graph
from palette.harness import yao_colored_bound
from palette.oracle import opt_bruteforce, opt_tree


def report(n, text):
    print(f"criterion {n:2d} PASS: {text}")


def test_criterion_01_next_fit_path_ceiling():
    t0 = time.perf_counter()
    trace = engine.run("nf", nf_path_killer(1000))
    elapsed = time.perf_counter() - t0
    assert trace.colored_count == 1001
    assert trace.graph.num_edges == 2001
    ratio = trace.colored_count / 2001
    assert 0.5 < ratio < 0.5003
    assert elapsed < 0.1
    report(1, f"next-fit colored 1001/2001 (ratio {ratio:.6f}) in {elapsed * 1e3:.0f} ms")


def test_criterion_02_deterministic_path_ceiling():
    results = {}
    t0 = time.perf_counter()
    for alg in ("ff", "nf"):
        trace = engine.run(alg, det_path_killer(1000, alg))
        assert trace.graph.num_edges == 2999
        assert trace.colored_count <= 2000
        assert trace.colored_count / 2999 <= 0.6669
        results[alg] = trace.colored_count
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1
    report(2, f"ff/nf colored {results['ff']}/{results['nf']} of 2999 in {elapsed * 1e3:.0f} ms")


def test_criterion_03_pair_strategy_formulas():
    t0 = time.perf_counter()
    p, m, trials, target = 0.72360679, 3001, 10_000, 2401.0
    means = {}
    for name, seq in (("i", rp_strategy_mod3(m)), ("ii", rp_strategy_oddeven(m))):
        counts = engine.rp_path_colored_counts(
            seq.edges, p, trials, seed=harness._int_seed(("acc3", name))
        )
        mean = counts.mean()
        stderr = counts.std(ddof=1) / math.sqrt(trials)
        assert abs(mean - target) <= 3 * stderr, (name, mean, stderr)
        means[name] = (mean, stderr)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report(3, "mean colored {:.2f}/{:.2f} (strategies i/ii) vs 2401.0, {:.1f} s".format(
        means["i"][0], means["ii"][0], elapsed))


def test_criterion_04_optimal_bias():
    p = PHI_OVER_SQRT5
    rng = random.Random("acceptance-4")
    four_fifths = Fraction(4, 5)
    min_margin = None
    for t in range(1000):
        m = rng.randrange(1, 201)
        edges = harness.random_reveal(rng, path_edges(m))
        rep = rp_path_charge(RevealSequence(edges=edges, k=2), p, C=four_fifths)
        assert rep.passed, edges
        if rep.min_margin is not None:
            if min_margin is None or rep.min_margin < min_margin:
                min_margin = rep.min_margin

    tight = [rp_strategy_mod3(28), rp_strategy_oddeven(31)]
    sweep = [Fraction(1, 2), Fraction(3, 5), Fraction(7236, 10000),
             Fraction(9, 10), Fraction(1)]
    for pv in sweep:
        lo, hi = Fraction(0), Fraction(1)
        for _ in range(40):
            mid = (lo + hi) / 2
            if all(rp_path_charge(o, pv, C=mid).passed for o in tight):
                lo = mid
            else:
                hi = mid
        assert abs(lo - rp_competitive_ratio(pv)) < Fraction(1, 10**6), pv
    report(4, f"1000 random orders certified at C=4/5 (min margin {min_margin}); "
              f"bias sweep matches min(p^2-p+1, 2(-p^2+p+1)/3) within 1e-6")


def test_criterion_05_distribution_ceiling():
    t0 = time.perf_counter()
    reports = harness.yao_experiment(6, algorithms=("ff", "nf"),
                                     trials=100_000, seed="acceptance-5")
    elapsed = time.perf_counter() - t0
    means = {}
    for rep in reports:
        assert rep.colored_mean <= 584.3, (rep.algorithm, rep.colored_mean)
        assert rep.colored_mean <= 0.804 * (3**6 - 2)
        means[rep.algorithm] = rep.colored_mean
    assert elapsed < 120
    report(5, "mean colored ff {:.2f}, nf {:.2f} <= 584.3 (bound {:.3f}), {:.1f} s".format(
        means["ff"], means["nf"], float(yao_colored_bound(6)), elapsed))


def test_criterion_06_star_chain_ceiling():
    trace = engine.run("ff", star_chain(5, 200, "ff"))
    opt = opt_tree(trace.graph, 5).count
    assert trace.colored_count <= 801
    assert opt == 1000
    assert trace.colored_count / opt <= 0.801
    report(6, f"first-fit colored {trace.colored_count} <= 801, opt {opt}, "
              f"ratio {trace.colored_count / opt:.4f} vs (k-1)/k = 0.8")


def test_criterion_07_first_fit_tree_floor_exhaustive():
    t0 = time.perf_counter()
    summaries = harness.exhaustive_trees(7, ks=(2, 3), all_roots=True)
    for k, summary in zip((2, 3), summaries):
        assert summary.k == k and summary.instances == 35416
        assert summary.min_ratio >= Fraction(k - 1, k)
        assert summary.charge_failures == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report(7, f"{summaries[0].instances} (tree, order) classes x k in {{2,3}}: ratio >= (k-1)/k, "
              f"every charged instance certified from every root, {elapsed:.0f} s")


def test_criterion_08_universal_tree_ceiling():
    m = 600
    ratios = {}
    for k in (2, 3):
        script = path_then_stars(k, m, "ff")
        trace = engine.run("ff", script)
        assert script.stars_revealed is True
        opt = opt_tree(trace.graph, k).count
        assert opt == k * (m + 1)
        ratio = trace.colored_count / opt
        assert ratio <= k / (k + 1) + 2 / m
        ratios[k] = ratio
    report(8, f"first-fit ratios {ratios[2]:.4f} (k=2), {ratios[3]:.4f} (k=3) "
              f"<= k/(k+1) + 2/m")


def test_criterion_09_next_fit_tree_tightness():
    trace = engine.run("nf", nf_tree_worstcase(4, 10))
    witness = opt_tree(trace.graph, 4)
    assert trace.colored_count == 163
    assert trace.rejected_count == 76
    assert witness.count == 239
    assert Fraction(163) == Fraction(2, 3) * 239 + 4 - Fraction(1, 3)
    rep = fair_tree_charge(trace, witness)
    assert rep.passed
    assert rep.min_margin == 0
    report(9, "next-fit colored 163, rejected 76, opt 239; "
              "163 = (2/3)*239 + 4 - 1/3; fair charge min margin 0")


def test_criterion_10_next_fit_reproduction():
    rng = random.Random("acceptance-10")
    accepted = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 4000, "generator failed to hit the balanced condition"
        k = rng.choice([1, 2, 3, 4])
        base = harness.random_tree_edges(rng, rng.randrange(1, 13))
        keep = [e for e in base if rng.random() < 0.8]
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
        assert _equivalent_by_search(replay.coloring, renamed, k)
    report(10, f"100 balanced colorings reproduced by next-fit "
               f"({attempts} candidates drawn); equivalence re-checked by "
               f"permutation search")


def _equivalent_by_search(c1, c2, k):
    if len(c1.colors) != len(c2.colors):
        return False
    for perm in permutations(range(1, k + 1)):
        if all(
            (col is None and other is None)
            or (col is not None and other == perm[col - 1])
            for col, other in zip(c1.colors, c2.colors)
        ):
            return True
    return False


def test_criterion_11_oracle_cross_check():
    rng = random.Random("acceptance-11")
    for k in (1, 2, 3, 4):
        for t in range(200):
            m = rng.randrange(1, 13)
            g = build_graph(harness.random_tree_edges(rng, m))
            a = opt_tree(g, k)
            b = opt_bruteforce(g, k)
            assert a.count == b.count, (g.edges, k)
            from palette.oracle import audit_witness

            audit_witness(g, k, a)
            audit_witness(g, k, b)
    report(11, "tree DP equals brute force on 200 random trees per k in {1,2,3,4}; "
               "all witnesses audited")


def test_criterion_12_non_square_ceiling():
    k, N = 5, 50
    s = 3  # rounded-up square root
    trace = engine.run("nf", nf_tree_worstcase_rounded(k, N))
    opt = opt_tree(trace.graph, k).count
    ratio = trace.colored_count / opt
    bound = (k / s + s - 2) / (k / s + s - 1)
    assert ratio <= bound + 0.01
    report(12, f"next-fit ratio {ratio:.4f} <= {bound:.4f} + 0.01 on the "
               f"rounded construction (k=5, N=50)")
