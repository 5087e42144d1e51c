import gc
import hashlib
import math
import random
import weakref
from fractions import Fraction

import pytest

from conftest import (
    RandomFair,
    RejectAll,
    estimate_initial_values,
    path_depth,
    random_tree_sequence,
)
from palette import charging, engine, harness
from palette.adversaries import (
    RevealSequence,
    nf_tree_worstcase,
    nf_tree_worstcase_rounded,
    path_edges,
    rp_strategy_mod3,
    rp_strategy_oddeven,
)
from palette.charging import (
    EdgeReport,
    FairTreeCertificate,
    FFTreeCertificate,
    critical_edges,
    edge_classes,
    fair_ratio,
    fair_tree_charge,
    ff_tree_charge,
    rp_competitive_ratio,
    rp_path_charge,
)
from palette.exact import PHI_OVER_SQRT5, Sqrt5
from palette.graph import GraphError
from palette.oracle import OptWitness, opt_bruteforce, opt_tree


def ff_trace(edges, k):
    return engine.run("ff", RevealSequence(edges=edges, k=k))


def test_edge_class_tallies():
    trace = ff_trace([(0, 1), (1, 2), (3, 4), (2, 3)], 2)
    witness = opt_tree(trace.graph, 2)
    klass, tallies = edge_classes(trace, witness)
    assert klass[3] == "opt-only"
    for v, t in enumerate(tallies):
        singles = sum(klass[e] == "single" for e in trace.graph.incident[v])
        assert t["d_c"] == t["d_d"] + singles


# ---------------------------------------------------------------------------
# first-fit on trees


def test_ff_charge_hand_instance():
    trace = ff_trace([(0, 1), (1, 2), (3, 4), (2, 3)], 2)
    witness = opt_tree(trace.graph, 2)
    report = ff_tree_charge(trace, witness)
    assert report.passed
    row = next(r for r in report.rows if r.edge == 3)
    assert row.klass == "opt-only"
    assert row.v_f == Fraction(1, 2) and row.margin == 0


def test_ff_charge_vacuous_without_rejections():
    trace = ff_trace([(0, 1), (1, 2)], 2)
    report = ff_tree_charge(trace, opt_tree(trace.graph, 2))
    assert report.passed and report.min_margin == 0  # doubles sit exactly at C


def test_ff_charge_refuses_foreign_traces():
    seq = RevealSequence(edges=[(0, 1), (1, 2), (2, 3)], k=2)
    trace = engine.run("nf", seq)  # next-fit colors 1,2,1; first-fit would too
    # craft a trace first-fit cannot produce: reject a colorable edge
    trace = engine.run(RandomFair(), seq, seed=11)
    while [s.color for s in trace.steps] == [1, 2, 1]:
        trace = engine.run(RandomFair(), seq, seed=random.random())
    with pytest.raises(ValueError):
        ff_tree_charge(trace, opt_tree(trace.graph, 2))


def test_ff_charge_random_suite():
    rng = random.Random(55)
    done = 0
    for t in range(500):
        seq = random_tree_sequence(rng.randrange(10**9), 14, rng.choice([2, 3, 4]))
        trace = engine.run("ff", seq)
        witness = opt_tree(trace.graph, seq.k)
        report = ff_tree_charge(trace, witness)
        assert report.passed, (seq.edges, seq.k)
        done += 1
    assert done == 500


def test_ff_charge_every_root():
    rng = random.Random(56)
    for t in range(40):
        seq = random_tree_sequence(rng.randrange(10**9), 10, rng.choice([2, 3]))
        trace = engine.run("ff", seq)
        witness = opt_tree(trace.graph, seq.k)
        certificate = FFTreeCertificate(trace, witness)
        for root in range(trace.graph.num_vertices):
            assert certificate.charge(root).passed


# sha256 of one line "passed repr(min_margin) repr(rows)" per certified root,
# dumped from the per-root implementation before the certificates were split
# into a per-trace preparation and a per-root pass
FF_ALL_ROOTS_SHA256 = "4cbd06cbb5a856ef889fc8121a65f91e9ac0dd4445c8967b058d46c721b47246"
FAIR_ALL_ROOTS_SHA256 = "4e994faf75674c2252ce3a70a56dde6c39039d4256584cd6c3c43bea3b128ecd"


def _all_roots_digest(certify, cases):
    """Charge every root of every (trace, witness) once through a prepared
    certificate, check a fresh certificate per root agrees row for row, and
    hash the verdicts."""
    lines = []
    for trace, witness in cases:
        certificate = certify(trace, witness)
        for root in range(trace.graph.num_vertices):
            report = certificate.charge(root)
            single = certify(trace, witness).charge(root)
            assert single.rows == report.rows
            assert (single.passed, single.min_margin) == (report.passed, report.min_margin)
            lines.append(f"{report.passed} {report.min_margin!r} {report.rows!r}")
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _played(alg, seq, seed=None):
    trace = engine.run(alg, seq, seed=seed)
    return trace, opt_tree(trace.graph, seq.k)


def test_prepared_certificates_reproduce_per_root_verdicts():
    ff_cases = [
        _played("ff", RevealSequence(edges=edges, k=k))
        for k in (2, 3)
        for m in range(1, 6)
        for edges in harness.tree_reveal_orders(m)
    ]
    assert _all_roots_digest(FFTreeCertificate, ff_cases) == (2884, FF_ALL_ROOTS_SHA256)
    fair_cases = [
        _played(("nf", "ff", RandomFair())[t % 3], random_tree_sequence(t, 12, 4), seed=t)
        for t in range(50)
    ]
    assert _all_roots_digest(FairTreeCertificate, fair_cases) == (379, FAIR_ALL_ROOTS_SHA256)


# the same digest at k = 5 (the surd ledger) and k = 9 (a second square k),
# dumped while the fair ledger still kept Fractions at square k
FAIR_SURD_AND_SQUARE_SHA256 = "35e2d0fb22524c10470f0ed6b8de1d750e2671f52a688be8a309f544f4f276eb"


def test_fair_certificate_verdicts_are_pinned_at_k5_and_k9():
    cases = [_played("nf", nf_tree_worstcase(9, 1)), _played("ff", nf_tree_worstcase(9, 1)),
             _played("nf", nf_tree_worstcase_rounded(5, 1)),
             _played("nf", nf_tree_worstcase_rounded(5, 2))]
    cases += [
        _played(("nf", "ff", RandomFair())[t % 3], random_tree_sequence(t, 14, k), seed=t)
        for k in (5, 9)
        for t in range(20)
    ]
    assert _all_roots_digest(FairTreeCertificate, cases) == (767, FAIR_SURD_AND_SQUARE_SHA256)


def test_prepared_certificates_refuse_and_range_check():
    seq = RevealSequence(edges=[(0, 1), (1, 2)], k=2)
    rejected = engine.run(RejectAll(), seq)  # first-fit would color both edges
    with pytest.raises(ValueError):
        FFTreeCertificate(rejected, opt_tree(rejected.graph, 2))
    with pytest.raises(ValueError):
        FairTreeCertificate(rejected, opt_tree(rejected.graph, 2))
    trace = ff_trace([(0, 1), (1, 2), (3, 4), (2, 3)], 2)
    witness = opt_tree(trace.graph, 2)
    for certificate in (FFTreeCertificate(trace, witness), FairTreeCertificate(trace, witness)):
        for root in (-1, trace.graph.num_vertices):
            with pytest.raises(GraphError):
                certificate.charge(root)


@pytest.mark.parametrize("alg,certify", [("ff", FFTreeCertificate), ("nf", FairTreeCertificate)])
@pytest.mark.parametrize("edges,oracle", [
    ([(0, 1), (2, 3)], opt_tree),  # a forest of two edges
    ([(0, 1), (1, 2), (0, 2)], opt_bruteforce),  # a triangle, third edge rejected at k = 2
    ([], opt_tree),  # no edges, no vertices
])
def test_certificates_refuse_non_trees(alg, certify, edges, oracle):
    trace = engine.run(alg, RevealSequence(edges=edges, k=2))
    witness = oracle(trace.graph, 2)
    with pytest.raises(GraphError, match="^charging strategies for trees require a tree$"):
        certify(trace, witness)


def test_ff_strict_ratio_on_trees():
    rng = random.Random(57)
    for t in range(200):
        k = rng.choice([2, 3, 4])
        seq = random_tree_sequence(rng.randrange(10**9), 14, k)
        trace = engine.run("ff", seq)
        opt = opt_tree(trace.graph, k).count
        assert Fraction(trace.colored_count, opt) >= Fraction(k - 1, k)


def test_ff_charge_alternative_witnesses():
    """The certificate must hold against any maximum witness, not just the
    oracle's favourite; sweep all of them on small instances."""
    from itertools import combinations

    from palette.oracle import _colorable

    rng = random.Random(58)
    swept = 0
    for t in range(60):
        k = rng.choice([2, 3])
        seq = random_tree_sequence(rng.randrange(10**9), 7, k)
        trace = engine.run("ff", seq)
        g = trace.graph
        best = opt_tree(g, k).count
        if g.num_edges > 10:
            continue
        for subset in combinations(range(g.num_edges), best):
            coloring = _colorable(g, k, subset)
            if coloring is None:
                continue
            witness = OptWitness(frozenset(subset), coloring, best)
            assert ff_tree_charge(trace, witness).passed
            swept += 1
    assert swept > 50


# ---------------------------------------------------------------------------
# fair algorithms on trees


def test_fair_ratio_values():
    assert fair_ratio(4) == Fraction(2, 3)
    assert fair_ratio(9) == Fraction(4, 5)
    r = Sqrt5(0, 1)  # sqrt(5)
    assert fair_ratio(5) == (2 * r - 2) / (2 * r - 1)
    for k in range(1, 30):
        assert not isinstance(fair_ratio(k), float)


def test_fair_charge_tight_on_nf_worstcase():
    trace = engine.run("nf", nf_tree_worstcase(4, 6))
    report = fair_tree_charge(trace, opt_tree(trace.graph, 4))
    assert report.passed
    assert report.min_margin == 0


def test_fair_charge_tight_on_rounded_nf_worstcase():
    # non-square k: the ledger runs in a + b*sqrt(5) and still ends at zero exactly
    trace = engine.run("nf", nf_tree_worstcase_rounded(5, 10))
    report = fair_tree_charge(trace, opt_tree(trace.graph, 5))
    assert report.passed
    assert report.min_margin == 0
    assert not any(isinstance(r.v_f, float) for r in report.rows)


def test_fair_charge_margin_shrinks_with_size():
    mins = []
    for N in (2, 5):
        trace = engine.run("nf", nf_tree_worstcase(4, N))
        report = fair_tree_charge(trace, opt_tree(trace.graph, 4))
        assert report.passed
        mins.append(min(r.margin for r in report.rows if r.margin is not None))
    assert all(mg == 0 for mg in mins)  # the construction is tight at every size


def test_fair_charge_random_suite():
    rng = random.Random(60)
    for t in range(120):
        k = rng.choice([2, 3, 4, 5, 9])
        seq = random_tree_sequence(rng.randrange(10**9), 12, k)
        alg = rng.choice(["nf", "ff", None])
        trace = engine.run(alg or RandomFair(), seq, seed=t)
        report = fair_tree_charge(trace, opt_tree(trace.graph, k))
        assert report.passed


def test_fair_strict_ratio_on_trees():
    rng = random.Random(61)
    for t in range(100):
        k = rng.choice([4, 9])
        seq = random_tree_sequence(rng.randrange(10**9), 12, k)
        trace = engine.run(RandomFair(), seq, seed=t)
        opt = opt_tree(trace.graph, k).count
        assert Fraction(trace.colored_count, opt) >= fair_ratio(k)


def test_fair_charge_refuses_unfair_trace():
    seq = RevealSequence(edges=[(0, 1), (1, 2)], k=2)
    trace = engine.run(RejectAll(), seq)
    with pytest.raises(ValueError):
        fair_tree_charge(trace, opt_tree(trace.graph, 2))


def test_fair_path_floor():
    # on two-colorable paths every fair run keeps at least half of optimum
    rng = random.Random(62)
    for t in range(60):
        m = rng.randrange(1, 14)
        edges = harness.random_reveal(rng, path_edges(m))
        trace = engine.run(RandomFair(), RevealSequence(edges=edges, k=2), seed=t)
        assert 2 * trace.colored_count >= m


def case1_polynomial(k: int, z, C):
    """The case-1 quadratic in the colored-degree variable z.

    Evaluates (1-C) z^2 + ((2k-1)C - (2k-2)) z + (1-C)(k^2-k); its minimum
    over the reals is C*k, attained at z = k - sqrt(k) when k is square.
    """
    return (1 - C) * z * z + ((2 * k - 1) * C - (2 * k - 2)) * z + (1 - C) * (k * k - k)


def test_case1_polynomial_floor():
    for k in (4, 9, 16, 25):
        C = fair_ratio(k)
        s = math.isqrt(k)
        for z in range(k + 1):
            assert case1_polynomial(k, z, C) >= C * k
        assert case1_polynomial(k, k - s, C) == C * k


# ---------------------------------------------------------------------------
# the pair strategy on paths


def test_rp_ratio_formula():
    assert rp_competitive_ratio(Fraction(1)) == Fraction(2, 3)
    assert rp_competitive_ratio(Fraction(1, 2)) == Fraction(3, 4)
    assert rp_competitive_ratio(PHI_OVER_SQRT5) == Fraction(4, 5)


def test_rp_charge_worked_example():
    order = RevealSequence(edges=[(0, 1), (2, 3), (1, 2)], k=2)
    report = rp_path_charge(order, PHI_OVER_SQRT5)
    assert report.passed
    crit = next(r for r in report.rows if r.klass == "critical")
    assert crit.case == "2"
    assert crit.v_i == Fraction(3, 5)
    assert crit.v_f == Fraction(4, 5) and crit.margin == 0


paths_and_expected = [
    (rp_strategy_mod3(13), "1"),
    (rp_strategy_oddeven(13), "2"),
]


@pytest.mark.parametrize("order,case", paths_and_expected)
def test_rp_charge_case_structure(order, case):
    report = rp_path_charge(order, Fraction(7, 10))
    assert report.passed
    cases = {r.case for r in report.rows if r.klass == "critical"}
    assert cases == {case}


def test_rp_charge_p_one_always_passes():
    report = rp_path_charge(rp_strategy_oddeven(21), Fraction(1))
    assert report.passed
    # deterministic limit: same-parity criticals keep value one
    for r in report.rows:
        if r.klass == "critical":
            assert r.v_i == 1


def test_rp_charge_rejects_non_path():
    star = RevealSequence(edges=[(0, 1), (0, 2), (0, 3)], k=2)
    with pytest.raises(Exception):
        rp_path_charge(star, Fraction(7, 10))


def test_rp_charge_random_orders_at_optimum():
    rng = random.Random(63)
    for t in range(150):
        m = rng.randrange(1, 60)
        edges = harness.random_reveal(rng, path_edges(m))
        report = rp_path_charge(RevealSequence(edges=edges, k=2), PHI_OVER_SQRT5)
        assert report.passed


@pytest.mark.parametrize("build", [rp_strategy_mod3, rp_strategy_oddeven])
def test_rp_ledger_expectation_is_criterion_03_target(build):
    """The v_i of the ledger sum to the exact expected colored count: 2401 on
    both adversarial orders at m=3001 and the optimal bias."""
    report = rp_path_charge(build(3001), PHI_OVER_SQRT5)
    assert sum(r.v_i for r in report.rows) == 2401


def test_rp_charge_monte_carlo_initial_values():
    """Simulated per-edge colored frequencies agree with the analytic ledger."""
    order = rp_strategy_mod3(16)
    p = 0.7236068
    trials = 10_000
    freq = estimate_initial_values(engine.RandomParity(p), order, trials, seed=3)
    report = rp_path_charge(order, p)
    for row in report.rows:
        expect = float(row.v_i)
        sigma = math.sqrt(max(expect * (1 - expect), 1e-9) / trials)
        assert abs(freq[row.edge] - expect) <= 3 * sigma + 0.01


def test_compute_l_examples():
    # l, the depth of a non-critical edge in its run of non-critical edges
    order = RevealSequence(edges=[(0, 1), (1, 2), (2, 3), (3, 4)], k=2)
    assert [path_depth(order, i) for i in range(4)] == [1, 2, 3, 4]
    mixed = RevealSequence(edges=[(0, 1), (2, 3), (1, 2)], k=2)
    assert path_depth(mixed, 0) == 1
    assert critical_edges(mixed) == {2}
    with pytest.raises(ValueError):
        path_depth(mixed, 2)


def test_critical_edges_detection():
    order = RevealSequence(edges=[(0, 1), (2, 3), (1, 2)], k=2)
    assert critical_edges(order) == {2}
    chain = RevealSequence(edges=path_edges(5), k=2)
    assert critical_edges(chain) == set()


def test_rp_charge_bisection_matches_formula():
    tight = [rp_strategy_mod3(28), rp_strategy_oddeven(31)]
    for p in (Fraction(1, 2), Fraction(3, 5), Fraction(9, 10)):
        lo, hi = Fraction(0), Fraction(1)
        for _ in range(30):
            mid = (lo + hi) / 2
            if all(rp_path_charge(o, p, C=mid).passed for o in tight):
                lo = mid
            else:
                hi = mid
        assert abs(lo - rp_competitive_ratio(p)) < Fraction(1, 10**6)


RP_ROWS_SHA256 = "16443b0fe0b25b61d6ea0fedb26f49da9504f8f4737731e8c431845a098d90c2"


def test_rp_ledger_rows_are_pinned():
    """Every rp verdict (rows with exact value reprs) on random and adversarial
    path orders, for the optimal, rational, boundary and float biases, and at
    an explicit C that passes (at the optimal bias) and one that fails."""
    rng = random.Random(66)
    orders = [
        RevealSequence(edges=harness.random_reveal(rng, path_edges(rng.randrange(1, 40))), k=2)
        for _ in range(40)
    ]
    orders += [rp_strategy_mod3(13), rp_strategy_oddeven(13),
               rp_strategy_mod3(28), rp_strategy_oddeven(31)]
    runs = [(p, None) for p in (PHI_OVER_SQRT5, Fraction(7, 10), Fraction(1, 2),
                                Fraction(1), 0.7236068)]
    runs += [(PHI_OVER_SQRT5, Fraction(4, 5)), (Fraction(1, 2), Fraction(4, 5))]
    lines = []
    for p, C in runs:
        for order in orders:
            report = rp_path_charge(order, p, C=C)
            lines.append(f"{report.passed} {report.min_margin!r} {report.rows!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), sum(line.startswith("False") for line in lines), digest) == (
        308, 40, RP_ROWS_SHA256)


# ---------------------------------------------------------------------------
# verdicts decided in ledger units, rows built on first read


def test_sweeps_never_build_rows(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return EdgeReport(*args)

    monkeypatch.setattr(charging, "EdgeReport", counted)
    harness.exhaustive_trees(5, all_roots=True)
    harness.verify_fair_trees(20, 12, k=4, all_roots=True)
    assert built == []
    report = ff_tree_charge(*_played("ff", RevealSequence(edges=[(0, 1), (1, 2)], k=2)))
    assert report.rows is report.rows and len(built) == 2


def _assert_verdict_matches_rows(report):
    margins = [r.margin for r in report.rows if r.margin is not None]
    low = min(margins, default=None)
    assert report.min_margin == low and type(report.min_margin) is type(low)
    assert report.passed == (report.min_margin is None or report.min_margin >= 0)


def test_eager_verdict_matches_the_rows():
    for k in (2, 3, 4, 5, 9):
        for t in range(12):
            seq = random_tree_sequence(1000 * k + t, 10, k)
            for alg, certify in (("ff", FFTreeCertificate), ("nf", FairTreeCertificate),
                                 (RandomFair(), FairTreeCertificate)):
                certificate = certify(*_played(alg, seq, seed=t))
                for root in range(certificate.trace.graph.num_vertices):
                    _assert_verdict_matches_rows(certificate.charge(root))
    rng = random.Random(67)
    for _ in range(30):
        edges = harness.random_reveal(rng, path_edges(rng.randrange(1, 30)))
        for p, C in ((PHI_OVER_SQRT5, None), (Fraction(7, 10), None),
                     (Fraction(1, 2), Fraction(4, 5))):
            _assert_verdict_matches_rows(rp_path_charge(RevealSequence(edges=edges, k=2), p, C=C))


@pytest.mark.parametrize("alg,charge,certify", [("ff", ff_tree_charge, FFTreeCertificate),
                                                ("nf", fair_tree_charge, FairTreeCertificate)])
def test_unread_rows_do_not_keep_the_certificate_alive(monkeypatch, alg, charge, certify):
    refs = []

    class Watched(certify):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(charging, certify.__name__, Watched)
    trace, witness = _played(alg, nf_tree_worstcase(4, 2))
    report = charge(trace, witness)
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
    assert report.rows == certify(trace, witness).charge(0).rows


# -- the ledger guards: each doctored ledger trips its ChargingError -------------


def test_close_refuses_a_ledger_that_leaked_value():
    with pytest.raises(charging.ChargingError, match="leaked value"):
        charging._close("ff-tree", 1, {0: "double"}, {}, [2], [1], 2, {0}, Fraction)


def _ff_certificate(route, edges, k):
    class Doctored(FFTreeCertificate):
        _route = route

    trace = engine.run("ff", RevealSequence(edges=edges, k=k))
    return Doctored(trace, opt_tree(trace.graph, k))


def test_ff_guard_vertex_holds_at_least_its_color():
    def empty_held(self, view, held, parent_of):
        routed = FFTreeCertificate._route(self, view, held, parent_of)
        held[:] = [0] * len(held)
        return routed

    with pytest.raises(charging.ChargingError, match="vertex 0 holds 0 < 1/2"):
        _ff_certificate(empty_held, [(0, 1)], 2).charge(0)


def test_ff_guard_high_colored_double_edge_is_fed():
    def credit_nothing(self, view, held, parent_of):
        return dict.fromkeys(self.color_of, 0)

    with pytest.raises(charging.ChargingError, match="routed only 0 < 1/3"):
        _ff_certificate(credit_nothing, [(0, 1), (0, 2), (3, 4), (2, 3)], 3).charge(0)


def test_fair_guard_child_endpoint_has_no_single_colored_edge():
    with pytest.raises(charging.ChargingError, match="has a single-colored edge"):
        charging._check_fair_case(4, fair_ratio(4), "1", {"d_c": 1, "d_d": 1},
                                  {"d_c": 2, "d_d": 1}, 0)


def test_fair_guard_case_chain_must_hold():
    with pytest.raises(charging.ChargingError, match="case-1 inequality chain failed"):
        charging._check_fair_case(4, fair_ratio(4), "1", {"d_c": 0, "d_d": 0},
                                  {"d_c": 0, "d_d": 0}, 0)
