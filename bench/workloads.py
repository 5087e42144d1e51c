"""The three benchmark workloads.

Each workload has three parts:

* ``inputs(seed)`` generates the seeded inputs (counted in ``setup_s``);
* ``run(inputs)`` is one timed pass: it calls only palette's public API;
* ``check(inputs, results)`` runs after the timer stops.  It returns the
  output checks as (name, ok) pairs and the strings that make up the pass
  digest: exact verdicts, counts and margins written with ``repr``, so that a
  change to any output changes the digest.

Why these three (see also BENCHMARK.json):

* tree-sweep -- thousands of tiny instances, each first-fit certificate
  checked from every root; per-call overhead and work redone per root
  dominate.
* large-games -- one big instance per construction (20k-150k edges) with a
  single root certified and nothing enumerated; per-edge cost dominates.
* random-pair -- the vectorised random-pair kernel and the exact path
  ledger; no trees and no oracle DP.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from palette import adversaries, charging, engine, harness, oracle
from palette.exact import PHI_OVER_SQRT5

# a kernel mean further than this many standard errors from the formula fails;
# one process checks two means per seed, over many seeds
Z_LIMIT = 5


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    inputs: object  # seed -> dict
    run: object  # inputs -> dict
    check: object  # (inputs, results) -> (list[(name, ok)], list[str])


def _rows_digest(report) -> str:
    """Hash of every ledger row with its exact values."""
    h = hashlib.sha256()
    for r in report.rows:
        h.update(f"{r.edge},{r.klass},{r.v_i!r},{r.v_f!r},{r.margin!r},{r.case};".encode())
    return h.hexdigest()


def _decisions_digest(trace) -> str:
    return hashlib.sha256(repr([s.color for s in trace.steps]).encode()).hexdigest()


# ---------------------------------------------------------------------------
# tree-sweep

TREE_SIZES = {
    "exhaustive_max_edges": 6,
    "exhaustive_ks": (2, 3),
    "classes_per_k": 2648,
    "verify_count": 300,
    "verify_max_edges": 14,
    "verify_ff_k": 3,
    "verify_fair_k": 4,
}


def tree_inputs(seed: int) -> dict:
    return {"seed": seed}


def tree_run(inputs: dict) -> dict:
    s = TREE_SIZES
    return {
        "sweep": harness.exhaustive_trees(
            s["exhaustive_max_edges"], ks=s["exhaustive_ks"], all_roots=True
        ),
        "ff": harness.verify_ff_trees(
            s["verify_count"], s["verify_max_edges"], k=s["verify_ff_k"],
            seed=inputs["seed"], all_roots=True,
        ),
        "fair": harness.verify_fair_trees(
            s["verify_count"], s["verify_max_edges"], k=s["verify_fair_k"],
            seed=inputs["seed"], all_roots=True,
        ),
    }


def tree_check(inputs: dict, res: dict):
    s = TREE_SIZES
    checks, digest = [], []
    min_ratio = {2: Fraction(3, 4), 3: Fraction(5, 6)}
    ks = [summary.k for summary in res["sweep"]]
    checks.append(("sweep.ks", ks == list(s["exhaustive_ks"])))
    for summary in res["sweep"]:
        k = summary.k
        checks.append((f"sweep.k{k}.instances", summary.instances == s["classes_per_k"]))
        checks.append((f"sweep.k{k}.charge_failures", summary.charge_failures == 0))
        checks.append((f"sweep.k{k}.min_ratio", summary.min_ratio == min_ratio.get(k)))
        digest.append(
            f"sweep k={k} {summary.instances} {summary.min_ratio!r} "
            f"{summary.witness!r} {summary.charge_failures}"
        )
    for key in ("ff", "fair"):
        v = res[key]
        checks.append((f"verify.{key}.instances", v.instances == s["verify_count"]))
        checks.append((f"verify.{key}.failures", v.failures == 0))
        checks.append((f"verify.{key}.min_margin", v.min_margin is not None and v.min_margin >= 0))
        digest.append(f"{v.strategy} {v.instances} {v.failures} {v.min_margin!r}")
    return checks, digest


# ---------------------------------------------------------------------------
# large-games

LARGE_SIZES = {
    "nf_path_killer_m": 50_000,
    "det_path_killer_n": 50_000,
    "star_chain_k": 5,
    "star_chain_N": 5000,
    "nf_tree_k": 16,
    "nf_tree_N": 50,
}


def large_inputs(seed: int) -> dict:
    # the star chain's tie-break rng is rebuilt from this seed on every pass
    return {"star_seed": f"{seed}/star-chain"}


def large_run(inputs: dict) -> dict:
    s = LARGE_SIZES
    out = {}
    out["nf_path"] = engine.run("nf", adversaries.nf_path_killer(s["nf_path_killer_m"]))
    out["det_path"] = engine.run(
        "ff", adversaries.det_path_killer(s["det_path_killer_n"], "ff")
    )
    k, N = s["star_chain_k"], s["star_chain_N"]
    star = adversaries.star_chain(k, N, "ff", rng=random.Random(inputs["star_seed"]))
    trace = engine.run("ff", star)
    witness = oracle.opt_tree(trace.graph, k)
    out["star"] = (trace, witness, charging.ff_tree_charge(trace, witness))
    k = s["nf_tree_k"]
    trace = engine.run("nf", adversaries.nf_tree_worstcase(k, s["nf_tree_N"]))
    witness = oracle.opt_tree(trace.graph, k)
    out["nf_tree"] = (trace, witness, charging.fair_tree_charge(trace, witness))
    return out


@functools.cache
def _nf_tree_expected_colored(k: int, N: int) -> int:
    return adversaries.bunch_plan(k, N).expected_colored


def large_check(inputs: dict, res: dict):
    s = LARGE_SIZES
    checks, digest = [], []
    m = s["nf_path_killer_m"]
    nf = res["nf_path"]
    checks.append(("nf_path.edges", len(nf.steps) == 2 * m + 1))
    checks.append(("nf_path.colored", nf.colored_count == m + 1))
    n = s["det_path_killer_n"]
    det = res["det_path"]
    checks.append(("det_path.edges", len(det.steps) == 3 * n - 1))
    checks.append(("det_path.colored", det.colored_count <= 2 * n))
    k, N = s["star_chain_k"], s["star_chain_N"]
    trace, witness, report = res["star"]
    checks.append(("star.opt", witness.count == N * k))
    checks.append(("star.colored", trace.colored_count <= N * (k - 1) + 1))
    checks.append(("star.charge", report.passed))
    k = s["nf_tree_k"]
    nf_tree, nf_witness, fair = res["nf_tree"]
    expected = _nf_tree_expected_colored(k, s["nf_tree_N"])
    checks.append(("nf_tree.colored", nf_tree.colored_count == expected))
    checks.append(("nf_tree.charge", fair.passed))
    checks.append(("nf_tree.min_margin", fair.min_margin == 0))
    for name, t in (("nf_path", nf), ("det_path", det), ("star", trace), ("nf_tree", nf_tree)):
        digest.append(f"{name} {len(t.steps)} {t.colored_count} {_decisions_digest(t)}")
    for name, w, r in (("star", witness, report), ("nf_tree", nf_witness, fair)):
        digest.append(f"{name} opt {w.count} {r.passed} {r.min_margin!r} {_rows_digest(r)}")
    return checks, digest


# ---------------------------------------------------------------------------
# random-pair

RP_SIZES = {
    "kernel_p": 0.72360679,
    "kernel_m": 3001,
    "kernel_trials": 10_000,
    "ledger_orders": 300,
    "ledger_max_edges": 200,
    "ledger_C": "4/5",
    "verify_count": 300,
    "verify_max_edges": 200,
    "verify_p": 0.7236068,
    "yao_b": 7,
    "yao_trials": 100_000,
}
KERNEL_ORDERS = {
    "mod3": (adversaries.rp_strategy_mod3, lambda p: Fraction(2, 3) * (-p * p + p + 1)),
    "oddeven": (adversaries.rp_strategy_oddeven, lambda p: p * p - p + 1),
}


def rp_inputs(seed: int) -> dict:
    s = RP_SIZES
    rng = random.Random(f"{seed}/rp-ledger")
    orders = []
    for _ in range(s["ledger_orders"]):
        edges = adversaries.path_edges(rng.randrange(1, s["ledger_max_edges"] + 1))
        rng.shuffle(edges)
        orders.append(edges)
    return {"seed": seed, "orders": orders}


def rp_run(inputs: dict) -> dict:
    s = RP_SIZES
    seed = inputs["seed"]
    kernel = {}
    for i, (name, (build, _)) in enumerate(KERNEL_ORDERS.items()):
        seq = build(s["kernel_m"])
        kernel[name] = engine.rp_path_colored_counts(
            seq.edges, s["kernel_p"], s["kernel_trials"], seed=[seed, i]
        )
    C = Fraction(s["ledger_C"])
    ledgers = [charging.rp_path_charge(o, PHI_OVER_SQRT5, C=C) for o in inputs["orders"]]
    verify = harness.verify_rp_paths(
        s["verify_count"], s["verify_max_edges"], s["verify_p"], seed=seed
    )
    yao = harness.yao_experiment(s["yao_b"], trials=s["yao_trials"], seed=seed)
    return {"kernel": kernel, "ledgers": ledgers, "verify": verify, "yao": yao}


@functools.cache
def _yao_expectation(b: int, algorithm: str) -> tuple[Fraction, float]:
    """Exact mean and standard deviation of colored edges over the round count."""
    values = {
        L: engine.run(algorithm, adversaries.yao_instance(b, L).reveal_sequence()).colored_count
        for L in range(b)
    }
    prob = {L: Fraction(1, 2 ** (L + 1)) for L in range(b - 1)}
    prob[b - 1] = Fraction(1, 2 ** (b - 1))
    mean = sum(prob[L] * values[L] for L in range(b))
    var = sum(prob[L] * (values[L] - mean) ** 2 for L in range(b))
    return mean, math.sqrt(var)


def rp_check(inputs: dict, res: dict):
    s = RP_SIZES
    checks, digest = [], []
    p, m, trials = s["kernel_p"], s["kernel_m"], s["kernel_trials"]
    for name, (_, rate) in KERNEL_ORDERS.items():
        counts = res["kernel"][name]
        expected = float(rate(Fraction(p)) * (m - 1) + 1)
        stderr = float(counts.std(ddof=1)) / math.sqrt(trials)
        z = abs(float(counts.mean()) - expected) / stderr
        checks.append((f"kernel.{name}.trials", len(counts) == trials))
        checks.append((f"kernel.{name}.mean", z <= Z_LIMIT))
        digest.append(f"kernel {name} {hashlib.sha256(counts.tobytes()).hexdigest()}")
    for i, r in enumerate(res["ledgers"]):
        checks.append((f"ledger.{i}", r.passed and r.min_margin >= 0))
        digest.append(f"ledger {i} {r.passed} {r.min_margin!r} {_rows_digest(r)}")
    v = res["verify"]
    checks.append(("verify.instances", v.instances == s["verify_count"]))
    checks.append(("verify.failures", v.failures == 0))
    checks.append(("verify.min_margin", v.min_margin is not None and v.min_margin >= 0))
    digest.append(f"{v.strategy} {v.instances} {v.failures} {v.min_margin!r}")
    b = s["yao_b"]
    bound = harness.yao_colored_bound(b)
    for rep in res["yao"]:
        mean, sd = _yao_expectation(b, rep.algorithm)
        z = abs(rep.colored_mean - float(mean)) / (sd / math.sqrt(rep.trials))
        checks.append((f"yao.{rep.algorithm}.expectation", mean <= bound))
        checks.append((f"yao.{rep.algorithm}.mean", z <= Z_LIMIT))
        digest.append(f"yao {rep.algorithm} {rep.colored_mean!r} {rep.per_trial!r}")
    return checks, digest


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tree-sweep", TREE_SIZES, tree_inputs, tree_run, tree_check),
        Workload("large-games", LARGE_SIZES, large_inputs, large_run, large_check),
        Workload("random-pair", RP_SIZES, rp_inputs, rp_run, rp_check),
    )
}


def inputs_digest(inputs: dict) -> str:
    return hashlib.sha256(repr(sorted(inputs.items())).encode()).hexdigest()
