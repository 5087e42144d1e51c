"""Experiment drivers: seeded ratio reports, exhaustive small-instance sweeps,
random instance generators, and the charging verification loops.

Everything here is reproducible: a report built twice from the same config
and seed serializes to identical CSV bytes.  Per-trial randomness is derived
from (seed, trial index), or, for the yao round counts, read from one seeded
stream in trial order, so results do not depend on evaluation order.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from . import adversaries, charging, engine
from .adversaries import RevealSequence, path_edges
from .graph import PartialColoring, build_graph, tree_form
from .oracle import opt_path, opt_tree

ORDER_EXHAUSTIVE_LIMIT = 8
# a yao path has 3^b - 2 edges: `yao --b 12 --trials 1000` takes 14 s and 274 MB
# on 2 vCPUs, and each step of b costs about 3.5x the time and 2.3x the memory
YAO_B_LIMIT = 12


# ---------------------------------------------------------------------------
# configuration and reports


@dataclass
class ExperimentConfig:
    algorithm: str = "ff"
    p: float | None = None
    adversary: str = ""
    k: int = 2
    m: int | None = None
    n: int | None = None
    N: int | None = None
    b: int | None = None
    trials: int = 1
    seed: object = 0


@dataclass
class RatioReport:
    construction: str
    algorithm: str
    k: int
    params: dict
    trials: int
    seed: object
    colored_mean: float
    colored_stderr: float | None  # None exactly when the run is not sampled
    opt: float
    ratio: Fraction  # exact mean of colored/opt over the trials
    bound: Fraction | None  # None when no bound is proven for the algorithm
    expected: Fraction  # exact E[colored/opt] over the matchup's coins
    per_trial: list[tuple[int, int]] = field(default_factory=list)  # (colored, opt)

    @property
    def margin(self) -> Fraction | None:
        return None if self.bound is None else self.bound - self.ratio

    def violates_bound(self) -> bool:
        """True when the exact expected ratio exceeds the construction's
        ceiling; the sample describes the run but never judges it."""
        return self.bound is not None and self.expected > self.bound

    def summary(self) -> str:
        parts = [
            f"{self.construction} vs {self.algorithm} (k={self.k}",
            ", ".join(f"{key}={val}" for key, val in self.params.items()),
        ]
        head = parts[0] + (", " + parts[1] if parts[1] else "") + ")"
        body = f"colored {self.colored_mean:g}"
        if self.colored_stderr is not None:
            body += f" +- {self.colored_stderr:.3g} (stderr, {self.trials} trials)"
        body += f", opt {self.opt:g}, ratio {float(self.ratio):.6f}"
        if self.bound is not None:
            body += f", bound {float(self.bound):.6f}, margin {float(self.margin):+.6f}"
        else:
            body += f", no bound proven for {self.algorithm}"
        return head + ": " + body


def write_ratio_csv(reports: list[RatioReport], out) -> None:
    """One header, then every report's per-trial rows in order."""
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["construction", "algorithm", "k", "trial", "colored", "opt", "ratio"])
    for r in reports:
        for t, (colored, opt) in enumerate(r.per_trial):
            ratio = colored / opt if opt else 0.0
            w.writerow([r.construction, r.algorithm, r.k, t, colored, opt, ratio])


# ---------------------------------------------------------------------------
# construction registry


def yao_colored_bound(b: int) -> Fraction:
    """Expected-colored ceiling for any deterministic algorithm: 4a/5 + 1/(5*2^b) + 1."""
    a = 3**b
    return Fraction(4 * a, 5) + Fraction(1, 5 * 2**b) + 1


def _nf_tree_ceiling(c, opt):
    # next-fit's count on the bunch tree with star size s = ceil(sqrt(k));
    # nf-tree only accepts square k, where that is sqrt(k)
    s = math.isqrt(c.k - 1) + 1
    return Fraction(c.k * c.N * (c.k + s * s - 2 * s) + c.k - 1, int(opt))


@dataclass(frozen=True)
class Construction:
    name: str
    build: object  # (config, algorithm, rng) -> script; fixed orders ignore the algorithm
    needed: tuple[str, ...]
    bound: object  # (config, exact mean opt) -> Fraction
    resamples: bool = False  # a fresh instance per trial
    algorithms: tuple[str, ...] = ("ff", "nf", "rp")
    proven_for: tuple[str, ...] | None = None  # algorithms the bound holds for; None: all
    note: str = ""


CONSTRUCTIONS: dict[str, Construction] = {
    spec.name: spec
    for spec in [
        Construction(
            "nf-path-killer",
            lambda c, alg, rng: adversaries.nf_path_killer(c.m),
            ("m",),
            lambda c, opt: Fraction(c.m + 1, 2 * c.m + 1),
            proven_for=("nf",),
            note="path order that pins next-fit at (m+1)/(2m+1)",
        ),
        Construction(
            "det-path-killer",
            lambda c, alg, rng: adversaries.det_path_killer(c.n, alg),
            ("n",),
            lambda c, opt: Fraction(2 * c.n, 3 * c.n - 1),
            algorithms=("ff", "nf"),
            note="adaptive path capping deterministic algorithms at 2n/(3n-1)",
        ),
        Construction(
            "rp-mod3",
            lambda c, alg, rng: adversaries.rp_strategy_mod3(c.m),
            ("m",),
            lambda c, opt: (
                Fraction(2, 3) * (-Fraction(c.p) ** 2 + Fraction(c.p) + 1) * (c.m - 1) + 1
            ) / opt,
            proven_for=("rp",),
            note="path order hitting the mixed-parity branch of the rp ratio",
        ),
        Construction(
            "rp-oddeven",
            lambda c, alg, rng: adversaries.rp_strategy_oddeven(c.m),
            ("m",),
            lambda c, opt: (
                (Fraction(c.p) ** 2 - Fraction(c.p) + 1) * (c.m - 1) + 1
            ) / opt,
            proven_for=("rp",),
            note="path order hitting the equal-parity branch of the rp ratio",
        ),
        Construction(
            "star-chain",
            lambda c, alg, rng: adversaries.star_chain(c.k, c.N, alg),
            ("N",),
            lambda c, opt: Fraction(c.N * (c.k - 1) + 1, c.N * c.k),
            note="adaptive tree capping deterministic-or-fair algorithms at (k-1)/k",
        ),
        Construction(
            "path-then-stars",
            lambda c, alg, rng: adversaries.path_then_stars(c.k, c.m, alg),
            ("m",),
            lambda c, opt: Fraction(c.k, c.k + 1) + Fraction(c.k, (c.k + 1) * int(opt)),
            note="adaptive tree capping deterministic-or-fair algorithms at k/(k+1)",
        ),
        Construction(
            "nf-tree",
            lambda c, alg, rng: adversaries.nf_tree_worstcase(c.k, c.N),
            ("N",),
            _nf_tree_ceiling,
            algorithms=("nf",),
            note="square-k tree family pinning next-fit at its fair floor",
        ),
        Construction(
            "nf-tree-rounded",
            lambda c, alg, rng: adversaries.nf_tree_worstcase_rounded(c.k, c.N),
            ("N",),
            _nf_tree_ceiling,
            algorithms=("nf",),
            note="non-square variant of nf-tree using rounded-up star sizes",
        ),
        Construction(
            "yao",
            lambda c, alg, rng: adversaries.yao_sample(_check_yao_b(c.b), rng).reveal_sequence(),
            ("b",),
            lambda c, opt: yao_colored_bound(c.b) / opt,
            resamples=True,
            algorithms=("ff", "nf"),
            note="randomized path-order distribution; 4/5 ceiling for deterministic algorithms",
        ),
    ]
}


def construction_for(config: ExperimentConfig) -> Construction:
    """The registry entry config.adversary names, once every size parameter it
    needs is set and none it never reads is."""
    spec = CONSTRUCTIONS.get(config.adversary)
    if spec is None:
        raise ValueError(
            f"unknown construction {config.adversary!r}; "
            f"choices: {', '.join(sorted(CONSTRUCTIONS))}"
        )
    for name in spec.needed:
        if getattr(config, name) is None:
            raise ValueError(f"construction {config.adversary!r} needs --{name}")
    for name in ("m", "n", "N", "b"):
        if name not in spec.needed and getattr(config, name) is not None:
            raise ValueError(f"construction {config.adversary!r} does not read --{name}")
    return spec


def run_experiment(config: ExperimentConfig) -> RatioReport:
    """Play the configured matchup over its trials, with the exact expected
    colored/opt its verdict reads.  A sampled run (randomized algorithm or
    resampled construction) needs config.trials >= 2.  rp on a fixed path
    order runs on the vectorized path runner, decision-for-decision the
    engine's, and yao through yao_experiment; any other matchup is coin-free
    (deterministic, or fair against a script its coins cannot steer: see
    adversaries._require_coin_free_opponent), so one play is every trial's
    outcome.  The report carries the k the script played, and a bound only
    when it is proven for the algorithm.  Like construction_for, it refuses
    what the matchup never reads: p is read by rp alone.
    """
    spec = construction_for(config)
    if config.p is not None and config.algorithm != "rp":
        raise ValueError(f"--alg {config.algorithm} does not read --p")
    if config.trials < 1:
        raise ValueError(f"trials must be >= 1, got {config.trials}")
    if config.algorithm not in spec.algorithms:
        raise ValueError(
            f"construction {config.adversary!r} does not accept algorithm "
            f"{config.algorithm!r} (allowed: {', '.join(spec.algorithms)})"
        )
    algorithm = engine.make_algorithm(config.algorithm, config.p)
    sampled = not algorithm.deterministic or spec.resamples
    if sampled and config.trials < 2:
        raise ValueError(f"a sampled run needs trials >= 2 for its spread, got {config.trials}")
    trials = config.trials if sampled else 1

    if spec.resamples:
        return yao_experiment(config.b, (config.algorithm,), trials, config.seed)[0]
    script = spec.build(config, algorithm, None)
    if isinstance(script, RevealSequence) and isinstance(algorithm, engine.RandomParity):
        counts = engine.rp_path_colored_counts(
            script.edges, config.p, trials, seed=_int_seed(config.seed)
        ).tolist()
        opt = opt_path(len(script.edges), script.k)  # the kernel refuses a non-path
        shared = {c: (c, opt) for c in set(counts)}
        # an edge's initial ledger value is the probability rp colors it
        colored = charging.rp_path_charge(script, config.p).initial()
        return _ratio_report(config, script.k, [shared[c] for c in counts], Fraction(colored, opt))
    trace = engine.run(algorithm, script, rng=engine.derive_rng(config.seed, "alg", 0))
    # every construction reveals a forest, whatever the opponent decides
    colored, opt = trace.colored_count, opt_tree(trace.graph, trace.k).count
    return _ratio_report(config, trace.k, [(colored, opt)] * trials, Fraction(colored, opt))


def _ratio_report(config: ExperimentConfig, k: int, per_trial, expected: Fraction) -> RatioReport:
    """The report on per-trial (colored, opt) outcomes, in trial order.  Every
    statistic comes exactly from their tally: the means are rounded once, and
    a sampled run's standard error is the float root of the exact variance."""
    tally = Counter(per_trial)
    n = len(per_trial)
    total = sum(c * w for (c, _), w in tally.items())
    stderr = None
    if n > 1:  # only a sampled run has more than one trial
        squares = sum(c * c * w for (c, _), w in tally.items())
        variance = Fraction(n * squares - total * total, n * (n - 1))
        stderr = math.sqrt(variance) / math.sqrt(n)
    mean_opt = Fraction(sum(o * w for (_, o), w in tally.items()), n)
    spec = CONSTRUCTIONS[config.adversary]
    proven = spec.proven_for is None or config.algorithm in spec.proven_for
    params = {name: getattr(config, name) for name in spec.needed}
    if config.p is not None:
        params["p"] = config.p
    return RatioReport(
        construction=config.adversary,
        algorithm=config.algorithm,
        k=k,
        params=params,
        trials=n,
        seed=config.seed,
        colored_mean=float(Fraction(total, n)),
        colored_stderr=stderr,
        opt=float(mean_opt),
        ratio=sum(Fraction(c, o) * w for (c, o), w in tally.items()) / n,
        bound=spec.bound(config, mean_opt) if proven else None,
        expected=expected,
        per_trial=per_trial,
    )


def _int_seed(seed) -> int:
    """The non-negative int `SeedSequence` takes: a non-negative int as is, any
    other seed hashed from its text."""
    if seed is None:
        return 0
    if isinstance(seed, int) and seed >= 0:
        return seed
    import hashlib
    digest = hashlib.sha256(str(seed).encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# the randomized path-order distribution, with per-round memoization


def _check_yao_b(b: int) -> int:
    if not 1 <= b <= YAO_B_LIMIT:
        raise ValueError(f"b must be >= 1 and <= {YAO_B_LIMIT} (3^b - 2 path edges), got {b}")
    return b


def yao_experiment(
    b: int, algorithms=("ff", "nf"), trials: int = 100_000, seed=0
) -> list[RatioReport]:
    """Sample the path-order distribution and report each algorithm's mean
    over one shared set of draws, one round count L per trial from one
    seeded stream.  The instance depends only on L, so each L in 0..b-1 is
    played once per algorithm, shared by every trial that drew it and
    weighted by P[L] = 2^-min(L+1, b-1) in the exact expectation."""
    if trials < 2:
        raise ValueError(f"the sampled distribution needs trials >= 2, got {trials}")
    if len(set(algorithms)) != len(algorithms):
        raise ValueError(f"each algorithm may be listed once, got {list(algorithms)}")
    for name in algorithms:
        if not engine.make_algorithm(name, 0.5).deterministic:
            raise ValueError("the distribution experiment needs deterministic algorithms")
    rng = engine.derive_rng(seed, "yao", _check_yao_b(b))
    draws = [adversaries.sample_subphase_count(b, rng) for _ in range(trials)]
    reports = []
    for name in algorithms:
        shared = {}
        for L in range(b):
            seq = adversaries.yao_instance(b, L).reveal_sequence()
            shared[L] = (engine.run(name, seq).colored_count, opt_path(len(seq.edges), seq.k))
        expected = sum(Fraction(c, o * 2 ** min(L + 1, b - 1)) for L, (c, o) in shared.items())
        config = ExperimentConfig(algorithm=name, adversary="yao", b=b, trials=trials, seed=seed)
        reports.append(_ratio_report(config, 2, [shared[L] for L in draws], expected))
    return reports


# ---------------------------------------------------------------------------
# exhaustive small-instance sweeps


@dataclass
class ExhaustiveSummary:
    """Running tally of an exhaustive sweep: built empty, then every instance
    is folded in through `add`.  Tree sweeps also fold their certificate
    verdicts into `charges`, one instance per charged order."""

    mode: str
    max_edges: int
    k: int
    algorithm: str
    bound: Fraction
    instances: int = 0
    least: tuple[int, int] | None = None  # (colored, opt) of the least ratio so far
    witness: object = None  # the first reveal order attaining min_ratio
    charges: VerifySummary = field(default_factory=lambda: VerifySummary("ff-tree"))
    classes: int = 0  # the charged outcomes up to relabelling, one certificate each

    def add(self, colored: int, opt: int, order) -> None:
        """Fold in one instance; ratios are compared by cross-multiplying
        (opt > 0), and strict < keeps the first order on ties."""
        self.instances += 1
        least = self.least
        if least is None or colored * least[1] < least[0] * opt:
            self.least, self.witness = (colored, opt), order

    @property
    def min_ratio(self) -> Fraction | None:
        return None if self.least is None else Fraction(*self.least)

    @property
    def charge_failures(self) -> int:
        return self.charges.failures

    @property
    def passed(self) -> bool:
        return self.min_ratio >= self.bound and self.charge_failures == 0

    def summary(self) -> str:
        return (
            f"{self.mode} exhaustive, m<={self.max_edges}, k={self.k}, "
            f"{self.algorithm}: {self.instances} instances, min ratio "
            f"{self.min_ratio} (= {float(self.min_ratio):.6f}) vs floor "
            f"{self.bound} (= {float(self.bound):.6f}); "
            f"{self.charge_failures} charge failures"
        )


def _check_order_limit(max_edges: int) -> None:
    # every sweep checks its size first, before k and the algorithm
    if not 1 <= max_edges <= ORDER_EXHAUSTIVE_LIMIT:
        raise ValueError(f"order-exhaustive mode takes 1 to {ORDER_EXHAUSTIVE_LIMIT} edges")


def exhaustive_paths(max_edges: int, k: int, algorithm: str = "ff") -> ExhaustiveSummary:
    """Minimum colored/opt of a deterministic algorithm over every reveal
    order of every path with up to max_edges edges."""
    _check_order_limit(max_edges)
    if k < 2:
        raise ValueError(f"the path floors are proven for k >= 2, got k={k}")
    alg = engine.make_algorithm(algorithm, None)  # refuses rp, which needs a bias
    bound = Fraction(k, 2 * k - 1) if algorithm == "ff" else Fraction(1, 2)
    summary = ExhaustiveSummary("path", max_edges, k, algorithm, bound)
    for m in range(1, max_edges + 1):
        opt = opt_path(m, k)
        for perm in permutations(range(1, m + 1)):
            edges = [(i - 1, i) for i in perm]
            trace = engine.run(alg, RevealSequence(edges=edges, k=k))
            summary.add(trace.colored_count, opt, edges)
    return summary


def exhaustive_fair_paths(max_edges: int, k: int = 2) -> ExhaustiveSummary:
    """Minimum ratio over every reveal order and every fair decision branch.

    Fair means: color whenever any color is open at both endpoints (the
    choice of color is the branch), reject only when forced.  Its walker
    keeps a dict from path position to color rather than running the
    engine, so it doubles as an independent check of the fair floor.
    """
    _check_order_limit(max_edges)
    summary = ExhaustiveSummary("fair-path", max_edges, k, "any-fair", Fraction(1, 2))

    def explore(order, colors, i, colored):
        if i == len(order):
            summary.add(colored, opt, order)
            return
        pos = order[i]
        used = (colors.get(pos - 1), colors.get(pos + 1))
        open_colors = [c for c in range(1, k + 1) if c not in used]
        if not open_colors:
            explore(order, colors, i + 1, colored)
            return
        for c in open_colors:
            colors[pos] = c
            explore(order, colors, i + 1, colored + 1)
            del colors[pos]

    for m in range(1, max_edges + 1):
        opt = opt_path(m, k)
        for perm in permutations(range(1, m + 1)):
            explore(perm, {}, 0, 0)
    summary.witness = [(p - 1, p) for p in summary.witness]  # positions to path edges
    return summary


# -- canonical enumeration of tree reveal orders ----------------------------


class _FirstFitWalk:
    """First-fit at one k along the walker's prefix, each edge decided once,
    as the coloring `engine.FirstFit.decide` reads: flat used-color masks."""

    def __init__(self, m: int, k: int):
        self.used, self.all, self.colors = [0] * (m + 1), (1 << k) - 1, []

    def available_mask(self, seq, eid: int) -> int:
        u, v = seq[eid]
        return ~(self.used[u] | self.used[v]) & self.all

    def flip(self, u: int, v: int, c: int | None) -> None:
        if c:
            self.used[u] ^= 1 << c - 1
            self.used[v] ^= 1 << c - 1


def tree_reveal_orders(m: int, ks=()):
    """Every reveal order of every tree with m edges, one per isomorphism
    class, as (edges, [first-fit's `coloring.colors` at k for k in ks]).

    Sequences are canonical: vertices are numbered by first appearance and
    the sequence is the lexicographically least of its relabelings that keep
    that numbering.  Those relabelings only swap the two endpoints of
    fresh-fresh edges, and the prefixes of a canonical sequence are canonical,
    so the sweep grows canonical prefixes (orderly generation, R. C. Read,
    1978) and carries the swaps that map its prefix onto itself: a new edge
    keeps the sequence canonical exactly when none of them maps it below
    itself.  Two labeled (tree, order) pairs related by a vertex bijection
    behave identically for any online algorithm, so enumerating classes
    covers all labeled instances.
    """
    walks = [_FirstFitWalk(m, k) for k in ks]
    decide = engine.FirstFit().decide  # it reads only the coloring it is given

    # fixers: the relabelings (label lists) that map seq onto itself
    def rec(seq, comp, fixers):
        if len(seq) == m:
            if len(set(comp)) == 1:
                yield list(seq), [walk.colors[:] for walk in walks]
            return
        nverts = len(comp)
        fresh = max(comp, default=-1) + 1  # the component of an isolated fresh edge
        candidates = [((u, nverts), comp + [comp[u]]) for u in range(nverts)]  # a fresh leaf
        candidates.append(((nverts, nverts + 1), comp + [fresh, fresh]))
        candidates += [((u, v), [comp[u] if c == comp[v] else c for c in comp])  # a join
                       for u in range(nverts) for v in range(u + 1, nverts) if comp[u] != comp[v]]
        for edge, comp2 in candidates:
            if len(set(comp2)) > m - len(seq):
                continue  # not enough edges left to connect everything
            u, v = edge
            grown = list(range(nverts, len(comp2)))  # the edge's fresh vertices
            kept = []  # the fixers that also map the new edge onto itself
            for fix in fixers:
                label = fix + grown
                image = (label[u], label[v]) if label[u] < label[v] else (label[v], label[u])
                if image < edge:
                    break
                if image == edge:
                    kept.append(label)
            else:
                if len(grown) == 2:  # a fresh-fresh edge: its endpoints may swap too
                    kept += [fix + grown[::-1] for fix in fixers]
                seq.append(edge)
                for walk in walks:
                    walk.colors.append(decide(walk, seq, len(seq) - 1))
                    walk.flip(u, v, walk.colors[-1])
                yield from rec(seq, comp2, kept)
                for walk in walks:
                    walk.flip(u, v, walk.colors.pop())
                seq.pop()

    yield from rec([], [], [[]])


def exhaustive_trees(
    max_edges: int, ks=(2, 3), *, all_roots: bool = False
) -> list[ExhaustiveSummary]:
    """First-fit over every tree reveal order (up to isomorphism) per k.

    Checks the colored count against the (k-1)/k floor and certifies every
    instance whose optimum keeps a rejected edge, the others passing (opt is
    skipped where all m edges are colored), with one certificate per outcome
    up to isomorphism (`tree_form`) and an `audit` per order.  all_roots
    certifies from every root, as every labeled instance's run.  ks names each k once.
    """
    _check_order_limit(max_edges)
    if not ks or len(set(ks)) != len(ks):
        raise ValueError(f"ks must name at least one k, each once, got {list(ks)}")
    _check_tree_k(*ks)
    summaries = [ExhaustiveSummary("tree", max_edges, k, "ff", Fraction(k - 1, k)) for k in ks]
    ledger = {}  # (k, outcome form) -> the tally of its one certificate
    for m in range(1, max_edges + 1):
        for edges, decisions in tree_reveal_orders(m, ks):
            g = build_graph(edges)
            for summary, colors in zip(summaries, decisions):
                if None not in colors:  # colored = m >= opt: the ratio is 1
                    summary.add(m, m, edges)
                    continue
                witness = opt_tree(g, summary.k)
                summary.add(m - colors.count(None), witness.count, edges)
                if None in map(colors.__getitem__, witness.edges):
                    coloring = PartialColoring(summary.k)
                    for eid, c in enumerate(colors):
                        coloring.reject(eid) if c is None else coloring.color(g, eid, c)
                    trace = engine.Trace("ff", g, coloring)
                    labels = [2 * (c or 0) + (e in witness.edges) for e, c in enumerate(colors)]
                    key = summary.k, tree_form(g, labels, centred=all_roots)
                    if key not in ledger:  # the first of its class builds the certificate
                        summary.classes += 1
                        ledger[key] = first = VerifySummary("ff-tree")
                        _certify("ff-tree", trace, witness, all_roots, first)
                    else:  # the others make its per-trace refusals and share its verdict
                        charging.FFTreeCertificate.audit(trace, witness)
                    summary.charges.fold(ledger[key].failures, ledger[key].min_margin)
    return summaries


# ---------------------------------------------------------------------------
# random instances


def random_tree_edges(rng, m: int) -> list[tuple[int, int]]:
    """Uniform labeled tree with m edges (sequence-decoded), natural order."""
    n = m + 1
    if m <= 0:
        return []
    if n == 2:
        return [(0, 1)]
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in code:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return edges


def random_reveal(rng, edges) -> list[tuple[int, int]]:
    order = list(edges)
    rng.shuffle(order)
    return order


# ---------------------------------------------------------------------------
# charging verification loops


@dataclass
class VerifySummary:
    """Running tally of a certification sweep: the instances folded in, the
    verdicts that failed and the exact minimum margin over all of them.  A
    tree sweep with all_roots counts one failure per failing (order, root)
    pair, else one per failing order (`_certify`)."""

    strategy: str
    instances: int = 0
    failures: int = 0
    min_margin: object | None = None

    def add(self, report: charging.VerdictReport) -> None:
        self.fold(not report.passed, report.min_margin)

    def fold(self, failures: int, margin) -> None:
        """Count one instance and its failed verdicts; keep the least exact margin."""
        self.instances += 1
        self.failures += failures
        if margin is not None and (self.min_margin is None or margin < self.min_margin):
            self.min_margin = margin

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        mm = self.min_margin
        mm = "n/a" if mm is None else f"{mm} (= {float(mm):.6f})"
        return (
            f"{self.strategy}: {self.instances} instances, "
            f"{self.failures} failures, min margin {mm}"
        )


def _check_sweep(count: int, max_edges: int) -> None:
    if count < 1:
        raise ValueError(f"need at least one random instance, got {count}")
    if max_edges < 1:
        raise ValueError(f"max_edges must be >= 1, got {max_edges}")


def _check_tree_k(*ks) -> None:
    # the floor (k-1)/k is 0 at k = 1, so such a sweep would certify nothing
    if min(ks) < 2:
        raise ValueError(f"the tree floors need k >= 2, got k={min(ks)}")


# strategy name -> (algorithm that plays, certificate that judges it)
TREE_CERTIFICATES = {
    "ff-tree": ("ff", charging.FFTreeCertificate),
    "fair-tree": ("nf", charging.FairTreeCertificate),
}


def _certify(
    strategy: str, trace, witness, all_roots: bool, tally: VerifySummary
) -> charging.VerdictReport | None:
    """Prepare the strategy's certificate on the trace once and fold its
    verdicts into the tally: from every root in one `charge_all` when
    all_roots is set (its failing roots and least margin, made exact once),
    else from root 0, whose verdict report it returns: the "charge failures"
    of a sweep count failing (order, root) pairs with all_roots and failing
    orders without it."""
    certificate = TREE_CERTIFICATES[strategy][1](trace, witness)
    if not all_roots:
        report = certificate.charge(0)
        tally.add(report)
        return report
    margins = [m for m in certificate.charge_all() if m is not None]
    tally.fold(sum(m < 0 for m in margins), certificate.exact(min(margins)) if margins else None)


def verify_trees(
    strategy: str, count: int, max_edges: int, k: int, seed=0, *, all_roots: bool = False
) -> VerifySummary:
    """Charge the strategy's algorithm on random trees with random reveal orders."""
    _check_sweep(count, max_edges)
    _check_tree_k(k)
    algorithm = TREE_CERTIFICATES[strategy][0]
    tally = VerifySummary(strategy)
    for t in range(count):
        rng = engine.derive_rng(seed, strategy, t)
        m = rng.randrange(1, max_edges + 1)
        edges = random_reveal(rng, random_tree_edges(rng, m))
        trace = engine.run(algorithm, RevealSequence(edges=edges, k=k))
        _certify(strategy, trace, opt_tree(trace.graph, k), all_roots, tally)
    return tally


def verify_ff_trees(
    count: int, max_edges: int, k: int, seed=0, *, all_roots: bool = False
) -> VerifySummary:
    """verify_trees("ff-tree", ...), kept for the benchmark and tests."""
    return verify_trees("ff-tree", count, max_edges, k, seed, all_roots=all_roots)


def verify_fair_trees(
    count: int, max_edges: int, k: int, seed=0, *, all_roots: bool = False
) -> VerifySummary:
    """verify_trees("fair-tree", ...), kept for the benchmark and tests."""
    return verify_trees("fair-tree", count, max_edges, k, seed, all_roots=all_roots)


def verify_rp_paths(count: int, max_edges: int, p, seed=0) -> VerifySummary:
    """Run the analytic pair-strategy ledger on random path reveal orders."""
    _check_sweep(count, max_edges)
    tally = VerifySummary("rp-path")
    for t in range(count):
        rng = engine.derive_rng(seed, "rp-path", t)
        m = rng.randrange(1, max_edges + 1)
        edges = random_reveal(rng, path_edges(m))
        tally.add(charging.rp_path_charge(RevealSequence(edges=edges, k=2), p))
    return tally


def verify_construction(
    config: ExperimentConfig, *, all_roots: bool = False
) -> charging.VerdictReport | VerifySummary:
    """Play the configured tree construction with the fair-tree strategy and
    charge it: from root 0 as a verdict report, or from every root as a tally
    of one instance.  On the nf-tree family the minimum margin is 0."""
    algorithm = engine.make_algorithm(TREE_CERTIFICATES["fair-tree"][0])
    trace = engine.run(algorithm, construction_for(config).build(config, algorithm, None))
    tally = VerifySummary("fair-tree")
    report = _certify("fair-tree", trace, opt_tree(trace.graph, trace.k), all_roots, tally)
    return tally if all_roots else report
