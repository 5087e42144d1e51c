"""Experiment drivers: seeded ratio reports, exhaustive small-instance sweeps,
random instance generators, and the charging verification loops.

Everything here is reproducible: a report built twice from the same config
and seed serializes to identical CSV bytes.  Per-trial randomness is derived
from (seed, trial index), or, for the yao round counts, read from one seeded
stream in trial order, so results do not depend on evaluation order.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from . import adversaries, charging, engine
from .adversaries import RevealSequence, path_edges
from .oracle import opt_path, opt_tree

ORDER_EXHAUSTIVE_LIMIT = 8


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
    per_trial: list[tuple[int, int]] = field(default_factory=list)  # (colored, opt)

    @property
    def margin(self) -> Fraction | None:
        return None if self.bound is None else self.bound - self.ratio

    def violates_bound(self) -> bool:
        """True when the observed ratio exceeds the construction's ceiling:
        exactly for a run without spread, by more than three standard errors
        for a sampled mean."""
        if self.bound is None or self.ratio <= self.bound:
            return False
        slack = 0.0
        if self.colored_stderr is not None and self.opt > 0:
            slack = 3 * self.colored_stderr / self.opt
        return self.ratio - self.bound > slack

    def write_csv(self, out) -> None:
        write_ratio_csv([self], out)

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
            note="adaptive tree capping any algorithm at k/(k+1)",
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
            lambda c, alg, rng: adversaries.yao_sample(c.b, rng).reveal_sequence(),
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
    """Play the configured matchup and aggregate colored/opt over trials.

    Deterministic algorithm on a fixed construction runs once; a sampled
    run (randomized algorithm or resampled construction) runs config.trials
    >= 2 times with per-trial derived seeds, and only it reports a spread.  A
    biased-pair run on a fixed path order is delegated to the vectorized
    path runner, which is decision-for-decision equivalent to the engine,
    and the resampled yao distribution is drawn and played exactly as
    yao_experiment does.  The report carries the k the script actually
    played, and a bound only when the construction's bound is proven for
    the configured algorithm.  Like construction_for, it refuses what the
    matchup never reads: p is read by rp alone.
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
        draws = _yao_draws(config.b, trials, config.seed)
        per_trial = _yao_outcomes(config.algorithm, config.b, draws)
        return _ratio_report(config, 2, per_trial, sampled)
    script = spec.build(config, algorithm, None)
    if isinstance(script, RevealSequence) and isinstance(algorithm, engine.RandomParity):
        counts = engine.rp_path_colored_counts(
            script.edges, config.p, trials, seed=_int_seed(config.seed)
        ).tolist()
        opt = opt_path(len(script.edges), script.k)  # the kernel refuses a non-path
        shared = {c: (c, opt) for c in set(counts)}
        return _ratio_report(config, script.k, [shared[c] for c in counts], sampled)
    per_trial = []
    for t in range(trials):
        trace = engine.run(algorithm, script, rng=engine.derive_rng(config.seed, "alg", t))
        # every construction reveals a forest, whatever the opponent decides
        per_trial.append((trace.colored_count, opt_tree(trace.graph, trace.k).count))
    return _ratio_report(config, trace.k, per_trial, sampled)


def _ratio_report(config: ExperimentConfig, k: int, per_trial, sampled: bool) -> RatioReport:
    """The report on per-trial (colored, opt) outcomes, in trial order.  Every
    statistic comes exactly from their tally: the means are rounded once, and
    the standard error is the float root of the exact sample variance."""
    tally = Counter(per_trial)
    n = len(per_trial)
    total = sum(c * w for (c, _), w in tally.items())
    stderr = None
    if sampled:
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
        per_trial=per_trial,
    )


def _int_seed(seed) -> int:
    """The non-negative int `SeedSequence` takes: a non-negative int as is, any
    other seed hashed from its text."""
    if seed is None:
        return 0
    if isinstance(seed, int) and seed >= 0:
        return seed
    digest = hashlib.sha256(str(seed).encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# the randomized path-order distribution, with per-round memoization


def _yao_draws(b: int, trials: int, seed) -> list[int]:
    """The round count L of every trial, in trial order."""
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    rng = engine.derive_rng(seed, "yao", b)
    return [adversaries.sample_subphase_count(b, rng) for _ in range(trials)]


def _yao_outcomes(algorithm: str, b: int, draws: list[int]) -> list[tuple[int, int]]:
    """Per-trial (colored, opt) of a deterministic algorithm on the drawn
    instances; the instance depends only on L, so each distinct L is played
    once and its outcome shared by every trial that drew it."""
    shared = {}
    for L in set(draws):
        seq = adversaries.yao_instance(b, L).reveal_sequence()
        shared[L] = (engine.run(algorithm, seq).colored_count, opt_path(len(seq.edges), seq.k))
    return [shared[L] for L in draws]


def yao_experiment(
    b: int, algorithms=("ff", "nf"), trials: int = 100_000, seed=0
) -> list[RatioReport]:
    """Sample the path-order distribution and report each algorithm's mean
    over one shared set of draws."""
    if trials < 2:
        raise ValueError(f"the sampled distribution needs trials >= 2, got {trials}")
    for name in algorithms:
        if not engine.make_algorithm(name, 0.5).deterministic:
            raise ValueError("the distribution experiment needs deterministic algorithms")
    draws = _yao_draws(b, trials, seed)
    return [
        _ratio_report(
            ExperimentConfig(algorithm=name, adversary="yao", b=b, trials=trials, seed=seed),
            2, _yao_outcomes(name, b, draws), sampled=True,
        )
        for name in algorithms
    ]


# ---------------------------------------------------------------------------
# exhaustive small-instance sweeps


@dataclass
class ExhaustiveSummary:
    """Running tally of an exhaustive sweep: built empty, then every instance
    is folded in through `add`.  Tree sweeps also fold their certificate
    verdicts into `charges`."""

    mode: str
    max_edges: int
    k: int
    algorithm: str
    bound: Fraction
    instances: int = 0
    min_ratio: Fraction | None = None
    witness: object = None  # the first reveal order attaining min_ratio
    charges: VerifySummary = field(default_factory=lambda: VerifySummary("ff-tree"))

    def add(self, colored: int, opt: int, order) -> None:
        self.instances += 1
        ratio = Fraction(colored, opt)
        if self.min_ratio is None or ratio < self.min_ratio:
            self.min_ratio, self.witness = ratio, order

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
    choice of color is the branch), reject only when forced.  Runs on a
    flat per-position array rather than the engine, so it doubles as an
    independent check of the fair floor.
    """
    _check_order_limit(max_edges)
    summary = ExhaustiveSummary("fair-path", max_edges, k, "any-fair", Fraction(1, 2))

    def explore(order, colors, i, colored):
        if i == len(order):
            summary.add(colored, opt, order)
            return
        pos = order[i]
        used = set()
        for npos in (pos - 1, pos + 1):
            c = colors.get(npos)
            if c:
                used.add(c)
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


def tree_reveal_orders(m: int):
    """Every reveal order of every tree with m edges, one per isomorphism class.

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
    if m == 0:
        return

    # fixers: the relabelings (label lists) that map seq onto itself
    def rec(seq, comp, fixers):
        if len(seq) == m:
            if len(set(comp)) == 1:
                yield list(seq)
            return
        remaining = m - len(seq)
        nverts = len(comp)
        candidates = []
        for u in range(nverts):  # attach a fresh leaf
            candidates.append(((u, nverts), comp + [comp[u]]))
        fresh = max(comp, default=-1) + 1  # isolated fresh edge
        candidates.append(((nverts, nverts + 1), comp + [fresh, fresh]))
        for u in range(nverts):  # join two components
            for v in range(u + 1, nverts):
                if comp[u] != comp[v]:
                    merged = [comp[u] if c == comp[v] else c for c in comp]
                    candidates.append(((u, v), merged))
        for edge, comp2 in candidates:
            if len(set(comp2)) - 1 > remaining - 1:
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
                yield from rec(seq, comp2, kept)
                seq.pop()

    yield from rec([], [], [[]])


def exhaustive_trees(
    max_edges: int, ks=(2, 3), *, all_roots: bool = False
) -> list[ExhaustiveSummary]:
    """First-fit over every tree reveal order (up to isomorphism) per k.

    Checks the colored count against the (k-1)/k floor and certifies every
    instance where the optimum keeps a rejected edge (instances without such
    edges pass vacuously).  all_roots re-certifies from every root, covering
    every labeled instance's default-root run.
    """
    _check_order_limit(max_edges)
    _check_tree_k(*ks)
    summaries = [ExhaustiveSummary("tree", max_edges, k, "ff", Fraction(k - 1, k)) for k in ks]
    # the classes do not depend on k: enumerate them once and play each for every k
    for m in range(1, max_edges + 1):
        for edges in tree_reveal_orders(m):
            for summary in summaries:
                trace = engine.run("ff", RevealSequence(edges=edges, k=summary.k))
                witness = opt_tree(trace.graph, summary.k)
                summary.add(trace.colored_count, witness.count, edges)
                if witness.edges - set(trace.coloring.colored_edges()):
                    _certify("ff-tree", trace, witness, all_roots, summary.charges)
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
    """Running tally of a certification sweep: the verdicts that failed and
    the exact minimum margin over all of them."""

    strategy: str
    instances: int = 0
    failures: int = 0
    min_margin: object | None = None

    def add(self, report: charging.VerdictReport) -> None:
        self.failures += not report.passed
        margin = report.min_margin
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
    for k in ks:
        if k < 2:
            raise ValueError(f"the tree floors need k >= 2, got k={k}")


# strategy name -> (algorithm that plays, certificate that judges it)
TREE_CERTIFICATES = {
    "ff-tree": ("ff", charging.FFTreeCertificate),
    "fair-tree": ("nf", charging.FairTreeCertificate),
}


def _certify(strategy: str, trace, witness, all_roots: bool, tally: VerifySummary) -> None:
    """Prepare the strategy's certificate on the trace once and fold its
    verdicts into the tally: from every root when all_roots is set, else
    from root 0."""
    certificate = TREE_CERTIFICATES[strategy][1](trace, witness)
    for root in range(trace.graph.num_vertices) if all_roots else (0,):
        tally.add(certificate.charge(root))


def verify_trees(
    strategy: str, count: int, max_edges: int, k: int, seed=0, *, all_roots: bool = False
) -> VerifySummary:
    """Charge the strategy's algorithm on random trees with random reveal orders."""
    _check_sweep(count, max_edges)
    _check_tree_k(k)
    algorithm = TREE_CERTIFICATES[strategy][0]
    tally = VerifySummary(strategy, count)
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
    """Charge first-fit runs on random trees with random reveal orders."""
    return verify_trees("ff-tree", count, max_edges, k, seed, all_roots=all_roots)


def verify_fair_trees(
    count: int, max_edges: int, k: int, seed=0, *, all_roots: bool = False
) -> VerifySummary:
    """Charge next-fit, a fair algorithm, on random trees."""
    return verify_trees("fair-tree", count, max_edges, k, seed, all_roots=all_roots)


def verify_rp_paths(count: int, max_edges: int, p, seed=0) -> VerifySummary:
    """Run the analytic pair-strategy ledger on random path reveal orders."""
    _check_sweep(count, max_edges)
    tally = VerifySummary("rp-path", count)
    for t in range(count):
        rng = engine.derive_rng(seed, "rp-path", t)
        m = rng.randrange(1, max_edges + 1)
        edges = random_reveal(rng, path_edges(m))
        tally.add(charging.rp_path_charge(RevealSequence(edges=edges, k=2), p))
    return tally


def verify_construction(config: ExperimentConfig) -> charging.VerdictReport:
    """Let next-fit play the configured tree construction and charge the fair
    certificate from root 0; on the nf-tree family the minimum margin is 0."""
    nf = engine.make_algorithm("nf")
    trace = engine.run(nf, construction_for(config).build(config, nf, None))
    return charging.FairTreeCertificate(trace, opt_tree(trace.graph, trace.k)).charge(0)
