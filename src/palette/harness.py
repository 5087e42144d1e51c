"""Experiment drivers: seeded ratio reports, exhaustive small-instance sweeps,
random instance generators, and the charging verification loops.

Everything here is reproducible: a report built twice from the same config
and seed serializes to identical CSV bytes.  Per-trial randomness is derived
from (seed, trial index), so results do not depend on evaluation order.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np

from . import adversaries, charging, engine
from .adversaries import RevealSequence, path_edges
from .graph import Graph, build_graph
from .oracle import opt_path, opt_tree, opt_value

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
        import csv

        w = csv.writer(out, lineterminator="\n")
        w.writerow(["construction", "algorithm", "k", "trial", "colored", "opt", "ratio"])
        for t, (colored, opt) in enumerate(self.per_trial):
            ratio = colored / opt if opt else 0.0
            w.writerow([self.construction, self.algorithm, self.k, t, colored, opt, ratio])

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
            lambda c, alg, rng: adversaries.path_then_stars(
                c.k, c.m, alg, trials=c.trials, seed=c.seed
            ),
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


def _require(config: ExperimentConfig, *names) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ValueError(f"construction {config.adversary!r} needs --{name}")


def construction_for(config: ExperimentConfig) -> Construction:
    """The registry entry config.adversary names, once every flag it needs is set."""
    spec = CONSTRUCTIONS.get(config.adversary)
    if spec is None:
        raise ValueError(
            f"unknown construction {config.adversary!r}; "
            f"choices: {', '.join(sorted(CONSTRUCTIONS))}"
        )
    _require(config, *spec.needed)
    return spec


def run_experiment(config: ExperimentConfig) -> RatioReport:
    """Play the configured matchup and aggregate colored/opt over trials.

    Deterministic algorithm on a fixed construction runs once; a sampled
    run (randomized algorithm or resampled construction) runs config.trials
    >= 2 times with per-trial derived seeds, and only it reports a spread.  A
    biased-pair run on a fixed path order is delegated to the vectorized
    path runner, which is decision-for-decision equivalent to the engine.
    The report carries the k the script actually played, and a bound only
    when the construction's bound is proven for the configured algorithm.
    """
    spec = construction_for(config)
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

    params = {
        name: getattr(config, name)
        for name in ("m", "n", "N", "b")
        if getattr(config, name) is not None
    }
    if config.p is not None:
        params["p"] = config.p

    per_trial: list[tuple[int, int]] = []
    fixed_script = None
    if not spec.resamples:
        fixed_script = spec.build(config, algorithm, None)

    if (
        isinstance(fixed_script, RevealSequence)
        and not algorithm.deterministic
        and isinstance(algorithm, engine.RandomParity)
        and fixed_script.graph().classify() == "path"
    ):
        opt = opt_value(fixed_script.graph(), fixed_script.k)
        counts = engine.rp_path_colored_counts(
            fixed_script.edges, config.p, trials, seed=_int_seed(config.seed)
        )
        per_trial = [(int(c), opt) for c in counts]
        k = fixed_script.k
    else:
        for t in range(trials):
            script = fixed_script
            if spec.resamples:
                script = spec.build(
                    config, algorithm, engine.derive_rng(config.seed, "adv", t)
                )
            trace = engine.run(
                algorithm.clone(), script, rng=engine.derive_rng(config.seed, "alg", t)
            )
            per_trial.append((trace.colored_count, opt_value(trace.graph, trace.k)))
            k = trace.k

    colored = np.array([c for c, _ in per_trial], dtype=float)
    mean = float(colored.mean())
    stderr = float(colored.std(ddof=1) / math.sqrt(len(colored))) if sampled else None
    tally = Counter(per_trial)
    ratio = sum(Fraction(c, o) * n for (c, o), n in tally.items()) / len(per_trial)
    mean_opt = Fraction(sum(o * n for (_, o), n in tally.items()), len(per_trial))
    proven = spec.proven_for is None or config.algorithm in spec.proven_for
    return RatioReport(
        construction=config.adversary,
        algorithm=config.algorithm,
        k=k,
        params=params,
        trials=trials,
        seed=config.seed,
        colored_mean=mean,
        colored_stderr=stderr,
        opt=float(mean_opt),
        ratio=ratio,
        bound=spec.bound(config, mean_opt) if proven else None,
        per_trial=per_trial,
    )


def _int_seed(seed) -> int:
    if seed is None:
        return 0
    if isinstance(seed, int):
        return seed
    digest = hashlib.sha256(str(seed).encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# the randomized path-order distribution, with per-round memoization


def yao_experiment(
    b: int, algorithms=("ff", "nf"), trials: int = 100_000, seed=0
) -> list[RatioReport]:
    """Sample the path-order distribution and report each algorithm's mean.

    The sampled instance depends only on the round count L, and the
    algorithms allowed here are deterministic, so each distinct L is played
    once and weighted by its empirical frequency; the result is identical to
    running every sample, including the spread.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if trials < 2:
        raise ValueError(f"the sampled distribution needs trials >= 2, got {trials}")
    for name in algorithms:
        if not engine.make_algorithm(name, 0.5).deterministic:
            raise ValueError("the distribution experiment needs deterministic algorithms")
    rng = engine.derive_rng(seed, "yao", b)
    draws = Counter(
        adversaries.sample_subphase_count(b, rng) for _ in range(trials)
    )
    a = 3**b
    opt = a - 2
    bound = yao_colored_bound(b)
    reports = []
    for name in algorithms:
        colored_by_round = {}
        for L in sorted(draws):
            seq = adversaries.yao_instance(b, L).reveal_sequence()
            colored_by_round[L] = engine.run(name, seq).colored_count
        values = np.array(
            [colored_by_round[L] for L in sorted(draws) for _ in range(draws[L])],
            dtype=float,
        )
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(trials))
        total = sum(colored_by_round[L] * n for L, n in draws.items())
        reports.append(
            RatioReport(
                construction="yao",
                algorithm=name,
                k=2,
                params={"b": b},
                trials=trials,
                seed=seed,
                colored_mean=mean,
                colored_stderr=stderr,
                opt=float(opt),
                ratio=Fraction(total, trials * opt),
                bound=bound / opt,
                per_trial=[(colored_by_round[L], opt) for L in sorted(draws)],
            )
        )
    return reports


# ---------------------------------------------------------------------------
# exhaustive small-instance sweeps


@dataclass
class ExhaustiveSummary:
    mode: str
    max_edges: int
    k: int
    algorithm: str
    instances: int
    min_ratio: Fraction
    bound: Fraction
    witness: list[tuple[int, int]]  # a reveal order attaining min_ratio
    charge_failures: int = 0

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


def exhaustive_paths(max_edges: int, k: int, algorithm: str = "ff") -> ExhaustiveSummary:
    """Minimum colored/opt of a deterministic algorithm over every reveal
    order of every path with up to max_edges edges."""
    if not 1 <= max_edges <= ORDER_EXHAUSTIVE_LIMIT:
        raise ValueError(f"order-exhaustive mode takes 1 to {ORDER_EXHAUSTIVE_LIMIT} edges")
    if k < 2:
        raise ValueError(f"the path floors are proven for k >= 2, got k={k}")
    alg = engine.make_algorithm(algorithm, None)
    if not alg.deterministic:
        raise ValueError("exhaustive path mode enumerates deterministic algorithms only")
    best: tuple[Fraction, list] | None = None
    instances = 0
    for m in range(1, max_edges + 1):
        opt = opt_path(m, k)
        for perm in permutations(range(1, m + 1)):
            edges = [(i - 1, i) for i in perm]
            trace = engine.run(alg.clone(), RevealSequence(edges=edges, k=k))
            ratio = Fraction(trace.colored_count, opt)
            instances += 1
            if best is None or ratio < best[0]:
                best = (ratio, edges)
    bound = Fraction(k, 2 * k - 1) if algorithm == "ff" else Fraction(1, 2)
    return ExhaustiveSummary(
        mode="path",
        max_edges=max_edges,
        k=k,
        algorithm=algorithm,
        instances=instances,
        min_ratio=best[0],
        bound=bound,
        witness=best[1],
    )


def exhaustive_fair_paths(max_edges: int, k: int = 2) -> ExhaustiveSummary:
    """Minimum ratio over every reveal order and every fair decision branch.

    Fair means: color whenever any color is open at both endpoints (the
    choice of color is the branch), reject only when forced.  Runs on a
    flat per-position array rather than the engine, so it doubles as an
    independent check of the fair floor.
    """
    if not 1 <= max_edges <= ORDER_EXHAUSTIVE_LIMIT:
        raise ValueError(f"order-exhaustive mode takes 1 to {ORDER_EXHAUSTIVE_LIMIT} edges")
    best: tuple[Fraction, list] | None = None
    instances = 0

    def explore(order, colors, i, colored):
        nonlocal best, instances
        if i == len(order):
            instances += 1
            ratio = Fraction(colored, opt)
            if best is None or ratio < best[0]:
                best = (ratio, [(p - 1, p) for p in order])
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
    return ExhaustiveSummary(
        mode="fair-path",
        max_edges=max_edges,
        k=k,
        algorithm="any-fair",
        instances=instances,
        min_ratio=best[0],
        bound=Fraction(1, 2),
        witness=best[1],
    )


# -- canonical enumeration of tree reveal orders ----------------------------


def _canonical_form(seq) -> tuple:
    """Lexicographically least relabeling of an ordered edge sequence.

    Relabelings must map the i-th edge to the i-th edge; labels are forced
    to appear in first-use order, so the only freedom is which endpoint of
    each fresh-fresh edge gets the smaller label.
    """
    m = len(seq)
    best: list[tuple[int, int] | None] = [None]

    def rec(i, mapping, acc):
        if i == m:
            cand = tuple(acc)
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        u, v = seq[i]
        mu, mv = mapping.get(u), mapping.get(v)
        options = []
        if mu is not None and mv is not None:
            options.append(((min(mu, mv), max(mu, mv)), ()))
        elif mu is not None:
            nv = len(mapping)
            options.append(((min(mu, nv), max(mu, nv)), ((v, nv),)))
        elif mv is not None:
            nu = len(mapping)
            options.append(((min(mv, nu), max(mv, nu)), ((u, nu),)))
        else:
            n1, n2 = len(mapping), len(mapping) + 1
            options.append(((n1, n2), ((u, n1), (v, n2))))
            options.append(((n1, n2), ((u, n2), (v, n1))))
        for pair, additions in options:
            if best[0] is not None:
                prefix = best[0][: i + 1]
                if tuple(acc) + (pair,) > prefix:
                    continue
            for key, val in additions:
                mapping[key] = val
            acc.append(pair)
            rec(i + 1, mapping, acc)
            acc.pop()
            for key, _ in additions:
                del mapping[key]

    rec(0, {}, [])
    return best[0]


def _is_canonical(seq) -> bool:
    normalized = tuple((min(u, v), max(u, v)) for u, v in seq)
    return _canonical_form(seq) == normalized


def tree_reveal_orders(m: int):
    """Every reveal order of every tree with m edges, one per isomorphism class.

    Sequences are canonical: vertices are numbered by first appearance and
    each prefix is the lexicographically least relabeling of itself (prefixes
    of canonical sequences are canonical, so growing only canonical prefixes
    reaches every class exactly once).  Two labeled (tree, order) pairs
    related by a vertex bijection behave identically for any online
    algorithm, so enumerating classes covers all labeled instances.
    """
    if m == 0:
        return

    def rec(seq, comp):
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
            seq.append(edge)
            if _is_canonical(seq):
                yield from rec(seq, comp2)
            seq.pop()

    yield from rec([], [])


def exhaustive_trees(
    max_edges: int, ks=(2, 3), *, all_roots: bool = False
) -> list[ExhaustiveSummary]:
    """First-fit over every tree reveal order (up to isomorphism) per k.

    Checks the colored count against the (k-1)/k floor and certifies every
    instance where the optimum keeps a rejected edge (instances without such
    edges pass vacuously).  all_roots re-certifies from every root, covering
    every labeled instance's default-root run.
    """
    if not 1 <= max_edges <= ORDER_EXHAUSTIVE_LIMIT:
        raise ValueError(f"order-exhaustive mode takes 1 to {ORDER_EXHAUSTIVE_LIMIT} edges")
    _check_tree_k(*ks)
    # the classes do not depend on k: enumerate them once and play each for every k
    best: list[tuple[Fraction, list] | None] = [None] * len(ks)
    instances = [0] * len(ks)
    tallies = [VerifySummary("ff-tree") for _ in ks]
    for m in range(1, max_edges + 1):
        for edges in tree_reveal_orders(m):
            for i, k in enumerate(ks):
                trace = engine.run("ff", RevealSequence(edges=edges, k=k))
                witness = opt_tree(trace.graph, k)
                ratio = Fraction(trace.colored_count, witness.count)
                instances[i] += 1
                if best[i] is None or ratio < best[i][0]:
                    best[i] = (ratio, edges)
                if witness.edges - set(trace.coloring.colored_edges()):
                    certificate = charging.FFTreeCertificate(trace, witness)
                    for report in _charge_roots(certificate, all_roots):
                        tallies[i].add(report)
    return [
        ExhaustiveSummary(
            mode="tree",
            max_edges=max_edges,
            k=k,
            algorithm="ff",
            instances=instances[i],
            min_ratio=best[i][0],
            bound=Fraction(k - 1, k),
            witness=best[i][1],
            charge_failures=tallies[i].failures,
        )
        for i, k in enumerate(ks)
    ]


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


def _charge_roots(certificate, all_roots: bool):
    """The prepared tree certificate's verdicts: from every root when
    all_roots is set, else from root 0."""
    roots = range(certificate.trace.graph.num_vertices) if all_roots else (0,)
    return (certificate.charge(root) for root in roots)


# strategy name -> (algorithm that plays, certificate that judges it)
TREE_CERTIFICATES = {
    "ff-tree": ("ff", charging.FFTreeCertificate),
    "fair-tree": ("nf", charging.FairTreeCertificate),
}


def verify_trees(
    strategy: str, count: int, max_edges: int, k: int, seed=0, *, all_roots: bool = False
) -> VerifySummary:
    """Charge the strategy's algorithm on random trees with random reveal orders."""
    _check_sweep(count, max_edges)
    _check_tree_k(k)
    algorithm, certify = TREE_CERTIFICATES[strategy]
    tally = VerifySummary(strategy, count)
    for t in range(count):
        rng = engine.derive_rng(seed, strategy, t)
        m = rng.randrange(1, max_edges + 1)
        edges = random_reveal(rng, random_tree_edges(rng, m))
        trace = engine.run(algorithm, RevealSequence(edges=edges, k=k))
        for report in _charge_roots(certify(trace, opt_tree(trace.graph, k)), all_roots):
            tally.add(report)
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
    certificate = charging.FairTreeCertificate(trace, opt_tree(trace.graph, trace.k))
    [report] = _charge_roots(certificate, all_roots=False)
    return report
