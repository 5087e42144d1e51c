"""Command-line experiment driver.

Subcommands: run, yao, exhaustive, verify, opt, nf-order, list.  Exit codes:
0 on success, 1 when a bound or charging verdict is violated, 2 on usage
errors.  The PALETTE_SEED environment variable overrides --seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import adversaries, engine, harness
from .graph import GraphError, build_graph, format_edge_list, parse_edge_list
from .oracle import opt_bruteforce, opt_tree


def _seed_from(args) -> object:
    env = os.environ.get("PALETTE_SEED")
    raw = env if env is not None else args.seed
    try:
        return int(raw)
    except (TypeError, ValueError):
        return raw


def _write_out(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _config_from(args) -> harness.ExperimentConfig:
    # verify and opt take no --alg or --trials, and opt no --p
    return harness.ExperimentConfig(
        algorithm=getattr(args, "alg", "ff"),
        p=getattr(args, "p", None),
        adversary=args.adv or "",
        k=args.k,
        m=args.m,
        n=args.n,
        N=args.N,
        b=args.b,
        trials=getattr(args, "trials", 1),
        seed=_seed_from(args),
    )


def cmd_run(args) -> int:
    report = harness.run_experiment(_config_from(args))
    print(report.summary())
    if args.out:
        with open(args.out, "w") as fh:
            report.write_csv(fh)
        print(f"wrote {args.out}")
    return 1 if report.violates_bound() else 0


def cmd_yao(args) -> int:
    algs = args.alg_list or ["ff", "nf"]
    reports = harness.yao_experiment(
        args.b, algorithms=algs, trials=args.trials, seed=_seed_from(args)
    )
    for report in reports:
        print(report.summary())
    if args.out:
        with open(args.out, "w") as fh:
            for report in reports:
                report.write_csv(fh)
        print(f"wrote {args.out}")
    return 1 if any(report.violates_bound() for report in reports) else 0


def cmd_exhaustive(args) -> int:
    if args.klass != "path" and args.alg != "ff":
        raise ValueError(
            f"--alg {args.alg} applies to --class path only; --class {args.klass} "
            f"sweeps {'first-fit' if args.klass == 'tree' else 'every fair algorithm'}"
        )
    if args.klass == "path":
        summaries = [harness.exhaustive_paths(args.max_edges, args.k, args.alg)]
    elif args.klass == "fair-path":
        summaries = [harness.exhaustive_fair_paths(args.max_edges, args.k)]
    else:
        summaries = harness.exhaustive_trees(
            args.max_edges, ks=(args.k,), all_roots=args.all_roots
        )
    ok = True
    for summary in summaries:
        print(summary.summary())
        if not summary.passed:
            ok = False
            print(f"  FLOOR VIOLATED by order {summary.witness}", file=sys.stderr)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    if args.adv is not None and args.strategy != "fair-tree":
        raise ValueError(
            f"--adv {args.adv} is played by next-fit and certified by fair-tree, "
            f"not {args.strategy}"
        )
    mode = f"--strategy {args.strategy} " + (f"--adv {args.adv}" if args.adv else "without --adv")
    unread = ["--m", "--n", "--b"]
    unread += ["--random", "--max-edges", "--all-roots"] if args.adv else ["--out", "--N"]
    unread += ["--k", "--all-roots"] if args.strategy == "rp-path" else ["--p"]
    for flag in unread:
        if getattr(args, flag[2:].replace("-", "_")) not in (None, False):
            raise ValueError(f"verify {mode} does not read {flag}")
    k = 2 if args.k is None else args.k
    if args.adv is not None:
        config = _config_from(args)
        config.k, config.N = k, 10 if args.N is None else args.N
        report = harness.verify_construction(config)
        print(
            f"{args.strategy} on {args.adv}(k={k}): passed={report.passed}, "
            f"min margin {report.min_margin}"
        )
        if args.out:
            with open(args.out, "w") as fh:
                report.write_csv(fh)
            print(f"wrote {args.out}")
        return 0 if report.passed else 1
    seed = _seed_from(args)
    count = 200 if args.random is None else args.random
    max_edges = 12 if args.max_edges is None else args.max_edges
    if args.strategy == "rp-path":
        p = args.p if args.p is not None else 0.7236068
        summary = harness.verify_rp_paths(count, max_edges, p, seed)
    else:
        summary = harness.verify_trees(
            args.strategy, count, max_edges, k, seed, all_roots=args.all_roots
        )
    print(summary.summary())
    return 0 if summary.passed else 1


def _instance_graph(args):
    if args.file:
        with open(args.file) as fh:
            edges = parse_edge_list(fh.read())
        return build_graph(edges)
    if args.adv:
        config = _config_from(args)
        spec = harness.construction_for(config)
        # a fixed order never reads the opponent, and an adaptive one is
        # refused below whichever opponent it gets
        opponent = engine.make_algorithm("ff")
        script = spec.build(config, opponent, engine.derive_rng(config.seed, "opt"))
        if not isinstance(script, adversaries.RevealSequence):
            raise ValueError(
                f"construction {args.adv!r} is adaptive; run it via 'run' instead"
            )
        return script.graph()
    raise ValueError("need --file or --adv to define the instance")


def cmd_opt(args) -> int:
    g = _instance_graph(args)
    witness = opt_tree(g, args.k) if g.is_forest() else opt_bruteforce(g, args.k)
    print(f"opt {witness.count} of {g.num_edges} edges (k={args.k})")
    if args.out:
        lines = ["step,u,v,decision,color"]
        for i, eid in enumerate(sorted(witness.edges)):
            u, v = g.endpoints(eid)
            lines.append(f"{i},{u},{v},C,{witness.coloring[eid]}")
        _write_out(args.out, "\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


NF_ORDER_COLUMNS = ("u", "v", "decision", "color")


def cmd_nf_order(args) -> int:
    import csv as _csv

    with open(args.file) as fh:
        reader = _csv.DictReader(fh)
        rows = list(reader)
    missing = [c for c in NF_ORDER_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"trace CSV {args.file} lacks column(s) {', '.join(missing)}")
    if any(row[c] is None for row in rows for c in NF_ORDER_COLUMNS):
        raise ValueError(f"trace CSV {args.file} has a row with missing fields")
    g = build_graph((int(r["u"]), int(r["v"])) for r in rows)
    from .graph import PartialColoring

    coloring = PartialColoring(args.k)
    for eid, row in enumerate(rows):
        if row["decision"] == "C":
            coloring.color(g, eid, int(row["color"]))
        else:
            coloring.reject(eid)
    colored_ids = set(coloring.colored_edges())
    sub = build_graph(g.endpoints(eid) for eid in sorted(colored_ids))
    sub_coloring = PartialColoring(args.k)
    for i, eid in enumerate(sorted(colored_ids)):
        sub_coloring.color(sub, i, coloring.state[eid])
    order = adversaries.nextfit_order(sub, sub_coloring)
    replay = engine.run("nf", order)
    target = PartialColoring(args.k)
    for i, (u, v) in enumerate(order.edges):
        target.color(replay.graph, i, sub_coloring.state[order.params["edge_ids"][i]])
    ok = adversaries.equivalent(replay.coloring, target)
    text = order.to_edge_list()
    if args.out:
        _write_out(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    print(f"next-fit replay equivalent to target: {ok}")
    return 0 if ok else 1


def cmd_list(args) -> int:
    print("constructions (--adv):")
    for name, spec in sorted(harness.CONSTRUCTIONS.items()):
        flags = " ".join(f"--{p}" for p in spec.needed)
        algs = ",".join(spec.algorithms)
        bounded = ",".join(spec.proven_for or spec.algorithms)
        print(f"  {name:18s} {flags:6s} algorithms: {algs:9s} bound: {bounded:9s} {spec.note}")
    print("algorithms (--alg): ff, nf, rp (rp needs --p in [0.5, 1] and k=2)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palette",
        description="online dual edge coloring experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--k", type=int, default=2)
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--N", type=int, default=None)
        sp.add_argument("--b", type=int, default=None)
        sp.add_argument("--seed", default=0)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("run", help="one algorithm-vs-construction matchup")
    sp.add_argument("--adv", required=True)
    sp.add_argument("--alg", default="ff", choices=["ff", "nf", "rp"])
    sp.add_argument("--p", type=float, default=None, help="bias for --alg rp")
    sp.add_argument("--trials", type=int, default=1000)
    common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("yao", help="sample the randomized path-order distribution")
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument(
        "--alg", action="append", dest="alg_list", choices=["ff", "nf"], default=None
    )
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_yao)

    sp = sub.add_parser("exhaustive", help="sweep all small reveal orders")
    sp.add_argument("--class", dest="klass", default="path",
                    choices=["path", "fair-path", "tree"])
    sp.add_argument("--max-edges", type=int, default=6)
    sp.add_argument("--alg", default="ff", choices=["ff", "nf"])
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--all-roots", action="store_true")
    sp.set_defaults(fn=cmd_exhaustive)

    sp = sub.add_parser("verify", help="run a charging certification")
    sp.add_argument("--strategy", required=True,
                    choices=["ff-tree", "fair-tree", "rp-path"])
    sp.add_argument("--adv", default=None, choices=["nf-tree", "nf-tree-rounded"])
    # None defaults where a real default would hide whether the flag was given
    sp.add_argument("--random", type=int, default=None,
                    help="number of random instances when no --adv is given (200)")
    sp.add_argument("--max-edges", type=int, default=None, help="(12)")
    sp.add_argument("--all-roots", action="store_true")
    sp.add_argument("--p", type=float, default=None, help="bias for --strategy rp-path")
    common(sp)
    sp.set_defaults(fn=cmd_verify, k=None)

    sp = sub.add_parser("opt", help="offline optimum of an instance")
    sp.add_argument("--file", default=None, help="edge-list file, one 'u v' per line")
    sp.add_argument("--adv", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_opt)

    sp = sub.add_parser("nf-order", help="next-fit reproduction order for a coloring")
    sp.add_argument("--file", required=True, help="trace CSV (step,u,v,decision,color)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_nf_order)

    sp = sub.add_parser("list", help="available constructions and algorithms")
    sp.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, GraphError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
