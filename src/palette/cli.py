"""Command-line experiment driver.

Subcommands: run, yao, exhaustive, verify, opt, nf-order, list.  Exit codes:
0 on success, 1 when a bound or charging verdict is violated, 2 on usage
errors; an --out path that cannot take a file is refused before any work.
The PALETTE_SEED environment variable overrides --seed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import adversaries, engine, harness
from .graph import GraphError, PartialColoring, build_graph, format_edge_list, parse_edge_list
from .oracle import opt_witness


def _seed_from(args) -> object:
    raw = os.environ.get("PALETTE_SEED", 0 if args.seed is None else args.seed)
    try:
        return int(raw)
    except (TypeError, ValueError):
        return raw


def _check_out(path) -> None:
    """Refuse an --out path no file can be written to, before any work is done."""
    if not path:
        raise ValueError("--out needs a file path")
    if os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out {path}: no directory {parent}")


def _write_out(path, write) -> None:
    """Write the --out file through write(fh) and say so."""
    with open(path, "w") as fh:
        write(fh)
    print(f"wrote {path}")


def _config_from(args) -> harness.ExperimentConfig:
    # opt takes no --alg, --trials or --p
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


def _report_ratios(reports, out) -> int:
    """Print each report's summary, write --out, and exit 1 on any violated bound."""
    for report in reports:
        print(report.summary())
    if out:
        _write_out(out, lambda fh: harness.write_ratio_csv(reports, fh))
    return 1 if any(report.violates_bound() for report in reports) else 0


def cmd_run(args) -> int:
    return _report_ratios([harness.run_experiment(_config_from(args))], args.out)


def cmd_yao(args) -> int:
    algs = args.alg_list or ["ff", "nf"]
    reports = harness.yao_experiment(args.b, algs, args.trials, _seed_from(args))
    return _report_ratios(reports, args.out)


def cmd_exhaustive(args) -> int:
    if args.klass != "path" and args.alg != "ff":
        raise ValueError(
            f"--alg {args.alg} applies to --class path only; --class {args.klass} "
            f"sweeps {'first-fit' if args.klass == 'tree' else 'every fair algorithm'}"
        )
    if args.klass != "tree" and args.all_roots:
        raise ValueError(
            f"--all-roots applies to --class tree only; --class {args.klass} "
            "charges no tree certificate"
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
        if summary.passed:
            continue
        ok = False
        if summary.min_ratio < summary.bound:
            print(f"  FLOOR VIOLATED by order {summary.witness}", file=sys.stderr)
        else:  # the floor holds; only certificates failed
            print(f"  CHARGING FAILED: {summary.charge_failures} charge failures above the floor",
                  file=sys.stderr)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    if args.adv is not None and args.strategy != "fair-tree":
        raise ValueError(
            f"--adv {args.adv} is played by next-fit and certified by fair-tree, "
            f"not {args.strategy}"
        )
    mode = f"--strategy {args.strategy} " + (f"--adv {args.adv}" if args.adv else "without --adv")
    unread = ["--random", "--max-edges", "--seed"] if args.adv else ["--out", "--N"]
    unread += ["--k", "--all-roots"] if args.strategy == "rp-path" else ["--p"]
    for flag in unread:
        if getattr(args, flag[2:].replace("-", "_")) not in (None, False):
            raise ValueError(f"verify {mode} does not read {flag}")
    if args.all_roots and args.out:
        raise ValueError("verify --all-roots writes no --out: the CSV holds one root's rows")
    k = 2 if args.k is None else args.k
    if args.adv is not None:
        report = harness.verify_construction(harness.ExperimentConfig(
            adversary=args.adv, k=k, N=10 if args.N is None else args.N), all_roots=args.all_roots)
        print(
            f"{args.strategy} on {args.adv}(k={k}): passed={report.passed}, "
            f"min margin {report.min_margin}"
        )
        if args.out:
            _write_out(args.out, report.write_csv)
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
    if args.file is not None:
        for flag in ("--adv", "--m", "--n", "--N", "--b", "--seed"):
            if getattr(args, flag[2:]) is not None:
                raise ValueError(f"opt --file does not read {flag}")
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
        if args.seed is not None and not spec.resamples:
            raise ValueError(f"opt --adv {args.adv} does not read --seed")
        return script.graph()
    raise ValueError("need --file or --adv to define the instance")


def format_trace_csv(edges, colors) -> str:
    """The trace CSV that `opt --out` writes and `nf-order` reads: one row per
    step, decision C with its color or R with an empty one.  Lists of unequal
    length raise ValueError."""
    rows = ["step,u,v,decision,color"]
    for i, ((u, v), c) in enumerate(zip(edges, colors, strict=True)):
        rows.append(f"{i},{u},{v},R," if c is None else f"{i},{u},{v},C,{c}")
    return "\n".join(rows) + "\n"


def read_trace_csv(path, k: int):
    """The graph and the k-coloring a trace CSV records, row i as edge i."""
    with open(path) as fh:
        reader = csv.DictReader(fh)
        fieldnames, rows = reader.fieldnames or (), list(reader)
    columns = ("u", "v", "decision", "color")
    missing = [c for c in columns if c not in fieldnames]
    if missing:
        raise ValueError(f"trace CSV {path} lacks column(s) {', '.join(missing)}")
    if any(row[c] is None for row in rows for c in columns):
        raise ValueError(f"trace CSV {path} has a row with missing fields")

    def number(line, row, column):
        try:
            return int(row[column])
        except ValueError:
            raise ValueError(f"trace CSV {path} line {line}: non-integer {column} "
                             f"{row[column]!r}") from None

    g = build_graph((number(line, r, "u"), number(line, r, "v")) for line, r in enumerate(rows, 2))
    coloring = PartialColoring(k)
    for eid, row in enumerate(rows):
        if row["decision"] == "C":
            coloring.color(g, eid, number(eid + 2, row, "color"))
        elif row["decision"] == "R" and row["color"] == "":
            coloring.reject(eid)
        else:
            raise ValueError(f"trace CSV {path} line {eid + 2}: decision must be C with a color "
                             f"or R without one, not {row['decision']!r} with {row['color']!r}")
    return g, coloring


def cmd_opt(args) -> int:
    g = _instance_graph(args)
    witness = opt_witness(g, args.k)
    print(f"opt {witness.count} of {g.num_edges} edges (k={args.k})")
    if args.out:
        colored = sorted(witness.edges)
        edges = [g.endpoints(eid) for eid in colored]
        text = format_trace_csv(edges, [witness.coloring[eid] for eid in colored])
        _write_out(args.out, lambda fh: fh.write(text))
    return 0


def cmd_nf_order(args) -> int:
    g, coloring = read_trace_csv(args.file, args.k)
    order = adversaries.nextfit_order(g, coloring)  # reveals the colored edges only
    replay = engine.run("nf", order)
    target = PartialColoring(args.k)
    for i, eid in enumerate(order.params["edge_ids"]):
        target.color(replay.graph, i, coloring.colors[eid])
    ok = adversaries.equivalent(replay.coloring, target)
    text = format_edge_list(order.edges)
    if args.out:
        _write_out(args.out, lambda fh: fh.write(text))
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


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line through main's one-line error path
    instead of printing the usage, and reads a flag only under its full
    name, so an undeclared flag such as verify's --m is refused rather than
    taken for a prefix of --max-edges; subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        sp.add_argument("--seed", default=None, help="(0)")
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
    sp.add_argument("--k", type=int, default=None, help="(2)")
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--seed", default=None, help="(0)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_verify)

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
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.fn(args)
    except (ValueError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
