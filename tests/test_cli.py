import csv
import dataclasses
import hashlib
import os
import random
import shlex
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import RandomFair, random_tree_sequence, trace_csv
from palette import adversaries, charging, engine, harness
from palette.adversaries import nf_path_killer, star_chain
from palette.cli import build_parser, main
from palette.graph import format_edge_list


def run_cli(*argv, capsys=None):
    return main(list(argv))


def test_run_ok(capsys):
    code = main(["run", "--adv", "nf-path-killer", "--alg", "nf", "--m", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ratio 0.50" in out


def test_run_bound_violation_exits_one(capsys, monkeypatch):
    # first-fit colors the whole order, far above the next-fit ceiling; the
    # registry holds only next-fit to it, so widen it to reach the exit code
    spec = harness.CONSTRUCTIONS["nf-path-killer"]
    monkeypatch.setitem(harness.CONSTRUCTIONS, "nf-path-killer",
                        dataclasses.replace(spec, proven_for=("nf", "ff")))
    code = main(["run", "--adv", "nf-path-killer", "--alg", "ff", "--m", "100"])
    assert code == 1


# small sizes per construction; a new construction needs an entry here
SMALL_RUNS = {
    "nf-path-killer": ["--m", "5"],
    "det-path-killer": ["--n", "5"],
    "rp-mod3": ["--m", "7"],
    "rp-oddeven": ["--m", "7"],
    "star-chain": ["--N", "5"],
    "path-then-stars": ["--m", "5"],
    "nf-tree": ["--k", "4", "--N", "2"],
    "nf-tree-rounded": ["--k", "5", "--N", "2"],
    "yao": ["--b", "3"],
}


@pytest.mark.parametrize("adv,alg", [
    (name, alg) for name, spec in harness.CONSTRUCTIONS.items() for alg in spec.algorithms
])
def test_run_every_accepted_pair(capsys, adv, alg):
    argv = ["run", "--adv", adv, "--alg", alg, "--trials", "40", "--seed", "3"]
    if alg == "rp":
        argv += ["--p", "0.7"]
    assert main(argv + SMALL_RUNS[adv]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert f"{adv} vs {alg} (k=" in captured.out


def test_run_reports_the_k_played_and_no_unproven_verdict(capsys):
    # the fixed path orders always play k=2; next-fit's ceiling does not bind ff
    assert main(["run", "--adv", "nf-path-killer", "--alg", "ff", "--m", "5", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "(k=2, m=5)" in out and "no bound proven for ff" in out
    assert main(["run", "--adv", "rp-mod3", "--alg", "ff", "--m", "7"]) == 0


def test_run_compares_ratio_and_bound_exactly(capsys):
    # every trial colors exactly 6 of 10: the ratio meets the bound 6/10 with
    # no spread, which a float mean (0.6000000000000001) would count as a violation
    assert main(["run", "--adv", "star-chain", "--alg", "rp", "--p", "0.7",
                 "--N", "5", "--trials", "50"]) == 0
    assert "margin +0.000000" in capsys.readouterr().out


def test_usage_error_exits_two(capsys):
    assert main(["run", "--adv", "no-such-thing", "--m", "5"]) == 2
    assert main(["run", "--adv", "nf-path-killer"]) == 2  # missing --m
    assert main(["run", "--adv", "det-path-killer", "--alg", "rp", "--p", "0.7",
                 "--n", "5"]) == 2


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["run", "--adv", "nf-path-killer", "--alg", "nf", "--m", "50",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "construction,algorithm,k,trial,colored,opt,ratio"
    assert lines[1].startswith("nf-path-killer,nf,2,0,51,101,")


def test_csv_bytes_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--adv", "rp-oddeven", "--alg", "rp", "--p", "0.7236068",
            "--m", "51", "--trials", "500", "--seed", "7"]
    assert main(args + ["--out", str(a)]) in (0, 1)
    assert main(args + ["--out", str(b)]) in (0, 1)
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_override(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    args = ["yao", "--b", "3", "--trials", "500"]
    os.environ["PALETTE_SEED"] = "123"
    try:
        main(args + ["--seed", "1", "--out", str(a)])
        main(args + ["--seed", "2", "--out", str(b)])
    finally:
        del os.environ["PALETTE_SEED"]
    main(args + ["--seed", "123", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    # control: the CSV lists every trial, so without the override the seed shows
    main(args + ["--seed", "1", "--out", str(a)])
    main(args + ["--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_negative_seed_runs_on_the_rp_kernel(capsys):
    # the vectorized kernel seeds numpy, which takes no negative int as is
    argv = ["run", "--adv", "rp-mod3", "--alg", "rp", "--p", "0.7", "--m", "4",
            "--trials", "2", "--seed=-1"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != ""


def test_non_integer_seed_runs_on_the_rp_kernel(capsys):
    # a seed that is no int is hashed from its text, the same way each run
    argv = ["run", "--adv", "rp-mod3", "--alg", "rp", "--p", "0.7", "--m", "4",
            "--trials", "2", "--seed", "abc"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != ""


@pytest.mark.parametrize("argv,out", [
    (["yao", "--b", "7", "--trials", "2", "--seed", "1"],
     "yao vs ff (k=2, b=7): colored 1457 +- 0 (stderr, 2 trials), opt 2185, ratio 0.666819, "
     "bound 0.801191, margin +0.134371\n"
     "yao vs nf (k=2, b=7): colored 2185 +- 0 (stderr, 2 trials), opt 2185, ratio 1.000000, "
     "bound 0.801191, margin -0.198809\n"),
    (["run", "--adv", "rp-mod3", "--alg", "rp", "--p", "0.7", "--m", "7", "--trials", "2",
      "--seed", "0"],
     "rp-mod3 vs rp (k=2, m=7, p=0.7): colored 6 +- 0 (stderr, 2 trials), opt 7, "
     "ratio 0.857143, bound 0.834286, margin -0.022857\n"),
], ids=["yao", "rp-mod3"])
def test_a_sample_above_the_bound_is_no_violation(capsys, argv, out):
    # the exact expectations lie at or below the bounds; the samples printed
    # describe the run and do not judge it
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def test_readme_commands_parse():
    # parses only, so README drift in a flag or a construction name shows at once
    blocks = (Path(__file__).parent.parent / "README.md").read_text().split("```")[1::2]
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("palette ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        if args.command in ("run", "opt") and args.adv is not None:
            assert args.adv in harness.CONSTRUCTIONS, line


def test_only_the_random_pair_kernel_loads_numpy_and_hashlib():
    """numpy is about half of a palette process's start, so a fresh
    interpreter loads neither it nor hashlib until the rp kernel runs on a
    seed it must hash."""
    code = """
import sys
import palette, palette.cli
from palette.cli import main
for argv in (["list"],
             ["exhaustive", "--class", "tree", "--max-edges", "4", "--k", "2", "--all-roots"],
             ["verify", "--strategy", "ff-tree", "--random", "5", "--max-edges", "6", "--k", "3"],
             ["run", "--adv", "star-chain", "--alg", "ff", "--k", "3", "--N", "5"],
             ["run", "--adv", "yao", "--alg", "ff", "--b", "3", "--trials", "4"]):
    assert main(argv) == 0, argv
assert "numpy" not in sys.modules and "hashlib" not in sys.modules, "loaded at start"
assert main(["run", "--adv", "rp-mod3", "--alg", "rp", "--p", "0.7", "--m", "31",
             "--trials", "100", "--seed", "x"]) == 0
assert "numpy" in sys.modules and "hashlib" in sys.modules, "not loaded by the kernel"
"""
    root = Path(__file__).resolve().parents[1]
    env = {name: value for name, value in os.environ.items() if name != "PALETTE_SEED"}
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
                          env={**env, "PYTHONPATH": str(root / "src")}, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("b", [harness.YAO_B_LIMIT + 1, 40])
def test_yao_refuses_b_past_its_limit_before_building_a_path(b, capsys, monkeypatch):
    # a yao path has 3^b - 2 edges: b = 40 is refused up front, never built
    def built(*args):
        raise AssertionError(f"b = {b} reached the yao sampler")

    monkeypatch.setattr(adversaries, "yao_instance", built)
    monkeypatch.setattr(adversaries, "sample_subphase_count", built)
    message = f"b must be >= 1 and <= {harness.YAO_B_LIMIT}"
    with pytest.raises(ValueError, match=message):
        harness.yao_experiment(b, trials=2)
    with pytest.raises(ValueError, match=message):
        harness.run_experiment(harness.ExperimentConfig(adversary="yao", b=b, trials=2))
    for argv in (["yao", "--b", str(b), "--trials", "2"],
                 ["run", "--adv", "yao", "--alg", "ff", "--b", str(b), "--trials", "2"],
                 ["opt", "--adv", "yao", "--b", str(b)]):
        assert message in _assert_usage_error(capsys, argv, silent=True)


def test_yao_refuses_a_repeated_alg_before_any_draw(tmp_path, capsys, monkeypatch):
    # a name listed twice used to be played, printed and written twice
    def drawn(*args):
        raise AssertionError("a repeated algorithm reached the sampler")

    monkeypatch.setattr(adversaries, "sample_subphase_count", drawn)
    out = tmp_path / "y.csv"
    argv = ["yao", "--b", "3", "--trials", "3", "--alg", "ff", "--alg", "ff", "--out", str(out)]
    err = _assert_usage_error(capsys, argv, silent=True)
    assert err == "error: each algorithm may be listed once, got ['ff', 'ff']\n"
    assert not out.exists()


def test_run_yao_samples_as_the_yao_command(tmp_path, capsys):
    a, b = tmp_path / "run.csv", tmp_path / "yao.csv"
    flags = ["--b", "4", "--alg", "ff", "--trials", "300", "--seed", "2"]
    assert main(["run", "--adv", "yao", *flags, "--out", str(a)]) == 0
    run_out = capsys.readouterr().out
    assert main(["yao", *flags, "--out", str(b)]) == 0
    assert capsys.readouterr().out.replace(str(b), str(a)) == run_out
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 1 + 300


def test_yao_out_with_two_algorithms_writes_one_header(tmp_path, capsys):
    out = tmp_path / "y.csv"
    argv = ["yao", "--b", "3", "--alg", "ff", "--alg", "nf", "--trials", "3", "--out", str(out)]
    assert main(argv) == 0
    with out.open() as fh:
        reader = csv.DictReader(fh)
        rows = [list(row.values()) for row in reader]
    assert len(rows) == 2 * 3
    assert reader.fieldnames not in rows
    assert [row[1] for row in rows] == ["ff"] * 3 + ["nf"] * 3


def test_yao_command(capsys):
    code = main(["yao", "--b", "3", "--trials", "2000", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "yao vs ff" in out and "yao vs nf" in out
    # the ceiling bounds the expectation; here ff's sample mean lands about one
    # standard error above it, and only three or more count as a violation
    assert main(["yao", "--b", "7", "--trials", "100000", "--seed", "16"]) == 0


def test_exhaustive_path_command(capsys):
    assert main(["exhaustive", "--class", "path", "--max-edges", "5"]) == 0
    out = capsys.readouterr().out
    assert "min ratio" in out


def test_exhaustive_fair_path_command(capsys):
    assert main(["exhaustive", "--class", "fair-path", "--max-edges", "4"]) == 0


def test_exhaustive_tree_command(capsys):
    assert main(["exhaustive", "--class", "tree", "--max-edges", "3", "--k", "2"]) == 0


def test_verify_commands(capsys):
    assert main(["verify", "--strategy", "ff-tree", "--random", "25",
                 "--max-edges", "9", "--k", "3", "--seed", "5"]) == 0
    assert main(["verify", "--strategy", "fair-tree", "--random", "20",
                 "--max-edges", "9", "--k", "4", "--seed", "5"]) == 0
    assert main(["verify", "--strategy", "rp-path", "--random", "25",
                 "--max-edges", "40", "--p", "0.7236068", "--seed", "5"]) == 0
    assert main(["verify", "--strategy", "fair-tree", "--adv", "nf-tree",
                 "--k", "4", "--N", "4"]) == 0


def test_verify_writes_verdict_csv(tmp_path, capsys):
    out = tmp_path / "verdict.csv"
    assert main(["verify", "--strategy", "fair-tree", "--adv", "nf-tree",
                 "--k", "4", "--N", "2", "--out", str(out)]) == 0
    header = out.read_text().split("\n", 1)[0]
    assert header == "edge,class,v_i,v_f,margin,case"


# sha256 of the stdout and --out bytes below, dumped while verdicts built their rows eagerly
VERDICT_CSV_SHA256 = "533fff5b1def9a00697bfcf9509515c236ad92623a0e82fc99b6dbc05a093688"


def test_verdict_csv_is_pinned(tmp_path, capsys):
    # both keep their ledgers scaled by 2*sqrt(k)-1: nf-tree-rounded at k = 5 in
    # surds with int coordinates, nf-tree at k = 4 in ints
    h = hashlib.sha256()
    for adv, k, n in (("nf-tree", "4", "10"), ("nf-tree-rounded", "5", "2")):
        out = tmp_path / f"{adv}.csv"
        argv = ["verify", "--strategy", "fair-tree", "--adv", adv, "--k", k, "--N", n]
        for extra in ([], ["--out", str(out)]):
            code = main(argv + extra)
            written = out.read_text() if extra else ""
            record = f"{argv + extra} {code}\n{capsys.readouterr().out}{written}"
            h.update(record.replace(str(tmp_path), "<tmp>").encode())
    assert h.hexdigest() == VERDICT_CSV_SHA256


def test_opt_command_with_file(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n2 3\n# comment\n")
    assert main(["opt", "--file", str(path), "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "opt 2 of 3" in out


def test_opt_command_on_a_cycle_falls_back_to_brute_force(tmp_path, capsys):
    # a triangle beside a path: opt_tree refuses the cycle, brute force keeps
    # two triangle edges at k = 2 and all three path edges
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 6\n")
    assert main(["opt", "--file", str(path), "--k", "2"]) == 0
    assert capsys.readouterr().out == "opt 5 of 6 edges (k=2)\n"


def test_opt_command_with_construction(capsys):
    assert main(["opt", "--adv", "nf-path-killer", "--m", "10", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "opt 21 of 21" in out


def test_opt_writes_witness(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n")
    out = tmp_path / "witness.csv"
    assert main(["opt", "--file", str(edges), "--k", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,u,v,decision,color"
    assert len(lines) == 3


def test_nf_order_round_trip(tmp_path, capsys):
    # produce a trace CSV, extract the reproduction order, check equivalence
    trace = engine.run("nf", nf_path_killer(4))
    src = tmp_path / "trace.csv"
    src.write_text(trace_csv(trace))
    out = tmp_path / "order.txt"
    assert main(["nf-order", "--file", str(src), "--k", "2",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "equivalent to target: True" in printed
    assert len(out.read_text().strip().split("\n")) == trace.colored_count


def test_opt_witness_feeds_nf_order(tmp_path, capsys):
    # the trace CSV nf-order reads is what opt --out writes
    edges, witness, order = (tmp_path / n for n in ("path.txt", "witness.csv", "order.txt"))
    edges.write_text("0 1\n1 2\n2 3\n3 4\n1 5\n")
    assert main(["opt", "--file", str(edges), "--k", "2", "--out", str(witness)]) == 0
    assert main(["nf-order", "--file", str(witness), "--k", "2", "--out", str(order)]) == 0
    assert "equivalent to target: True" in capsys.readouterr().out


# sha256 of every record below, dumped while engine.Trace still wrote the trace CSV
TRACE_CSV_COMMANDS_SHA256 = "49911d058b467ffbe63bb8031050647aa25b6ce668931e0579220f78cc23810a"


def _trace_csv_commands(tmp_path):
    """(argv, files to read after it) for opt --out on three tree files at k=2 and k=3,
    nf-order on each witness, and nf-order on played next-fit and random-fair
    traces with rejected rows, some of which have no next-fit order."""
    for seed in (0, 17, 38):
        tree = tmp_path / f"tree{seed}.txt"
        tree.write_text(format_edge_list(harness.random_tree_edges(random.Random(seed), 14)))
        for k in ("2", "3"):
            witness = tmp_path / f"witness{seed}-{k}.csv"
            yield ["opt", "--file", str(tree), "--k", k, "--out", str(witness)], [witness]
            yield ["nf-order", "--file", str(witness), "--k", k], []
    played = [(engine.run("nf", nf_path_killer(4)), 2), (engine.run("nf", star_chain(3, 3, "nf")), 3)]
    played += [(engine.run(RandomFair(), random_tree_sequence(s, 14, k), seed=s), k)
               for s, k in ((0, 2), (2, 2), (20, 2), (0, 3), (9, 3), (11, 3), (13, 3))]
    for i, (trace, k) in enumerate(played):
        assert trace.rejected_count > 0
        src, order = tmp_path / f"trace{i}.csv", tmp_path / f"order{i}.txt"
        src.write_text(trace_csv(trace))
        yield ["nf-order", "--file", str(src), "--k", str(k), "--out", str(order)], [src, order]


def test_trace_csv_commands_are_pinned(tmp_path, capsys):
    h = hashlib.sha256()
    for argv, files in _trace_csv_commands(tmp_path):
        code = main(argv)
        out, err = capsys.readouterr()
        texts = "".join(f.read_text() for f in files if f.exists())
        record = f"{argv} {code}\n{out}{err}{texts}".replace(str(tmp_path), "<tmp>")
        h.update(record.encode())
    assert h.hexdigest() == TRACE_CSV_COMMANDS_SHA256


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("nf-path-killer", "det-path-killer", "star-chain", "yao",
                 "nf-tree", "path-then-stars", "rp-mod3", "rp-oddeven"):
        assert name in out


def _assert_usage_error(capsys, argv, *, silent=False):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not silent or out == "", out  # refused before the command printed anything
    return err


@pytest.mark.parametrize("argv,message", [
    (["run", "--adv", "yao", "--b", "3", "--alg", "xx"], "invalid choice: 'xx'"),
    (["yao", "--b", "3", "--alg", "rp"], "invalid choice: 'rp'"),
    (["bogus"], "invalid choice: 'bogus'"),
    (["run", "--b", "3"], "required: --adv"),
    (["nf-order", "--k", "2"], "required: --file"),
    ([], "required: command"),
    (["list", "--bogus"], "unrecognized arguments: --bogus"),
    (["run", "--adv", "yao", "--b", "x"], "invalid int value: 'x'"),
    (["yao", "--b", "3", "--trials", "1.5"], "invalid int value: '1.5'"),
])
def test_argparse_errors_take_one_line(capsys, argv, message):
    assert message in _assert_usage_error(capsys, argv)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "-h"])
    assert exc.value.code == 0
    assert "usage: palette run" in capsys.readouterr().out


# "DIR" stands for an existing directory, which no command can read or write as a file
@pytest.mark.parametrize("argv", [
    ["opt", "--file", "DIR"],
    ["nf-order", "--file", "DIR", "--k", "2"],
    ["run", "--adv", "nf-path-killer", "--alg", "nf", "--m", "5", "--out", "DIR"],
    ["yao", "--b", "3", "--out", "DIR"],
    ["verify", "--strategy", "fair-tree", "--adv", "nf-tree", "--k", "4", "--N", "2",
     "--out", "DIR"],
    ["opt", "--adv", "nf-path-killer", "--m", "5", "--out", "DIR"],
])
def test_unreadable_or_unwritable_paths_exit_two(tmp_path, capsys, argv):
    argv = [str(tmp_path) if a == "DIR" else a for a in argv]
    err = _assert_usage_error(capsys, argv, silent=True)
    assert str(tmp_path) in err


@pytest.mark.parametrize("argv", [
    ["run", "--adv", "nf-path-killer", "--alg", "nf", "--m", "5"],
    ["yao", "--b", "3"],
    ["verify", "--strategy", "fair-tree", "--adv", "nf-tree", "--k", "4", "--N", "2"],
    ["opt", "--adv", "nf-path-killer", "--m", "5"],
    ["nf-order", "--file", "TRACE", "--k", "2"],
])
def test_out_in_a_missing_directory_is_refused_before_the_run(tmp_path, capsys, argv):
    trace = tmp_path / "trace.csv"
    trace.write_text(trace_csv(engine.run("nf", nf_path_killer(4))))
    out = tmp_path / "missing" / "out.csv"
    argv = [str(trace) if a == "TRACE" else a for a in argv] + ["--out", str(out)]
    assert str(out) in _assert_usage_error(capsys, argv, silent=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]


@pytest.mark.parametrize("argv", [
    ["run", "--adv", "nf-path-killer", "--alg", "nf", "--m", "3", "--out", ""],
    ["yao", "--b", "3", "--out", ""],
    ["opt", "--adv", "nf-tree", "--k", "4", "--N", "1", "--out", ""],
    ["nf-order", "--file", "trace.csv", "--k", "2", "--out", ""],
    ["verify", "--strategy", "fair-tree", "--adv", "nf-tree", "--k", "4", "--N", "1", "--out", ""],
    ["opt", "--adv", "nf-tree", "--k", "4", "--N", "1", "--file", ""],
])
def test_an_empty_path_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trace.csv").write_text(trace_csv(engine.run("nf", nf_path_killer(4))))
    _assert_usage_error(capsys, argv, silent=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]


def test_nf_order_refuses_an_improper_coloring(tmp_path, capsys):
    # the trace CSV colors two adjacent edges alike; reading it refuses the second
    src = tmp_path / "trace.csv"
    src.write_text("step,u,v,decision,color\n0,0,1,C,1\n1,1,2,C,1\n")
    err = _assert_usage_error(capsys, ["nf-order", "--file", str(src), "--k", "2"])
    assert err == "error: color 1 already used at an endpoint of edge 1\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_non_positive_trials_exit_two(capsys, trials):
    _assert_usage_error(capsys, ["run", "--adv", "rp-oddeven", "--alg", "rp", "--p", "0.7",
                                 "--m", "11", "--trials", trials])
    _assert_usage_error(capsys, ["yao", "--b", "3", "--trials", trials])


@pytest.mark.parametrize("missing", ["decision", "u", "v", "color", "u, v, decision, color"])
def test_nf_order_csv_without_column_exits_two(tmp_path, capsys, missing):
    src = tmp_path / "trace.csv"
    if "," in missing:  # an empty file has no header at all
        src.write_text("")
    else:
        lines = trace_csv(engine.run("nf", nf_path_killer(4))).strip().split("\n")
        drop = lines[0].split(",").index(missing)
        kept = [",".join(f for i, f in enumerate(line.split(",")) if i != drop) for line in lines]
        src.write_text("\n".join(kept) + "\n")
    err = _assert_usage_error(capsys, ["nf-order", "--file", str(src), "--k", "2"])
    assert err == f"error: trace CSV {src} lacks column(s) {missing}\n"


def test_nf_order_short_row_exits_two(tmp_path, capsys):
    src = tmp_path / "trace.csv"
    src.write_text("step,u,v,decision,color\n0,0,1,C,1\n1,1,2\n")
    _assert_usage_error(capsys, ["nf-order", "--file", str(src), "--k", "2"])


def test_exhaustive_floor_violation_exits_one(capsys, monkeypatch):
    def failing(max_edges, k, algorithm):
        summary = harness.ExhaustiveSummary("path", max_edges, k, algorithm, Fraction(2, 3))
        summary.add(1, 2, [(0, 1), (1, 2)])
        return summary

    monkeypatch.setattr(harness, "exhaustive_paths", failing)
    assert main(["exhaustive", "--class", "path", "--max-edges", "2", "--k", "2"]) == 1
    assert "FLOOR VIOLATED by order [(0, 1), (1, 2)]" in capsys.readouterr().err


def test_exhaustive_charge_failure_above_the_floor_exits_one(capsys, monkeypatch):
    # every certificate fails while every ratio clears the floor
    monkeypatch.setattr(charging.FFTreeCertificate, "charge_all",
                        lambda self: [-1] * self.trace.graph.num_vertices)
    argv = ["exhaustive", "--class", "tree", "--max-edges", "4", "--k", "2", "--all-roots"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert "min ratio 3/4" in out and "30 charge failures" in out
    assert "FLOOR VIOLATED" not in err
    assert err == "  CHARGING FAILED: 30 charge failures above the floor\n"


def test_opt_refuses_an_adaptive_construction(capsys):
    err = _assert_usage_error(capsys, ["opt", "--adv", "star-chain", "--N", "3", "--k", "2"])
    assert "is adaptive" in err


def test_exhaustive_without_edges_exits_two(capsys):
    for klass in ("path", "fair-path", "tree"):
        _assert_usage_error(capsys, ["exhaustive", "--class", klass, "--max-edges", "0"])


def test_unknown_construction_for_opt_exits_two(capsys):
    _assert_usage_error(capsys, ["opt", "--adv", "nope"])


@pytest.mark.parametrize("strategy", ["ff-tree", "fair-tree", "rp-path"])
@pytest.mark.parametrize("flag,value", [("--random", "0"), ("--random", "-3"),
                                        ("--max-edges", "0"), ("--max-edges", "-2")])
def test_verify_empty_sweep_exits_two(capsys, strategy, flag, value):
    _assert_usage_error(capsys, ["verify", "--strategy", strategy, "--random", "5",
                                 "--max-edges", "5", flag, value])


def test_exhaustive_path_below_two_colors_exits_two(capsys):
    # no path floor is proven at k=1: first-fit colors 1 of 2 on order 2,1,3
    for alg in ("ff", "nf"):
        _assert_usage_error(capsys, ["exhaustive", "--class", "path", "--max-edges", "3",
                                     "--k", "1", "--alg", alg])


@pytest.mark.parametrize("argv", [
    ["run", "--adv", "yao", "--b", "3", "--alg", "ff", "--trials", "1", "--seed", "2"],
    ["run", "--adv", "rp-oddeven", "--alg", "rp", "--p", "0.7", "--m", "11", "--trials", "1"],
    ["yao", "--b", "3", "--trials", "1"],
])
def test_single_trial_sampled_run_exits_two(capsys, argv):
    # one lucky sample used to be judged exactly against a ceiling on the
    # expectation (exit 1), and yao printed a nan spread with numpy warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _assert_usage_error(capsys, argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_deterministic_run_ignores_trials(capsys):
    assert main(["run", "--adv", "nf-path-killer", "--alg", "nf", "--m", "5",
                 "--trials", "1"]) == 0
    assert "stderr" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--strategy", "ff-tree", "--random", "2", "--alg", "nf"],
    ["verify", "--strategy", "fair-tree", "--random", "2", "--trials", "5"],
    ["opt", "--adv", "nf-path-killer", "--m", "3", "--alg", "nf"],
    ["opt", "--adv", "nf-path-killer", "--m", "3", "--trials", "5"],
    ["opt", "--adv", "nf-path-killer", "--m", "3", "--p", "0.7"],
])
def test_unread_flags_are_refused(capsys, argv):
    assert "unrecognized arguments" in _assert_usage_error(capsys, argv)


SWEEP = ["--random", "2", "--max-edges", "5"]
ADV = ["--adv", "nf-tree", "--k", "4", "--N", "2"]


@pytest.mark.parametrize("base,extra", [
    *[(["--strategy", s, *SWEEP], [f, "3"]) for s in ("ff-tree", "rp-path")
      for f in ("--m", "--n", "--b")],
    (["--strategy", "fair-tree", *ADV], ["--m", "3"]),
    (["--strategy", "ff-tree", *SWEEP], ["--N", "3"]),
    (["--strategy", "rp-path", *SWEEP], ["--out", "x.csv"]),
    (["--strategy", "fair-tree", *ADV], ["--random", "5"]),
    (["--strategy", "fair-tree", *ADV], ["--max-edges", "5"]),
    (["--strategy", "fair-tree", *ADV], ["--all-roots", "--out", "x.csv"]),  # one root's rows
    (["--strategy", "ff-tree", *SWEEP], ["--p", "0.7"]),
    (["--strategy", "fair-tree", *SWEEP], ["--p", "0.7"]),
    (["--strategy", "rp-path", *SWEEP], ["--k", "3"]),  # always plays k=2
    (["--strategy", "rp-path", *SWEEP], ["--all-roots"]),
])
def test_verify_refuses_flags_its_mode_never_reads(tmp_path, monkeypatch, capsys, base, extra):
    monkeypatch.chdir(tmp_path)
    _assert_usage_error(capsys, ["verify", *base, *extra])
    assert not (tmp_path / "x.csv").exists()
    assert main(["verify", *base]) == 0


def test_verify_adv_all_roots_certifies_every_root(monkeypatch, capsys):
    charged = []
    monkeypatch.setattr(charging._TreeCertificate, "charge",
                        lambda self, root: charged.append(root))
    start = time.perf_counter()
    assert main(["verify", "--strategy", "fair-tree", "--adv", "nf-tree", "--k", "16",
                 "--N", "50", "--all-roots"]) == 0
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().out == "fair-tree on nf-tree(k=16): passed=True, min margin 0\n"
    assert main(["verify", "--strategy", "fair-tree", "--adv", "nf-tree-rounded", "--k", "5",
                 "--N", "2", "--all-roots"]) == 0
    assert capsys.readouterr().out == (
        "fair-tree on nf-tree-rounded(k=5): passed=True, min margin 0\n")
    assert charged == []  # every root from the one rerooting walk, none through charge(root)


def test_a_missing_size_is_reported_before_an_unread_one(capsys):
    err = _assert_usage_error(capsys, ["run", "--adv", "nf-tree", "--alg", "nf", "--k", "4",
                                       "--m", "3"])
    assert err == "error: construction 'nf-tree' needs --N\n"


@pytest.mark.parametrize("argv,flag", [
    (["run", "--adv", "nf-path-killer", "--alg", "nf", "--m", "5", "--N", "7", "--b", "3",
      "--n", "2"], "--n"),
    (["run", "--adv", "yao", "--b", "3", "--m", "4"], "--m"),
    (["run", "--adv", "star-chain", "--k", "3", "--N", "2", "--b", "2"], "--b"),
    (["run", "--adv", "det-path-killer", "--n", "3", "--N", "2"], "--N"),
    (["run", "--adv", "nf-path-killer", "--alg", "nf", "--m", "5", "--p", "0.7"], "--p"),
    (["run", "--adv", "yao", "--b", "3", "--p", "0.7"], "--p"),
    (["opt", "--adv", "nf-path-killer", "--m", "5", "--N", "2"], "--N"),
    (["opt", "--adv", "rp-mod3", "--m", "7", "--b", "2"], "--b"),
])
def test_construction_flags_the_run_never_reads_exit_two(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert f"does not read {flag}" in _assert_usage_error(capsys, [*argv, "--out", "x.csv"])
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("row", ["1,1,2,X,", "1,1,2,c,1", "1,1,2,r,", "1,1,2,R,2"])
def test_nf_order_refuses_rows_neither_colored_nor_rejected(tmp_path, capsys, row):
    src = tmp_path / "trace.csv"
    src.write_text(f"step,u,v,decision,color\n0,0,1,C,1\n{row}\n2,2,3,C,1\n")
    assert "line 3" in _assert_usage_error(capsys, ["nf-order", "--file", str(src), "--k", "2"])


@pytest.mark.parametrize("row,column", [("1,x,2,C,2", "u"), ("1,1,2.0,C,2", "v"),
                                        ("1,1,2,C,x", "color"), ("1,1,2,C,", "color")])
def test_nf_order_refuses_non_integer_fields(tmp_path, capsys, row, column):
    src = tmp_path / "trace.csv"
    src.write_text(f"step,u,v,decision,color\n0,0,1,C,1\n{row}\n2,2,3,C,1\n")
    err = _assert_usage_error(capsys, ["nf-order", "--file", str(src), "--k", "2"])
    assert f"trace CSV {src} line 3: non-integer {column}" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--strategy", "fair-tree", "--adv", "nf-tree", "--k", "4", "--N", "2"],
    ["verify", "--strategy", "fair-tree", "--adv", "nf-tree-rounded", "--k", "5", "--N", "2"],
    ["opt", "--file", "path.txt", "--k", "2"],
    ["opt", "--adv", "nf-path-killer", "--m", "3"],
    ["opt", "--adv", "nf-tree", "--k", "4", "--N", "1"],
])
def test_seed_is_refused_where_nothing_reads_it(tmp_path, monkeypatch, capsys, argv):
    # these modes play fixed orders with deterministic algorithms
    monkeypatch.chdir(tmp_path)
    (tmp_path / "path.txt").write_text("0 1\n1 2\n2 3\n")
    _assert_usage_error(capsys, [*argv, "--seed", "0"])
    assert main(argv) == 0


def test_opt_file_refuses_construction_flags(tmp_path, capsys):
    path = tmp_path / "path.txt"
    path.write_text("0 1\n1 2\n")
    for extra in (["--adv", "nf-path-killer"], ["--m", "3"], ["--N", "2"]):
        _assert_usage_error(capsys, ["opt", "--file", str(path), *extra])


@pytest.mark.parametrize("argv", [
    ["verify", "--strategy", "ff-tree", *SWEEP, "--k", "1"],
    ["verify", "--strategy", "fair-tree", *SWEEP, "--k", "1"],
    ["exhaustive", "--class", "tree", "--max-edges", "3", "--k", "1"],
])
def test_tree_sweeps_refuse_one_color(capsys, argv):
    # the tree floor (k-1)/k is 0 at k=1, so such a sweep would certify nothing
    _assert_usage_error(capsys, argv)


def test_rp_range_error_shows_p_as_given(capsys):
    # not the exact binary fraction the ledger converts the float into
    assert main(["verify", "--strategy", "rp-path", *SWEEP, "--p", "0.3"]) == 2
    assert capsys.readouterr().err == "error: p must lie in [1/2, 1], got 0.3\n"


@pytest.mark.parametrize("klass", ["tree", "fair-path"])
def test_exhaustive_alg_applies_to_paths_only(capsys, klass):
    _assert_usage_error(capsys, ["exhaustive", "--class", klass, "--max-edges", "3",
                                 "--alg", "nf"])
    assert main(["exhaustive", "--class", klass, "--max-edges", "3", "--alg", "ff"]) == 0


@pytest.mark.parametrize("klass", ["path", "fair-path"])
def test_exhaustive_all_roots_applies_to_trees_only(capsys, klass):
    err = _assert_usage_error(capsys, ["exhaustive", "--class", klass, "--max-edges", "3",
                                       "--all-roots"])
    assert "--all-roots applies to --class tree only" in err


@pytest.mark.parametrize("strategy", ["ff-tree", "rp-path"])
def test_verify_adv_takes_fair_tree_only(capsys, strategy):
    # the construction is played by next-fit, which only the fair certificate judges
    _assert_usage_error(capsys, ["verify", "--strategy", strategy, "--adv", "nf-tree",
                                 "--k", "4", "--N", "2"])


def _small_int(lo, hi):
    return st.integers(lo, hi).map(str)


P_VALUES = st.sampled_from(["-1", "0", "0.3", "0.5", "0.7", "1", "1.5", "nan", "inf"])
ADV_NAMES = st.sampled_from(sorted(harness.CONSTRUCTIONS) + ["nope"])


def _argv(head, required, optional):
    """argv for one subcommand: every required flag, any subset of the optional ones."""
    def flatten(parts):
        argv = list(head)
        for flag, value in {**parts[0], **parts[1]}.items():
            argv += [flag] if value is None else [flag, value]
        return argv

    return st.tuples(
        st.fixed_dictionaries(required), st.fixed_dictionaries({}, optional=optional)
    ).map(flatten)


SIZES = {"--k": _small_int(-1, 6), "--m": _small_int(-1, 5), "--n": _small_int(-1, 4),
         "--N": _small_int(-1, 3), "--b": _small_int(-1, 4), "--seed": _small_int(0, 3)}


def _cli_argv(files):
    algs = st.sampled_from(["ff", "nf", "rp", "xx"])
    strategies = st.sampled_from(["ff-tree", "fair-tree", "rp-path", "nope"])
    flag = st.just(None)
    return st.one_of(
        _argv(["run"], {"--adv": ADV_NAMES, "--trials": _small_int(-1, 4)},
              {"--alg": algs, "--p": P_VALUES, **SIZES}),
        _argv(["yao"], {"--b": _small_int(-1, 4), "--trials": _small_int(-1, 4)},
              {"--alg": st.sampled_from(["ff", "nf", "rp"]), "--seed": _small_int(0, 3)}),
        _argv(["exhaustive"], {"--max-edges": _small_int(-1, 4)},
              {"--class": st.sampled_from(["path", "fair-path", "tree", "cycle"]),
               "--alg": algs, "--k": _small_int(-1, 4), "--all-roots": flag}),
        # verify refuses the flags a mode never reads, so draw each mode's own
        # flags as required and the other mode's as optional
        _argv(["verify"], {"--strategy": strategies,
                           "--random": _small_int(-1, 3), "--max-edges": _small_int(-1, 6)},
              {"--p": P_VALUES, "--k": _small_int(-1, 6), "--all-roots": flag,
               "--seed": _small_int(0, 3), "--N": _small_int(-1, 3)}),
        _argv(["verify"], {"--strategy": strategies,
                           "--adv": st.sampled_from(["nf-tree", "nf-tree-rounded", "nope"]),
                           "--N": _small_int(-1, 3)},
              {"--k": _small_int(-1, 6), "--seed": _small_int(0, 3),
               "--random": _small_int(-1, 3), "--all-roots": flag}),
        _argv(["opt"], {}, {"--adv": ADV_NAMES, "--file": st.sampled_from(files), **SIZES}),
        _argv(["nf-order"], {"--file": st.sampled_from(files), "--k": _small_int(-1, 4)}, {}),
        st.just(["list"]),
        st.just(["no-such-command"]),
    )


def test_every_subcommand_exits_zero_one_or_two(tmp_path):
    trace = engine.run("nf", nf_path_killer(2))
    contents = {
        "trace.csv": trace_csv(trace),
        "no-decision.csv": "step,u,v,color\n0,0,1,1\n",
        "short-row.csv": "step,u,v,decision,color\n0,0,1,C,1\n1,1,2\n",
        "path.txt": "0 1\n1 2\n2 3\n",
        "triangle.txt": "0 1\n1 2\n0 2\n",
        "loop.txt": "0 0\n",
        "garbage.txt": "0 x\n",
    }
    for name, text in contents.items():
        (tmp_path / name).write_text(text)
    files = [str(tmp_path / name) for name in contents] + [str(tmp_path / "missing.txt")]

    @settings(max_examples=250, deadline=None)
    @given(_cli_argv(files))
    @example(["opt", "--adv", "nope"])
    @example(["verify", "--strategy", "rp-path", "--random", "1", "--max-edges", "1",
              "--p", "inf"])
    def check(argv):
        assert main(argv) in (0, 1, 2), argv

    check()
