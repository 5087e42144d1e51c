"""Benchmark for palette: three workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 bench/bench.py --workload tree-sweep --seed 1 --seconds 36 --trace 0
    python3 bench/bench.py --workload all          # every workload, two seeds

With ``--trace 0`` the run measures, with tracing off, the median wall time of
one pass (``wall_s``), the set-up time of a fresh process (``setup_s``) and
the peak RSS of this process (``peak_rss_mb``).  With ``--trace 1`` it runs
untraced passes and then traced passes, checks that both give the same
digest, and reports the per-layer numbers of the traced passes.  Every pass
checks its own outputs; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
nothing is installed and nothing outside the checkout is read or written.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_PROBES_PER_PASS = 2  # interleaved with the passes, so both see the same machine
MIN_PASSES = 3  # per measured phase, whatever --seconds says
MIN_TRACED_PASSES = 2
PROBE_TIMEOUT_S = 60


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def load_program():
    """Import palette from this checkout's src/, or return an error message."""
    if not (SRC / "palette" / "__init__.py").is_file():
        return None, f"no palette sources under {SRC.relative_to(ROOT)}/ of the checkout"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import palette

    if Path(palette.__file__).resolve().parent != SRC / "palette":
        return None, f"imported palette from {palette.__file__}, not from the checkout"
    import tracing
    import workloads

    return (palette, workloads, tracing), None


# ---------------------------------------------------------------------------
# run record


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(palette, workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": workload.sizes,
        "palette": palette.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement


def tail_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    q = 100 * (n - 10) // n
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def setup_probe(workload_name: str, seed: int) -> tuple[float, str]:
    """Time a fresh process that imports palette.cli and builds the inputs."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import palette.cli\n"
        "import workloads\n"
        f"inputs = workloads.WORKLOADS[{workload_name!r}].inputs({seed!r})\n"
        "print(workloads.inputs_digest(inputs))\n"
    )
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return elapsed, done.stdout.strip()


class Tally:
    """Output checks across passes, plus the pass digests."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.digests: set[str] = set()

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def add_pass(self, workload, inputs, results) -> None:
        checks, parts = workload.check(inputs, results)
        for name, ok in checks:
            self.add(name, ok)
        self.digests.add(hashlib.sha256("\n".join(parts).encode()).hexdigest())


def measure_passes(workload, inputs, seconds, minimum, tally, call=None, between=None):
    """Run timed passes for about `seconds`; return the pass wall times.

    Each iteration is one pass, its checks, and `between()` if given.  The
    loop stops once at least `minimum` passes ran and less than half a
    typical iteration is left, so a run lasts `seconds` give or take half an
    iteration.
    """
    walls, iterations = [], []
    begin = time.perf_counter()
    while True:
        gc.collect()  # every pass starts from the same heap state
        t0 = time.perf_counter()
        results = workload.run(inputs) if call is None else call(inputs)
        walls.append(time.perf_counter() - t0)
        tally.add_pass(workload, inputs, results)
        del results
        if between is not None:
            between()
        now = time.perf_counter()
        iterations.append(now - t0)
        if len(walls) >= minimum and now - begin + statistics.median(iterations) / 2 >= seconds:
            return walls


def untraced_run(spec, workload, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    import workloads

    tally = Tally()
    inputs = workload.inputs(seed)
    expected_inputs = workloads.inputs_digest(inputs)
    probes = []

    def probe():
        for _ in range(SETUP_PROBES_PER_PASS):
            elapsed, digest = setup_probe(workload.name, seed)
            probes.append(elapsed)
            tally.add("setup.inputs_match", digest == expected_inputs)

    walls = measure_passes(workload, inputs, seconds, MIN_PASSES, tally, between=probe)
    tally.add("digest.repeatable", len(tally.digests) == 1)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": peak_kb / 1024,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    extra = {"digests": sorted(tally.digests), "passes": len(walls), "pass_walls_s": walls,
             "setup_probes_s": probes}
    tail = tail_percentile(walls)
    extra["wall_s_tail"] = None if tail is None else {"percentile": tail[0], "value": tail[1]}
    return metrics, tally, extra


# ---------------------------------------------------------------------------
# traced run

# units of the per-layer counts that must repeat exactly from pass to pass
EXACT_UNITS = {"count", "B_computed"}


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units this script must report."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def layer_metrics(stats: dict, prep_s: float, tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass from its span statistics."""

    def get(name, field):
        return stats.get(name, {}).get(field, 0)

    def layer_self(prefix, exclude=()):
        return sum(
            v["self_s"] for k, v in stats.items()
            if k.startswith(prefix) and k not in exclude
        )

    def per(numerator, denominator, scale):
        return numerator / denominator * scale if denominator else 0.0

    runs = get("engine.run", "calls")
    edges = tracer.counts["engine.run.edges"]
    steps = tracer.counts["engine.rp_kernel.trial_steps"]
    ff_calls = get("charging.ff_tree_charge", "calls")
    rp_edges = tracer.counts["charging.rp_path_charge.edges"]
    opt_edges = tracer.counts["oracle.opt_tree.edges"]
    return {
        "engine.run.calls": runs,
        "engine.run.distinct_traces": len(tracer.traces),
        "engine.run.replay_ratio": per(runs, len(tracer.traces), 1),
        "engine.run.edges": edges,
        "engine.run.self_s": get("engine.run", "self_s"),
        "engine.run.us_per_edge": per(get("engine.run", "total_s"), edges, 1e6),
        "engine.rp_kernel.calls": get("engine.rp_kernel", "calls"),
        "engine.rp_kernel.self_s": get("engine.rp_kernel", "self_s"),
        "engine.rp_kernel.trial_steps": steps,
        "engine.rp_kernel.ns_per_trial_step": per(get("engine.rp_kernel", "total_s"), steps, 1e9),
        "engine.rp_kernel.state_bytes": tracer.kernel_state_bytes,
        "engine.audit_fair.self_s": get("engine.audit_fair", "self_s"),
        "charging.ff_tree_charge.calls": ff_calls,
        "charging.ff_tree_charge.calls_per_trace": per(ff_calls, len(tracer.charged), 1),
        "charging.ff_tree_charge.self_s": get("charging.ff_tree_charge", "self_s"),
        "charging.fair_tree_charge.calls": get("charging.fair_tree_charge", "calls"),
        "charging.fair_tree_charge.self_s": get("charging.fair_tree_charge", "self_s"),
        "charging.prep.self_s": prep_s,
        "charging.rp_path_charge.calls": get("charging.rp_path_charge", "calls"),
        "charging.rp_path_charge.self_s": get("charging.rp_path_charge", "self_s"),
        "charging.rp_path_charge.us_per_edge": per(
            get("charging.rp_path_charge", "total_s"), rp_edges, 1e6
        ),
        "oracle.opt_tree.calls": get("oracle.opt_tree", "calls"),
        "oracle.opt_tree.self_s": get("oracle.opt_tree", "self_s"),
        "oracle.opt_tree.us_per_edge": per(get("oracle.opt_tree", "total_s"), opt_edges, 1e6),
        "oracle.audit_witness.calls": get("oracle.audit_witness", "calls"),
        "oracle.audit_witness.self_s": get("oracle.audit_witness", "self_s"),
        "graph.is_tree.calls": get("graph.is_tree", "calls"),
        "graph.is_tree.self_s": get("graph.is_tree", "self_s"),
        "graph.path_positions.calls": get("graph.path_positions", "calls"),
        "graph.path_positions.self_s": get("graph.path_positions", "self_s"),
        "adversaries.build.self_s": layer_self("adversaries.", {"adversaries.session"}),
        "adversaries.session.self_s": get("adversaries.session", "self_s"),
        "harness.tree_reveal_orders.self_s": get("harness.tree_reveal_orders", "self_s"),
        "harness.classes": tracer.counts["harness.tree_reveal_orders.items"],
        "harness.self_s": layer_self("harness."),
        "exact.sqrt5_values": tracer.counts["exact.sqrt5_values"],
        "engine.self_s": layer_self("engine."),
        "charging.self_s": layer_self("charging."),
        "oracle.self_s": layer_self("oracle."),
        "graph.self_s": layer_self("graph."),
        "adversaries.self_s": layer_self("adversaries."),
        "bench.self_s": get("bench.pass", "self_s"),
        "trace.bookkeeping_s": get("trace.bookkeeping", "self_s"),
        "trace.spans": sum(v["calls"] for v in stats.values()),
    }


def traced_run(spec, workload, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    import tracing

    tally = Tally()
    inputs = workload.inputs(seed)
    untraced_walls = measure_passes(workload, inputs, seconds / 2, MIN_PASSES, tally)
    untraced_digests = set(tally.digests)

    tracer = tracing.Tracer()
    root = tracer.name_id("bench.pass")
    per_pass: list[dict] = []
    traced_walls: list[float] = []

    def traced_pass(inputs):
        tracer.counts.clear()
        tracer.traces.clear()
        tracer.charged.clear()
        tracer.kernel_state_bytes = 0
        first = tracer.mark()
        with tracing.instrument(tracer):
            results = tracer.call(root, workload.run, inputs)
        stats = tracer.spans_since(first)
        traced_walls.append(stats["bench.pass"]["total_s"])
        per_pass.append({
            "layers": layer_metrics(stats, tracer.prep_seconds_since(first), tracer),
            "self_sum": sum(v["self_s"] for v in stats.values()),
        })
        return results

    measure_passes(workload, inputs, seconds / 2, MIN_TRACED_PASSES, tally, call=traced_pass)
    tally.add("digest.repeatable", len(untraced_digests) == 1)
    tally.add("digest.traced_equals_untraced", tally.digests == untraced_digests)

    wall_untraced = statistics.median(untraced_walls)
    wall_traced = statistics.median(traced_walls)
    overhead = wall_traced - wall_untraced
    for p, wall in zip(per_pass, traced_walls):
        tally.add("trace.self_times_sum_to_wall", abs(p["self_sum"] - wall) <= max(overhead, 1e-6))
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    first_counts = {k: per_pass[0]["layers"][k] for k in exact}
    for p in per_pass[1:]:
        tally.add("trace.counts_repeat", {k: p["layers"][k] for k in exact} == first_counts)

    values = {
        name: statistics.median(p["layers"][name] for p in per_pass)
        for name in per_pass[0]["layers"]
    }
    values.update(first_counts)
    values["trace.wall_s"] = wall_traced
    values["trace.untraced_wall_s"] = wall_untraced
    values["trace.overhead_s"] = overhead
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}.npz"
    tracer.save(spans_path)
    extra = {
        "digests": sorted(tally.digests),
        "untraced_passes": len(untraced_walls),
        "traced_passes": len(traced_walls),
        "untraced_walls_s": untraced_walls,
        "traced_walls_s": traced_walls,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "self_sum_s": [p["self_sum"] for p in per_pass],
    }
    return metrics, tally, extra


# ---------------------------------------------------------------------------
# entry points


def run_one(args, modules) -> int:
    palette, workloads, _ = modules
    workload = workloads.WORKLOADS[args.workload]
    record = run_record(palette, workload, args.seed, args.seconds, args.trace)
    print("record " + json.dumps(record, default=str), flush=True)
    runner = traced_run if args.trace else untraced_run
    metrics, tally, extra = runner(load_spec(), workload, args.seed, args.seconds)
    failed_ops = len(tally.failed) / tally.attempted
    print("detail " + json.dumps(extra))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ops':40s} {failed_ops:.6g} ({len(tally.failed)}/{tally.attempted})")
    if tally.failed:
        print("failed checks: " + ", ".join(sorted(set(tally.failed))))
    result = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(OUT / f"run-{workload.name}-seed{args.seed}-trace{int(args.trace)}.json", "w") as fh:
        json.dump({"record": record, "detail": extra, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args, modules) -> int:
    """Every workload in its own process, on the default and held-out seeds."""
    _, workloads, _ = modules
    bad = False
    rows = []
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for name in workloads.WORKLOADS:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stdout + done.stderr, file=sys.stderr)
                return fail(f"workload {name} seed {seed} exited {done.returncode}")
            result = json.loads(lines[-1])
            bad |= not result["correct"]
            rows.append((name, seed, result))
    for name, seed, result in rows:
        print(f"{name} (seed {seed}):")
        for metric, m in result["metrics"].items():
            print(f"  {metric:12s} {m['value']:.6g} {m['unit']}")
        print(f"  {'failed_ops':12s} {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']}/{result['attempted']})")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["tree-sweep", "large-games", "random-pair", "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    modules, error = load_program()
    if error:
        return fail(error)
    if args.workload == "all":
        return run_all(args, modules)
    return run_one(args, modules)


if __name__ == "__main__":
    sys.exit(main())
