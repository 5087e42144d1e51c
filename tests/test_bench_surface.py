"""The benchmark's traced run wraps palette functions by name; a deletion or
rename in the package must fail here, not only in the benchmark."""

import importlib.util
from pathlib import Path

from palette import adversaries, engine
from palette.graph import Graph

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _ in tracing.FUNCTIONS + tracing.GENERATORS
        if not callable(getattr(module, name, None))
    ]
    missing += [
        f"Graph.{name}" for name in tracing.GRAPH_METHODS if not callable(getattr(Graph, name, None))
    ]
    assert missing == []


def test_a_trace_exposes_what_the_bench_reads():
    """The workload checks and the tracer read a Trace's steps (their count
    and each step's u, v and color), colored_count, graph and k."""
    trace = engine.run("nf", adversaries.nf_path_killer(5))
    assert len(trace.steps) == 11 and trace.colored_count == 6
    assert [(s.u, s.v) for s in trace.steps] == trace.graph.edges
    assert [s.color for s in trace.steps] == [1, 2] * 3 + [None] * 5
    assert (trace.k, trace.graph.num_edges) == (2, 11)
    assert len(_tracing().trace_key(trace)) == 16  # hashes k, algorithm and each step
