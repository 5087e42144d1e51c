"""The benchmark's traced run wraps palette functions by name; a deletion or
rename in the package must fail here, not only in the benchmark."""

import importlib.util
import inspect
from pathlib import Path

from palette import adversaries, engine, oracle
from palette.exact import Sqrt5
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
    # the counted Sqrt5 constructor forwards (a, b); the session spans wrap these scripts
    assert str(inspect.signature(vars(Sqrt5)["__init__"])) == "(self, a, b=0)"
    scripts = {cls.__name__ for cls in tracing._script_classes()}
    assert {"_DetPathKiller", "_StarChain", "_PathThenStars"} <= scripts


def test_a_trace_exposes_what_the_bench_reads():
    """The workload checks and the tracer read a Trace's steps (their count
    and each step's u, v and color), colored_count, graph and k."""
    trace = engine.run("nf", adversaries.nf_path_killer(5))
    assert len(trace.steps) == 11 and trace.colored_count == 6
    assert [(s.u, s.v) for s in trace.steps] == trace.graph.edges
    assert [s.color for s in trace.steps] == [1, 2] * 3 + [None] * 5
    assert (trace.k, trace.graph.num_edges) == (2, 11)
    assert len(_tracing().trace_key(trace)) == 16  # hashes k, algorithm and each step


def test_a_witness_exposes_what_the_bench_reads():
    """The large-games check reads an optimum's count: `opt_tree(...).count`."""
    trace = engine.run("ff", adversaries.star_chain(3, 4, "ff"))
    assert oracle.opt_tree(trace.graph, trace.k).count == 3 * 4
