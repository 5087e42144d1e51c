"""The benchmark's traced run wraps palette functions by name; a deletion or
rename in the package must fail here, not only in the benchmark."""

import importlib.util
from pathlib import Path

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
