"""Span tracing for the traced benchmark run, applied from outside the package.

`instrument(tracer)` wraps the public functions of every palette layer, in
every module namespace that imported them, plus the whole-graph `Graph`
methods and the adaptive adversaries' `session()` generators.  Nothing under
`src/` changes; the wrappers are removed again when the context exits.

Per-element accessors (`Graph.endpoints`, `Graph.add_edge`, the strategies'
`decide`) are deliberately not wrapped: they run millions of times per pass
and a span around each would measure the tracer, not the layer.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once, at the end of the run.  A span's self time is its duration
minus the durations of its direct children, so the self times of one pass
add up to the pass's own span.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

import palette
from palette import adversaries, charging, cli, engine, exact, graph, harness, oracle

MODULES = (palette, adversaries, charging, cli, engine, exact, graph, harness, oracle)

# (module, attribute, span name); spans are named after the layer they time
FUNCTIONS = [
    (engine, "run", "engine.run"),
    (engine, "rp_path_colored_counts", "engine.rp_kernel"),
    (engine, "audit_fair", "engine.audit_fair"),
    (adversaries, "nf_path_killer", "adversaries.nf_path_killer"),
    (adversaries, "det_path_killer", "adversaries.det_path_killer"),
    (adversaries, "star_chain", "adversaries.star_chain"),
    (adversaries, "nf_tree_worstcase", "adversaries.nf_tree_worstcase"),
    (adversaries, "bunch_plan", "adversaries.bunch_plan"),
    (adversaries, "nextfit_order", "adversaries.nextfit_order"),
    (adversaries, "rp_strategy_mod3", "adversaries.rp_strategy_mod3"),
    (adversaries, "rp_strategy_oddeven", "adversaries.rp_strategy_oddeven"),
    (adversaries, "yao_instance", "adversaries.yao_instance"),
    (adversaries, "path_edges", "adversaries.path_edges"),
    (oracle, "opt_tree", "oracle.opt_tree"),
    (oracle, "audit_witness", "oracle.audit_witness"),
    (charging, "ff_tree_charge", "charging.ff_tree_charge"),
    (charging, "fair_tree_charge", "charging.fair_tree_charge"),
    (charging, "rp_path_charge", "charging.rp_path_charge"),
    (charging, "edge_classes", "charging.edge_classes"),
    (charging, "rooted_view", "charging.rooted_view"),
    (charging, "critical_edges", "charging.critical_edges"),
    (graph, "build_graph", "graph.build_graph"),
    (graph, "path_positions", "graph.path_positions"),
    (harness, "exhaustive_trees", "harness.exhaustive_trees"),
    (harness, "verify_ff_trees", "harness.verify_ff_trees"),
    (harness, "verify_fair_trees", "harness.verify_fair_trees"),
    (harness, "verify_rp_paths", "harness.verify_rp_paths"),
    (harness, "yao_experiment", "harness.yao_experiment"),
    (harness, "random_tree_edges", "harness.random_tree_edges"),
    (harness, "random_reveal", "harness.random_reveal"),
]
GENERATORS = [(harness, "tree_reveal_orders", "harness.tree_reveal_orders")]
GRAPH_METHODS = ("is_tree", "is_forest", "components", "classify")

# spans a charge spends on per-trace checks and setup rather than the ledger
PREP = {
    "charging.edge_classes",
    "charging.rooted_view",
    "oracle.audit_witness",
    "graph.is_tree",
    "engine.run",
    "engine.audit_fair",
}
CHARGES = {"charging.ff_tree_charge", "charging.fair_tree_charge"}
BOOKKEEPING = "trace.bookkeeping"


def trace_key(trace) -> bytes:
    """Identity of a played game: k, algorithm and every (u, v, color) step."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{trace.k}/{trace.algorithm}/".encode())
    h.update(repr([(s.u, s.v, s.color) for s in trace.steps]).encode())
    return h.digest()


class Tracer:
    """In-memory span store plus the exact counts taken at the same wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.traces: set[bytes] = set()
        self.charged: set[bytes] = set()
        self.kernel_state_bytes = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, *args, **kwargs):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def mark(self) -> int:
        """Index of the next span, to cut the store into passes."""
        return len(self.name)

    def _arrays_since(self, first: int):
        # slicing copies, so no numpy view pins the growable arrays
        dur = np.frombuffer(self.end[first:]) - np.frombuffer(self.start[first:])
        names = np.frombuffer(self.name[first:], dtype=np.int32)
        parents = np.frombuffer(self.parent[first:], dtype=np.int32) - first
        return dur, names, parents

    def spans_since(self, first: int) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name over spans[first:]."""
        dur, names, parents = self._arrays_since(first)
        inside = parents >= 0
        self_s = dur.copy()
        np.subtract.at(self_s, parents[inside], dur[inside])
        out = {}
        for nid in np.unique(names):
            sel = names == nid
            out[self.names[nid]] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
            }
        return out

    def prep_seconds_since(self, first: int) -> float:
        """Time of the PREP spans that are direct children of a tree charge."""
        dur, names, parents = self._arrays_since(first)
        inside = parents >= 0
        parent_name = np.full(len(names), -1, dtype=np.int32)
        parent_name[inside] = names[parents[inside]]
        ids = lambda group: [self._ids[x] for x in group if x in self._ids]
        prep = np.isin(names, ids(PREP)) & np.isin(parent_name, ids(CHARGES))
        return float(dur[prep].sum())

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name[:], dtype=np.int32),
            parent=np.frombuffer(self.parent[:], dtype=np.int32),
            start=np.frombuffer(self.start[:]),
            end=np.frombuffer(self.end[:]),
        )

    # -- wrappers --------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        after = _AFTER.get(name)
        bookkeeping = self.name_id(BOOKKEEPING)

        def traced(*args, **kwargs):
            result = self.call(nid, fn, *args, **kwargs)
            if after is not None:
                self.call(bookkeeping, after, self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator_function(self, name: str, fn):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            return _TracedGenerator(self, nid, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced


class _TracedGenerator:
    """Times every resumption of a generator as one span of its owner."""

    __slots__ = ("tracer", "nid", "gen", "items")

    def __init__(self, tracer, nid, gen):
        self.tracer, self.nid, self.gen = tracer, nid, gen
        self.items = tracer.names[nid] + ".items"

    def __iter__(self):
        return self

    def __next__(self):
        item = self.tracer.call(self.nid, self.gen.__next__)
        self.tracer.counts[self.items] += 1
        return item

    def send(self, value):
        return self.tracer.call(self.nid, self.gen.send, value)


# -- exact counts taken after a traced call returns (timed as bookkeeping) --


def _after_run(tracer, args, kwargs, trace):
    tracer.counts["engine.run.edges"] += len(trace.steps)
    tracer.traces.add(trace_key(trace))


def _after_kernel(tracer, args, kwargs, counts):
    order = args[0]
    trials = args[2] if len(args) > 2 else kwargs["trials"]
    m = len(order)
    tracer.counts["engine.rp_kernel.trial_steps"] += trials * m
    # int8 state of shape (trials, m + 2) plus the int64 colored counter
    tracer.kernel_state_bytes = max(tracer.kernel_state_bytes, trials * (m + 2) + 8 * trials)


def _after_charge(tracer, args, kwargs, report):
    tracer.charged.add(trace_key(args[0]))


def _after_rp_charge(tracer, args, kwargs, report):
    tracer.counts["charging.rp_path_charge.edges"] += len(report.rows)


def _after_opt(tracer, args, kwargs, witness):
    tracer.counts["oracle.opt_tree.edges"] += args[0].num_edges


_AFTER = {
    "engine.run": _after_run,
    "engine.rp_kernel": _after_kernel,
    "charging.ff_tree_charge": _after_charge,
    "charging.rp_path_charge": _after_rp_charge,
    "oracle.opt_tree": _after_opt,
}


def _script_classes():
    return [
        obj
        for obj in vars(adversaries).values()
        if isinstance(obj, type)
        and issubclass(obj, adversaries.AdversaryScript)
        and "session" in vars(obj)
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    restore: list[tuple[object, str, object]] = []

    def patch_everywhere(original, wrapper):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def patch_attr(owner, attr, wrapper):
        restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    try:
        for mod, attr, name in FUNCTIONS:
            original = getattr(mod, attr)
            patch_everywhere(original, tracer.wrap(name, original))
        for mod, attr, name in GENERATORS:
            original = getattr(mod, attr)
            patch_everywhere(original, tracer.wrap_generator_function(name, original))
        for attr in GRAPH_METHODS:
            patch_attr(graph.Graph, attr, tracer.wrap(f"graph.{attr}", vars(graph.Graph)[attr]))
        for cls in _script_classes():
            patch_attr(
                cls,
                "session",
                tracer.wrap_generator_function("adversaries.session", vars(cls)["session"]),
            )
        sqrt5_init = vars(exact.Sqrt5)["__init__"]

        def counted_init(self, a, b=0):
            tracer.counts["exact.sqrt5_values"] += 1
            sqrt5_init(self, a, b)

        patch_attr(exact.Sqrt5, "__init__", counted_init)
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
