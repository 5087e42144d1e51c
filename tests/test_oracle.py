import hashlib
import random
from itertools import combinations, product

import pytest

from palette import engine, harness
from palette.adversaries import nf_tree_worstcase, star_chain
from palette.graph import GraphError, build_graph
from palette.oracle import (
    OptWitness,
    audit_witness,
    opt_bruteforce,
    opt_path,
    opt_tree,
    opt_witness,
)


def brute_matching(edges):
    """Independent maximum-matching count by subset enumeration."""
    best = 0
    for r in range(len(edges), 0, -1):
        for sub in combinations(edges, r):
            seen = set()
            ok = True
            for u, v in sub:
                if u in seen or v in seen:
                    ok = False
                    break
                seen.update((u, v))
            if ok:
                return r
    return best


def test_opt_path_closed_form():
    assert opt_path(727, 2) == 727
    assert opt_path(0, 5) == 0
    # k=1 is maximum matching; check against enumeration
    for m in range(1, 9):
        edges = [(i, i + 1) for i in range(m)]
        assert opt_path(m, 1) == brute_matching(edges)
    assert opt_path(5, 1) == 3


def test_opt_path_rejects_bad_parameters():
    with pytest.raises(ValueError):
        opt_path(3, 0)
    with pytest.raises(ValueError):
        opt_path(-1, 2)
    # the tree and brute-force optima refuse k < 1 too
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        opt_tree(build_graph([(0, 1)]), 0)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        opt_bruteforce(build_graph([(0, 1)]), 0)


def test_opt_tree_star_degree_cap():
    g = build_graph([(0, i) for i in range(1, 4)])  # star with k+1 edges, k=2
    w = opt_tree(g, 2)
    assert w.count == 2
    audit_witness(g, 2, w)


def test_opt_tree_star_chain_instance():
    trace = engine.run("ff", star_chain(5, 200, "ff"))
    w = opt_tree(trace.graph, 5)
    assert w.count == 1000
    audit_witness(trace.graph, 5, w)


def test_opt_tree_bunch_instance():
    trace = engine.run("nf", nf_tree_worstcase(4, 10))
    w = opt_tree(trace.graph, 4)
    assert w.count == 239
    audit_witness(trace.graph, 4, w)


def _forest_edges(rng, m):
    """Random trees with m edges in all, each placed at a vertex offset that
    can skip ids (those vertices stay isolated), in shuffled order."""
    edges, base = [], 0
    while m > 0:
        size = rng.randrange(1, m + 1)
        base += rng.randrange(0, 3)
        edges += [(base + u, base + v) for u, v in harness.random_tree_edges(rng, size)]
        base += size + 1
        m -= size
    rng.shuffle(edges)
    return edges


# edges and coloring of every witness below, for k in 1..5
OPT_TREE_SHA256 = "a570a32172f11742ddb29cf737343a3a83a292e3a30527ffd0f7cfeebbb43907"


def test_opt_tree_witnesses_are_pinned():
    rng = random.Random(11)
    graphs = []
    for i in range(120):
        m = rng.randrange(0, 25)
        edges = harness.random_tree_edges(rng, m) if i % 2 else _forest_edges(rng, m)
        rng.shuffle(edges)
        graphs.append(build_graph(edges))
    graphs.append(engine.run("ff", star_chain(5, 200, "ff")).graph)
    graphs.append(engine.run("nf", nf_tree_worstcase(16, 2)).graph)
    h = hashlib.sha256()
    for g in graphs:
        for k in range(1, 6):
            w = opt_tree(g, k)
            h.update(f"{g.num_vertices} {k} {sorted(w.edges)} {sorted(w.coloring.items())}\n".encode())
    assert h.hexdigest() == OPT_TREE_SHA256


def test_opt_tree_rejects_cycles():
    with pytest.raises(GraphError):
        opt_tree(build_graph([(0, 1), (1, 2), (2, 0)]), 2)


def test_opt_tree_on_forest():
    g = build_graph([(0, 1), (1, 2), (3, 4)])
    w = opt_tree(g, 2)
    assert w.count == 3
    audit_witness(g, 2, w)


def test_bruteforce_triangle():
    g = build_graph([(0, 1), (1, 2), (2, 0)])
    assert opt_bruteforce(g, 1).count == 1
    assert opt_bruteforce(g, 2).count == 2  # three mutually adjacent edges
    assert opt_bruteforce(g, 3).count == 3


def test_bruteforce_guard():
    edges = [(i, i + 1) for i in range(17)]
    with pytest.raises(ValueError):
        opt_bruteforce(build_graph(edges), 2)


def test_oracles_agree_on_random_trees():
    rng = random.Random(100)
    for _ in range(60):
        m = rng.randrange(1, 13)
        g = build_graph(harness.random_tree_edges(rng, m))
        for k in (1, 2, 3, 4):
            a, b = opt_tree(g, k), opt_bruteforce(g, k)
            assert a.count == b.count
            audit_witness(g, k, a)
            audit_witness(g, k, b)


def test_opt_monotone_under_edge_addition():
    rng = random.Random(7)
    for _ in range(15):
        m = rng.randrange(2, 10)
        edges = harness.random_tree_edges(rng, m)
        k = rng.choice([1, 2, 3])
        prev = 0
        for i in range(1, m + 1):
            cur = opt_bruteforce(build_graph(edges[:i]), k).count
            assert cur >= prev
            prev = cur


def test_opt_value_dispatch():
    tree = build_graph([(0, 1), (1, 2)])
    assert opt_witness(tree, 2).count == 2
    triangle = build_graph([(0, 1), (1, 2), (2, 0)])
    assert opt_witness(triangle, 2).count == 2


@pytest.mark.parametrize("edges,coloring,count,message", [
    ({1}, {1: 5}, 1, "witness color 5 outside 1..2"),
    ({0, 1, 2}, {0: 1, 1: 2, 2: 2}, 3, "colors adjacent edges 1,2 alike"),
    ({0, 2}, {2: 1, 0: -1}, 2, "witness color -1 outside 1..2"),
    ({0, 2}, {0: 1, 2: 3}, 2, "witness color 3 outside 1..2"),
    ({0, 2}, {0: 0, 2: 1}, 2, "witness color 0 outside 1..2"),
    ({0, 1}, {0: 2, 1: 2}, 2, "colors adjacent edges 0,1 alike"),
    ({-1, 0}, {-1: 1, 0: 1}, 2, "witness edge ids outside 0..2"),  # not read as edge 2
    ({7}, {7: 1}, 1, "witness edge ids outside 0..2"),  # not an IndexError
])
def test_audit_witness_refuses_bad_witnesses(edges, coloring, count, message):
    """A witness's edge set and count are read from its coloring, which the
    audit refuses when an edge id or a color is out of range or a color
    repeats at a vertex."""
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    audit_witness(g, 2, OptWitness({0: 1, 1: 2, 2: 1}))
    witness = OptWitness(coloring)
    assert (witness.edges, witness.count) == (edges, count)
    with pytest.raises(GraphError, match=message):
        audit_witness(g, 2, witness)


def scan_refuses(g, k, witness) -> bool:
    """Reference audit, True where it refuses: each witness edge's color range
    and its adjacent edges scanned for that color."""
    return any(not 1 <= c <= k or any(witness.coloring.get(f) == c for f in g.adjacent_edges(eid))
               for eid, c in witness.coloring.items())


def test_audit_witness_refuses_what_the_adjacent_edge_scan_refuses():
    refused = seen = 0
    for m in range(1, 5):
        for edges, _ in harness.tree_reveal_orders(m):
            g = build_graph(edges)
            for size in range(m + 1):
                for subset, colors in product(combinations(range(m), size), product((1, 2, 3), repeat=size)):
                    witness = OptWitness(dict(zip(subset, colors)))
                    for k in (2, 3):
                        try:
                            audit_witness(g, k, witness)
                        except GraphError:
                            refused += 1
                            assert scan_refuses(g, k, witness)
                        else:
                            assert not scan_refuses(g, k, witness)
                        seen += 1
    assert 0 < refused < seen
