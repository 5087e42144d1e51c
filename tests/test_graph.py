import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palette.graph import (
    Graph,
    GraphError,
    PartialColoring,
    build_graph,
    color_bit,
    format_edge_list,
    full_mask,
    lowest_free_color,
    parse_edge_list,
    path_positions,
    rooted_view,
)
from palette.oracle import opt_tree


def is_proper(coloring, g):
    """Reference properness check: edge by edge, ignoring the cached masks."""
    colors = dict(enumerate(coloring.colors))  # undecided edges are absent
    for eid, c in colors.items():
        if c is None:
            continue
        for f in g.adjacent_edges(eid):
            if colors.get(f) == c:
                return False
    return True


def test_add_edge_first():
    g = Graph()
    assert g.add_edge(0, 1) == 0
    assert len(g.incident[0]) == len(g.incident[1]) == 1


def test_path_degrees():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    assert [len(g.incident[v]) for v in range(4)] == [1, 2, 2, 1]


def test_duplicate_edge_rejected():
    g = Graph()
    g.add_edge(0, 1)
    with pytest.raises(GraphError):
        g.add_edge(0, 1)
    with pytest.raises(GraphError):
        g.add_edge(1, 0)


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        Graph().add_edge(2, 2)


def test_colors_at():
    g = build_graph([(0, 1), (0, 2), (0, 3)])
    c = PartialColoring(3)
    c.color(g, 0, 1)
    c.color(g, 1, 2)
    assert c.used_mask(0) == color_bit(1) | color_bit(2)
    assert c.used_mask(3) == 0


def test_uncolored_vertices_have_used_no_color():
    """A vertex past the mask list, a negative id and a vertex never colored
    all read 0, and so do the fresh endpoints of an edge."""
    g = build_graph([(0, 1), (2, 3), (1, 4)])
    c = PartialColoring(3)
    c.color(g, 0, 2)
    c.reject(1)
    assert [c.used_mask(v) for v in (-1, 0, 1, 2, 3, 4, 5, 10**6)] == [0, 2, 2, 0, 0, 0, 0, 0]
    assert c.used_masks(6) == [2, 2, 0, 0, 0, 0]
    assert c.available_mask(g, 1) == full_mask(3)  # fresh endpoints past the list
    assert c.available_mask(g, 2) == full_mask(3) & ~color_bit(2)
    c.color(g, 2, 1)
    assert c.used_masks(3) == [2, 3, 0]
    assert c.used_mask(4) == color_bit(1)


def test_colors_at_ignores_rejected():
    g = build_graph([(0, 1), (1, 2)])
    c = PartialColoring(2)
    c.reject(0)
    c.color(g, 1, 2)
    assert c.used_mask(1) == color_bit(2)


def test_classify():
    assert build_graph([(0, 1), (1, 2), (2, 3)]).classify() == "path"
    assert build_graph([(0, i) for i in range(1, 5)]).classify() == "star"
    assert build_graph([(0, 1), (1, 2), (2, 0)]).classify() == "other"
    assert build_graph([(0, 1), (1, 2), (1, 3), (3, 4)]).classify() == "tree"
    assert build_graph([(0, 1), (2, 3)]).classify() == "other"  # disconnected


def test_coloring_enforces_properness():
    g = build_graph([(0, 1), (1, 2)])
    c = PartialColoring(2)
    c.color(g, 0, 1)
    with pytest.raises(GraphError):
        c.color(g, 1, 1)
    c.color(g, 1, 2)
    assert is_proper(c, g)


def test_color_out_of_range():
    g = build_graph([(0, 1)])
    c = PartialColoring(2)
    with pytest.raises(GraphError):
        c.color(g, 0, 3)


def test_double_decision_rejected():
    g = build_graph([(0, 1)])
    c = PartialColoring(2)
    c.color(g, 0, 1)
    with pytest.raises(GraphError):
        c.reject(0)


def test_decisions_are_one_list_in_reveal_order():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    c = PartialColoring(2)
    c.color(g, 0, 1)
    c.reject(1)
    c.color(g, 2, 1)
    assert c.colors == [1, None, 1]
    assert (c.colored_count, c.rejected_count, c.colored_edges()) == (2, 1, [0, 2])


def test_only_the_next_undecided_edge_is_decided():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    c = PartialColoring(2)
    for decide in (lambda e: c.color(g, e, 1), c.reject):
        for eid in (1, 2, 7):  # past edge 0, which is undecided
            with pytest.raises(GraphError, match=f"^edge {eid} is not the next undecided edge 0$"):
                decide(eid)
    c.color(g, 0, 1)
    for decide in (lambda e: c.color(g, e, 2), c.reject):
        with pytest.raises(GraphError, match="^edge 0 already decided$"):
            decide(0)
        with pytest.raises(GraphError, match="^edge 2 is not the next undecided edge 1$"):
            decide(2)
    with pytest.raises(GraphError, match="^edge -1 is not the next undecided edge 1$"):
        c.reject(-1)
    assert c.colors == [1]  # no refused call left a trace
    c.reject(1)
    assert c.colors == [1, None]


def test_lowest_free_color():
    assert lowest_free_color(0b000, 3) == 1
    assert lowest_free_color(0b101, 3) == 2
    assert lowest_free_color(0b111, 3) is None
    assert full_mask(4) == 0b1111


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_cache_coherence_random_runs(seed, k):
    """Incremental used-color masks always equal a from-scratch recount."""
    import random

    from palette import harness

    rng = random.Random(seed)
    m = rng.randrange(1, 10)
    edges = harness.random_reveal(rng, harness.random_tree_edges(rng, m))
    g = Graph()
    c = PartialColoring(k)
    for u, v in edges:
        eid = g.add_edge(u, v)
        mask = c.available_mask(g, eid)
        if mask and rng.random() < 0.8:
            choices = [col for col in range(1, k + 1) if mask >> (col - 1) & 1]
            c.color(g, eid, rng.choice(choices))
        else:
            c.reject(eid)
        for v2 in range(g.num_vertices):
            recount = 0
            for f in g.incident[v2]:
                if (col := c.colors[f]) is not None:
                    recount |= color_bit(col)
            assert c.used_mask(v2) == recount
        assert is_proper(c, g)


def test_path_positions():
    # positions are 1..m along the path regardless of reveal order
    edges = [(2, 3), (0, 1), (1, 2)]
    assert path_positions(edges) == [3, 1, 2]
    with pytest.raises(GraphError):
        path_positions([(0, 1), (1, 2), (2, 0)])
    # a path beside a triangle: degrees <= 2, an end, vertices 0..m; only the walk refuses it
    with pytest.raises(GraphError, match="edges do not form a path"):
        path_positions([(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])


def _path_positions_by_shape(edges):
    """Reference: classify the whole graph, then walk its adjacency."""
    g = build_graph(edges)
    if g.classify() != "path":
        raise GraphError("edges do not form a path")
    v = min(x for x in range(g.num_vertices) if len(g.incident[x]) == 1)
    pos_of_eid, prev = [0] * g.num_edges, None
    for pos in range(1, g.num_edges + 1):
        eid = next(f for f in g.incident[v] if f != prev)
        pos_of_eid[eid] = pos
        v, prev = g.other_end(eid, v), eid
    return pos_of_eid


def _outcome(fn, edges):
    try:
        return fn(edges)
    except GraphError as err:
        return f"GraphError: {err}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=7),
       st.randoms(use_true_random=False))
def test_path_positions_matches_the_shape_reference(edges, rng):
    """Same positions, or the same GraphError message, as classifying the
    graph: on arbitrary small edge lists and on shuffled, flipped paths."""
    assert _outcome(path_positions, edges) == _outcome(_path_positions_by_shape, edges)
    path = [(i, i + 1) if rng.random() < 0.5 else (i + 1, i) for i in range(len(edges) + 1)]
    rng.shuffle(path)
    assert path_positions(path) == _path_positions_by_shape(path)


def test_adjacency_is_built_on_first_read_and_kept_current():
    """Reading `incident` between insertions gives the adjacency of a graph
    built eagerly, at every prefix."""
    import random

    from palette import harness

    rng = random.Random(8)
    for _ in range(40):
        edges = harness.random_reveal(rng, harness.random_tree_edges(rng, rng.randrange(1, 15)))
        g = Graph()
        for i, (u, v) in enumerate(edges):
            g.add_edge(u, v)
            if rng.random() < 0.3:
                eager = [[] for _ in range(g.num_vertices)]
                for eid, (a, b) in enumerate(edges[: i + 1]):
                    eager[a].append(eid)
                    eager[b].append(eid)
                assert g.incident == [tuple(row) for row in eager]
                assert g.num_vertices == max(map(max, edges[: i + 1])) + 1
        assert g.incident == build_graph(edges).incident


def test_edge_list_round_trip():
    text = "0 1\n# a comment\n1 2  # trailing\n\n2 3\n"
    edges = parse_edge_list(text)
    assert edges == [(0, 1), (1, 2), (2, 3)]
    assert parse_edge_list(format_edge_list(edges)) == edges


def test_edge_list_errors():
    with pytest.raises(GraphError):
        parse_edge_list("0\n")
    with pytest.raises(GraphError):
        parse_edge_list("0 x\n")
    with pytest.raises(GraphError):
        parse_edge_list("0 -2\n")


def test_rooted_view_roots_each_tree_at_the_first_start_reaching_it():
    # trees {0,1,2}, {3,4,5,6} and {8,9}; vertex 7 is isolated
    g = build_graph([(4, 5), (0, 1), (3, 4), (1, 2), (3, 6), (8, 9)])
    view = rooted_view(g, [4, 2, 4, 7, 1, 9, 0])
    parent_vertex = [-1 if pe == -1 else g.other_end(pe, x)
                     for x, pe in enumerate(view.parent_edge)]
    assert parent_vertex == [1, 2, -1, 4, -1, 4, 3, -1, 9, -1]
    assert view.parent_edge == [1, 3, -1, 2, -1, 0, 4, -1, 5, -1]
    # child edges in reveal order: vertex 4 reaches 5 before 3
    children = [[f for f in g.incident[x] if f != view.parent_edge[x]]
                for x in range(g.num_vertices)]
    assert children == [[], [1], [3], [4], [0, 2], [], [], [], [], [5]]
    assert sorted(view.order) == list(range(10))
    assert [x for x in view.order if view.parent_edge[x] == -1] == [4, 2, 7, 9]
    place = {x: i for i, x in enumerate(view.order)}
    assert all(place[parent_vertex[x]] < place[x]
               for x in view.order if parent_vertex[x] != -1)


def test_rooted_view_skips_reached_starts_and_refuses_bad_ones():
    g = build_graph([(0, 1), (1, 2), (3, 4)])
    view = rooted_view(g, [1])
    assert sorted(view.order) == [0, 1, 2]  # 3 and 4 are never reached
    assert rooted_view(g, [1, 0, 2]) == view
    for start in (5, -1):
        with pytest.raises(GraphError, match=f"root {start} out of range"):
            rooted_view(g, [0, start])


def test_opt_tree_refuses_a_cycle_beside_a_tree():
    g = build_graph([(0, 1), (1, 2), (2, 0), (4, 5)])  # vertex 3 is isolated
    with pytest.raises(GraphError, match="tree oracle requires an acyclic graph"):
        opt_tree(g, 2)


def test_components_split_the_walk_at_its_roots():
    # a triangle, an isolated vertex 3, a path and a star
    g = build_graph([(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (7, 8), (7, 9), (7, 10)])
    comps = g.components()
    assert [c[0] for c in comps] == [0, 3, 4, 7]
    assert [sorted(c) for c in comps] == [[0, 1, 2], [3], [4, 5, 6], [7, 8, 9, 10]]
    assert not g.is_forest() and not g.is_tree()
    forest = build_graph([(0, 1), (2, 3), (3, 4)])
    assert len(forest.components()) == 2 and forest.is_forest() and not forest.is_tree()
    assert build_graph([(2, 0), (0, 1), (1, 3)]).is_tree()


def _reference_shape(g):
    """(is_forest, is_tree) from a union-find component count, apart from the
    walk: a forest has m + components == n, a tree also has one component."""
    root = list(range(g.num_vertices))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    components = g.num_vertices
    for u, v in g.edges:
        a, b = find(u), find(v)
        if a != b:
            root[a] = b
            components -= 1
    forest = g.num_edges + components == g.num_vertices
    return forest, forest and components == 1


def test_forest_and_tree_tests_agree_with_a_component_count():
    import random

    from palette import harness

    rng, shapes = random.Random(5), set()
    for t in range(300):
        m = rng.randrange(0, 16)
        edges = harness.random_tree_edges(rng, m)
        if t % 3 == 1:  # a forest: drop edges, then spread the ids out, leaving isolated ones
            edges = [e for e in edges if rng.random() < 0.7]
            ids = sorted(rng.sample(range(3 * m + 3), m + 1))
            edges = [(ids[u], ids[v]) for u, v in edges]
        elif t % 3 == 2 and m >= 2:  # one cycle: join two vertices the tree does not join
            pairs = {(u, v) for u in range(m + 1) for v in range(u + 1, m + 1)}
            edges.append(rng.choice(sorted(pairs - {tuple(sorted(e)) for e in edges})))
        rng.shuffle(edges)
        g = Graph()
        for u, v in edges:  # each answer is read from the walk cached since the last edge
            g.add_edge(u, v)
            shape = (g.is_forest(), g.is_tree())
            assert shape == _reference_shape(g), g.edges
            shapes.add(shape)
    assert shapes == {(True, True), (True, False), (False, False)}
    assert (Graph().is_forest(), Graph().is_tree()) == (True, False)
