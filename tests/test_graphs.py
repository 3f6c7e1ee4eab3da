"""Generators, degeneracy orderings, and graph serialization."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sumchoice.choosability import lists_from_json
from sumchoice.graphs import (
    GraphError,
    as_real,
    complete_bipartite,
    complete_split,
    cycle,
    degeneracy_order,
    disjoint_cliques,
    generate,
    graph_from_json,
    graph_to_json,
    load_graph,
    make_graph,
    path,
    prufer_edges,
    random_graph,
    star,
)

FIXTURES = Path(__file__).parent / "fixtures"

PROPERTY_SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def small_graph(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    return make_graph(n, edges)


def test_complete_bipartite_shape():
    g = generate("complete_bipartite", [2, 3])
    assert g.n == 5 and g.m == 6
    assert len(g.parts[0]) == 2 and len(g.parts[1]) == 3


def test_complete_split_shape():
    g = generate("complete_split", [3, 2])
    assert g.m == 9  # K_{3,2} plus the 3 edges inside A


def test_disjoint_cliques():
    g = generate("disjoint_cliques", [2, 2])
    assert g.n == 4 and g.m == 2


def test_star_and_path_and_cycle():
    assert generate("star", [4]).m == 4
    assert generate("path", [5]).m == 4
    assert generate("cycle", [5]).m == 5


def test_star_is_the_labeled_k1q():
    for q in range(1, 30):
        g = star(q)
        assert (g.n, g.edges) == (q + 1, tuple((0, v) for v in range(1, q + 1)))
        assert g.parts == ((0,), tuple(range(1, q + 1))) and g.structure == "complete_bipartite"
    for q in (0, -2):
        with pytest.raises(GraphError, match=f"parameter q must be positive, got {q}"):
            star(q)


def test_unknown_family_rejected():
    with pytest.raises(GraphError):
        generate("petersen", [1])


def test_nonpositive_parameter_rejected():
    with pytest.raises(GraphError):
        generate("path", [0])
    with pytest.raises(GraphError):
        generate("complete_bipartite", [2, -1])


def test_wrong_parameter_count_rejected():
    with pytest.raises(GraphError, match="too many parameters"):
        generate("path", [3, 9])
    with pytest.raises(GraphError, match="too many parameters"):
        generate("cycle", [5, 1, 2])
    with pytest.raises(GraphError, match="too few parameters"):
        generate("random_graph", [5, 3])
    with pytest.raises(GraphError, match="too few parameters"):
        generate("disjoint_cliques", [])
    assert generate("disjoint_cliques", [1, 2, 3, 4]).n == 10


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        make_graph(2, [(1, 1)])


@pytest.mark.parametrize("bad", [4.7, 4.0, "4"])
def test_generate_parameters_must_be_integers(bad):
    with pytest.raises(GraphError, match=f"family parameters must be integers, got {bad!r}"):
        generate("cycle", [bad])
    assert generate("path", [True]) == generate("path", [1])


@pytest.mark.parametrize("bad", [2.5, "3"])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: complete_bipartite(x, 3),
        lambda x: cycle(x),
        lambda x: disjoint_cliques(2, x),
        lambda x: random_graph(5, x, 1),
        lambda x: path(x),
    ],
)
def test_family_sizes_must_be_integers(build, bad):
    # read by as_int, as generate reads them; these died with a TypeError
    with pytest.raises(GraphError, match=f"family parameters must be integers, got {bad!r}"):
        build(bad)


@pytest.mark.parametrize("bad", [1.5, 1.0, "1"])
def test_make_graph_labels_must_be_integers(bad):
    with pytest.raises(GraphError, match=f"edge ends must be integers, got {bad!r}"):
        make_graph(3, [(0, bad)])
    with pytest.raises(GraphError, match=f"part labels must be integers, got {bad!r}"):
        make_graph(3, [(0, 1)], parts=((0,), (bad, 2)))
    assert make_graph(2, [(False, True)], parts=((False,), (True,))) == complete_bipartite(1, 1)


@pytest.mark.parametrize(
    "g, classes",
    [
        (complete_bipartite(1, 1), ((0, 1),)),
        (complete_split(3, 1), ((0, 1, 2, 3),)),
        (make_graph(4, complete_bipartite(2, 2).edges), ((0, 1), (2, 3))),
        (complete_bipartite(2, 3), ((0, 1), (2, 3, 4))),
        (complete_split(2, 3), ((0, 1), (2, 3, 4))),
        (disjoint_cliques(3, 2, 1), ((0, 1, 2), (3, 4))),
        (star(3), ((1, 2, 3),)),
        (path(4), ()),
        (make_graph(3, []), ((0, 1, 2),)),
    ]
    + [(random_graph(6, m, seed), None) for m in (4, 7, 10) for seed in range(4)],
)
def test_twin_classes_are_the_swappable_pairs(g, classes):
    # Two vertices lie in one class iff swapping them maps the edge set onto
    # itself; the classes are disjoint, ascending and of two or more.
    if classes is not None:
        assert g.twin_classes == classes
    edges = set(g.edges)
    members = [v for c in g.twin_classes for v in c]
    assert len(members) == len(set(members))
    assert all(len(c) > 1 and list(c) == sorted(c) for c in g.twin_classes)
    together = {p for c in g.twin_classes for p in itertools.combinations(c, 2)}
    for u, v in itertools.combinations(range(g.n), 2):
        swap = {u: v, v: u}
        image = {tuple(sorted((swap.get(x, x), swap.get(y, y)))) for x, y in edges}
        assert (image == edges) == ((u, v) in together), (g.edges, u, v)


def components(n, edges, gone=()):
    """The number of connected components of the graph on range(n) less the
    vertices ``gone``, by repeated union."""
    label = {v: v for v in range(n) if v not in gone}
    for u, v in edges:
        if u in label and v in label:
            old, new = label[u], label[v]
            for w in label:
                if label[w] == old:
                    label[w] = new
    return len(set(label.values()))


def test_blocks_match_brute_force_on_every_small_graph():
    # All 1,100 labeled graphs on zero to five vertices.
    seen = split = 0
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            g = make_graph(n, itertools.compress(pairs, chosen))
            seen += 1
            blocks = g.blocks
            assert list(blocks) == sorted(blocks) and all(list(b) == sorted(b) for b in blocks), g.edges
            # the cut vertices, those in two or more blocks, are exactly the
            # vertices whose deletion raises the component count
            count = [0] * n
            for b in blocks:
                for v in b:
                    count[v] += 1
            whole = components(n, g.edges)
            cut = {v for v in range(n) if components(n, g.edges, {v}) > whole}
            assert {v for v in range(n) if count[v] > 1} == cut, g.edges
            # the blocks partition the edge set
            owners = [[b for b in blocks if u in b and v in b] for u, v in g.edges]
            assert all(len(o) == 1 for o in owners), g.edges
            for b in blocks:
                inside = [(u, v) for u, v in g.edges if u in b and v in b]
                if len(b) == 1:  # an isolated vertex is its own block
                    assert not g.adj[b[0]], g.edges
                else:  # connected, and with three or more vertices no cut vertex
                    assert components(n, inside, set(range(n)) - set(b)) == 1, (g.edges, b)
                    if len(b) >= 3:
                        for v in b:
                            assert components(n, inside, set(range(n)) - set(b) | {v}) == 1, (g.edges, b, v)
            assert all((v,) in blocks for v in range(n) if not g.adj[v]), g.edges
            split += len(blocks) > 1
    assert (seen, split) == (1100, 848)


@pytest.mark.parametrize(
    "g, blocks",
    [
        (make_graph(0, []), ()),
        (make_graph(3, []), ((0,), (1,), (2,))),
        (path(4), ((0, 1), (1, 2), (2, 3))),
        (cycle(5), ((0, 1, 2, 3, 4),)),
        (star(3), ((0, 1), (0, 2), (0, 3))),
        (disjoint_cliques(3, 1, 2), ((0, 1, 2), (3,), (4, 5))),
        (random_graph(6, 8, 7), ((0, 1), (1, 3, 4, 5), (2, 5))),
    ],
)
def test_blocks_of_named_graphs(g, blocks):
    assert g.blocks == blocks


@pytest.mark.parametrize("value, want", [(0.5, 0.5), (1, 1.0), (True, 1.0), (Fraction(1, 4), 0.25)])
def test_as_real_reads_real_numbers(value, want):
    got = as_real(value, "probabilities")
    assert got == want and type(got) is float


@pytest.mark.parametrize("bad", ["0.5", b"0.5", None, 1j, 10**400])
def test_as_real_rejects_what_is_no_real_number(bad):
    with pytest.raises(ValueError, match="probabilities must be real numbers"):
        as_real(bad, "probabilities")


def test_generate_deterministic():
    g1 = generate("random_graph", [8, 11, 42])
    g2 = generate("random_graph", [8, 11, 42])
    assert g1.edges == g2.edges
    g3 = generate("random_graph", [8, 11, 43])
    assert g1.edges != g3.edges


def quadratic_prufer_edges(seq, n):
    """The textbook decoder: join each entry to the smallest leaf, found by
    a full scan, then join the two vertices left."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return edges


def test_prufer_edges_matches_quadratic_decoder():
    for n in range(2, 8):
        for seq in itertools.product(range(n), repeat=n - 2):
            assert prufer_edges(seq, n) == quadratic_prufer_edges(seq, n), (n, seq)


def test_random_tree_is_tree():
    for seed in range(8):
        g = generate("random_tree", [7, seed])
        assert g.m == 6
        # connectivity via bitmask flood fill
        reach = 1
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u in range(g.n):
                if g.has_edge(v, u) and not reach >> u & 1:
                    reach |= 1 << u
                    frontier.append(u)
        assert reach == (1 << g.n) - 1


def test_degeneracy_path3():
    vo = degeneracy_order(generate("path", [3]))
    assert max(vo.back_degree) == 1
    assert sum(vo.back_degree) == 2


def test_degeneracy_complete4_forced():
    vo = degeneracy_order(generate("complete", [4]))
    assert tuple(vo.back_degree[v] for v in vo.order) == (0, 1, 2, 3)


def test_degeneracy_cycle5_matches_brute_force():
    g = generate("cycle", [5])

    # oracle: minimum over all orderings of the maximum back-degree
    def max_back(order):
        pos = {v: i for i, v in enumerate(order)}
        back = [0] * g.n
        for u, v in g.edges:
            back[u if pos[u] > pos[v] else v] += 1
        return max(back)

    brute = min(max_back(p) for p in itertools.permutations(range(5)))
    assert brute == 2
    assert max(degeneracy_order(g).back_degree) == 2


def test_degeneracy_planar_fixture_at_most_5():
    g = load_graph(str(FIXTURES / "octahedron.json"))
    assert max(degeneracy_order(g).back_degree) <= 5


@PROPERTY_SETTINGS
@given(small_graph())
def test_back_degrees_sum_to_edge_count(g):
    vo = degeneracy_order(g)
    assert sum(vo.back_degree) == g.m
    assert sorted(vo.order) == list(range(g.n))


@PROPERTY_SETTINGS
@given(small_graph(max_n=6))
def test_degeneracy_order_is_optimal(g):
    def max_back(order):
        pos = {v: i for i, v in enumerate(order)}
        back = [0] * g.n
        for u, v in g.edges:
            back[u if pos[u] > pos[v] else v] += 1
        return max(back, default=0)

    brute = min(max_back(p) for p in itertools.permutations(range(g.n)))
    assert max(degeneracy_order(g).back_degree, default=0) == brute


def test_json_round_trip_with_parts():
    g = generate("complete_bipartite", [2, 3])
    doc = graph_to_json(g)
    assert doc["parts"] == {"A": [0, 1], "Q": [2, 3, 4]}
    assert graph_from_json(doc) == g


def test_json_round_trip_of_a_bool_vertex_count():
    # make_graph reads n = True as 1 and stores a plain int, so the JSON it
    # writes says 1, which graph_from_json accepts (it rejects a bool n)
    g = make_graph(True, [])
    doc = graph_to_json(g)
    assert type(doc["n"]) is int
    assert graph_from_json(doc) == g == make_graph(1, [])


def test_fixture_files_parse():
    g = load_graph(str(FIXTURES / "k23.json"))
    assert g.n == 5 and g.parts is not None
    g = load_graph(json.dumps(graph_to_json(generate("path", [4]))))
    assert g.m == 3


# Small JSON documents, biased toward the graph and list-assignment shapes so
# the parsers get past their first checks, with inf (what 1e400 parses to)
# and a fractional float drawn often.  Integers stay small, so n <= 8.
JSON_SCALAR = (
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.sampled_from([1.7, float("inf")])
    | st.floats()
    | st.text(max_size=2)
)
JSON_VALUE = st.recursive(
    JSON_SCALAR,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=8,
)
LABEL = st.integers(-1, 8) | JSON_SCALAR
GRAPH_DOC = st.fixed_dictionaries(
    {"n": st.integers(0, 8) | JSON_VALUE, "edges": st.lists(st.lists(LABEL, max_size=3), max_size=6) | JSON_VALUE},
    optional={
        "parts": st.fixed_dictionaries({"A": st.lists(LABEL, max_size=4), "Q": st.lists(LABEL, max_size=4)})
        | JSON_VALUE
    },
)
LISTS_DOC = st.fixed_dictionaries({"lists": st.lists(st.lists(LABEL, max_size=4), max_size=8) | JSON_VALUE})


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(GRAPH_DOC | LISTS_DOC | JSON_VALUE)
def test_json_parsers_raise_only_value_error(doc):
    # any document either parses or raises ValueError (GraphError is one)
    try:
        g = graph_from_json(doc)
    except ValueError:
        pass
    else:
        assert graph_from_json(graph_to_json(g)) == g
    try:
        lists_from_json(doc)
    except ValueError:
        pass
