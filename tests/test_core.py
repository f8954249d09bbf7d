from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sparsehg.core import (
    DirectedGraph,
    Hypergraph,
    Orientation,
    UndirectedGraph,
    _check_label,
    _forest_index,
    as_graph,
    connected_components,
    induced_subhypergraph,
    is_connected,
    parse_digraph,
    parse_hypergraph,
    preimage_counts,
    serialize_digraph,
    serialize_hypergraph,
)
from sparsehg.errors import (
    DuplicateLabel,
    DuplicateVertexInEdge,
    MalformedTree,
    NotAGraph,
    ParseError,
    UndeclaredVertex,
)
from sparsehg.generators import (
    grid_graph,
    random_connected_graph,
    random_connected_hypergraph,
    random_graph_max_degree,
    random_hypergraph,
    rng_for,
    shuffled,
)


def triangle() -> Hypergraph:
    return Hypergraph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])


def test_basic_accessors():
    h = triangle()
    assert h.num_vertices == 3
    assert h.num_edges == 3
    assert h.rank() == 2
    assert list(h.vertices()) == [0, 1, 2]
    assert h.incident_edges[1] == (0, 1)
    assert h.vertex_id("b") == 1
    assert h.edge_id(h.edge_labels[2]) == 2


def test_unknown_labels_raise():
    h = triangle()
    with pytest.raises(KeyError):
        h.vertex_id("z")
    with pytest.raises(KeyError):
        h.edge_id("nope")


def test_rank_counts_largest_edge():
    h = Hypergraph(["a", "b", "c", "d"], [(0,), (1, 2, 3)])
    assert h.rank() == 3


def test_orientation_validates_membership():
    h = triangle()
    f = Orientation(h, [0, 1, 2])
    assert preimage_counts(f) == [1, 1, 1]
    with pytest.raises(ValueError):
        Orientation(h, [2, 1, 2])  # 2 not in edge {0,1}


def test_as_graph_accepts_only_pairs():
    g = as_graph(triangle())
    assert isinstance(g, UndirectedGraph)
    assert g.degree(0) == 2
    h = Hypergraph(["a", "b", "c"], [(0, 1, 2)])
    with pytest.raises(NotAGraph):
        as_graph(h)


def _not_a_graph_message(build) -> str:
    with pytest.raises(NotAGraph) as exc:
        build()
    return str(exc.value)


@pytest.mark.parametrize("seed", range(5))
def test_as_graph_matches_the_graph_constructor(seed):
    # edges in reverse id order, so that members arrive unsorted
    g = random_connected_graph(rng_for(seed, 3), 12, 10)
    h = Hypergraph(g.vertex_labels, [e[::-1] for e in reversed(g.edges)])
    built = UndirectedGraph(h.vertex_labels, h.edges, h.edge_labels)
    graph = as_graph(h)
    assert type(graph) is UndirectedGraph
    assert graph == built
    assert graph.adjacency == built.adjacency
    assert graph.incident_edges == built.incident_edges
    pairs = [(u, v) for u in h.vertices() for v in h.vertices()]
    assert [graph.edge_between(u, v) for u, v in pairs] == [
        built.edge_between(u, v) for u, v in pairs
    ]


@pytest.mark.parametrize(
    "edges,message",
    [([(0, 1), (0, 1, 2)], "edge y has size 3"), ([(0, 1), (1, 0)], "parallel edge y")],
)
def test_as_graph_refuses_like_the_graph_constructor(edges, message):
    args = (["a", "b", "c"], edges, ["x", "y"])
    assert _not_a_graph_message(lambda: as_graph(Hypergraph(*args))) == message
    assert _not_a_graph_message(lambda: UndirectedGraph(*args)) == message


def test_digraph_neighbours_and_antisymmetry():
    g = DirectedGraph(["x", "y", "z"], [(0, 1), (1, 2)])
    assert g.out_neighbours[0] == (1,)
    assert g.in_neighbours[2] == (1,)
    assert g.is_antisymmetric()
    g2 = DirectedGraph(["x", "y"], [(0, 1), (1, 0)])
    assert not g2.is_antisymmetric()


HG_TEXT = """\
# comment
v a
v b
v c
e ab a b      # trailing comment
e abc a b c
"""


def test_parse_hypergraph():
    h = parse_hypergraph(HG_TEXT)
    assert h.vertex_labels == ("a", "b", "c")
    assert h.edges == ((0, 1), (0, 1, 2))
    assert h.edge_labels == ("ab", "abc")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DuplicateLabel) as exc:
        parse_hypergraph("v a\nv a\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(UndeclaredVertex):
        parse_hypergraph("v a\ne e1 a b\n")
    with pytest.raises(DuplicateVertexInEdge):
        parse_hypergraph("v a\ne e1 a a\n")
    with pytest.raises(ParseError):
        parse_hypergraph("w a\n")


def _reference_label_ok(label: str) -> bool:
    """The per-character predicate that ``_check_label`` replaced."""
    return bool(label) and not any(c.isspace() for c in label) and "#" not in label


def _label_ok(label: str) -> bool:
    try:
        _check_label(label)
    except ParseError:
        return False
    return True


def test_label_check_matches_reference_on_every_code_point():
    mismatches = [
        label
        for c in map(chr, range(sys.maxunicode + 1))
        for label in (c, f"a{c}b")
        if _label_ok(label) != _reference_label_ok(label)
    ]
    assert mismatches == []


@pytest.mark.parametrize("label", ["", "a b", "a#b", "\u3000", "x\x1c"])
def test_constructors_refuse_bad_labels(label):
    builds = [
        lambda: Hypergraph([label], []),
        lambda: Hypergraph(["a"], [(0,)], [label]),
        lambda: UndirectedGraph([label], []),
        lambda: UndirectedGraph(["a", "b"], [(0, 1)], [label]),
        lambda: DirectedGraph([label], []),
    ]
    for build in builds:
        with pytest.raises(ParseError) as exc:
            build()
        assert type(exc.value) is ParseError
        assert str(exc.value) == f"bad label {label!r}"


def test_hypergraph_round_trip():
    h = parse_hypergraph(HG_TEXT)
    again = parse_hypergraph(serialize_hypergraph(h))
    assert again.vertex_labels == h.vertex_labels
    assert again.edges == h.edges
    assert again.edge_labels == h.edge_labels


def test_digraph_round_trip():
    g = parse_digraph("v x\nv y\na x y\na y x\n")
    again = parse_digraph(serialize_digraph(g))
    assert sorted(again.arcs) == sorted(g.arcs)


@given(st.integers(min_value=0, max_value=2**32))
def test_random_hypergraph_round_trip(seed):
    rng = rng_for(seed)
    h = random_hypergraph(rng, 6, 3, 5)
    again = parse_hypergraph(serialize_hypergraph(h))
    assert again.edges == h.edges
    assert again.vertex_labels == h.vertex_labels


def test_induced_subhypergraph_keeps_inside_edges():
    h = Hypergraph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (0, 1, 2)])
    sub = induced_subhypergraph(h, [0, 1, 2])
    assert list(sub.vertex_labels) == ["a", "b", "c"]
    assert sub.edges == ((0, 1), (1, 2), (0, 1, 2))
    with pytest.raises(UndeclaredVertex):
        induced_subhypergraph(h, [0, 9])


def test_connected_components_partition_and_order():
    h = Hypergraph(list("abcdef"), [(0, 1), (3, 4), (4, 5)])
    comps = connected_components(h)
    assert comps == [[0, 1], [2], [3, 4, 5]]
    assert not is_connected(h)
    assert is_connected(Hypergraph(["a"], []))


def test_forest_index_numbers_roots_and_siblings_in_listed_order():
    # two trees: 7 -> (3 -> 5), 1; and 2 -> 4
    parent = {7: None, 2: None, 3: 7, 1: 7, 4: 2, 5: 3}
    depth, pre, end = _forest_index([7, 2, 3, 1, 4, 5], parent)
    assert depth == {7: 0, 2: 0, 3: 1, 1: 1, 4: 1, 5: 2}
    assert pre == {7: 0, 3: 1, 5: 2, 1: 3, 2: 4, 4: 5}
    assert end == {7: 4, 3: 3, 5: 3, 1: 4, 2: 6, 4: 6}
    with pytest.raises(MalformedTree, match="listed twice"):
        _forest_index([7, 7], {7: None})
    with pytest.raises(MalformedTree, match="not an earlier node"):
        _forest_index([3, 7], {7: None, 3: 7})
    with pytest.raises(MalformedTree, match="not an earlier node"):
        _forest_index([7, 3], {7: None})


@given(st.integers(min_value=0, max_value=2**32))
def test_components_partition_property(seed):
    rng = rng_for(seed, 99)
    h = random_hypergraph(rng, 8, 3, 6)
    comps = connected_components(h)
    flat = [v for comp in comps for v in comp]
    assert sorted(flat) == list(range(8))
    # edges never straddle two components
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    for e in h.edges:
        assert len({comp_of[v] for v in e}) <= 1


# --- the unchecked constructor ----------------------------------------------------


def assert_same_hypergraph(got: Hypergraph, want: Hypergraph) -> None:
    assert type(got) is type(want)
    assert got == want
    assert got.incident_edges == want.incident_edges
    if isinstance(want, UndirectedGraph):
        assert got.adjacency == want.adjacency
        assert got._edge_by_pair == want._edge_by_pair


def declared(text: str):
    """(vertex labels, edges as declared, edge labels) of a valid
    hypergraph text, read without the library."""
    labels, edges, edge_labels = [], [], []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens and tokens[0] == "v":
            labels.append(tokens[1])
        elif tokens:
            edge_labels.append(tokens[1])
            edges.append(tokens[2:])
    ids = {label: i for i, label in enumerate(labels)}
    return labels, [[ids[x] for x in e] for e in edges], edge_labels


def assert_constructors_agree(text: str) -> None:
    args = declared(text)
    want = Hypergraph(*args)
    assert_same_hypergraph(parse_hypergraph(text), want)
    assert_same_hypergraph(Hypergraph._from_valid(*args), want)
    try:
        graph = UndirectedGraph(*args)
    except NotAGraph:
        return
    assert_same_hypergraph(UndirectedGraph._from_valid(*args), graph)


GOLDEN = Path(__file__).parent / "golden"


def test_unchecked_constructor_matches_hypergraph_on_golden_inputs():
    parsed = []
    for path in sorted(GOLDEN.glob("*.hg")):
        text = path.read_text(encoding="utf-8")
        try:
            parse_hypergraph(text)
        except ParseError:
            continue
        assert_constructors_agree(text)
        parsed.append(path.name)
    assert len(parsed) >= 8


@pytest.mark.parametrize("seed", range(200))
def test_unchecked_constructor_matches_hypergraph_on_random_texts(seed):
    # random labels, edges listed with their members shuffled; rank 2
    # often makes a graph
    rng = rng_for(seed, 5)
    n = rng.randrange(1, 15)
    h = random_hypergraph(rng, n, 1 + rng.randrange(4), rng.randrange(3 * n))
    labels = shuffled(rng, [f"x{i}" for i in range(n)])
    lines = [f"v {label}" for label in labels]
    for ei, members in enumerate(shuffled(rng, h.edges)):
        names = " ".join(labels[v] for v in shuffled(rng, members))
        lines.append(f"e y{ei} {names}  # edge {ei}")
    assert_constructors_agree("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed", range(20))
def test_unchecked_constructor_matches_hypergraph_on_generator_outputs(seed):
    rng = rng_for(seed, 6)
    n = 1 + rng.randrange(30)
    outputs = [
        random_hypergraph(rng, n, 4, 2 * n),
        random_connected_hypergraph(rng, n, 4, n),
        random_graph_max_degree(rng, n, 3),
        random_connected_graph(rng, n, n),
        grid_graph(1 + seed % 4, 1 + seed % 5),
    ]
    inside = [v for v in range(n) if rng.randrange(2)]
    outputs.append(induced_subhypergraph(outputs[0], inside))
    for x in outputs:
        assert_same_hypergraph(x, type(x)(x.vertex_labels, x.edges, x.edge_labels))


def test_package_exports_each_name_from_its_module():
    # sparsehg serves its names lazily from one table: each imports with
    # ``from sparsehg import X`` as its module's own object, and dir()
    # and __all__ list it
    import sparsehg

    exported = 0
    for module, names in sparsehg._EXPORTS.items():
        home = importlib.import_module(f"sparsehg.{module}")
        for name in names.split():
            scope: dict = {}
            exec(f"from sparsehg import {name}", scope)
            assert scope[name] is getattr(home, name), name
            assert name in dir(sparsehg) and name in sparsehg.__all__, name
            exported += 1
    assert exported == 87
    with pytest.raises(AttributeError):
        sparsehg.no_such_name


def test_star_import_binds_the_names_and_modules():
    # the 87 names and the seven modules that ``import *`` bound when the
    # package imported every module at once
    import sparsehg

    scope: dict = {}
    exec("from sparsehg import *", scope)
    modules = {"core", "errors", "sparsity", "spanning", "flows", "encoding", "maxflow"}
    assert set(scope) - {"__builtins__"} == set(sparsehg.__all__)
    assert len(sparsehg.__all__) == len(set(sparsehg.__all__)) == 94
    assert modules <= set(scope)
