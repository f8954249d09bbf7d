from __future__ import annotations

from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from sparsehg.core import DirectedGraph, UndirectedGraph
from sparsehg.errors import (
    NotSparseDistribution,
    ParseError,
    UndeclaredVertex,
)
from sparsehg.encoding import (
    FiniteSetFunction,
    parse_set_function,
    refine_to_injective,
    serialize_gmap,
    serialize_set_function,
    set_order,
    sort_sets,
    spanning_forest,
    verify_encoding,
    vertex_lex_order,
)
from sparsehg.flows import induced_distribution
from sparsehg.generators import (
    random_connected_graph,
    random_graph_max_degree,
    random_set_function,
    rng_for,
)
from sparsehg.spanning import neighbourhood_ordering


def k2() -> UndirectedGraph:
    return UndirectedGraph(["a", "b"], [(0, 1)])


def p3() -> UndirectedGraph:
    return UndirectedGraph(["a", "b", "c"], [(0, 1), (1, 2)])


# --- spanning forests and the lexicographic orders -----------------------------


def test_spanning_forest_path():
    ctx = spanning_forest(p3())
    assert ctx.roots == (0,)
    assert ctx.parent == {0: None, 1: 0, 2: 1}
    assert ctx.children == {0: (1,), 1: (2,), 2: ()}
    assert ctx.forest_edges == (0, 1)
    assert ctx.tree_leq(0, 2) and ctx.tree_leq(1, 2)
    assert not ctx.tree_leq(2, 0)


def test_spanning_forest_edgeless():
    ctx = spanning_forest(UndirectedGraph(["a", "b", "c"], []))
    assert ctx.roots == (0, 1, 2)
    assert all(ctx.parent[v] is None for v in range(3))


def test_spanning_forest_components_incomparable():
    g = UndirectedGraph(list("abcd"), [(0, 1), (2, 3)])
    ctx = spanning_forest(g)
    assert ctx.roots == (0, 2)
    assert not ctx.tree_leq(0, 2) and not ctx.tree_leq(2, 0)
    assert vertex_lex_order(ctx, 1, 2) == -1  # first component first


def reference_forest_children(g: UndirectedGraph) -> dict:
    """The replaced route: children in breadth-first discovery order,
    re-ordered by the neighbourhood ordering of the child-to-parent
    digraph."""
    parent = {}
    children = {v: [] for v in g.vertices()}
    for root in g.vertices():
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for u in queue:
            for w in g.adjacency[u]:
                if w not in parent:
                    parent[w] = u
                    children[u].append(w)
                    queue.append(w)
    arcs = [(v, p) for v, p in parent.items() if p is not None]
    ordered = neighbourhood_ordering(DirectedGraph(g.vertex_labels, arcs))
    for u in g.vertices():
        if children[u]:
            assert sorted(ordered[u]) == sorted(children[u])
            children[u] = list(ordered[u])
    return {u: tuple(cs) for u, cs in children.items()}


@pytest.mark.parametrize("seed", range(300))
def test_spanning_forest_children_match_neighbourhood_ordering(seed):
    rng = rng_for(seed, 91)
    n = 1 + rng.randrange(40)
    family = seed % 3
    if family == 0:
        g = random_connected_graph(rng, n, rng.randrange(2 * n))
    elif family == 1:  # often disconnected
        g = random_graph_max_degree(rng, n, 1 + rng.randrange(4))
    else:
        g = UndirectedGraph([f"v{i}" for i in range(n)], [])
    assert spanning_forest(g).children == reference_forest_children(g)


def test_vertex_lex_order_path():
    ctx = spanning_forest(p3())
    assert vertex_lex_order(ctx, 1, 1) == 0
    assert vertex_lex_order(ctx, 0, 1) == -1  # root before child
    assert vertex_lex_order(ctx, 2, 1) == 1


def test_set_order_examples():
    ctx = spanning_forest(p3())
    assert set_order(ctx, [], [0]) == -1
    assert set_order(ctx, [0], [0]) == 0
    # min of the symmetric difference is a, and a is in X, so Y < X
    assert set_order(ctx, [0], [1]) == 1
    sets = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    ranked = sort_sets(ctx, sets)
    assert ranked == [
        frozenset(),
        frozenset({1}),
        frozenset({0}),
        frozenset({0, 1}),
    ]


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_set_order_is_total(seed):
    rng = rng_for(seed)
    g = random_connected_graph(rng, 2 + rng.randrange(7), rng.randrange(5))
    ctx = spanning_forest(g)
    sets = [
        frozenset(v for v in g.vertices() if rng.randrange(2))
        for _ in range(6)
    ]
    for x in sets:
        for y in sets:
            cmp = set_order(ctx, x, y)
            assert cmp == -set_order(ctx, y, x)
            assert (cmp == 0) == (x == y)
            for z in sets:
                if cmp <= 0 and set_order(ctx, y, z) <= 0:
                    assert set_order(ctx, x, z) <= 0
    # the plain sort key ranks exactly as the comparison does
    assert sort_sets(ctx, sets) == sorted(
        sets, key=cmp_to_key(lambda a, b: set_order(ctx, a, b))
    )


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_vertex_lex_order_is_total(seed):
    rng = rng_for(seed)
    g = random_connected_graph(rng, 2 + rng.randrange(8), rng.randrange(5))
    ctx = spanning_forest(g)
    ranked = sorted(
        g.vertices(), key=cmp_to_key(lambda u, v: vertex_lex_order(ctx, u, v))
    )
    assert sorted(ranked) == list(g.vertices())
    # every parent appears before each of its children
    position = {v: i for i, v in enumerate(ranked)}
    for v, p in ctx.parent.items():
        if p is not None:
            assert position[p] < position[v]


# --- the set-function container -------------------------------------------------


def test_finite_set_function_accessors():
    h = FiniteSetFunction((({0, 1}, 0), (frozenset(), 2)))
    assert h.domain() == [frozenset({0, 1}), frozenset()]
    assert h.image({1, 0}) == 0
    assert h.preimage(0) == [frozenset({0, 1})]
    assert h.preimage(1) == []
    with pytest.raises(KeyError):
        h.image({5})


def test_finite_set_function_rejects_duplicates():
    with pytest.raises(ValueError, match="twice"):
        FiniteSetFunction((({0, 1}, 0), ({1, 0}, 2)))


# --- injective refinement ---------------------------------------------------------


def test_refine_single_edge():
    g = k2()
    h = FiniteSetFunction((({0}, 0), ({0, 1}, 0)))
    h0, gmap = refine_to_injective(g, h, 1)
    assert gmap == {0: 0, 1: 0}
    assert h0.entries == ((frozenset({0}), 0), (frozenset({0, 1}), 1))
    assert verify_encoding(h, h0, gmap)


def test_refine_identity_when_injective():
    g = p3()
    h = FiniteSetFunction(((frozenset(), 0), ({2}, 1)))
    h0, gmap = refine_to_injective(g, h, 1)
    assert h0.entries == h.entries
    assert gmap == {0: 0, 1: 1}


def test_refine_rejects_overloaded_distribution():
    g = k2()
    h = FiniteSetFunction(((frozenset(), 0), ({0}, 0), ({1}, 0)))
    with pytest.raises(NotSparseDistribution):
        refine_to_injective(g, h, 1)


def test_verify_encoding_negatives():
    h = FiniteSetFunction((({0}, 0), ({0, 1}, 0)))
    good = FiniteSetFunction((({0}, 0), ({0, 1}, 1)))
    assert verify_encoding(h, good, {0: 0, 1: 0})
    not_injective = FiniteSetFunction((({0}, 0), ({0, 1}, 0)))
    assert not verify_encoding(h, not_injective, {0: 0, 1: 0})
    other_domain = FiniteSetFunction((({0}, 0), ({1}, 1)))
    assert not verify_encoding(h, other_domain, {0: 0, 1: 0})
    assert not verify_encoding(h, good, {0: 0, 1: 1})  # wrong composition


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_refine_properties(seed):
    rng = rng_for(seed)
    g = random_connected_graph(rng, 2 + rng.randrange(9), rng.randrange(5))
    k = 1 + rng.randrange(2)
    h = random_set_function(rng, g, k)
    h0, gmap = refine_to_injective(g, h, k)
    assert verify_encoding(h, h0, gmap)
    delta = induced_distribution(h, g)
    counts = [0] * g.num_vertices
    for v in gmap.values():
        counts[v] += 1
    assert counts == delta
    # slots inside one gmap-preimage are distinct vertices
    images = [v for _, v in h0.entries]
    assert len(set(images)) == len(images)


# --- file formats -------------------------------------------------------------------


def test_parse_set_function():
    g = p3()
    h = parse_set_function("a,b -> a\n-> c\n", g)
    assert h.entries == ((frozenset({0, 1}), 0), (frozenset(), 2))


def test_parse_set_function_errors():
    g = p3()
    with pytest.raises(ParseError, match="->"):
        parse_set_function("a b\n", g)
    with pytest.raises(UndeclaredVertex, match="line 1"):
        parse_set_function("z -> a\n", g)
    with pytest.raises(UndeclaredVertex, match="line 2"):
        parse_set_function("a -> b\nb -> z\n", g)
    with pytest.raises(ParseError, match="repeated"):
        parse_set_function("a,a -> b\n", g)
    with pytest.raises(ParseError, match="single image"):
        parse_set_function("a -> b c\n", g)
    with pytest.raises(ParseError, match="twice"):
        parse_set_function("a,b -> a\nb,a -> c\n", g)


def test_set_function_round_trip():
    g = p3()
    h = FiniteSetFunction((({0, 1}, 0), (frozenset(), 2)))
    text = serialize_set_function(h, g)
    assert text == "a,b -> a\n-> c\n"
    assert parse_set_function(text, g).entries == h.entries


def test_serialize_gmap():
    assert serialize_gmap({1: 0, 0: 0}, k2()) == "a -> a\nb -> a\n"


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_set_function_random_round_trip(seed):
    rng = rng_for(seed)
    g = random_connected_graph(rng, 2 + rng.randrange(8), rng.randrange(5))
    h = random_set_function(rng, g, 1 + rng.randrange(2))
    assert parse_set_function(serialize_set_function(h, g), g).entries == h.entries
