from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from sparsehg.core import (
    DirectedGraph,
    Hypergraph,
    connected_components,
    induced_subhypergraph,
)
from sparsehg.errors import (
    CapExceeded,
    ClassOverflow,
    Disconnected,
    MalformedTree,
    NoHyperpath,
    NotATreeNode,
)
from sparsehg.generators import (
    random_connected_hypergraph,
    random_hypergraph,
    rng_for,
    sample,
)
from sparsehg.spanning import (
    VertexOrder,
    aux_order,
    aux_preorder,
    b_set,
    branches,
    build_dfst,
    build_priority_tree,
    dfst_orientation,
    edge_order,
    edge_ordering,
    find_hyperpath,
    is_hyperpath,
    neighbourhood_ordering,
    priority_tree_linear_order,
    tree_order_violations,
    validate_dfst,
    validate_priority_tree,
    vertex_equiv,
)


def path4() -> Hypergraph:
    # 0-1-2-3 path plus a side edge {1,4}
    return Hypergraph(
        ["a", "b", "c", "d", "e"], [(0, 1), (1, 2), (2, 3), (1, 4)]
    )


# --- hyperpaths --------------------------------------------------------------


def test_is_hyperpath():
    h = path4()
    assert is_hyperpath(h, [0, 1, 2])
    assert is_hyperpath(h, [0])
    tri = Hypergraph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    # first and last edge intersect although they are not consecutive
    assert not is_hyperpath(tri, [0, 1, 2])


def test_find_hyperpath():
    h = path4()
    path = find_hyperpath(h, 0, 3)
    assert list(path) == [0, 1, 2]
    assert is_hyperpath(h, path)
    two = Hypergraph(["a", "b", "c", "d"], [(0, 1), (2, 3)])
    with pytest.raises(NoHyperpath):
        find_hyperpath(two, 0, 3)


# --- vertex orders -----------------------------------------------------------


def test_vertex_order_helpers():
    order = VertexOrder.from_key([0, 1, 2], {0: 0, 1: 1, 2: 2}, "linear")
    assert order.is_total()
    assert order.least([2, 1]) == 1
    assert order.sorted([2, 0, 1]) == [0, 1, 2]
    assert order.comparable(0, 2) and order.leq(0, 2) and order.lt(0, 2)
    assert not order.equivalent(0, 2)


def test_tree_order_violations_reports_antisymmetry():
    everything = VertexOrder([0, 1], lambda x, y: True, "partial")
    assert any("antisymmetry" in v for v in tree_order_violations(everything))
    chain = VertexOrder([0, 1], lambda x, y: x <= y, "partial")
    assert tree_order_violations(chain) == []


# --- priority trees ----------------------------------------------------------


def test_priority_tree_base_path():
    h = path4()
    t = build_priority_tree(h, 0, [2, 3])
    assert t.construction_log == (((0, 1, 2), 0), ((3,), 1))
    assert t.leaf_edges == (2, 3)
    assert t.nodes == frozenset({0, 1, 2, 3, 4})
    assert t.vertex_classes[0] == frozenset({0, 1, 2, 3})
    assert t.vertex_classes[1] == frozenset({4})
    assert validate_priority_tree(h, t) == []


def test_priority_tree_branches_and_order():
    h = path4()
    t = build_priority_tree(h, 0, [2, 3])
    brs = branches(t)
    assert sorted(brs) == [(0,), (0, 1), (0, 1, 2), (0, 3)]
    order = edge_order(t)
    assert order.leq(0, 2) and not order.leq(2, 0)
    assert order.leq(0, 3)
    assert not order.comparable(1, 3)
    assert tree_order_violations(order) == []
    with pytest.raises(CapExceeded):
        branches(t, cap=2)


def test_priority_tree_linear_order_frozen():
    h = path4()
    t = build_priority_tree(h, 0, [2, 3])
    order = priority_tree_linear_order(t)
    assert order.is_total()
    assert order.sorted(range(5)) == [2, 3, 1, 0, 4]


def test_vertex_equiv_groups():
    h = path4()
    t = build_priority_tree(h, 0, [2, 3])
    groups = vertex_equiv(t)
    assert [g.class_index for g in groups] == [0, 1]
    assert groups[0].vertices == frozenset({0, 1, 2, 3})
    assert groups[0].leaf_edge == 2
    assert groups[1].vertices == frozenset({4})
    assert groups[1].leaf_edge == 3


def test_priority_tree_skips_covered_targets():
    # the hyperedge's tree already covers the smaller edge
    h = Hypergraph(["a", "b", "c"], [(0, 1, 2), (1, 2)])
    t = build_priority_tree(h, 0, [0, 1])
    assert t.construction_log == (((0,), 0),)
    assert t.leaf_edges == (0,)


def test_priority_tree_errors():
    h = path4()
    with pytest.raises(ValueError):
        build_priority_tree(h, 0, [])
    with pytest.raises(NotATreeNode):
        build_priority_tree(h, 9, [2])
    two = Hypergraph(["a", "b", "c", "d"], [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        build_priority_tree(two, 0, [1])


def test_priority_tree_class_overflow():
    # entry edge meets both classes, so with m=2 no class is free
    h = Hypergraph(["a", "b", "c", "d"], [(0, 1), (0, 2), (1, 2, 3)])
    with pytest.raises(ClassOverflow):
        build_priority_tree(h, 0, [0, 1, 2], m=2)


def test_rank3_defect_oracle():
    # entry edge bcd meets ab (class 0) and ac (class 1), so it extends
    # no hyperpath branch; it hangs on ab, the owner of its least
    # foreign class, and the branch order stays a tree order
    h = Hypergraph(["a", "b", "c", "d"], [(0, 1), (0, 2), (1, 2, 3)])
    t = build_priority_tree(h, 0, [0, 1, 2])
    assert validate_priority_tree(h, t) == []
    assert t.construction_log == (((0,), 0), ((1,), 1), ((2,), 2))
    order = edge_order(t)
    assert tree_order_violations(order) == []
    assert order.lt(0, 2)
    assert not order.comparable(1, 2)
    assert sorted(branches(t)) == [(0,), (0, 2), (1,)]


def test_validate_priority_tree_detects_tampering():
    h = path4()
    t = build_priority_tree(h, 0, [2, 3])
    bad = dataclasses.replace(
        t, leaf_edges=(2,)  # drop a leaf recorded in the log
    )
    assert validate_priority_tree(h, bad) != []


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
def test_priority_tree_construction_properties(seed):
    rng = rng_for(seed, 21)
    h = random_connected_hypergraph(rng, 8, 4, rng.randrange(0, 8))
    root = rng.randrange(8)
    l0 = sorted(set(sample(rng, range(h.num_edges), rng.randrange(1, 4))))
    t = build_priority_tree(h, root, l0)
    assert validate_priority_tree(h, t) == []
    for e in l0:
        assert set(h.edges[e]) <= t.nodes
    assert set(t.leaf_edges) <= set(l0)
    assert priority_tree_linear_order(t).is_total()


# --- depth-first spanning trees ----------------------------------------------


def test_dfst_single_hyperedge():
    h = Hypergraph(["a", "b", "c"], [(0, 1, 2)])
    t = build_dfst(h, 0)
    assert t.nodes == (0, 1)
    assert t.aux_sets[1] == frozenset({1, 2})
    assert t.vertex_types[0] == ("root", 0)
    assert t.vertex_types[1] == ("succ", 0)
    assert validate_dfst(h, t) == []


def test_dfst_path_types():
    h = Hypergraph(["a", "b", "c"], [(0, 1), (1, 2)])
    t = build_dfst(h, 0)
    assert t.vertex_types[1] == ("succ", 0)
    assert t.vertex_types[2] == ("succ", 1)
    assert validate_dfst(h, t) == []


def test_dfst_triangle_chain():
    h = Hypergraph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    t = build_dfst(h, 0)
    assert t.parent == {0: None, 1: 0, 2: 1}
    # each edge points at its tree-least member under 0 < 1 < 2
    assert tuple(dfst_orientation(h).assignment) == (0, 1, 0)


def test_dfst_k4_frozen():
    h = Hypergraph(
        list("abcd"), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    )
    t = build_dfst(h, 0)
    assert [t.vertex_types[v] for v in t.nodes] == [
        ("root", 0),
        ("succ", 0),
        ("succ", 1),
        ("succ", 0),
    ]
    assert b_set(t, set(h.edges[4])) == ([1, 3], 3)
    assert validate_dfst(h, t) == []


def test_dfst_absorbed_vertices_keep_borders_chains():
    # regression: absorbed vertices used to land outside the processed
    # component, leaving edge (2,7,9) with owners on two sibling nodes
    h = Hypergraph(
        [f"v{i}" for i in range(10)],
        [
            (0, 7),
            (0, 7, 8),
            (0, 2, 7, 8),
            (2, 6),
            (0, 1, 2),
            (0, 4, 6, 7),
            (2, 7, 9),
            (3, 6, 9),
            (0, 5),
            (5, 6),
        ],
    )
    t = build_dfst(h, 0)
    assert validate_dfst(h, t) == []


def test_dfst_errors():
    h = Hypergraph(["a", "b", "c", "d"], [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        build_dfst(h, 0)
    tri = Hypergraph(["a", "b", "c"], [(0, 1), (1, 2)])
    with pytest.raises(NotATreeNode):
        build_dfst(tri, 7)


def test_validate_dfst_detects_corruption():
    h = Hypergraph(list("abcd"), [(0, 1), (1, 2), (2, 3)])
    t = build_dfst(h, 0)
    assert validate_dfst(h, t) == []
    bad = dataclasses.replace(t, parent={**t.parent, 3: 0})
    assert validate_dfst(h, bad) != []
    worse = dataclasses.replace(
        t, aux_sets={**t.aux_sets, 3: frozenset()}
    )
    assert validate_dfst(h, worse) != []


def test_validate_dfst_rejects_limit_node():
    # build_dfst never makes a limit node; a tampered one is an unknown type
    h = Hypergraph(list("abcd"), [(0, 1), (1, 2), (2, 3)])
    t = build_dfst(h, 0)
    v = t.nodes[1]
    limit = dataclasses.replace(t, vertex_types={**t.vertex_types, v: ("limit", 0)})
    assert f"unknown type 'limit' on {v}" in validate_dfst(h, limit)


def test_aux_orders():
    h = Hypergraph(["a", "b", "c"], [(0, 1, 2)])
    t = build_dfst(h, 0)
    pre = aux_preorder(t)
    assert pre.equivalent(1, 2)
    assert pre.leq(0, 1) and not pre.leq(1, 0)
    order = aux_order(t)
    assert order.sorted([2, 1, 0]) == [0, 1, 2]
    assert not order.equivalent(1, 2)


def test_edge_ordering_per_component():
    h = Hypergraph(list("abcd"), [(0, 1), (2, 3)])
    ordering = edge_ordering(h)
    assert ordering == {0: (0, 1), 1: (2, 3)}


def reference_edge_ordering(h: Hypergraph) -> dict[int, tuple[int, ...]]:
    """The definition from public API: per component, the aux order of
    the depth-first tree of the induced subhypergraph rooted at its
    least vertex, mapped back to global ids."""
    result = {}
    for comp in connected_components(h):
        order = aux_order(build_dfst(induced_subhypergraph(h, comp), 0))
        local = {v: i for i, v in enumerate(comp)}
        for ei, members in enumerate(h.edges):
            if members[0] in local:
                ordered = order.sorted(local[v] for v in members)
                result[ei] = tuple(comp[i] for i in ordered)
    return result


@pytest.mark.parametrize("seed", range(40))
def test_edge_ordering_matches_reference(seed):
    # few edges leave most inputs disconnected, many edges connect them
    rng = rng_for(seed, 23)
    n = 1 + rng.randrange(16)
    h = random_hypergraph(rng, n, 1 + rng.randrange(5), rng.randrange(2 * n))
    ordering = edge_ordering(h)
    assert ordering == reference_edge_ordering(h)
    f = dfst_orientation(h)
    assert list(f.assignment) == [ordering[ei][0] for ei in range(h.num_edges)]


def test_dfst_orientation_assigns_first_of_each_edge():
    h = Hypergraph(["a", "b", "c"], [(0, 1, 2)])
    f = dfst_orientation(h)
    ordering = edge_ordering(h)
    assert f.assignment[0] == ordering[0][0]


def test_neighbourhood_ordering_frozen():
    g = DirectedGraph(["x", "y", "z"], [(0, 1), (0, 2), (1, 2)])
    ordering = neighbourhood_ordering(g)
    assert ordering[0] == ()
    assert ordering[1] == (0,)
    assert ordering[2] == (0, 1)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
def test_dfst_random_properties(seed):
    rng = rng_for(seed, 22)
    h = random_connected_hypergraph(rng, 9, 4, rng.randrange(0, 9))
    root = rng.randrange(9)
    t = build_dfst(h, root)
    assert validate_dfst(h, t) == []
    order = aux_order(t)
    for members in h.edges:
        for u in members:
            for v in members:
                assert order.comparable(u, v)
    f = dfst_orientation(h)
    for ei, members in enumerate(h.edges):
        assert f.assignment[ei] in members
