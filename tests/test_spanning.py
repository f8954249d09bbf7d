from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from sparsehg.core import (
    DirectedGraph,
    Hypergraph,
    connected_components,
    induced_subhypergraph,
    is_connected,
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
    DepthFirstSpanningTree,
    EquivClass,
    PriorityTree,
    VertexOrder,
    _grow_dfst,
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


def test_tree_order_violations_names_the_parent():
    # 0 <= 1 <= 2 without 0 <= 2: 0 is missing from down(2) = {1, 2}
    gap = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}
    order = VertexOrder([0, 1, 2], lambda x, y: (x, y) in gap, "partial")
    assert tree_order_violations(order) == ["transitivity fails on 0,1,2"]
    # two roots below 2: the first in carrier order is taken as its parent
    fork = {(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)}
    order = VertexOrder([0, 1, 2], lambda x, y: (x, y) in fork, "partial")
    assert tree_order_violations(order) == ["downset of 2 not a chain: 1,0"]


def reference_tree_order_violations(order: VertexOrder) -> list[str]:
    """The replaced checker: every axiom of a forest order tested on its
    own, with about |F|^2 d^2 ``leq`` calls for down sets of size d."""
    xs = order.carrier
    bad: list[str] = []
    down = {x: [e for e in xs if order.leq(e, x)] for x in xs}
    for x in xs:
        if not order.leq(x, x):
            bad.append(f"not reflexive at {x}")
    for x in xs:
        for y in xs:
            if x != y and order.leq(x, y) and order.leq(y, x):
                bad.append(f"antisymmetry fails on {x},{y}")
    for x in xs:
        for y in down[x]:
            for z in down[y]:
                if not order.leq(z, x):
                    bad.append(f"transitivity fails on {z},{y},{x}")
    for x in xs:
        d = down[x]
        for i, a in enumerate(d):
            for b in d[i + 1 :]:
                if not order.comparable(a, b):
                    bad.append(f"downset of {x} not a chain: {a},{b}")
    for i, x in enumerate(xs):
        for y in xs[i:]:
            common = [z for z in down[x] if order.leq(z, y)]
            if common and not any(
                all(order.leq(w, z) for w in common) for z in common
            ):
                bad.append(f"no infimum for {x},{y}")
    return bad


def random_relation(rng, family: int) -> VertexOrder:
    """A relation on at most 6 shuffled labels: a random forest order
    (family 0), one with 1-3 pairs toggled (1), or an arbitrary relation
    that is reflexive at most places (2)."""
    n = 1 + rng.randrange(6)
    carrier = sample(rng, range(10), n)
    pairs = set()
    if family < 2:
        parent = {}
        for i, y in enumerate(carrier):
            parent[y] = carrier[rng.randrange(i)] if i and rng.randrange(4) else None
            x = y
            while x is not None:
                pairs.add((x, y))
                x = parent[x]
        for _ in range(family * (1 + rng.randrange(3))):
            pairs ^= {(rng.choice(carrier), rng.choice(carrier))}
    else:
        density = rng.choice([2, 5, 8])
        pairs = {
            (x, y)
            for x in carrier
            for y in carrier
            if rng.randrange(10) < (9 if x == y else density)
        }
    return VertexOrder(carrier, lambda x, y: (x, y) in pairs, "partial")


@pytest.mark.parametrize("block", range(8))
def test_tree_order_violations_matches_reference(block):
    # 500 relations per block, 4,000 in all, a third of each family
    verdicts = {(family, ok): 0 for family in range(3) for ok in (True, False)}
    for seed in range(500 * block, 500 * (block + 1)):
        rng = rng_for(seed, 97)
        family = seed % 3
        order = random_relation(rng, family)
        got = tree_order_violations(order)
        want = reference_tree_order_violations(order)
        assert (got == []) == (want == []), (order.carrier, got, want)
        for prefix in ("not reflexive", "antisymmetry"):
            assert [v for v in got if v.startswith(prefix)] == [
                v for v in want if v.startswith(prefix)
            ]
        verdicts[family, got == []] += 1
    assert verdicts[0, True] > 0 and verdicts[0, False] == 0
    assert all(verdicts[family, ok] > 0 for family in (1, 2) for ok in (True, False))


def path_priority_tree(num_edges: int) -> PriorityTree:
    """The priority tree of a path hypergraph towards its last edge: its
    edge order is one chain of ``num_edges`` edges."""
    n = num_edges + 1
    h = Hypergraph([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    return build_priority_tree(h, 0, [n - 2])


def test_tree_order_violations_work_bound():
    order = edge_order(path_priority_tree(240))
    calls = 0

    def counting_leq(x, y):
        nonlocal calls
        calls += 1
        return order.leq(x, y)

    size = len(order.carrier)
    assert size == 240
    counted = VertexOrder(order.carrier, counting_leq, "partial")
    assert tree_order_violations(counted) == []
    assert calls <= size * size + size


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


def test_priority_tree_rejects_m_below_one():
    # refused before any work: even a disconnected input gets ValueError
    two = Hypergraph(["a", "b", "c", "d"], [(0, 1), (2, 3)])
    for m in (0, -3):
        with pytest.raises(ValueError, match=f"m must be a positive integer, got {m}"):
            build_priority_tree(two, 0, [0], m=m)
        with pytest.raises(ValueError, match=f"got {m}"):
            build_priority_tree(path4(), 0, [2], m=m)
    assert build_priority_tree(path4(), 0, [2], m=1).construction_log == (((0, 1, 2), 0),)


def reference_edge_path(h: Hypergraph, start_edges, is_target) -> list[int] | None:
    """Shortest edge sequence from the start set to the first target an
    edge breadth-first search dequeues, exploring edges in id order."""
    parent: dict[int, int | None] = {e: None for e in sorted(set(start_edges))}
    queue = list(parent)
    head = 0
    while head < len(queue):
        e = queue[head]
        head += 1
        if is_target(e):
            path = [e]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        for nxt in sorted({f for v in h.edges[e] for f in h.incident_edges[v]} - {e}):
            if nxt not in parent:
                parent[nxt] = e
                queue.append(nxt)
    return None


def reference_build_priority_tree(h: Hypergraph, root: int, l0, m=None) -> PriorityTree:
    """The priority tree with one early-exit search per target."""
    if not is_connected(h):
        raise Disconnected("priority trees need a connected hypergraph")
    if not 0 <= root < h.num_vertices:
        raise NotATreeNode(f"root {root} not a vertex")
    targets = sorted(set(l0))
    if not targets:
        raise ValueError("l0 must be nonempty")
    for e in targets:
        if not 0 <= e < h.num_edges:
            raise NotATreeNode(f"edge {e} not in hypergraph")
    if m is None:
        m = h.rank()
    covered: set[int] = set()
    edge_list: list[int] = []
    leaves: list[int] = []
    edge_classes = [set() for _ in range(m)]
    vertex_classes = [set() for _ in range(m)]
    log = []
    for target in targets:
        if covered and set(h.edges[target]) <= covered:
            continue
        path = reference_edge_path(h, h.incident_edges[root], lambda e: e == target)
        if covered:
            meet = max(i for i, e in enumerate(path) if set(h.edges[e]) & covered)
            path = path[meet:]
        entry = set(h.edges[path[0]])
        k = next((i for i in range(m) if not entry & vertex_classes[i]), None)
        if k is None:
            raise ClassOverflow(f"no class index below {m} is free")
        for e in path:
            edge_list.append(e)
            edge_classes[k].add(e)
            for v in h.edges[e]:
                if v not in covered:
                    covered.add(v)
                    vertex_classes[k].add(v)
        leaves.append(target)
        log.append((tuple(path), k))
    return PriorityTree(
        h,
        root,
        m,
        frozenset(covered),
        tuple(edge_list),
        tuple(leaves),
        tuple(frozenset(s) for s in edge_classes),
        tuple(frozenset(s) for s in vertex_classes),
        tuple(log),
    )


def reference_order_as_path(h: Hypergraph, group: list[int], leaf_set: set) -> list[int]:
    """Arrange a class's edges as a hyperpath, leaf edge last."""
    leaves = [e for e in group if e in leaf_set]
    if len(leaves) != 1:
        raise MalformedTree(f"class with edges {sorted(group)} has {len(leaves)} leaf edges")
    if len(group) == 1:
        return list(group)
    neighbours = {
        e: [f for f in group if f != e and set(h.edges[e]) & set(h.edges[f])]
        for e in group
    }
    ends = [e for e in group if len(neighbours[e]) == 1]
    if len(ends) != 2 or any(len(ns) > 2 for ns in neighbours.values()):
        raise MalformedTree(f"class with edges {sorted(group)} is not a path")
    if leaves[0] not in ends:
        raise MalformedTree(f"leaf edge {leaves[0]} is interior to its class")
    path = [ends[0] if ends[1] == leaves[0] else ends[1]]
    prev = None
    while path[-1] != leaves[0]:
        nxt = [f for f in neighbours[path[-1]] if f != prev]
        prev = path[-1]
        path.append(nxt[0])
    if not is_hyperpath(h, path):
        raise MalformedTree(f"class with edges {sorted(group)} is not a hyperpath")
    return path


def reference_vertex_equiv(t: PriorityTree) -> list[EquivClass]:
    """The classes by definition: per class index k, the components of
    the class-k edges linked by shared class-k vertices, each arranged
    as a hyperpath."""
    h = t.hypergraph
    leaf_set = set(t.leaf_edges)
    classes = []
    for k in range(t.m):
        edges_k = sorted(t.edge_classes[k])
        own = {e: set(h.edges[e]) & t.vertex_classes[k] for e in edges_k}
        seen: set[int] = set()
        for e in edges_k:
            if e in seen:
                continue
            group, frontier = [e], [e]
            seen.add(e)
            while frontier:
                cur = frontier.pop()
                for other in edges_k:
                    if other not in seen and own[cur] & own[other]:
                        seen.add(other)
                        group.append(other)
                        frontier.append(other)
            path = reference_order_as_path(h, group, leaf_set)
            last_pos = {v: i for i, f in enumerate(path) for v in own[f]}
            verts = frozenset(v for f in group for v in own[f])
            classes.append(EquivClass(k, verts, tuple(path), path[-1], last_pos))
    classes.sort(key=lambda c: (c.class_index, min(c.vertices)))
    return classes


def reference_edge_order(t: PriorityTree) -> dict[int, set]:
    """Down set of every tree edge: the edges of the branch ending at it."""
    return {seq[-1]: set(seq) for seq in branches(t)}


def _outcome(f, *args, **kwargs):
    """A call's result, or its error's type and message."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("block", range(10))
def test_priority_tree_matches_reference(block):
    # 300 inputs per block, 3,000 in all: n <= 44, ranks 2-5, random
    # roots, 1-8 targets, default m or 1..rank+1 (small m overflows)
    overflows = 0
    for seed in range(300 * block, 300 * (block + 1)):
        rng = rng_for(seed, 25)
        n = 2 + rng.randrange(43)
        h = random_connected_hypergraph(rng, n, 2 + rng.randrange(4), rng.randrange(2 * n))
        root = rng.randrange(n)
        l0 = sample(rng, range(h.num_edges), 1 + rng.randrange(8))
        m = rng.choice([None, 1 + rng.randrange(h.rank() + 1)])
        got = _outcome(build_priority_tree, h, root, l0, m)
        assert got == _outcome(reference_build_priority_tree, h, root, l0, m)
        u, v = rng.randrange(n), rng.randrange(n)
        assert find_hyperpath(h, u, v) == reference_edge_path(
            h, h.incident_edges[u], set(h.incident_edges[v]).__contains__
        )
        if not isinstance(got, PriorityTree):
            overflows += got[0] is ClassOverflow
            continue
        assert vertex_equiv(got) == reference_vertex_equiv(got)
        order, down = edge_order(got), reference_edge_order(got)
        assert set(down) == set(order.carrier)
        for f in order.carrier:
            assert {e for e in order.carrier if order.leq(e, f)} == down[f]
    assert overflows > 0


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


def reference_grow_dfst(h: Hypergraph, root: int, vertices) -> DepthFirstSpanningTree:
    """The depth-first tree by its defining process, one step per piece:
    recompute the trace component C of the least uncovered vertex, take
    the deepest node u on its border, and attach the least C-vertex of
    the least edge meeting both C and A_u below u.  ``vertices`` is the
    component of ``root``."""
    nodes = [root]
    parent: dict[int, int | None] = {root: None}
    depth = {root: 0}
    attach: dict[int, frozenset] = {root: frozenset()}
    aux: dict[int, frozenset] = {root: frozenset([root])}
    types: dict[int, tuple] = {root: ("root", 0)}
    owner = {root: root}
    for start in sorted(vertices):
        while start not in owner:
            comp, border, frontier = {start}, set(), [start]
            while frontier:
                for ei in h.incident_edges[frontier.pop()]:
                    for w in h.edges[ei]:
                        if w in owner:
                            border.add(owner[w])
                        elif w not in comp:
                            comp.add(w)
                            frontier.append(w)
            chain = sorted(border, key=depth.__getitem__)
            for a, b in zip(chain, chain[1:]):
                while depth[b] > depth[a]:
                    b = parent[b]
                assert a == b, "border is not a chain"
            u = chain[-1]
            edge = min(
                ei
                for w in aux[u]
                for ei in h.incident_edges[w]
                if not comp.isdisjoint(h.edges[ei])
            )
            members = h.edges[edge]
            v = min(w for w in members if w in comp)
            taken = {types[owner[w]] for w in members if w in owner}
            level = next(
                l for l in range(len(members)) if ("succ", l) not in taken
            )
            nodes.append(v)
            parent[v] = u
            depth[v] = depth[u] + 1
            attach[v] = frozenset([edge])
            aux[v] = frozenset(w for w in members if w not in owner)
            types[v] = ("succ", level)
            for w in aux[v]:
                owner[w] = v
    return DepthFirstSpanningTree(
        h, root, tuple(nodes), parent, attach, aux, types
    )


@pytest.mark.parametrize("block", range(10))
def test_grow_dfst_matches_reference(block):
    # 300 inputs per block, 3,000 in all: n <= 40, ranks 0-5, sparse ones
    # disconnected and with isolated vertices; every component grown
    # from its least vertex and from a random one
    for seed in range(300 * block, 300 * (block + 1)):
        rng = rng_for(seed, 24)
        n = 1 + rng.randrange(40)
        rank = rng.randrange(6)
        h = random_hypergraph(rng, n, rank, rng.randrange(2 * n) if rank else 0)
        for comp in connected_components(h):
            for root in (comp[0], comp[rng.randrange(len(comp))]):
                got = _grow_dfst(h, root)
                want = reference_grow_dfst(h, root, comp)
                assert got.nodes == want.nodes
                assert got.parent == want.parent
                assert got.attach_edges == want.attach_edges
                assert got.aux_sets == want.aux_sets
                assert got.vertex_types == want.vertex_types


def test_dfst_deep_path_and_wide_star():
    # far past the recursion limit in depth, and in fan-out
    n = 5000
    path = Hypergraph([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    t = build_dfst(path, 0)
    assert len(t.nodes) == n
    assert [t.depth(v) for v in t.nodes] == list(range(n))
    assert set().union(*t.aux_sets.values()) == set(range(n))
    assert edge_ordering(path) == {i: (i, i + 1) for i in range(n - 1)}
    star = Hypergraph([f"v{i}" for i in range(n + 1)], [(0, i) for i in range(1, n + 1)])
    t = build_dfst(star, 0)
    assert len(t.nodes) == n + 1
    assert t.depth(0) == 0
    assert all(t.depth(v) == 1 for v in range(1, n + 1))
    assert set().union(*t.aux_sets.values()) == set(range(n + 1))
    assert edge_ordering(star) == {i - 1: (0, i) for i in range(1, n + 1)}


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


@pytest.mark.parametrize(
    "parent",
    [
        {0: None, 1: 0, 2: 1, 3: 99},  # not a node
        {0: None, 1: 3, 2: 1, 3: 2},  # a node listed after its child
        {0: None, 1: 0, 3: 2},  # no entry for node 2
    ],
)
def test_dfst_refuses_malformed_parent_map(parent):
    h = Hypergraph(list("abcd"), [(0, 1), (1, 2), (2, 3)])
    t = build_dfst(h, 0)
    assert t.nodes == (0, 1, 2, 3)
    with pytest.raises(MalformedTree):
        dataclasses.replace(t, parent=parent)


def test_dfst_refuses_a_repeated_node():
    # a node listed twice would give overlapping preorder intervals
    h = Hypergraph(list("abcd"), [(0, 1), (1, 2), (2, 3)])
    t = build_dfst(h, 0)
    with pytest.raises(MalformedTree, match="node 3 is listed twice"):
        dataclasses.replace(t, nodes=t.nodes + (3,))


def test_validate_dfst_rejects_limit_node():
    # build_dfst never makes a limit node; a tampered one is an unknown type
    h = Hypergraph(list("abcd"), [(0, 1), (1, 2), (2, 3)])
    t = build_dfst(h, 0)
    v = t.nodes[1]
    limit = dataclasses.replace(t, vertex_types={**t.vertex_types, v: ("limit", 0)})
    assert f"unknown type 'limit' on {v}" in validate_dfst(h, limit)


def reference_tree_leq(t: DepthFirstSpanningTree, u: int, v: int) -> bool:
    """u is on the parent walk from v."""
    while v is not None and t.depth(v) > t.depth(u):
        v = t.parent[v]
    return u == v


def reference_is_chain(t: DepthFirstSpanningTree, vs) -> bool:
    vs = sorted(set(vs), key=t.depth)
    for a, b in zip(vs, vs[1:]):
        while t.depth(b) > t.depth(a):
            b = t.parent[b]
        if a != b:
            return False
    return True


def reference_b_set(t: DepthFirstSpanningTree, vertex_set):
    """Every node whose auxiliary set meets X, in ``nodes`` order."""
    xs = set(vertex_set)
    b = [v for v in t.nodes if t.aux_sets[v] & xs]
    if b and reference_is_chain(t, b):
        return b, max(b, key=t.depth)
    return b, None


def reference_recompute_aux(t: DepthFirstSpanningTree) -> dict:
    aux: dict[int, frozenset] = {}
    for v in t.nodes:
        claimed: set[int] = set()
        x = t.parent[v]
        while x is not None:
            claimed |= aux[x]
            x = t.parent[x]
        base = {v} | {w for e in t.attach_edges[v] for w in t.hypergraph.edges[e]}
        aux[v] = frozenset(base - claimed)
    return aux


def reference_validate_dfst(h: Hypergraph, t: DepthFirstSpanningTree) -> list[str]:
    """The checker by parent walks, with every defining formula
    recomputed from the root path's unions."""
    bad: list[str] = []
    node_set = set(t.nodes)
    for v in t.nodes:
        if t.parent[v] is None and v != t.root:
            bad.append(f"{v} has no parent but is not the root")
    recomputed = reference_recompute_aux(t)
    for v in t.nodes:
        if recomputed[v] != t.aux_sets[v]:
            bad.append(f"A_{v} does not match its defining formula")
    seen: dict[int, int] = {}
    for v in t.nodes:
        if v not in t.aux_sets[v]:
            bad.append(f"{v} missing from A_{v}")
        for w in t.aux_sets[v]:
            if w in seen:
                bad.append(f"auxiliary sets of {seen[w]} and {v} overlap at {w}")
            seen[w] = v
        if t.aux_sets[v] & node_set != {v}:
            bad.append(f"A_{v} meets the tree outside {v}")
    if set(seen) != set(range(h.num_vertices)):
        bad.append("auxiliary sets do not cover the vertex set")
    for ei in range(h.num_edges):
        b, beta = reference_b_set(t, h.edges[ei])
        if not b:
            bad.append(f"edge {ei} has empty border")
        elif beta is None:
            bad.append(f"border of edge {ei} is not a chain")
    roots = [v for v in t.nodes if t.vertex_types[v][0] == "root"]
    if roots != [t.root]:
        bad.append("root type must mark exactly the root")
    levels = max(h.rank(), 1)
    for v in t.nodes:
        kind, level = t.vertex_types[v]
        if kind == "root":
            if t.attach_edges[v]:
                bad.append(f"root {v} has attach edges")
        elif kind == "succ":
            if not 0 <= level < levels:
                bad.append(f"type index {level} of {v} out of range")
            if len(t.attach_edges[v]) != 1:
                bad.append(f"succ node {v} needs exactly one attach edge")
                continue
            (e,) = t.attach_edges[v]
            if v not in h.edges[e]:
                bad.append(f"succ node {v} not on its attach edge")
            b, _ = reference_b_set(t, h.edges[e])
            same = [x for x in b if t.vertex_types[x] == ("succ", level)]
            if same != [v]:
                bad.append(f"{v} is not the unique succ_{level} on its edge border")
            rest = set(h.edges[e]) - {v}
            b2, beta2 = reference_b_set(t, rest)
            b2 = [x for x in b2 if x != v]
            beta2 = max(b2, key=t.depth) if b2 and reference_is_chain(t, b2) else None
            if beta2 != t.parent[v]:
                bad.append(f"attach edge of {v} does not point at its parent")
        else:
            bad.append(f"unknown type {kind!r} on {v}")
    return bad


def dfst_mutants(rng, h: Hypergraph, t: DepthFirstSpanningTree) -> dict:
    """One corrupted copy of the tree per kind that the tree admits."""
    aux, nodes = t.aux_sets, t.nodes
    owner = {w: v for v in nodes for w in aux[v]}
    succ = nodes[1:]
    mutants = {}
    if len(nodes) > 2:
        i = 2 + rng.randrange(len(nodes) - 2)
        moved = [u for u in nodes[:i] if u != t.parent[nodes[i]]]
        mutants["parent"] = {"parent": {**t.parent, nodes[i]: rng.choice(moved)}}
    spare = [w for w in sorted(owner) if w != owner[w]]
    if spare and len(nodes) > 1:
        w = rng.choice(spare)
        x = rng.choice([v for v in nodes if v != owner[w]])
        mutants["moved"] = {
            "aux_sets": {**aux, owner[w]: aux[owner[w]] - {w}, x: aux[x] | {w}}
        }
    x = rng.choice(nodes)
    mutants["dropped"] = {"aux_sets": {**aux, x: aux[x] - {rng.choice(sorted(aux[x]))}}}
    if len(nodes) > 1:
        x = rng.choice(nodes)
        w = rng.choice([w for w in sorted(owner) if owner[w] != x])
        mutants["overlap"] = {"aux_sets": {**aux, x: aux[x] | {w}}}
        v = rng.choice(succ)
        _, level = t.vertex_types[v]
        other = rng.choice([l for l in range(h.rank() + 1) if l != level])
        mutants["type"] = {"vertex_types": {**t.vertex_types, v: ("succ", other)}}
    if len(nodes) > 1 and h.num_edges > 1:
        v = rng.choice(succ)
        (e,) = t.attach_edges[v]
        f = rng.choice([f for f in range(h.num_edges) if f != e])
        mutants["attach"] = {"attach_edges": {**t.attach_edges, v: frozenset([f])}}
    return {kind: dataclasses.replace(t, **fields) for kind, fields in mutants.items()}


LOOSE = ("overlap at", "defining formula", "meets the tree outside")


@pytest.mark.parametrize("block", range(10))
def test_validate_dfst_matches_reference(block):
    # 300 trees per block, 3,000 in all, n <= 32 with a random root, and
    # up to six mutants of each.  An added overlapping member leaves each
    # vertex one owner, so the borders may then lose nodes: the lists
    # agree up to and including the first overlap, formula or
    # meets-the-tree line
    for seed in range(300 * block, 300 * (block + 1)):
        rng = rng_for(seed, 26)
        n = 1 + rng.randrange(32)
        h = random_connected_hypergraph(rng, n, 2 + rng.randrange(4), rng.randrange(2 * n))
        t = build_dfst(h, rng.randrange(n))
        assert validate_dfst(h, t) == reference_validate_dfst(h, t) == []
        mutants = dfst_mutants(rng, h, t)
        for kind, bad in mutants.items():
            got, want = validate_dfst(h, bad), reference_validate_dfst(h, bad)
            if kind != "overlap":
                assert got == want, kind
                continue
            assert got[:1] == want[:1] != []
            cut = next(
                (i for i, line in enumerate(want) if any(s in line for s in LOOSE)),
                len(want),
            )
            assert got[: cut + 1] == want[: cut + 1]
        # ancestry, chains and borders against the parent walk, on the
        # tree and on its moved parent
        for tree in [t] + [mutants[k] for k in ("parent",) if k in mutants]:
            nodes = tree.nodes
            for _ in range(10):
                u, v = rng.choice(nodes), rng.choice(nodes)
                assert tree.tree_leq(u, v) == reference_tree_leq(tree, u, v)
                vs = sample(rng, nodes, 1 + rng.randrange(min(4, len(nodes))))
                assert tree.is_chain(vs) == reference_is_chain(tree, vs)
                xs = sample(rng, range(n), 1 + rng.randrange(min(5, n)))
                b, beta = b_set(tree, xs)
                want_b, want_beta = reference_b_set(tree, xs)
                assert (set(b), beta) == (set(want_b), want_beta)
                if beta is not None:
                    assert b == want_b


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
