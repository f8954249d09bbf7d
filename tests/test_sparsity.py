from __future__ import annotations

import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from sparsehg.core import (
    DirectedGraph,
    Hypergraph,
    UndirectedGraph,
    preimage_counts,
)
from sparsehg.errors import (
    CapExceeded,
    MalformedPartition,
    NoHomomorphism,
    NotKSparse,
    RankTooSmall,
)
from sparsehg.generators import (
    random_graph_max_degree,
    random_hypergraph,
    rng_for,
)
from sparsehg import sparsity
from sparsehg.maxflow import FlowNetwork
from sparsehg.sparsity import (
    ORACLE_MAX_VERTICES,
    antisymmetric_orientation,
    bounded_orientation,
    check_h_orientation,
    directed_quotient,
    find_homomorphism,
    is_k_sparse,
    is_k_sparse_bruteforce,
    orientation_weight,
)


def triangle() -> Hypergraph:
    return Hypergraph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])


def k4() -> Hypergraph:
    return Hypergraph(
        list("abcd"), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    )


def count_inside(h: Hypergraph, xs) -> int:
    inside = set(xs)
    return sum(1 for e in h.edges if all(v in inside for v in e))


def test_triangle_is_1_sparse_both_ways():
    assert is_k_sparse_bruteforce(triangle(), 1).is_sparse
    assert is_k_sparse(triangle(), 1).is_sparse


def test_k4_is_2_sparse_but_not_1_sparse():
    h = k4()
    assert is_k_sparse(h, 2).is_sparse
    report = is_k_sparse(h, 1)
    assert not report.is_sparse
    assert count_inside(h, report.witness) > len(report.witness)
    brute = is_k_sparse_bruteforce(h, 1)
    assert brute.witness == [0, 1, 2, 3]  # only the full set violates


def test_parallel_edges_count_separately():
    double = Hypergraph(["a", "b"], [(0, 1), (0, 1)])
    assert is_k_sparse(double, 1).is_sparse
    triple = Hypergraph(["a", "b"], [(0, 1), (0, 1), (0, 1)])
    report = is_k_sparse_bruteforce(triple, 1)
    assert not report.is_sparse
    assert report.witness == [0, 1]


def test_bruteforce_cap():
    h = Hypergraph([f"v{i}" for i in range(25)], [])
    with pytest.raises(CapExceeded):
        is_k_sparse_bruteforce(h, 1)
    assert is_k_sparse_bruteforce(h, 1, cap=25).is_sparse


def test_bruteforce_table_memory():
    # one int32 table and its flags: about 5 bytes per subset
    n = 18
    h = Hypergraph([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    # the first table loads numpy: measure a later one
    is_k_sparse_bruteforce(triangle(), 1)
    tracemalloc.start()
    try:
        assert is_k_sparse_bruteforce(h, 1, cap=n).is_sparse
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << n


def test_bruteforce_ceiling_ignores_cap(monkeypatch):
    # refused before any table exists: importing numpy would raise
    monkeypatch.setitem(sys.modules, "numpy", None)
    n = ORACLE_MAX_VERTICES + 1
    h = Hypergraph([f"v{i}" for i in range(n)], [])
    with pytest.raises(CapExceeded, match=f"exceeds the brute-force cap {ORACLE_MAX_VERTICES}"):
        is_k_sparse_bruteforce(h, 1, cap=10**6)
    with pytest.raises(CapExceeded):
        is_k_sparse_bruteforce(Hypergraph([f"v{i}" for i in range(40)], []), 1, cap=40)


def test_bruteforce_refuses_negative_cap(monkeypatch):
    assert is_k_sparse_bruteforce(Hypergraph([], []), 1, cap=0).is_sparse
    # refused before any table exists: importing numpy would raise
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ValueError, match="cap must be a nonnegative integer, got -1"):
        is_k_sparse_bruteforce(Hypergraph([], []), 1, cap=-1)


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        is_k_sparse(triangle(), 0)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_flow_check_agrees_with_bruteforce(seed):
    rng = rng_for(seed, 11)
    h = random_hypergraph(rng, 7, 3, rng.randrange(1, 15))
    for k in (1, 2):
        assert (
            is_k_sparse(h, k).is_sparse
            == is_k_sparse_bruteforce(h, k).is_sparse
        )


def test_bounded_orientation_triangle():
    f = bounded_orientation(triangle(), 1)
    assert max(preimage_counts(f)) <= 1
    assert orientation_weight(f, 1) == 0


def test_bounded_orientation_raises_with_witness():
    with pytest.raises(NotKSparse) as exc:
        bounded_orientation(k4(), 1)
    w = exc.value.witness
    assert w is not None and count_inside(k4(), w) > len(w)


def test_bounded_orientation_hyperedges():
    h = Hypergraph(list("abcd"), [(0, 1, 2), (1, 2, 3), (0, 3), (0, 1, 2, 3)])
    f = bounded_orientation(h, 1)
    assert max(preimage_counts(f)) <= 1


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_degree_2k_graphs_are_k_sparse(seed):
    # max degree 2k forces k-sparsity; check via the flow decision
    rng = rng_for(seed, 12)
    k = rng.randrange(1, 4)
    g = random_graph_max_degree(rng, 9, 2 * k)
    assert is_k_sparse(g, k).is_sparse
    f = bounded_orientation(g, k)
    assert max(preimage_counts(f), default=0) <= k


def reference_solve_sparsity_network(h: Hypergraph, k: int):
    """The sparsity network built at full capacity and solved by
    max_flow alone, from a zero flow: the oracle for the first-fit
    placement of ``sparsity._solve_sparsity_network``."""
    n, m = h.num_vertices, h.num_edges
    net = FlowNetwork(2 + m + n)
    member_arcs = []
    for ei, members in enumerate(h.edges):
        net.add_edge(0, 2 + ei, 1)
        member_arcs.append([net.add_edge(2 + ei, 2 + m + v, 1) for v in members])
    for v in range(n):
        net.add_edge(2 + m + v, 1, k)
    if net.max_flow(0, 1) == m:
        return net, member_arcs, None
    side = net.source_side(0)
    return net, member_arcs, sorted(v for v in range(n) if 2 + m + v in side)


def first_fit_case(seed: int):
    """A seeded hypergraph on 1-40 vertices with edges of 1-5 members,
    some of them repeated, and a k from 1 to 4; the edge count runs up
    to about twice k*n, so sparse and non-sparse cases both occur."""
    rng = rng_for(seed, 15)
    n = rng.randrange(1, 41)
    k = rng.randrange(1, 5)
    h = random_hypergraph(rng, n, rng.randrange(1, 6), rng.randrange(0, 2 * k * n + 2))
    edges = list(h.edges)
    if edges:
        edges += [edges[rng.randrange(len(edges))] for _ in range(rng.randrange(4))]
    return Hypergraph(h.vertex_labels, edges), k


@pytest.mark.parametrize("block", range(10))
def test_first_fit_network_matches_reference(block):
    verdicts = set()
    for seed in range(300 * block, 300 * (block + 1)):
        h, k = first_fit_case(seed)
        net, arcs, witness = sparsity._solve_sparsity_network(h, k)
        ref, ref_arcs, ref_witness = reference_solve_sparsity_network(h, k)
        assert (net.cap, net.to, net.adj) == (ref.cap, ref.to, ref.adj), seed
        assert (arcs, witness) == (ref_arcs, ref_witness), seed
        verdicts.add(witness is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(40))
def test_first_fit_plus_max_flow_matches_networkx(seed, monkeypatch):
    nx = pytest.importorskip("networkx")
    h, k = first_fit_case(seed)
    seen = []
    solve = FlowNetwork.max_flow

    def max_flow(net, s, t):
        placed = sum(net.flow_on(a) for a in net.adj[s] if a % 2 == 0)
        added = solve(net, s, t)
        seen.append((net, placed, added))
        return added

    monkeypatch.setattr(FlowNetwork, "max_flow", max_flow)
    sparsity._solve_sparsity_network(h, k)
    [(net, placed, added)] = seen
    g = nx.DiGraph()
    g.add_nodes_from((0, 1))
    for a in range(0, len(net.to), 2):
        g.add_edge(net.to[a + 1], net.to[a], capacity=net.cap[a] + net.cap[a + 1])
    assert placed + added == nx.maximum_flow_value(g, 0, 1)


def greedy_case(seed: int):
    """A seeded hypergraph on 1-12 vertices with edges of 1-4 members and
    a k from 1 to 3; the edge count runs up to about 1.5*k*n, so the
    greedy orientation fits some sparse inputs and misses others."""
    rng = rng_for(seed, 16)
    n = rng.randrange(1, 13)
    k = rng.randrange(1, 4)
    h = random_hypergraph(rng, n, rng.randrange(1, 5), rng.randrange(0, 3 * k * n // 2 + 2))
    return h, k


@pytest.mark.parametrize("block", range(5))
def test_greedy_orientation_certifies_only_sparse_inputs(block):
    outcomes = set()
    for seed in range(300 * block, 300 * (block + 1)):
        h, k = greedy_case(seed)
        fits = sparsity._greedy_orientation_fits(h, k)
        sparse = is_k_sparse_bruteforce(h, k).is_sparse
        assert sparse or not fits, seed
        outcomes.add((fits, sparse))
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_greedy_orientation_misses_a_sparse_path():
    # e0 goes to a and e1 to c, and then both members of e2 are full;
    # e0 -> b, e1 -> d, e2 -> a is 1-bounded
    h = Hypergraph(list("abcd"), [(0, 1), (2, 3), (0, 2)])
    assert not sparsity._greedy_orientation_fits(h, 1)
    assert is_k_sparse(h, 1) == sparsity.SparsityReport(True, 1, None)
    assert antisymmetric_orientation(h, 1).assignment == (1, 2, 0)


def sparsity_reports(h: Hypergraph, k: int):
    """What the two greedy-first decisions report: the sparsity report,
    and the antisymmetric orientation or the refusal with its witness."""
    try:
        orientation = ("orientation", antisymmetric_orientation(h, k).assignment)
    except NotKSparse as exc:
        orientation = ("NotKSparse", exc.witness)
    except RankTooSmall:
        orientation = ("RankTooSmall", None)
    return is_k_sparse(h, k), orientation


@pytest.mark.parametrize("block", range(5))
def test_greedy_shortcut_keeps_every_report(block, monkeypatch):
    cases = [greedy_case(seed) for seed in range(300 * block, 300 * (block + 1))]
    cases += [first_fit_case(seed) for seed in range(300 * block, 300 * (block + 1))]
    greedy_first = [sparsity_reports(h, k) for h, k in cases]
    monkeypatch.setattr(sparsity, "_greedy_orientation_fits", lambda h, k: False)
    assert [sparsity_reports(h, k) for h, k in cases] == greedy_first
    assert {kind for _, (kind, _) in greedy_first} >= {"orientation", "NotKSparse"}


def is_acyclic(g: DirectedGraph) -> bool:
    """Kahn's algorithm: every vertex leaves once its in-arcs are gone."""
    indegree = [len(g.in_neighbours[v]) for v in g.vertices()]
    ready = [v for v in g.vertices() if indegree[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in g.out_neighbours[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return seen == g.num_vertices


def elimination_reference(h: Hypergraph) -> list[int]:
    """Min-scan reference for the elimination order: repeatedly remove
    the least vertex of least remaining degree and orient its surviving
    edges to it."""
    assignment: list[int | None] = [None] * h.num_edges
    degree = [len(es) for es in h.incident_edges]
    remaining = set(range(h.num_vertices))
    while remaining:
        v = min(remaining, key=lambda x: (degree[x], x))
        remaining.discard(v)
        for ei in h.incident_edges[v]:
            if assignment[ei] is None:
                assignment[ei] = v
                for w in h.edges[ei]:
                    degree[w] -= 1
    return assignment


def assert_elimination_bounds(h: Hypergraph, k: int) -> None:
    f = antisymmetric_orientation(h, k)
    q = directed_quotient(f)
    assert q.is_antisymmetric() and is_acyclic(q)
    assert max(preimage_counts(f)) <= h.rank() * k


def test_antisymmetric_orientation_triangle():
    assert_elimination_bounds(triangle(), 1)


def test_antisymmetric_requires_rank_2():
    h = Hypergraph(["a", "b"], [(0,), (1,)])
    with pytest.raises(RankTooSmall):
        antisymmetric_orientation(h, 1)


@given(st.integers(min_value=0, max_value=2**32))
@example(seed=657033389)  # absorption rounds broke m*k^2 on this seed
@settings(max_examples=30, deadline=None)
def test_antisymmetric_orientation_random(seed):
    rng = rng_for(seed, 13)
    h = random_hypergraph(rng, 7, 4, rng.randrange(1, 12))
    k = rng.randrange(1, 3)
    if h.rank() < 2 or not is_k_sparse(h, k).is_sparse:
        return
    assert_elimination_bounds(h, k)


@pytest.mark.parametrize("seed", range(60))
def test_antisymmetric_orientation_matches_min_scan(seed):
    # few vertices and many edges of sizes 1-4 make degree ties, size-1
    # edges and multi-edges common; every third case adds two isolated
    # vertices and a double edge
    rng = rng_for(seed, 14)
    n = rng.randrange(2, 12)
    h = random_hypergraph(rng, n, 4, rng.randrange(1, 3 * n))
    if seed % 3 == 0:
        h = Hypergraph(
            h.vertex_labels + ("i0", "i1"), list(h.edges) + [(0, 1), (0, 1)]
        )
    if h.rank() < 2:
        return
    # every nonempty X spans at most |E| <= |E|*|X| edges
    f = antisymmetric_orientation(h, h.num_edges)
    assert list(f.assignment) == elimination_reference(h)


def test_find_homomorphism_least_map():
    g = DirectedGraph(["u", "v"], [(0, 1)])
    target = DirectedGraph(["x", "y"], [(0, 1), (1, 0)])
    assert find_homomorphism(g, target) == [0, 1]


def test_find_homomorphism_loop_requires_loop():
    g = DirectedGraph(["u"], [(0, 0)])
    target = DirectedGraph(["x", "y"], [(0, 1), (1, 1)])
    assert find_homomorphism(g, target) == [1]


def test_find_homomorphism_budget(monkeypatch):
    # the least map assigns u then v: two search nodes
    g = DirectedGraph(["u", "v"], [(0, 1)])
    target = DirectedGraph(["x", "y"], [(0, 1), (1, 0)])
    monkeypatch.setattr(sparsity, "HOM_SEARCH_BUDGET", 2)
    assert find_homomorphism(g, target) == [0, 1]
    monkeypatch.setattr(sparsity, "HOM_SEARCH_BUDGET", 1)
    with pytest.raises(CapExceeded, match="more than 1 search nodes"):
        find_homomorphism(g, target)


def test_find_homomorphism_impossible():
    cycle = DirectedGraph(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
    arrow = DirectedGraph(["x", "y"], [(0, 1)])
    with pytest.raises(NoHomomorphism):
        find_homomorphism(cycle, arrow)


def test_check_h_orientation_determined():
    g = UndirectedGraph(["a", "b"], [(0, 1)])
    target = DirectedGraph(["x", "y"], [(0, 1)])
    report = check_h_orientation(g, target, [[0], [1]], k=1)
    assert report.valid
    assert report.orientation is not None
    assert report.orientation.assignment == (1,) or report.orientation.assignment == [1]
    assert report.bounded_by_k


def test_check_h_orientation_undetermined_and_invalid():
    g = UndirectedGraph(["a", "b"], [(0, 1)])
    both = DirectedGraph(["x", "y"], [(0, 1), (1, 0)])
    report = check_h_orientation(g, both, [[0], [1]])
    assert report.valid and report.orientation is None
    no_arc = DirectedGraph(["x", "y"], [])
    assert not check_h_orientation(g, no_arc, [[0], [1]]).valid
    # overlapping classes are rejected, wrong class count is malformed
    assert not check_h_orientation(g, both, [[0, 1], [1]]).valid
    with pytest.raises(MalformedPartition):
        check_h_orientation(g, both, [[0], [1], []])
