from __future__ import annotations

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


def test_bruteforce_ceiling_ignores_cap(monkeypatch):
    # refused before any table exists: numpy is not even reachable
    monkeypatch.setattr(sparsity, "np", None)
    n = ORACLE_MAX_VERTICES + 1
    h = Hypergraph([f"v{i}" for i in range(n)], [])
    with pytest.raises(CapExceeded, match=f"exceeds the brute-force cap {ORACLE_MAX_VERTICES}"):
        is_k_sparse_bruteforce(h, 1, cap=10**6)
    with pytest.raises(CapExceeded):
        is_k_sparse_bruteforce(Hypergraph([f"v{i}" for i in range(40)], []), 1, cap=40)


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


def test_antisymmetric_orientation_triangle():
    f = antisymmetric_orientation(triangle(), 1)
    q = directed_quotient(f)
    assert q.is_antisymmetric()
    assert max(preimage_counts(f)) <= 2 * 1 * 1  # rank * k^2


def test_antisymmetric_requires_rank_2():
    h = Hypergraph(["a", "b"], [(0,), (1,)])
    with pytest.raises(RankTooSmall):
        antisymmetric_orientation(h, 1)


@given(st.integers(min_value=0, max_value=2**32))
@example(seed=657033389)  # absorption cascades past m*k^2 at vertex 0
@settings(max_examples=30, deadline=None)
def test_antisymmetric_orientation_random(seed):
    rng = rng_for(seed, 13)
    h = random_hypergraph(rng, 7, 4, rng.randrange(1, 12))
    k = rng.randrange(1, 3)
    if h.rank() < 2 or not is_k_sparse(h, k).is_sparse:
        return
    f = antisymmetric_orientation(h, k)
    assert directed_quotient(f).is_antisymmetric()
    assert max(preimage_counts(f)) <= h.rank() * k * k


def test_find_homomorphism_least_map():
    g = DirectedGraph(["u", "v"], [(0, 1)])
    target = DirectedGraph(["x", "y"], [(0, 1), (1, 0)])
    assert find_homomorphism(g, target) == [0, 1]


def test_find_homomorphism_loop_requires_loop():
    g = DirectedGraph(["u"], [(0, 0)])
    target = DirectedGraph(["x", "y"], [(0, 1), (1, 1)])
    assert find_homomorphism(g, target) == [1]


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
