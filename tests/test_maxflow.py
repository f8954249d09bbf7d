"""The max-flow engine against networkx, and the sparsity witness
against a brute-force enumeration of the minimum cuts."""

from __future__ import annotations

import random

import numpy as np
import pytest

from sparsehg.core import Hypergraph
from sparsehg.generators import random_hypergraph, rng_for
from sparsehg.maxflow import FlowNetwork
from sparsehg.sparsity import is_k_sparse, is_k_sparse_bruteforce

nx = pytest.importorskip("networkx")


def random_network(seed: int, n: int):
    """Source 0, sink 1, about 3n arcs with parallel and antiparallel
    arcs, capacities mixed between unit, small, large and zero."""
    rng = random.Random(seed)
    arcs = []
    for _ in range(3 * n):
        u, v = rng.sample(range(n), 2)
        cap = rng.choice([0, 1, 1, 1, rng.randint(2, 9), rng.randint(10, 1000)])
        arcs.append((u, v, cap))
    net = FlowNetwork(n)
    ids = [net.add_edge(u, v, cap) for u, v, cap in arcs]
    return net, arcs, ids


def as_digraph(n: int, arcs):
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for u, v, cap in arcs:
        if g.has_edge(u, v):
            g[u][v]["capacity"] += cap
        else:
            g.add_edge(u, v, capacity=cap)
    return g


CASES = [(seed, n) for n in (2, 5, 12, 40, 120, 300) for seed in range(4)]


@pytest.mark.parametrize("seed,n", CASES)
def test_max_flow_matches_networkx(seed, n):
    net, arcs, ids = random_network(seed, n)
    value = net.max_flow(0, 1)
    g = as_digraph(n, arcs)
    assert value == nx.maximum_flow_value(g, 0, 1)

    # capacity and conservation
    excess = [0] * n
    for (u, v, cap), a in zip(arcs, ids):
        f = net.flow_on(a)
        assert 0 <= f <= cap
        excess[u] -= f
        excess[v] += f
    assert excess[0] == -value and excess[1] == value
    assert all(e == 0 for e in excess[2:])

    # the residual source side is a cut of capacity equal to the flow,
    # and it is the least minimum cut: networkx's residual gives the same
    side = net.source_side(0)
    assert 0 in side and 1 not in side
    assert sum(cap for u, v, cap in arcs if u in side and v not in side) == value
    residual = nx.algorithms.flow.edmonds_karp(g, 0, 1)
    open_arcs = nx.DiGraph()
    open_arcs.add_node(0)
    open_arcs.add_edges_from(
        (u, v) for u, v, a in residual.edges(data=True) if a["capacity"] > a["flow"]
    )
    assert side == {0} | nx.descendants(open_arcs, 0)


def least_max_excess_set(h: Hypergraph, k: int) -> list[int] | None:
    """By enumeration: the least vertex set maximizing |E|_X| - k|X|,
    or None when that maximum is 0 (the hypergraph is k-sparse).  The
    maximizers are closed under intersection, so the least one is the
    intersection of all of them."""
    n = h.num_vertices
    masks = np.arange(1 << n)
    excess = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        excess -= k * ((masks >> v) & 1)
    for members in h.edges:
        edge = sum(1 << v for v in members)
        excess += (masks & edge) == edge
    best = excess.max()
    if best <= 0:
        return None
    least = int(np.bitwise_and.reduce(masks[excess == best]))
    return [v for v in range(n) if least >> v & 1]


@pytest.mark.parametrize("seed", range(40))
def test_sparsity_witness_is_the_least_max_excess_set(seed):
    rng = rng_for(seed, 14)
    n = 2 + rng.randrange(13)
    h = random_hypergraph(rng, n, 1 + rng.randrange(4), 1 + rng.randrange(3 * n))
    k = 1 + rng.randrange(2)
    report = is_k_sparse(h, k)
    assert report.is_sparse == is_k_sparse_bruteforce(h, k).is_sparse
    assert report.witness == least_max_excess_set(h, k)
