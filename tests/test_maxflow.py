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


def random_network(seed: int, n: int, undirected: bool = False):
    """Source 0, sink 1, about 3n arcs with parallel and antiparallel
    arcs, capacities mixed between unit, small, large and zero.  Arcs
    are (u, v, capacity, reverse); with ``undirected`` every other arc
    is an undirected pair whose reverse arc starts with a capacity of
    its own, otherwise every reverse is 0."""
    rng = random.Random(seed)
    arcs = []
    for i in range(3 * n):
        u, v = rng.sample(range(n), 2)
        cap = rng.choice([0, 1, 1, 1, rng.randint(2, 9), rng.randint(10, 1000)])
        reverse = rng.choice([0, 1, 2, rng.randint(3, 50)]) if undirected and i % 2 else 0
        arcs.append((u, v, cap, reverse))
    net = FlowNetwork(n)
    ids = [net.add_edge(u, v, cap, reverse) for u, v, cap, reverse in arcs]
    return net, arcs, ids


def as_digraph(n: int, arcs):
    """Each arc u -> v and its reverse v -> u with capacity ``reverse``;
    parallel arcs merged."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for u, v, cap, reverse in arcs:
        for a, b, c in ((u, v, cap), (v, u, reverse)):
            if g.has_edge(a, b):
                g[a][b]["capacity"] += c
            else:
                g.add_edge(a, b, capacity=c)
    return g


CASES = [(seed, n) for n in (2, 5, 12, 40, 120, 300) for seed in range(4)]


def assert_matches_networkx(seed: int, n: int, undirected: bool):
    net, arcs, ids = random_network(seed, n, undirected)
    value = net.max_flow(0, 1)
    cap = list(net.cap)
    assert net.max_flow(0, 1) == 0 and net.cap == cap  # solved: adds nothing
    g = as_digraph(n, arcs)
    assert value == nx.maximum_flow_value(g, 0, 1)

    # capacity and conservation; flow_on counts the reverse capacity
    excess = [0] * n
    for (u, v, cap, reverse), a in zip(arcs, ids):
        f = net.flow_on(a) - reverse
        assert -reverse <= f <= cap
        excess[u] -= f
        excess[v] += f
    assert excess[0] == -value and excess[1] == value
    assert all(e == 0 for e in excess[2:])

    # the residual source side is a cut of capacity equal to the flow,
    # and it is the least minimum cut: networkx's residual gives the same
    side = net.source_side(0)
    assert 0 in side and 1 not in side
    assert sum(cap for u, v, cap, _ in arcs if u in side and v not in side) + sum(
        reverse for u, v, _, reverse in arcs if v in side and u not in side
    ) == value
    residual = nx.algorithms.flow.edmonds_karp(g, 0, 1)
    open_arcs = nx.DiGraph()
    open_arcs.add_node(0)
    open_arcs.add_edges_from(
        (u, v) for u, v, a in residual.edges(data=True) if a["capacity"] > a["flow"]
    )
    assert side == {0} | nx.descendants(open_arcs, 0)


@pytest.mark.parametrize("seed,n", CASES)
def test_max_flow_matches_networkx(seed, n):
    assert_matches_networkx(seed, n, undirected=False)


@pytest.mark.parametrize("seed,n", CASES)
def test_reverse_capacities_match_networkx(seed, n):
    # undirected pairs: one arc pair, given to networkx as two arcs
    assert_matches_networkx(seed, n, undirected=True)


@pytest.mark.parametrize("seed,n", CASES)
def test_unit_pushes_reach_the_max_flow_value(seed, n):
    # the generator's routing: one more unit of residual on the one arc
    # out of the source, then max_flow adds 0 or 1; here node n feeds
    # the network's source 0
    arcs = random_network(seed, n, undirected=seed % 2 == 1)[1]
    net = FlowNetwork(n + 1)
    feed = net.add_edge(n, 0, 0)
    for u, v, cap, reverse in arcs:
        net.add_edge(u, v, cap, reverse)
    pushed = 0
    while True:
        net.cap[feed] += 1
        cap = list(net.cap)
        added = net.max_flow(n, 1)
        if not added:
            break
        assert added == 1
        pushed += 1
    # a call on a solved network adds nothing and changes no capacity
    assert net.cap == cap
    assert pushed == random_network(seed, n, undirected=seed % 2 == 1)[0].max_flow(0, 1)


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
    brute = is_k_sparse_bruteforce(h, k)
    assert report.is_sparse == brute.is_sparse
    assert report.witness == least_max_excess_set(h, k)
    assert brute.witness == report.witness
