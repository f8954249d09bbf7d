"""Seeded random instances for the verification suites.

Everything here must be byte-stable across runs and Python versions,
so shuffling and sampling are hand-rolled on top of ``randrange`` (the
one primitive with a stability guarantee) instead of ``shuffle`` or
``sample``.
"""

from __future__ import annotations

import random

from .core import Hypergraph, UndirectedGraph, is_connected
from .flows import Flow, _route_increment, _solve_delta_network, is_k_sparse_distribution


def rng_for(*parts: int) -> random.Random:
    """Independent generator derived from integer coordinates."""
    seed = 0
    for part in parts:
        seed = seed * 1000003 + part + 12345
    return random.Random(seed)


def shuffled(rng: random.Random, xs) -> list:
    out = list(xs)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def sample(rng: random.Random, xs, count: int) -> list:
    return shuffled(rng, xs)[:count]


def choice(rng: random.Random, xs):
    return xs[rng.randrange(len(xs))]


def _vertex_labels(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def random_hypergraph(
    rng: random.Random, n: int, max_rank: int, num_edges: int
) -> Hypergraph:
    """Multi-edges allowed; every edge has between 1 and max_rank members."""
    edges = []
    for _ in range(num_edges):
        size = rng.randrange(1, min(max_rank, n) + 1)
        edges.append(tuple(sorted(sample(rng, range(n), size))))
    return Hypergraph._from_valid(_vertex_labels(n), edges)


def random_connected_hypergraph(
    rng: random.Random, n: int, max_rank: int, extra_edges: int
) -> Hypergraph:
    """Backbone of covering edges (each joins a new vertex to covered
    ones) plus extra random edges."""
    order = shuffled(rng, range(n))
    covered = [order[0]]
    edges = []
    for v in order[1:]:
        size = rng.randrange(2, min(max_rank, len(covered) + 1) + 1)
        members = [v] + sample(rng, covered, size - 1)
        edges.append(tuple(sorted(members)))
        covered.append(v)
    for _ in range(extra_edges):
        size = rng.randrange(1, min(max_rank, n) + 1)
        edges.append(tuple(sorted(sample(rng, range(n), size))))
    h = Hypergraph._from_valid(_vertex_labels(n), edges)
    assert n <= 1 or is_connected(h)
    return h


def random_graph_max_degree(
    rng: random.Random, n: int, max_degree: int
) -> UndirectedGraph:
    """Simple graph built by scanning shuffled vertex pairs and keeping
    those that respect the degree bound."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    target = rng.randrange(0, n * max_degree // 2 + 1)
    degree = [0] * n
    edges = []
    for u, v in shuffled(rng, pairs):
        if len(edges) >= target:
            break
        if degree[u] < max_degree and degree[v] < max_degree:
            degree[u] += 1
            degree[v] += 1
            edges.append((u, v))
    return UndirectedGraph._from_valid(_vertex_labels(n), sorted(edges))


def random_connected_graph(
    rng: random.Random, n: int, extra_edges: int
) -> UndirectedGraph:
    """Random spanning tree plus distinct chord edges."""
    order = shuffled(rng, range(n))
    edge_set = set()
    for i, v in enumerate(order[1:], start=1):
        u = order[rng.randrange(i)]
        edge_set.add((min(u, v), max(u, v)))
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edge_set
    ]
    for pair in sample(rng, candidates, min(extra_edges, len(candidates))):
        edge_set.add(pair)
    return UndirectedGraph._from_valid(_vertex_labels(n), sorted(edge_set))


def grid_graph(rows: int, cols: int) -> UndirectedGraph:
    """rows x cols grid; vertex r,c has id r*cols + c."""
    n = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return UndirectedGraph._from_valid(_vertex_labels(n), sorted(edges))


def random_sparse_distribution(
    rng: random.Random, g: UndirectedGraph, k: int
) -> list[int]:
    """Grow demands one unit at a time, rolling back any increment that
    breaks k-sparsity.  Total demand self-limits at |V| (take Z = V).

    One delta network serves the whole call.  Each accepted d is
    k-sparse, so the network holds a maximum flow that saturates every
    source arc, and d + 1_v is k-sparse exactly when one more unit can
    be routed, which ``flows._route_increment`` decides with at most one
    augmenting search:
    - d(v) >= 1 raises v's source arc by one.
    - d(v) = 0 closes v's sink arc.  A unit on it must reach the sink
      from v by another path.  If none exists, the nodes reachable from
      v hold the source, which sent the unit, and every arc leaving them
      is saturated: a cut one unit below the source arcs' capacity, so a
      fresh solve rejects too.
    A rejected increment changes no capacity."""
    n = g.num_vertices
    d = [0] * n
    net = _solve_delta_network(g, d, k)[0]  # the zero flow
    for _ in range(2 * n):
        v = rng.randrange(n)
        if _route_increment(net, d, v):
            d[v] += 1
    assert is_k_sparse_distribution(g, d, k)[0]
    return d


def random_circulation(rng: random.Random, g: UndirectedGraph, cycles: int) -> Flow:
    """Sum of up to ``cycles`` random simple cycles with random values
    from 1 to 3.  Graphs without cycles yield the zero flow."""
    values: dict[tuple[int, int], int] = {}
    for _ in range(cycles):
        cycle = _random_cycle(rng, g)
        if cycle is None:
            continue
        c = rng.randrange(1, 4)
        closed = cycle + [cycle[0]]
        for u, v in zip(closed, closed[1:]):
            key, sign = ((u, v), 1) if u < v else ((v, u), -1)
            values[key] = values.get(key, 0) + sign * c
    return Flow(g, values)


def _random_cycle(rng: random.Random, g: UndirectedGraph):
    """Random walk without immediate backtracking until a vertex repeats;
    returns the loop if it has length >= 3."""
    if g.num_vertices == 0:
        return None
    for _ in range(10):
        v = rng.randrange(g.num_vertices)
        path = [v]
        position = {v: 0}
        previous = None
        for _ in range(g.num_vertices + 1):
            steps = [w for w in g.adjacency[path[-1]] if w != previous]
            if not steps:
                break
            w = choice(rng, steps)
            if w in position:
                loop = path[position[w] :]
                if len(loop) >= 3:
                    return loop
                break
            position[w] = len(path)
            previous = path[-1]
            path.append(w)
    return None


def random_set_function(rng: random.Random, g: UndirectedGraph, k: int):
    """Random finite set function whose induced distribution is k-sparse.

    Demands come from random_sparse_distribution; each demand unit gets
    a globally distinct random vertex set of at most 4 members."""
    from .encoding import FiniteSetFunction

    d = random_sparse_distribution(rng, g, k)
    n = g.num_vertices
    used = set()
    entries = []
    for v in range(n):
        for _ in range(d[v]):
            for _ in range(100):
                size = rng.randrange(0, min(4, n) + 1)
                xs = frozenset(sample(rng, range(n), size))
                if xs not in used:
                    used.add(xs)
                    entries.append((xs, v))
                    break
            else:
                raise RuntimeError("could not find a fresh set")
    return FiniteSetFunction(tuple(entries))
