"""Seeded inputs with known answers, built without ``sparsehg``.

Every generator takes a ``random.Random`` and returns plain Python data
(vertex count, edge member tuples, demands, flows, set tables).  The
answer each input is planted with is part of the returned data, so the
report checkers in ``checks.py`` can judge a report without calling the
program.  ``sparsehg.generators`` is never used: it is one of the
measured layers, and its distribution generator alone would cost more
than the whole benchmark set-up.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field


def vlabel(v: int) -> str:
    return f"v{v}"


def elabel(e: int) -> str:
    return f"e{e}"


@dataclass
class Hyper:
    """Hypergraph as plain data: vertices 0..n-1, edges as member tuples."""

    n: int
    edges: list
    k: int = 0
    witness_set: tuple = ()  # planted violating set, empty when sparse

    def text(self) -> str:
        lines = [f"v {vlabel(v)}" for v in range(self.n)]
        for ei, members in enumerate(self.edges):
            lines.append(f"e {elabel(ei)} " + " ".join(vlabel(v) for v in members))
        return "".join(line + "\n" for line in lines)

    def rank(self) -> int:
        return max((len(e) for e in self.edges), default=0)


@dataclass
class Graph:
    """Simple connected graph plus a planted k-sparse distribution."""

    n: int
    edges: list  # (u, v) with u < v, no repeats
    k: int = 1
    demand: list = field(default_factory=list)
    paths: list = field(default_factory=list)  # planted start -> end paths
    sets: list = field(default_factory=list)  # (frozenset, image vertex)

    def text(self) -> str:
        lines = [f"v {vlabel(v)}" for v in range(self.n)]
        for ei, (u, v) in enumerate(self.edges):
            lines.append(f"e {elabel(ei)} {vlabel(u)} {vlabel(v)}")
        return "".join(line + "\n" for line in lines)

    def dist_text(self) -> str:
        return "".join(
            f"{vlabel(v)} {c}\n" for v, c in enumerate(self.demand) if c
        )

    def sets_text(self) -> str:
        return "".join(
            ",".join(vlabel(u) for u in sorted(xs)) + f" -> {vlabel(v)}\n"
            for xs, v in self.sets
        )

    def adjacency(self) -> list:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def _members(rng: random.Random, head: int, pool, size: int) -> tuple:
    chosen = {head}
    while len(chosen) < size:
        chosen.add(pool[rng.randrange(len(pool))])
    return tuple(sorted(chosen))


def planted_sparse_hypergraph(
    rng: random.Random, n: int, m: int, k: int, rank: int = 4
) -> Hyper:
    """k-sparse by construction: each edge is planted with a head, and no
    vertex heads more than k edges, so that orientation bounds every
    preimage by k (and any X spans at most k*|X| edges)."""
    if m > k * n:
        raise ValueError("more edges than k*n heads")
    slots = [v for v in range(n) for _ in range(k)]
    rng.shuffle(slots)
    everyone = list(range(n))
    edges = [
        _members(rng, head, everyone, rng.randint(1, min(rank, n)))
        for head in slots[:m]
    ]
    return Hyper(n, edges, k)


def planted_dense_hypergraph(
    rng: random.Random, n: int, m: int, k: int, rank: int = 4
) -> Hyper:
    """Not k-sparse by construction: a set X of about n/8 vertices spans
    k*|X| + 1 edges; the other edges are planted as in the sparse case
    with heads outside X."""
    size = max(rank, n // 8)
    x = sorted(rng.sample(range(n), size))
    inside = k * size + 1
    outside = [v for v in range(n) if v not in set(x)]
    slots = [v for v in outside for _ in range(k)]
    rng.shuffle(slots)
    everyone = list(range(n))
    edges = [
        _members(rng, x[rng.randrange(size)], x, rng.randint(1, rank))
        for _ in range(inside)
    ]
    edges += [
        _members(rng, head, everyone, rng.randint(1, min(rank, n)))
        for head in slots[: max(0, m - inside)]
    ]
    rng.shuffle(edges)
    return Hyper(n, edges, k, tuple(x))


def planted_connected_hypergraph(
    rng: random.Random, n: int, extra: int, rank: int = 4
) -> Hyper:
    """Connected by construction: a backbone edge joins each new vertex
    to already covered ones, then ``extra`` random edges follow."""
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i in range(1, n):
        members = {order[i]}
        while len(members) < min(rng.randint(2, rank), i + 1):
            members.add(order[rng.randrange(i)])
        edges.append(tuple(sorted(members)))
    everyone = list(range(n))
    for _ in range(extra):
        edges.append(
            _members(rng, everyone[rng.randrange(n)], everyone,
                     rng.randint(2, rank))
        )
    rng.shuffle(edges)
    return Hyper(n, edges)


def connected_graph(rng: random.Random, n: int, extra: int) -> Graph:
    """Random spanning tree plus ``extra`` distinct chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    target = len(edges) + extra
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def plant_distribution(rng: random.Random, g: Graph, k: int, hubs: int) -> None:
    """Plant a k-sparse demand on ``g`` together with a delta-flow for it.

    Each hub s ends one path at itself and sends the rest of its demand
    along paths to distinct, still unused end vertices, using every edge
    at most k times.  A set Z then demands at most |Z| (paths ending in
    Z; ends are distinct) plus k per border edge (paths leaving Z), so
    the demand is k-sparse.  Summing the paths as unit flows gives a
    flow whose defect is delta - 1 at every start, which is exactly a
    delta-flow with every edge value at most k.
    """
    adj = g.adjacency()
    for ns in adj:
        rng.shuffle(ns)
    use: dict[tuple, int] = {}
    is_end = [False] * g.n
    demand = [0] * g.n
    paths = []
    candidates = list(range(g.n))
    rng.shuffle(candidates)
    for s in candidates[:hubs]:
        if is_end[s]:
            continue
        is_end[s] = True
        demand[s] = 1
        paths.append((s,))
        for _ in range(rng.randint(1, 4)):
            path = _route_to_free_end(adj, use, is_end, s, k)
            if path is None:
                break
            for a, b in zip(path, path[1:]):
                key = (min(a, b), max(a, b))
                use[key] = use.get(key, 0) + 1
            is_end[path[-1]] = True
            demand[s] += 1
            paths.append(tuple(path))
    g.k = k
    g.demand = demand
    g.paths = paths


def _route_to_free_end(adj, use, is_end, s, k):
    """Breadth-first path from s to the nearest vertex that ends no path,
    over edges used fewer than k times."""
    parent = {s: None}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if not is_end[u]:
            path = []
            while u is not None:
                path.append(u)
                u = parent[u]
            return path[::-1]
        for w in adj[u]:
            if w not in parent and use.get((min(u, w), max(u, w)), 0) < k:
                parent[w] = u
                queue.append(w)
    return None


def path_flow(g: Graph) -> dict:
    """Net unit flow of the planted paths, keyed by (u, v) with u < v."""
    values: dict[tuple, int] = {}
    for path in g.paths:
        for a, b in zip(path, path[1:]):
            key, sign = ((a, b), 1) if a < b else ((b, a), -1)
            values[key] = values.get(key, 0) + sign
    return {key: val for key, val in values.items() if val}


def add_circulation(rng: random.Random, g: Graph, flow: dict, cycles: int) -> dict:
    """Add ``cycles`` unit-to-3 cycle flows, each closing a chord with its
    spanning-tree path, so the defect is unchanged but positive cycles
    appear for cycle cancelling."""
    adj = g.adjacency()
    parent = {0: None}
    depth = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                depth[w] = depth[u] + 1
                queue.append(w)
    tree = {(min(u, p), max(u, p)) for u, p in parent.items() if p is not None}
    chords = [e for e in g.edges if e not in tree]
    out = dict(flow)
    for _ in range(min(cycles, len(chords))):
        u, v = chords[rng.randrange(len(chords))]
        a, b, up, down = u, v, [u], [v]
        while a != b:
            if depth[a] >= depth[b]:
                a = parent[a]
                up.append(a)
            else:
                b = parent[b]
                down.append(b)
        cycle = up + down[-2::-1]  # u .. lca .. v, then the chord v -> u
        c = rng.randint(1, 3)
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            key, sign = ((x, y), 1) if x < y else ((y, x), -1)
            out[key] = out.get(key, 0) + sign * c
    return {key: val for key, val in out.items() if val}


def flow_text(flow: dict) -> str:
    return "".join(
        f"{vlabel(u)} {vlabel(v)} {val}\n" for (u, v), val in sorted(flow.items())
    )


def plant_set_function(rng: random.Random, g: Graph, max_size: int = 4) -> None:
    """Distinct vertex sets, demand(v) of them sent to each vertex v, so
    the induced distribution is the planted k-sparse demand."""
    used = set()
    sets = []
    for v, count in enumerate(g.demand):
        while count:
            xs = frozenset(rng.sample(range(g.n), rng.randint(0, min(max_size, g.n))))
            if xs not in used:
                used.add(xs)
                sets.append((xs, v))
                count -= 1
    rng.shuffle(sets)
    g.sets = sets
