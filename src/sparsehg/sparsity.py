"""Sparsity tests and bounded orientations.

A hypergraph is k-sparse when every finite vertex set X spans at most
k*|X| edges (edges entirely inside X).  Equivalently there is an
orientation f with every preimage |f^-1(a)| bounded by k; the
equivalence is constructive in both directions below.

So a "sparse" verdict needs only some k-bounded orientation.
``is_k_sparse`` and ``antisymmetric_orientation`` first try a greedy
one, and build the sparsity network only when it fails, for a "not
sparse" verdict and its witness; ``bounded_orientation`` always reads
its orientation off the network.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .core import DirectedGraph, Hypergraph, Orientation, UndirectedGraph, preimage_counts
from .core import _check_k, directed_quotient
from .errors import (
    CapExceeded, MalformedPartition, NoHomomorphism, NotKSparse, RankTooSmall,
)
from .maxflow import FlowNetwork


@dataclass
class SparsityReport:
    is_sparse: bool
    k: int
    witness: list[int] | None  # violating vertex set when not sparse


def _edges_inside(h: Hypergraph, vertex_set) -> int:
    inside = set(vertex_set)
    return sum(1 for members in h.edges if all(v in inside for v in members))


# Largest vertex count the brute-force oracles accept, whatever their
# cap: their int32 count table of 2^n entries is then 128 MiB.
ORACLE_MAX_VERTICES = 25

# Most (vertex, value) pairs find_homomorphism assigns before it gives up.
HOM_SEARCH_BUDGET = 10**6


def _first_max_excess_subset(n: int, cap: int, excess) -> list[int] | None:
    """Shared core of the brute-force oracles: the first vertex subset,
    in increasing bitmask order (vertex i = bit i), of maximum excess,
    or None when that maximum is not positive.

    ``excess()`` returns an integer table over the 2^n subsets that is
    positive exactly on the violating ones.  Its maximizers are closed
    under intersection, so the first one is the least maximum-excess
    set, the set the minimum cut of the flow decisions names.  More
    than min(cap, ORACLE_MAX_VERTICES) vertices are refused with
    CapExceeded before any table is allocated, and a negative cap with
    ValueError before any other work.
    """
    if cap < 0:
        raise ValueError(f"cap must be a nonnegative integer, got {cap}")
    limit = min(cap, ORACLE_MAX_VERTICES)
    if n > limit:
        raise CapExceeded(f"{n} vertices exceeds the brute-force cap {limit}")
    table = excess()
    mask = int(table.argmax())
    if table[mask] <= 0:
        return None
    return [v for v in range(n) if mask >> v & 1]


def _count_table(n: int, bound: int):
    """Zeroed table over the 2^n subsets for counts of magnitude below
    ``bound``: int32 whenever that suffices.  Its array library is
    imported here and nowhere else in the package, so a request that
    builds no oracle table never loads it."""
    import numpy as np

    return np.zeros(1 << n, dtype=np.int32 if bound < 2**31 else np.int64)


def is_k_sparse_bruteforce(h: Hypergraph, k: int, cap: int = 20) -> SparsityReport:
    """Exhaustive check of |E|_X| <= k*|X| over all 2^n vertex subsets.

    Subsets are identified with bitmasks (vertex i = bit i); the witness
    is the least set of maximum excess |E|_X| - k*|X|, the one
    ``is_k_sparse`` names, found as the first maximum in increasing
    bitmask order.  One table holds +1 at each edge's mask and -k at
    each singleton; an in-place subset-sum sweep turns it into
    |E|_X| - k*|X| for every X, in O(2^n * n) vector operations.
    """
    _check_k(k)
    n, m = h.num_vertices, h.num_edges

    def excess():
        # a nonempty X never violates once k > m, so clamping k keeps
        # every verdict and bounds the table by (m + 1) * n
        kk = min(k, m + 1)
        table = _count_table(n, (m + 1) * (n + 1))
        for members in h.edges:
            table[sum(1 << v for v in members)] += 1
        for v in range(n):
            table[1 << v] -= kk
        for i in range(n):
            s = table.reshape(-1, 2, 1 << i)
            s[:, 1, :] += s[:, 0, :]
        return table

    witness = _first_max_excess_subset(n, cap, excess)
    return SparsityReport(witness is None, k, witness)


def _solve_sparsity_network(h: Hypergraph, k: int):
    """Build and solve the sparsity network: source 0, sink 1, edge ei at
    node 2+ei, vertex v at node 2+m+v.

    Source -> edge arcs of capacity 1, edge -> member arcs of capacity
    1, vertex -> sink arcs of capacity k.  Returns the solved network,
    the edge -> member arc indices of every edge (in member order), and
    the witness: None when the maximum flow routes all |E| units,
    otherwise the vertices on the source side of the least minimum cut,
    a set that violates sparsity and the same for every maximum flow.

    Each edge, in id order, places its unit on its first member, in
    member order, with load below k, written into the residual
    capacities as the arcs are added; max_flow pushes the rest.  Dinic's
    first phase would route just these units: its search labels every
    edge node 1, every member 2 and the sink 3, and its blocking flow
    takes edges in id order and members in member order, unlabelling a
    vertex whose sink arc is full.  Later phases start from the same
    residual network, so the flow and the witness are max_flow's own."""
    n, m = h.num_vertices, h.num_edges
    net = FlowNetwork(2 + m + n)
    add_edge, cap = net.add_edge, net.cap
    load, member_arcs = [0] * n, []
    for ei, members in enumerate(h.edges):
        unit = add_edge(0, 2 + ei, 1)
        arcs = [add_edge(2 + ei, 2 + m + v, 1) for v in members]
        member_arcs.append(arcs)
        for v, arc in zip(members, arcs):
            if load[v] < k:
                load[v] += 1
                cap[unit], cap[unit + 1], cap[arc], cap[arc + 1] = 0, 1, 0, 1
                break
    for v in range(n):
        add_edge(2 + m + v, 1, k - load[v], load[v])
    if sum(load) + net.max_flow(0, 1) == m:
        return net, member_arcs, None
    side = net.source_side(0)
    witness = sorted(v for v in range(n) if 2 + m + v in side)
    assert witness and _edges_inside(h, witness) > k * len(witness)
    return net, member_arcs, witness


def _greedy_orientation_fits(h: Hypergraph, k: int) -> bool:
    """Whether a greedy orientation keeps every preimage within k: each
    edge, fewest members first (then in id order), goes to its least
    loaded member (ties to the earlier member).  True proves the input
    k-sparse; False decides nothing."""
    load = [0] * h.num_vertices
    for members in sorted(h.edges, key=len):
        v = min(members, key=load.__getitem__)
        if load[v] == k:
            return False
        load[v] += 1
    return True


def is_k_sparse(h: Hypergraph, k: int) -> SparsityReport:
    """Polynomial sparsity decision: the hypergraph is k-sparse iff the
    maximum flow of the sparsity network routes all |E| units; when it
    does not, the vertex side of the residual min cut violates sparsity.
    A greedy k-bounded orientation settles "sparse" without the network,
    which is built only when the greedy one fails."""
    _check_k(k)
    if _greedy_orientation_fits(h, k):
        return SparsityReport(True, k, None)
    witness = _solve_sparsity_network(h, k)[2]
    return SparsityReport(witness is None, k, witness)


def orientation_weight(f: Orientation, k: int) -> int:
    """Total excess over k across all preimages."""
    _check_k(k)
    return sum(c - k for c in preimage_counts(f) if c > k)


def bounded_orientation(h: Hypergraph, k: int) -> Orientation:
    """Orientation with every preimage of size at most k, read off one
    maximum flow of the sparsity network: each edge goes to the member
    whose edge -> vertex arc carries the edge's unit, and the vertex ->
    sink capacity k bounds every preimage."""
    _check_k(k)
    net, member_arcs, witness = _solve_sparsity_network(h, k)
    if witness is not None:
        raise NotKSparse(f"not {k}-sparse", witness=witness)
    assignment = [
        next(v for v, a in zip(members, arcs) if net.flow_on(a))
        for members, arcs in zip(h.edges, member_arcs)
    ]
    f = Orientation(h, assignment)
    assert max(preimage_counts(f), default=0) <= k
    return f


def antisymmetric_orientation(h: Hypergraph, k: int) -> Orientation:
    """Orientation bounded by rank(h)*k whose directed quotient is
    acyclic, so has no pair of opposite arcs.

    Repeatedly removes the least vertex of least remaining degree and
    orients its surviving edges to it.  The surviving edges lie inside
    the remaining vertex set X, so on a k-sparse input there are at most
    k*|X| of them and the least remaining degree is at most rank(h)*k.
    Every arc of the quotient points to a vertex removed earlier, so the
    quotient is acyclic.  A lazy heap of (remaining degree, vertex)
    entries yields the removal order; an entry is stale once its vertex
    is removed or its degree has dropped.  Sparsity is settled as in
    ``is_k_sparse``: the sparsity network is built only when a greedy
    k-bounded orientation fails, and then gives the witness.
    """
    _check_k(k)
    m = h.rank()
    if m < 2:
        raise RankTooSmall(f"rank {m} < 2")
    if not _greedy_orientation_fits(h, k):
        witness = _solve_sparsity_network(h, k)[2]
        if witness is not None:
            raise NotKSparse(f"not {k}-sparse", witness=witness)
    assignment: list[int | None] = [None] * h.num_edges
    degree = [len(es) for es in h.incident_edges]
    removed_at = [-1] * h.num_vertices
    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    step = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed_at[v] >= 0 or d != degree[v]:
            continue
        removed_at[v] = step
        step += 1
        for ei in h.incident_edges[v]:
            if assignment[ei] is None:
                assignment[ei] = v
                for w in h.edges[ei]:
                    degree[w] -= 1
                    if removed_at[w] < 0:
                        heapq.heappush(heap, (degree[w], w))
    f = Orientation(h, assignment)
    assert max(preimage_counts(f)) <= m * k
    # every arc a -> f(e) points to a vertex removed no later than a
    assert all(
        removed_at[b] <= removed_at[a]
        for members, b in zip(h.edges, assignment)
        for a in members
    )
    return f


def find_homomorphism(g: DirectedGraph, target: DirectedGraph) -> list[int]:
    """Least arc-preserving map V(g) -> V(target) under (vertex, value)
    lexicographic order, by backtracking search.

    The search assigns at most HOM_SEARCH_BUDGET (vertex, value) pairs
    and raises CapExceeded past that."""
    n = g.num_vertices
    if n == 0:
        return []
    if target.num_vertices == 0:
        raise NoHomomorphism("target graph is empty")
    arcs = target.arcs
    image = [-1] * n
    lower_arcs: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    for a, b in g.arcs:
        if a > b:
            lower_arcs[a].append((b, True))  # arc a -> b with b assigned first
        elif b > a:
            lower_arcs[b].append((a, False))  # arc a -> b with a assigned first
    has_loop = [g.has_arc(v, v) for v in range(n)]

    def admissible(v: int, val: int) -> bool:
        if has_loop[v] and (val, val) not in arcs:
            return False
        for u, v_is_source in lower_arcs[v]:
            pair = (val, image[u]) if v_is_source else (image[u], val)
            if pair not in arcs:
                return False
        return True

    v = 0
    candidate = [0] * n
    nodes = 0
    while 0 <= v < n:
        val = candidate[v]
        while val < target.num_vertices and not admissible(v, val):
            val += 1
        if val < target.num_vertices:
            nodes += 1
            if nodes > HOM_SEARCH_BUDGET:
                raise CapExceeded(f"more than {HOM_SEARCH_BUDGET} search nodes")
            image[v] = val
            candidate[v] = val
            v += 1
            if v < n:
                candidate[v] = 0
        else:
            image[v] = -1
            v -= 1
            if v >= 0:
                candidate[v] += 1
    if v < 0:
        raise NoHomomorphism("no arc-preserving map exists")
    return image


@dataclass
class HOrientationReport:
    valid: bool
    orientation: Orientation | None  # unique reconstruction when determined
    bounded_by_k: bool | None


def check_h_orientation(
    g: UndirectedGraph,
    target: DirectedGraph,
    classes,
    k: int | None = None,
) -> HOrientationReport:
    """Decide whether ``classes`` encodes an orientation of ``g`` together
    with a homomorphism of its directed quotient into ``target``.

    ``classes[i]`` collects the vertices mapped to target vertex i.  The
    encoding is valid when the classes partition V(g) and every edge
    {v, w} is supported by an arc between the classes of v and w.  When
    each edge's direction is forced (the target has no opposite arc pair
    or loop on the classes involved), the induced orientation is
    reconstructed; with ``k`` supplied its preimage bound is reported.
    """
    classes = [sorted(set(c)) for c in classes]
    if len(classes) != target.num_vertices:
        raise MalformedPartition(
            f"{len(classes)} classes for {target.num_vertices} target vertices"
        )
    class_of = [-1] * g.num_vertices
    for i, members in enumerate(classes):
        for v in members:
            if not 0 <= v < g.num_vertices:
                raise MalformedPartition(f"unknown vertex {v}")
            if class_of[v] != -1:
                return HOrientationReport(False, None, None)
            class_of[v] = i
    if any(c == -1 for c in class_of):
        return HOrientationReport(False, None, None)
    assignment = []
    determined = True
    for v, w in g.edges:
        i, j = class_of[v], class_of[w]
        forward = (i, j) in target.arcs  # supports quotient arc v -> w
        backward = (j, i) in target.arcs
        if not forward and not backward:
            return HOrientationReport(False, None, None)
        if forward and backward:
            determined = False
            assignment.append(w)
        else:
            assignment.append(w if forward else v)
    orientation = Orientation(g, assignment) if determined else None
    bounded = None
    if orientation is not None and k is not None:
        bounded = max(preimage_counts(orientation), default=0) <= k
    return HOrientationReport(True, orientation, bounded)
