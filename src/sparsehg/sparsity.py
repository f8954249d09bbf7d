"""Sparsity tests and bounded orientations.

A hypergraph is k-sparse when every finite vertex set X spans at most
k*|X| edges (edges entirely inside X).  Equivalently there is an
orientation f with every preimage |f^-1(a)| bounded by k; the
equivalence is constructive in both directions below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DirectedGraph, Hypergraph, Orientation, UndirectedGraph, preimage_counts
from .core import directed_quotient
from .errors import (
    CapExceeded,
    MalformedPartition,
    NoHomomorphism,
    NotKSparse,
    RankTooSmall,
)
from .maxflow import FlowNetwork


@dataclass
class SparsityReport:
    is_sparse: bool
    k: int
    witness: list[int] | None  # violating vertex set when not sparse


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be a positive integer")


def _edges_inside(h: Hypergraph, vertex_set) -> int:
    inside = set(vertex_set)
    return sum(1 for members in h.edges if all(v in inside for v in members))


# Largest vertex count the brute-force oracles accept, whatever their
# cap: one 2^n-entry int64 table is then at most 256 MiB.
ORACLE_MAX_VERTICES = 25


def _first_violating_subset(n: int, cap: int, violating) -> list[int] | None:
    """Shared core of the brute-force oracles: the first vertex subset,
    in increasing bitmask order (vertex i = bit i), that ``violating``
    flags, or None.

    ``violating(popcount)`` receives the size of every one of the 2^n
    subsets and returns a boolean array over them.  More than
    min(cap, ORACLE_MAX_VERTICES) vertices are refused with CapExceeded
    before any table is allocated.
    """
    limit = min(cap, ORACLE_MAX_VERTICES)
    if n > limit:
        raise CapExceeded(f"{n} vertices exceeds the brute-force cap {limit}")
    popcount = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        popcount = np.concatenate([popcount, popcount + 1])
    bad = np.nonzero(violating(popcount))[0]
    if bad.size == 0:
        return None
    mask = int(bad[0])
    return [v for v in range(n) if mask >> v & 1]


def is_k_sparse_bruteforce(h: Hypergraph, k: int, cap: int = 20) -> SparsityReport:
    """Exhaustive check of |E|_X| <= k*|X| over all 2^n vertex subsets.

    Subsets are identified with bitmasks (vertex i = bit i); the witness
    is the first violating subset in increasing bitmask order.  Edge
    counts for all subsets come from a subset-sum sweep, so the whole
    table costs O(2^n * n) vector operations.
    """
    _check_k(k)
    n = h.num_vertices

    def violating(popcount):
        inside = np.zeros(1 << n, dtype=np.int64)
        for members in h.edges:
            mask = 0
            for v in members:
                mask |= 1 << v
            inside[mask] += 1
        for i in range(n):
            s = inside.reshape(-1, 2, 1 << i)
            s[:, 1, :] += s[:, 0, :]
        return inside > k * popcount

    witness = _first_violating_subset(n, cap, violating)
    return SparsityReport(witness is None, k, witness)


def is_k_sparse(h: Hypergraph, k: int) -> SparsityReport:
    """Polynomial sparsity decision via a bipartite flow network.

    Source -> edge arcs of capacity 1, edge -> incident vertex arcs of
    capacity 1, vertex -> sink arcs of capacity k.  The hypergraph is
    k-sparse iff the maximum flow routes all |E| units.  When it does
    not, the vertex side of the residual min cut violates sparsity.
    """
    _check_k(k)
    n, m = h.num_vertices, h.num_edges
    source, sink = 0, 1
    edge_node = lambda ei: 2 + ei
    vertex_node = lambda v: 2 + m + v
    net = FlowNetwork(2 + m + n)
    for ei in range(m):
        net.add_edge(source, edge_node(ei), 1)
        for v in h.edges[ei]:
            net.add_edge(edge_node(ei), vertex_node(v), 1)
    for v in range(n):
        net.add_edge(vertex_node(v), sink, k)
    value = net.max_flow(source, sink)
    if value == m:
        return SparsityReport(True, k, None)
    side = net.source_side(source)
    witness = sorted(v for v in range(n) if vertex_node(v) in side)
    assert witness and _edges_inside(h, witness) > k * len(witness)
    return SparsityReport(False, k, witness)


def orientation_weight(f: Orientation, k: int) -> int:
    """Total excess over k across all preimages."""
    _check_k(k)
    return sum(c - k for c in preimage_counts(f) if c > k)


def bounded_orientation(h: Hypergraph, k: int) -> Orientation:
    """Orientation with every preimage of size at most k.

    Starts from the least-incident-vertex orientation and repeatedly
    reroutes an edge chain from an overweight vertex to an underweight
    one; each reroute lowers the weight by exactly one.
    """
    _check_k(k)
    report = is_k_sparse(h, k)
    if not report.is_sparse:
        raise NotKSparse(f"not {k}-sparse", witness=report.witness)
    assignment = [members[0] for members in h.edges]
    counts = [0] * h.num_vertices
    for v in assignment:
        counts[v] += 1
    weight = sum(c - k for c in counts if c > k)
    while weight > 0:
        a = min(v for v in range(h.num_vertices) if counts[v] > k)
        closure, span = _preimage_closure(h, assignment, a)
        b = min((c for c in span if counts[c] < k), default=None)
        assert b is not None, "closure of an overweight vertex must contain slack"
        chain = _reroute_chain(h, assignment, closure, a, b)
        previous = assignment[chain[0]]
        assignment[chain[0]] = b
        for ei in chain[1:]:
            previous, assignment[ei] = assignment[ei], previous
        counts[a] -= 1
        counts[b] += 1
        new_weight = sum(c - k for c in counts if c > k)
        assert new_weight == weight - 1
        weight = new_weight
    return Orientation(h, assignment)


def _preimage_closure(h: Hypergraph, assignment, a):
    """Least edge set F with f^-1(a) inside F and f^-1(c) inside F for
    every vertex c spanned by F.  Returns (F, union of F's vertices)."""
    preimages: dict[int, list[int]] = {}
    for ei, v in enumerate(assignment):
        preimages.setdefault(v, []).append(ei)
    closure: set[int] = set()
    span: set[int] = set()
    frontier = [a]
    while frontier:
        c = frontier.pop()
        for ei in preimages.get(c, ()):
            if ei in closure:
                continue
            closure.add(ei)
            for v in h.edges[ei]:
                if v not in span:
                    span.add(v)
                    frontier.append(v)
    return closure, span


def _reroute_chain(h, assignment, closure, a, b):
    """Shortest edge chain e0..en inside the closure with b in e0,
    f(e_i) in e_{i+1} and f(en) = a, found by breadth-first search."""
    members_in = {ei: h.edges[ei] for ei in closure}
    containing: dict[int, list[int]] = {}
    for ei in sorted(closure):
        for v in members_in[ei]:
            containing.setdefault(v, []).append(ei)
    start = containing.get(b, [])
    parent: dict[int, int | None] = {}
    queue = []
    for ei in start:
        if ei not in parent:
            parent[ei] = None
            queue.append(ei)
    head = 0
    found = None
    while head < len(queue):
        ei = queue[head]
        head += 1
        if assignment[ei] == a:
            found = ei
            break
        for nxt in containing.get(assignment[ei], ()):
            if nxt not in parent:
                parent[nxt] = ei
                queue.append(nxt)
    assert found is not None, "closure must contain a chain back to the overweight vertex"
    chain = []
    cursor: int | None = found
    while cursor is not None:
        chain.append(cursor)
        cursor = parent[cursor]
    chain.reverse()
    return chain


def _bad_vertices(h: Hypergraph, assignment) -> list[int]:
    outgoing: dict[int, set[int]] = {}
    for ei, members in enumerate(h.edges):
        b = assignment[ei]
        for a in members:
            if a != b:
                outgoing.setdefault(a, set()).add(b)
    bad = set()
    for a, outs in outgoing.items():
        for b in outs:
            if a in outgoing.get(b, ()):
                bad.add(a)
                bad.add(b)
                break
    return sorted(bad)


def antisymmetric_orientation(h: Hypergraph, k: int) -> Orientation:
    """Orientation bounded by rank(h)*k^2 whose directed quotient has no
    pair of opposite arcs.

    Starts from the bounded orientation and eliminates bad vertices: a
    vertex a is bad when the quotient contains arcs a -> b and b -> a
    for some b.  The least bad vertex absorbs the edges feeding its
    opposite arcs (Y = edges through a oriented into the span of
    f^-1(a)) until it is clean.  Absorption can cascade, since the span
    is recomputed from the grown preimage; when it leaves a preimage
    above rank(h)*k^2, or a round fails to shrink the bad set, the
    result is ``_elimination_orientation`` instead, whose preimages are
    at most rank(h)*k.  Wherever absorption stays within the bound its
    result is kept unchanged.
    """
    _check_k(k)
    m = h.rank()
    if m < 2:
        raise RankTooSmall(f"rank {m} < 2")
    f = bounded_orientation(h, k)
    assignment = _absorb_bad_vertices(h, list(f.assignment))
    result = None if assignment is None else Orientation(h, assignment)
    if result is None or max(preimage_counts(result)) > m * k * k:
        result = Orientation(h, _elimination_orientation(h))
    assert max(preimage_counts(result)) <= m * k * k
    assert directed_quotient(result).is_antisymmetric()
    return result


def _absorb_bad_vertices(h: Hypergraph, assignment: list[int]) -> list[int] | None:
    """Bad-vertex elimination rounds on ``assignment`` (in place); None
    when a round does not shrink the bad set."""
    bad = _bad_vertices(h, assignment)
    while bad:
        a = bad[0]
        while True:
            span = set()
            for ei, v in enumerate(assignment):
                if v == a:
                    span.update(h.edges[ei])
            span.discard(a)
            redirect = [
                ei
                for ei in h.incident_edges[a]
                if assignment[ei] != a and assignment[ei] in span
            ]
            if not redirect:
                break
            for ei in redirect:
                assignment[ei] = a
        remaining = _bad_vertices(h, assignment)
        if len(remaining) >= len(bad):
            return None
        bad = remaining
    return assignment


def _elimination_orientation(h: Hypergraph) -> list[int]:
    """Repeatedly remove the least vertex of least remaining degree and
    orient its surviving edges to it.

    The surviving edges lie inside the remaining vertex set X, so on a
    k-sparse input there are at most k*|X| of them and the least degree
    is at most rank(h)*k.  Every arc of the quotient points to a vertex
    removed earlier, so no two arcs are opposite."""
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


def find_homomorphism(g: DirectedGraph, target: DirectedGraph) -> list[int]:
    """Least arc-preserving map V(g) -> V(target) under (vertex, value)
    lexicographic order, by backtracking search."""
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
    while 0 <= v < n:
        val = candidate[v]
        while val < target.num_vertices and not admissible(v, val):
            val += 1
        if val < target.num_vertices:
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
