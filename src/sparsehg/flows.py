"""Flows on undirected graphs that realize sparse distributions.

A distribution assigns a demand to every vertex; it is k-sparse when no
vertex set demands more than its size plus k per border edge.  For
sparse distributions a max-flow computation yields an integer flow
whose defect is delta - 1 almost everywhere; canceling cycles and
decomposing the rest into paths turns the flow into a function g with
|g^-1(v)| = delta(v).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import UndirectedGraph, _content_lines, _vertex_ids
from .errors import (
    DuplicateLabel,
    InvalidFlow,
    NotSparseDistribution,
    ParseError,
    UndeclaredVertex,
)
from .maxflow import FlowNetwork
from .sparsity import _count_table, _first_max_excess_subset


def border(g: UndirectedGraph, z) -> list[int]:
    """Edge ids of B_G(Z): edges with exactly one endpoint in z."""
    inside = set(z)
    return [
        ei
        for ei, (u, v) in enumerate(g.edges)
        if (u in inside) != (v in inside)
    ]


def distribution_sum(d, xs) -> int:
    return sum(d[v] for v in xs)


def induced_distribution(h, g: UndirectedGraph) -> list[int]:
    """Per-vertex preimage counts of a set-to-vertex function."""
    entries = getattr(h, "entries", h)
    d = [0] * g.num_vertices
    for _, v in entries:
        if not 0 <= v < g.num_vertices:
            raise UndeclaredVertex(f"image vertex {v} not in graph")
        d[v] += 1
    return d


class Flow:
    """Antisymmetric integer flow, stored as net values per edge.

    ``values`` maps ordered vertex pairs to integers; mirrored entries
    must agree up to sign and the support must lie on graph edges.
    """

    def __init__(self, graph: UndirectedGraph, values=None):
        self.graph = graph
        self._values: dict[tuple[int, int], int] = {}
        for (u, v), val in dict(values or {}).items():
            if val == 0:
                continue
            if graph.edge_between(u, v) is None:
                raise InvalidFlow(f"flow on non-edge ({u},{v})")
            key, signed = ((u, v), val) if u < v else ((v, u), -val)
            if key in self._values and self._values[key] != signed:
                raise InvalidFlow(f"inconsistent mirror values on edge {key}")
            self._values[key] = signed

    @classmethod
    def _from_valid(cls, graph: UndirectedGraph, values: dict) -> Flow:
        """Nonzero ``values`` on edges (u, v), u < v, without checks."""
        f = cls.__new__(cls)
        f.graph, f._values = graph, values
        return f

    def value(self, u: int, v: int) -> int:
        if u == v:
            return 0
        if u < v:
            return self._values.get((u, v), 0)
        return -self._values.get((v, u), 0)

    def items(self):
        """Nonzero values on canonically ordered edges, sorted."""
        return sorted(self._values.items())

    def is_zero(self) -> bool:
        return not self._values


def defect(f: Flow) -> list[int]:
    """d_f(v) = sum over u of f(v,u)."""
    d = [0] * f.graph.num_vertices
    for (u, v), val in f.items():
        d[u] += val
        d[v] -= val
    return d


def check_delta_flow(f: Flow, d) -> bool:
    """f is a delta-flow: d_f(v) = delta(v)-1, or delta(v)=0 = d_f(v).

    A vertex with delta(v)=0 and d_f(v)=-1 passes via the first branch.
    """
    df = defect(f)
    return all(
        df[v] == d[v] - 1 or (d[v] == 0 and df[v] == 0)
        for v in f.graph.vertices()
    )


def bounds(f: Flow) -> tuple[int, int]:
    """(edge bound, vertex bound): max |f(u,v)| and max_v sum_u |f(u,v)|."""
    edge_bound = 0
    per_vertex = [0] * f.graph.num_vertices
    for (u, v), val in f.items():
        edge_bound = max(edge_bound, abs(val))
        per_vertex[u] += abs(val)
        per_vertex[v] += abs(val)
    return edge_bound, max(per_vertex, default=0)


def is_k_sparse_distribution_bruteforce(
    g: UndirectedGraph, d, k: int, cap: int = 20
):
    """Check delta(Z) <= |Z| + k|B(Z)| over every subset Z.

    Subsets are bitmasks with vertex i on bit i; the witness is the
    least set of maximum excess delta(Z) - |Z| - k|B(Z)|, the one
    ``is_k_sparse_distribution`` names, found as the first maximum in
    numeric mask order.
    """
    n, m = g.num_vertices, len(g.edges)
    total = sum(d)

    def excess():
        # delta(Z) - |Z| - k|B(Z)|, built in place: a Z with a border
        # never violates once k > delta(V), so clamping k keeps every
        # verdict and bounds the table
        kk = min(k, total + 1)
        table = _count_table(n, (total + n + 1) * (m + 1))
        for v in range(n):
            # in place: upper[:] = lower + c would allocate a temporary
            upper = table[1 << v : 2 << v]
            upper[:] = table[: 1 << v]
            upper += d[v] - 1
        for u, v in g.edges:  # u < v
            s = table.reshape(-1, 2, 1 << (v - u - 1), 2, 1 << u)
            s[:, 1, :, 0, :] -= kk
            s[:, 0, :, 1, :] -= kk
        return table

    witness = _first_max_excess_subset(n, cap, excess)
    return witness is None, witness


def _solve_delta_network(g: UndirectedGraph, d, k: int):
    """Build and solve the auxiliary network: source 0, sink 1, vertex v
    at node 2+v, its source arc 2v and its sink arc 2(n+v).

    Arcs are inserted in increasing id order, so the flow found is
    deterministic.  Returns the solved network, the per-edge arc indices
    for both directions, and the witness: None when the maximum flow
    saturates every source arc, otherwise the vertices on the source
    side of the least minimum cut, a set that violates sparsity and the
    same for every maximum flow."""
    net = FlowNetwork(2 + g.num_vertices)
    target = 0
    for v in g.vertices():
        cap = max(0, d[v] - 1)
        net.add_edge(0, 2 + v, cap)
        target += cap
    for v in g.vertices():
        net.add_edge(2 + v, 1, 1 if d[v] == 0 else 0)
    forward = []
    backward = []
    for u, v in g.edges:
        forward.append(net.add_edge(2 + u, 2 + v, k))
        backward.append(net.add_edge(2 + v, 2 + u, k))
    if net.max_flow(0, 1) == target:
        return net, forward, backward, None
    side = net.source_side(0)
    witness = sorted(v for v in g.vertices() if 2 + v in side)
    assert witness
    assert distribution_sum(d, witness) > len(witness) + k * len(
        border(g, witness)
    )
    return net, forward, backward, witness


def _route_increment(net: FlowNetwork, d, v: int) -> bool:
    """Turn a maximum flow of d's solved network that saturates every
    source arc into one of d + 1_v's, with at most one augmenting search;
    False, changing no capacity, when d + 1_v's network has none."""
    cap = net.cap
    if d[v] >= 1:
        cap[2 * v] += 1
        if net.augment_unit(0, 1):
            return True
        cap[2 * v] -= 1
        return False
    sink_arc = 2 * (len(d) + v)
    carried = cap[sink_arc + 1]
    cap[sink_arc] = cap[sink_arc + 1] = 0
    if carried and not net.augment_unit(2 + v, 1):
        cap[sink_arc + 1] = carried
        return False
    return True


def is_k_sparse_distribution(g: UndirectedGraph, d, k: int):
    """Flow-based sparsity check with a violating set from the min cut;
    one max-flow solve of the delta network."""
    witness = _solve_delta_network(g, d, k)[3]
    return witness is None, witness


def compute_delta_flow(g: UndirectedGraph, d, k: int) -> Flow:
    """Maximum-flow construction of a delta-flow, edge-bounded by k.

    The sparsity decision and the flow come from one max-flow solve of
    the delta network."""
    net, forward, backward, witness = _solve_delta_network(g, d, k)
    if witness is not None:
        raise NotSparseDistribution(
            f"distribution is not {k}-sparse", witness=witness
        )
    values = (net.flow_on(a) - net.flow_on(b) for a, b in zip(forward, backward))
    f = Flow._from_valid(g, {edge: val for edge, val in zip(g.edges, values) if val})
    assert check_delta_flow(f, d)
    edge_bound, vertex_bound = bounds(f)
    assert edge_bound <= k
    max_degree = max((g.degree(v) for v in g.vertices()), default=0)
    assert vertex_bound <= max_degree * k
    return f


def _arc_values(f: Flow) -> list[dict[int, int]]:
    """value[u][w] = f(u, w) on the support of f."""
    value: list[dict[int, int]] = [{} for _ in f.graph.vertices()]
    for (u, w), val in f._values.items():
        value[u][w], value[w][u] = val, -val
    return value


def _positive_cycles(g: UndirectedGraph, value):
    """Least-id depth-first search over the arcs u -> w with
    value[u][w] > 0, yielding the stack w .. u of each cycle such an arc
    closes.  The caller may lower values along it; the search then
    unwinds to w, marks the unwound vertices unvisited, enters w afresh."""
    state = [0] * g.num_vertices  # 0 unvisited, 1 on the stack, 2 finished
    for start in g.vertices():
        if state[start]:
            continue
        state[start] = 1
        stack, scans = [start], [iter(g.adjacency[start])]
        while stack:
            u = stack[-1]
            for w in scans[-1]:
                if value[u].get(w, 0) <= 0 or state[w] == 2:
                    continue
                if state[w] == 1:
                    i = stack.index(w)
                    yield stack[i:]
                    for x in stack[i:]:
                        state[x] = 0
                    del stack[i:], scans[i:]
                state[w] = 1
                stack.append(w)
                scans.append(iter(g.adjacency[w]))
                break
            else:
                state[u] = 2
                stack.pop()
                scans.pop()


def _find_positive_cycle(f: Flow):
    """Least-id depth-first search for a cycle of positive-flow arcs."""
    return next(_positive_cycles(f.graph, _arc_values(f)), None)


def cancel_cycles(f: Flow) -> Flow:
    """Subtract the minimum value around positive cycles until acyclic.

    One search of ``_positive_cycles`` meets the cycles that a
    ``_find_positive_cycle`` restarted after each cancellation would.
    After cancelling w .. u it rescans w's arcs from the first, which is
    where a restarted search would be: cancelling only lowers values
    along the cycle, so no arc becomes positive; the vertices finished
    before still reach no cycle; the stack below w is untouched.

    The defect is unchanged at every vertex and neither bound grows."""
    g = f.graph
    value = _arc_values(f)
    for cycle in _positive_cycles(g, value):
        arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
        c = min(value[a][b] for a, b in arcs)
        for a, b in arcs:
            value[a][b] -= c
            value[b][a] += c
    support = {(u, w): x for u in g.vertices() for w, x in value[u].items() if u < w and x}
    current = Flow._from_valid(g, support)
    assert defect(current) == defect(f)
    old_bounds = bounds(f)
    new_bounds = bounds(current)
    assert new_bounds[0] <= old_bounds[0] and new_bounds[1] <= old_bounds[1]
    return current


@dataclass
class PathFamily:
    """Vertex paths plus directed per-arc usage counts."""

    paths: tuple
    usage: dict

    def start_counts(self, n: int) -> list[int]:
        counts = [0] * n
        for path in self.paths:
            counts[path[0]] += 1
        return counts

    def end_counts(self, n: int) -> list[int]:
        counts = [0] * n
        for path in self.paths:
            counts[path[-1]] += 1
        return counts


def decompose_flow_paths(g: UndirectedGraph, f: Flow, d) -> PathFamily:
    """Path family of an acyclic delta-flow.

    For every vertex v and each of its delta(v) demands (in vertex-id
    order), grow a path: stop at the first vertex no path has ended at
    yet, otherwise follow the least-id arc with flow left over.  Ends
    are distinct, starts realize delta, and arc usage stays below the
    flow value.
    """
    if not check_delta_flow(f, d):
        raise InvalidFlow("not a delta-flow for the given distribution")
    if _find_positive_cycle(f) is not None:
        raise InvalidFlow("flow has a positive cycle")
    n = g.num_vertices
    # no arc of u before g.adjacency[u][first[u]] has flow left; flow is
    # only used up, so first[u] never moves back
    first = [0] * n
    beta = [0] * n
    mu: dict[tuple[int, int], int] = {}
    paths = []
    for v in range(n):
        for _ in range(d[v]):
            path = [v]
            on_path = {v}
            u = v
            while beta[u] != 0:
                arcs, i = g.adjacency[u], first[u]
                while i < len(arcs) and f.value(u, arcs[i]) <= mu.get((u, arcs[i]), 0):
                    i += 1
                assert i < len(arcs), "path cannot continue"
                first[u] = i
                nxt = arcs[i]
                mu[(u, nxt)] = mu.get((u, nxt), 0) + 1
                assert nxt not in on_path, "path revisits a vertex"
                on_path.add(nxt)
                path.append(nxt)
                u = nxt
            beta[u] = 1
            paths.append(tuple(path))
    family = PathFamily(tuple(paths), mu)
    assert family.start_counts(n) == list(d)
    assert all(c <= 1 for c in family.end_counts(n))
    assert all(f.value(u, w) >= cnt for (u, w), cnt in mu.items())
    return family


def validate_path_family(g: UndirectedGraph, p: PathFamily, m: int) -> bool:
    """Every vertex and every edge lies on at most m of the paths."""
    vertex_load = [0] * g.num_vertices
    edge_load = [0] * g.num_edges
    for path in p.paths:
        for v in set(path):
            vertex_load[v] += 1
        for u, w in set(zip(path, path[1:])):
            ei = g.edge_between(u, w)
            edge_load[ei] += 1
    return all(c <= m for c in vertex_load) and all(
        c <= m for c in edge_load
    )


def function_from_flow(g: UndirectedGraph, d, f: Flow) -> dict[int, int]:
    """Partial map g with |g^-1(v)| = delta(v), built from a delta-flow.

    Cancels cycles, decomposes into paths and maps each path's end to
    its start.  ``cancel_cycles`` keeps the defect, so the decomposition
    refuses a flow that is no delta-flow, and it asserts that the ends
    are distinct and that the starts realize delta."""
    family = decompose_flow_paths(g, cancel_cycles(f), d)
    return {path[-1]: path[0] for path in family.paths}


# --- file formats -----------------------------------------------------------


def parse_distribution(text: str, g: UndirectedGraph) -> list[int]:
    """Lines `<vertex-label> <count>`; omitted vertices default to 0."""
    d = [0] * g.num_vertices
    seen = set()
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected `<vertex> <count>`", line=lineno)
        label, count_text = parts
        (v,) = _vertex_ids(g.vertex_id, [label], lineno)
        if v in seen:
            raise DuplicateLabel(f"vertex {label!r} repeated", line=lineno)
        seen.add(v)
        try:
            count = int(count_text)
        except ValueError:
            count = -1
        if count < 0:
            raise ParseError(
                f"count must be a nonnegative integer, got {count_text!r}",
                line=lineno,
            )
        d[v] = count
    return d


def serialize_distribution(d, g: UndirectedGraph) -> str:
    lines = [
        f"{g.vertex_labels[v]} {d[v]}" for v in g.vertices() if d[v] != 0
    ]
    return "".join(line + "\n" for line in lines)


def parse_flow(text: str, g: UndirectedGraph) -> Flow:
    """Lines `<u> <v> <value>`; pairs must be edges, given once each."""
    values: dict[tuple[int, int], int] = {}
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected `<u> <v> <value>`", line=lineno)
        u, v = _vertex_ids(g.vertex_id, parts[:2], lineno)
        if u == v or g.edge_between(u, v) is None:
            raise ParseError(
                f"{parts[0]},{parts[1]} is not an edge", line=lineno
            )
        try:
            val = int(parts[2])
        except ValueError:
            raise ParseError(
                f"value must be an integer, got {parts[2]!r}", line=lineno
            ) from None
        key = (u, v) if u < v else (v, u)
        if key in values:
            raise ParseError(
                f"edge {parts[0]},{parts[1]} given twice", line=lineno
            )
        values[key] = val if u < v else -val
    return Flow(g, values)


def serialize_flow(f: Flow) -> str:
    labels = f.graph.vertex_labels
    lines = [
        f"{labels[u]} {labels[v]} {val}" for (u, v), val in f.items()
    ]
    return "".join(line + "\n" for line in lines)
