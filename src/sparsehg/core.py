"""Core data model: hypergraphs, graphs, orientations, and their text format.

A hypergraph is a two-sorted incidence structure: vertices carry dense
integer ids 0..n-1, edges carry dense ids 0..m-1 and each edge is a
nonempty set of distinct vertices.  Multi-edges (two edges with the same
vertex set) are allowed.  All structures are immutable after
construction; operations return fresh objects.

Text format (one declaration per line, ``#`` starts a comment):

    v <label>
    e <label> <v1> <v2> ...

Vertices must be declared before any edge mentions them.  Ids are
assigned in declaration order.  Serialization emits vertices then edges
in id order with single spaces and LF line endings, so
``parse(serialize(h))`` reproduces ``h`` exactly.
"""

from __future__ import annotations

from collections import deque

from .errors import (
    DuplicateLabel,
    DuplicateVertexInEdge,
    MalformedTree,
    NotAGraph,
    ParseError,
    UndeclaredVertex,
)


def _check_label(label: str) -> str:
    if "#" in label or label.split() != [label]:  # split() splits where isspace() holds
        raise ParseError(f"bad label {label!r}")
    return label


class Hypergraph:
    """Finite hypergraph with labelled vertices and edges.

    Edges are stored as tuples sorted by vertex id; the member order in
    an ``e`` declaration is not significant.
    """

    def __init__(self, vertex_labels, edges, edge_labels=None):
        vertex_labels = tuple(_check_label(l) for l in vertex_labels)
        if len(set(vertex_labels)) != len(vertex_labels):
            raise DuplicateLabel("duplicate vertex label")
        n = len(vertex_labels)
        normalized = []
        for members in edges:
            members = tuple(sorted(members))
            if not members:
                raise ParseError("empty edge")
            if len(set(members)) != len(members):
                raise DuplicateVertexInEdge(f"edge {members} repeats a vertex")
            if members[0] < 0 or members[-1] >= n:
                raise UndeclaredVertex(f"edge {members} uses an unknown vertex")
            normalized.append(members)
        if edge_labels is not None:
            edge_labels = tuple(_check_label(l) for l in edge_labels)
            if len(edge_labels) != len(normalized):
                raise ParseError("edge label count mismatch")
            if len(set(edge_labels)) != len(edge_labels):
                raise DuplicateLabel("duplicate edge label")
        self._fill(vertex_labels, normalized, edge_labels)

    @classmethod
    def _from_valid(cls, vertex_labels, edges, edge_labels=None):
        """``cls(...)`` without its checks, for data valid by construction."""
        h = cls.__new__(cls)
        h._fill(vertex_labels, [tuple(sorted(members)) for members in edges], edge_labels)
        return h

    def _fill(self, vertex_labels, edges, edge_labels) -> None:
        """Store valid fields (edges sorted) and index the incidences."""
        self.vertex_labels = tuple(vertex_labels)
        self.edges = tuple(edges)
        if edge_labels is None:
            edge_labels = [str(i) for i in range(len(self.edges))]
        self.edge_labels = tuple(edge_labels)
        incidence = [[] for _ in self.vertex_labels]
        for ei, members in enumerate(self.edges):
            for v in members:
                incidence[v].append(ei)
        self.incident_edges = tuple(tuple(es) for es in incidence)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.num_vertices)

    def rank(self) -> int:
        """Largest edge size; 0 for an edgeless hypergraph."""
        return max((len(e) for e in self.edges), default=0)

    def vertex_id(self, label: str) -> int:
        try:
            return self._vertex_index[label]
        except AttributeError:
            self._vertex_index = {l: i for i, l in enumerate(self.vertex_labels)}
            return self._vertex_index[label]

    def edge_id(self, label: str) -> int:
        try:
            return self._edge_index[label]
        except AttributeError:
            self._edge_index = {l: i for i, l in enumerate(self.edge_labels)}
            return self._edge_index[label]

    def __eq__(self, other) -> bool:
        return (
            type(other) in (Hypergraph, UndirectedGraph)
            and self.vertex_labels == other.vertex_labels
            and self.edge_labels == other.edge_labels
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.num_vertices} m={self.num_edges}>"


class UndirectedGraph(Hypergraph):
    """Hypergraph specialization: every edge has exactly two vertices,
    no loops, no parallel edges."""

    def _fill(self, vertex_labels, edges, edge_labels) -> None:
        super()._fill(vertex_labels, edges, edge_labels)
        self._index_pairs()

    def _index_pairs(self) -> None:
        seen = {}
        for ei, members in enumerate(self.edges):
            if len(members) != 2:
                raise NotAGraph(f"edge {self.edge_labels[ei]} has size {len(members)}")
            if members in seen:
                raise NotAGraph(f"parallel edge {self.edge_labels[ei]}")
            seen[members] = ei
        self._edge_by_pair = seen
        adj = [[] for _ in range(self.num_vertices)]
        for u, w in self.edges:
            adj[u].append(w)
            adj[w].append(u)
        self.adjacency = tuple(tuple(sorted(ns)) for ns in adj)

    def edge_between(self, u: int, v: int) -> int | None:
        return self._edge_by_pair.get((u, v) if u < v else (v, u))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def as_graph(h: Hypergraph) -> UndirectedGraph:
    """Reinterpret a hypergraph as a simple graph, or raise NotAGraph."""
    if isinstance(h, UndirectedGraph):
        return h
    g = UndirectedGraph.__new__(UndirectedGraph)
    vars(g).update(vars(h))  # h's fields are validated and immutable: share them
    g._index_pairs()
    return g


class DirectedGraph:
    """Simple directed graph; loops allowed, arcs form a set."""

    def __init__(self, vertex_labels, arcs):
        self.vertex_labels = tuple(_check_label(l) for l in vertex_labels)
        if len(set(self.vertex_labels)) != len(self.vertex_labels):
            raise DuplicateLabel("duplicate vertex label")
        n = len(self.vertex_labels)
        for a, b in arcs:
            if not (0 <= a < n and 0 <= b < n):
                raise UndeclaredVertex(f"arc ({a}, {b}) uses an unknown vertex")
        self.arcs = frozenset((a, b) for a, b in arcs)
        out = [[] for _ in range(n)]
        inc = [[] for _ in range(n)]
        for a, b in sorted(self.arcs):
            out[a].append(b)
            inc[b].append(a)
        self.out_neighbours = tuple(tuple(ns) for ns in out)
        self.in_neighbours = tuple(tuple(sorted(ns)) for ns in inc)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    def vertices(self) -> range:
        return range(self.num_vertices)

    def has_arc(self, a: int, b: int) -> bool:
        return (a, b) in self.arcs

    def is_antisymmetric(self) -> bool:
        """No pair of opposite arcs between distinct vertices."""
        return all(a == b or (b, a) not in self.arcs for a, b in self.arcs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirectedGraph)
            and self.vertex_labels == other.vertex_labels
            and self.arcs == other.arcs
        )

    def __repr__(self) -> str:
        return f"<DirectedGraph n={self.num_vertices} arcs={len(self.arcs)}>"


class Orientation:
    """Choice of one incident vertex per edge: f(e) is an element of e."""

    def __init__(self, hypergraph: Hypergraph, assignment):
        self.hypergraph = hypergraph
        self.assignment = tuple(assignment)
        if len(self.assignment) != hypergraph.num_edges:
            raise ValueError("assignment length does not match edge count")
        for ei, v in enumerate(self.assignment):
            if v not in hypergraph.edges[ei]:
                raise ValueError(f"f(edge {ei}) = {v} is not incident")

    def __call__(self, edge_id: int) -> int:
        return self.assignment[edge_id]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Orientation)
            and self.hypergraph == other.hypergraph
            and self.assignment == other.assignment
        )

    def __repr__(self) -> str:
        return f"<Orientation {self.assignment}>"


def preimage_counts(f: Orientation) -> list[int]:
    """Number of edges oriented towards each vertex, zeros included."""
    counts = [0] * f.hypergraph.num_vertices
    for v in f.assignment:
        counts[v] += 1
    return counts


def directed_quotient(f: Orientation) -> DirectedGraph:
    """Arcs a -> b for a != b whenever some edge e contains a and f(e) = b."""
    h = f.hypergraph
    arcs = set()
    for ei, members in enumerate(h.edges):
        b = f.assignment[ei]
        for a in members:
            if a != b:
                arcs.add((a, b))
    return DirectedGraph(h.vertex_labels, arcs)


# --- text format -----------------------------------------------------------


def _content_lines(text: str):
    """(line number, line) for every line left nonblank once its ``#``
    comment and surrounding whitespace are stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _declarations(text: str, vertex_ids: dict, kind: str):
    """(line number, tokens) of every ``kind`` line.

    ``v <label>`` lines are read into ``vertex_ids`` (label -> id, in
    declaration order) as they come; any other declaration is an error."""
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if tokens[0] == kind:
            yield lineno, tokens
        elif tokens[0] == "v":
            if len(tokens) != 2:
                raise ParseError("expected: v <label>", line=lineno)
            label = tokens[1]
            if label in vertex_ids:
                raise DuplicateLabel(f"vertex {label!r} declared twice", line=lineno)
            vertex_ids[label] = len(vertex_ids)
        else:
            raise ParseError(f"unknown declaration {tokens[0]!r}", line=lineno)


def _vertex_ids(lookup, labels, line: int | None = None) -> list[int]:
    """``lookup`` of every label; the first it does not know is
    UndeclaredVertex."""
    try:
        return list(map(lookup, labels))
    except KeyError as exc:
        raise UndeclaredVertex(f"unknown vertex {exc.args[0]!r}", line=line) from None


def parse_hypergraph(text: str) -> Hypergraph:
    vertex_ids: dict[str, int] = {}
    edge_labels: dict[str, None] = {}  # in declaration order
    edges: list[list[int]] = []
    for lineno, tokens in _declarations(text, vertex_ids, "e"):
        if len(tokens) < 3:
            raise ParseError("expected: e <label> <v1> ...", line=lineno)
        label = tokens[1]
        if label in edge_labels:
            raise DuplicateLabel(f"edge {label!r} declared twice", line=lineno)
        members = _vertex_ids(vertex_ids.__getitem__, tokens[2:], lineno)
        if len(set(members)) != len(members):
            raise DuplicateVertexInEdge(
                f"edge {label!r} repeats a vertex", line=lineno
            )
        edge_labels[label] = None
        edges.append(members)
    # labels are whitespace-free tokens and every edge is checked
    return Hypergraph._from_valid(vertex_ids, edges, edge_labels)


def serialize_hypergraph(h: Hypergraph) -> str:
    lines = [f"v {label}" for label in h.vertex_labels]
    for ei, members in enumerate(h.edges):
        names = " ".join(h.vertex_labels[v] for v in members)
        lines.append(f"e {h.edge_labels[ei]} {names}")
    return "".join(line + "\n" for line in lines)


def parse_digraph(text: str) -> DirectedGraph:
    """Directed graph format: ``v <label>`` plus ``a <from> <to>`` lines."""
    vertex_ids: dict[str, int] = {}
    arcs: set[tuple[int, int]] = set()
    for lineno, tokens in _declarations(text, vertex_ids, "a"):
        if len(tokens) != 3:
            raise ParseError("expected: a <from> <to>", line=lineno)
        a, b = _vertex_ids(vertex_ids.__getitem__, tokens[1:], lineno)
        arcs.add((a, b))
    return DirectedGraph(list(vertex_ids), arcs)


def serialize_digraph(g: DirectedGraph) -> str:
    lines = [f"v {label}" for label in g.vertex_labels]
    for a in g.vertices():
        for b in g.out_neighbours[a]:
            lines.append(f"a {g.vertex_labels[a]} {g.vertex_labels[b]}")
    return "".join(line + "\n" for line in lines)


def serialize_orientation(f: Orientation) -> str:
    h = f.hypergraph
    return "".join(
        f"{h.edge_labels[ei]} -> {h.vertex_labels[f.assignment[ei]]}\n"
        for ei in range(h.num_edges)
    )


# --- structural operations --------------------------------------------------


def induced_subhypergraph(h: Hypergraph, vertex_set) -> Hypergraph:
    """Restriction to ``vertex_set``: keeps the edges lying entirely inside.

    Vertices are reindexed densely in increasing order of their original
    ids; labels are preserved so results can be correlated with ``h``.
    """
    keep = sorted(set(vertex_set))
    for v in keep:
        if not 0 <= v < h.num_vertices:
            raise UndeclaredVertex(f"vertex {v} not in hypergraph")
    new_id = {v: i for i, v in enumerate(keep)}
    inside = set(keep)
    edges = []
    edge_labels = []
    for ei, members in enumerate(h.edges):
        if all(v in inside for v in members):
            edges.append(tuple(new_id[v] for v in members))
            edge_labels.append(h.edge_labels[ei])
    return Hypergraph._from_valid([h.vertex_labels[v] for v in keep], edges, edge_labels)


def connected_components(h: Hypergraph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, ordered by
    least member.  Isolated vertices form singleton components."""
    n = h.num_vertices
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for ei in h.incident_edges[v]:
                for w in h.edges[ei]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
        components.append(sorted(comp))
    return components


def is_connected(h: Hypergraph) -> bool:
    return len(connected_components(h)) <= 1


def _forest_index(nodes, parent) -> tuple[dict, dict, dict]:
    """Depth, preorder number and subtree end of every node of a forest.

    ``nodes`` lists each node after its parent, and ``parent`` maps a
    node to its parent, None for a root.  Roots and siblings are
    numbered in ``nodes`` order, so u is v or one of its ancestors iff
    ``pre[u] <= pre[v] < end[u]`` (Tarjan 1972).  A node listed twice,
    or a parent that is not an earlier node, is ``MalformedTree``.
    """
    depth: dict = {}
    for v in nodes:  # a node without a parent entry reads as its own
        if v in depth:
            raise MalformedTree(f"node {v} is listed twice")
        p = parent.get(v, v)
        if p is not None and p not in depth:
            raise MalformedTree(f"parent of {v} is not an earlier node")
        depth[v] = 0 if p is None else depth[p] + 1
    size = dict.fromkeys(nodes, 1)
    for v in reversed(nodes):  # children before their parents
        if parent[v] is not None:
            size[parent[v]] += size[v]
    pre: dict = {}
    end: dict = {}
    free: dict = {None: 0}  # next preorder number below a node, None: roots
    for v in nodes:
        p = parent[v]
        pre[v] = free[p]
        end[v] = free[p] = pre[v] + size[v]
        free[v] = pre[v] + 1
    return depth, pre, end
