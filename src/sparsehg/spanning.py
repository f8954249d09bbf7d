"""Spanning structures over connected hypergraphs.

Two tree-shaped objects live here.  A priority tree is grown by gluing
hyperpaths from a root onto the tree built so far, recording for every
added path a class index below the rank; the classes induce a linear
order on the covered vertices.  A depth-first spanning tree covers the
vertex set by disjoint auxiliary sets A_v, one per tree node, and its
chain condition on edge borders makes every edge linearly ordered by
the derived vertex order, which in turn yields orientations and
per-edge member orderings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key

from .core import (
    DirectedGraph,
    Hypergraph,
    Orientation,
    connected_components,
    is_connected,
)
from .errors import (
    CapExceeded,
    ClassOverflow,
    Disconnected,
    MalformedTree,
    NoHyperpath,
    NotATreeNode,
)


class VertexOrder:
    """Comparison oracle over a finite carrier.

    ``kind`` documents the strength: a preorder may identify distinct
    elements, a partial order is antisymmetric, a linear order is total.
    Incomparable pairs answer False in both directions.
    """

    def __init__(self, carrier, leq, kind: str):
        self.carrier = tuple(carrier)
        self._leq = leq
        self.kind = kind

    def leq(self, x, y) -> bool:
        return bool(self._leq(x, y))

    def lt(self, x, y) -> bool:
        return self.leq(x, y) and not self.leq(y, x)

    def equivalent(self, x, y) -> bool:
        return self.leq(x, y) and self.leq(y, x)

    def comparable(self, x, y) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def least(self, xs):
        """Least element of a scope on which the order is linear."""
        items = list(xs)
        best = items[0]
        for x in items[1:]:
            if self.lt(x, best):
                best = x
        return best

    def sorted(self, xs) -> list:
        def compare(x, y):
            if self.lt(x, y):
                return -1
            if self.lt(y, x):
                return 1
            return 0

        return sorted(xs, key=cmp_to_key(compare))

    def is_total(self) -> bool:
        return all(
            self.comparable(x, y) for x in self.carrier for y in self.carrier
        )

    @classmethod
    def from_key(cls, carrier, key: dict, kind: str) -> "VertexOrder":
        return cls(carrier, lambda x, y: key[x] <= key[y], kind)


def tree_order_violations(order: VertexOrder) -> list[str]:
    """Check the axioms of a forest-shaped partial order.

    Reflexivity, antisymmetry, transitivity, downsets being chains, and
    existence of infima for every pair that has a common lower bound at
    all (elements in separate subtrees legitimately have none).
    """
    xs = order.carrier
    bad: list[str] = []
    down = {x: [e for e in xs if order.leq(e, x)] for x in xs}
    for x in xs:
        if not order.leq(x, x):
            bad.append(f"not reflexive at {x}")
    for x in xs:
        for y in xs:
            if x != y and order.leq(x, y) and order.leq(y, x):
                bad.append(f"antisymmetry fails on {x},{y}")
    for x in xs:
        for y in down[x]:
            for z in down[y]:
                if not order.leq(z, x):
                    bad.append(f"transitivity fails on {z},{y},{x}")
    for x in xs:
        d = down[x]
        for i, a in enumerate(d):
            for b in d[i + 1 :]:
                if not order.comparable(a, b):
                    bad.append(f"downset of {x} not a chain: {a},{b}")
    for i, x in enumerate(xs):
        for y in xs[i:]:
            common = [z for z in down[x] if order.leq(z, y)]
            if common and not any(
                all(order.leq(w, z) for w in common) for z in common
            ):
                bad.append(f"no infimum for {x},{y}")
    return bad


# --- hyperpaths -------------------------------------------------------------


def is_hyperpath(h: Hypergraph, edge_seq) -> bool:
    """Consecutive edges intersect, non-consecutive ones are disjoint."""
    seq = list(edge_seq)
    if not seq:
        return False
    members = [set(h.edges[e]) for e in seq]
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            share = bool(members[i] & members[j])
            if share != (j == i + 1):
                return False
    return True


def _edge_neighbours(h: Hypergraph, e: int) -> list[int]:
    seen = set()
    for v in h.edges[e]:
        seen.update(h.incident_edges[v])
    seen.discard(e)
    return sorted(seen)


def _edge_bfs(h: Hypergraph, start_edges, is_target) -> list[int] | None:
    """Shortest edge sequence from the start set to a target, exploring
    edges in increasing id order.  Shortest paths are automatically
    hyperpaths: a chord between non-consecutive edges would shorten
    the path."""
    parent: dict[int, int | None] = {}
    queue: list[int] = []
    for e in sorted(set(start_edges)):
        parent[e] = None
        queue.append(e)
    head = 0
    while head < len(queue):
        e = queue[head]
        head += 1
        if is_target(e):
            path = []
            cursor: int | None = e
            while cursor is not None:
                path.append(cursor)
                cursor = parent[cursor]
            path.reverse()
            return path
        for nxt in _edge_neighbours(h, e):
            if nxt not in parent:
                parent[nxt] = e
                queue.append(nxt)
    return None


def find_hyperpath(h: Hypergraph, u: int, v: int) -> list[int]:
    """Shortest hyperpath connecting u and v (u in the first edge only,
    v in the last edge only), least-id among shortest."""
    for x in (u, v):
        if not 0 <= x < h.num_vertices:
            raise NoHyperpath(f"vertex {x} not in hypergraph")
    start = h.incident_edges[u]
    if not start:
        raise NoHyperpath(f"vertex {u} lies on no edge")
    targets = set(h.incident_edges[v])
    path = _edge_bfs(h, start, lambda e: e in targets)
    if path is None:
        raise NoHyperpath(f"no hyperpath between {u} and {v}")
    assert is_hyperpath(h, path)
    if len(path) > 1:
        assert u not in h.edges[path[1]] and v not in h.edges[path[-2]]
    return path


# --- priority trees ---------------------------------------------------------


@dataclass
class PriorityTree:
    """Tree of glued hyperpaths with class-indexed edge and vertex sets.

    ``construction_log`` lists the added hyperpath suffixes with their
    class index, in order; replaying it reproduces the tree.
    """

    hypergraph: Hypergraph
    root: int
    m: int
    nodes: frozenset
    edge_list: tuple  # F in insertion order
    leaf_edges: tuple  # L in insertion order
    edge_classes: tuple  # F_k as frozensets, k < m
    vertex_classes: tuple  # P_k as frozensets, k < m
    construction_log: tuple  # ((edge ids...), class index) per added path

    def edge_class_of(self, e: int) -> int:
        for k, edges in enumerate(self.edge_classes):
            if e in edges:
                return k
        raise NotATreeNode(f"edge {e} not in tree")

    def vertex_class_of(self, v: int) -> int:
        for k, verts in enumerate(self.vertex_classes):
            if v in verts:
                return k
        raise NotATreeNode(f"vertex {v} not in tree")


def _path_to_edge(h: Hypergraph, root: int, target: int) -> list[int]:
    start = h.incident_edges[root]
    if not start:
        raise NoHyperpath(f"root {root} lies on no edge")
    path = _edge_bfs(h, start, lambda e: e == target)
    if path is None:
        raise NoHyperpath(f"edge {target} unreachable from {root}")
    return path


def build_priority_tree(h: Hypergraph, root: int, l0, m: int | None = None) -> PriorityTree:
    """Grow a priority tree from ``root`` reaching every edge in ``l0``.

    Targets are processed in increasing id order; for each, the shortest
    suffix of a shortest root hyperpath that still meets the tree is
    glued on, and its edges take the least class index whose vertex
    class misses the suffix's first edge.  Guarantees that the union of
    the final leaf set is covered and every leaf edge belongs to l0.
    """
    if not is_connected(h):
        raise Disconnected("priority trees need a connected hypergraph")
    if not 0 <= root < h.num_vertices:
        raise NotATreeNode(f"root {root} not a vertex")
    targets = sorted(set(l0))
    if not targets:
        raise ValueError("l0 must be nonempty")
    for e in targets:
        if not 0 <= e < h.num_edges:
            raise NotATreeNode(f"edge {e} not in hypergraph")
    if m is None:
        m = h.rank()
    covered: set[int] = set()
    edge_list: list[int] = []
    in_tree: set[int] = set()
    leaves: list[int] = []
    edge_classes = [set() for _ in range(m)]
    vertex_classes = [set() for _ in range(m)]
    log: list[tuple[tuple[int, ...], int]] = []
    for target in targets:
        if in_tree or covered:
            if set(h.edges[target]) <= covered:
                continue  # already inside the tree, nothing to glue
        path = _path_to_edge(h, root, target)
        if covered:
            meet = max(
                i for i, e in enumerate(path) if set(h.edges[e]) & covered
            )
            suffix = path[meet:]
        else:
            suffix = path
        entry = set(h.edges[suffix[0]])
        k = next(
            (i for i in range(m) if not entry & vertex_classes[i]), None
        )
        if k is None:
            raise ClassOverflow(f"no class index below {m} is free")
        for e in suffix:
            assert e not in in_tree
            in_tree.add(e)
            edge_list.append(e)
            edge_classes[k].add(e)
            for v in h.edges[e]:
                if v not in covered:
                    covered.add(v)
                    vertex_classes[k].add(v)
        leaves.append(target)
        log.append((tuple(suffix), k))
    assert all(set(h.edges[e]) <= covered for e in targets)
    assert set(leaves) <= set(targets)
    return PriorityTree(
        hypergraph=h,
        root=root,
        m=m,
        nodes=frozenset(covered),
        edge_list=tuple(edge_list),
        leaf_edges=tuple(leaves),
        edge_classes=tuple(frozenset(s) for s in edge_classes),
        vertex_classes=tuple(frozenset(s) for s in vertex_classes),
        construction_log=tuple(log),
    )


def validate_priority_tree(h: Hypergraph, t: PriorityTree) -> list[str]:
    """Replay the construction log and verify every gluing step."""
    bad: list[str] = []
    covered: set[int] = set()
    edges_seen: set[int] = set()
    vertex_classes = [set() for _ in range(t.m)]
    edge_classes = [set() for _ in range(t.m)]
    for step, (suffix, k) in enumerate(t.construction_log):
        if not suffix:
            bad.append(f"step {step}: empty hyperpath")
            continue
        if not is_hyperpath(h, suffix):
            bad.append(f"step {step}: not a hyperpath")
        entry = set(h.edges[suffix[0]])
        if not covered:
            if t.root not in entry or (
                len(suffix) > 1 and t.root in h.edges[suffix[1]]
            ):
                bad.append(f"step {step}: root not at the start")
        else:
            for i, e in enumerate(suffix):
                meets = bool(set(h.edges[e]) & covered)
                if meets != (i == 0):
                    bad.append(f"step {step}: edge {e} meets tree wrongly")
            if entry <= covered:
                bad.append(f"step {step}: first edge already inside tree")
        if not 0 <= k < t.m:
            bad.append(f"step {step}: class {k} out of range")
        elif entry & vertex_classes[k]:
            bad.append(f"step {step}: class {k} not free for entry edge")
        elif any(not entry & vertex_classes[i] for i in range(k)):
            bad.append(f"step {step}: class {k} is not the least free index")
        for e in suffix:
            if e in edges_seen:
                bad.append(f"step {step}: edge {e} glued twice")
            edges_seen.add(e)
            edge_classes[k].add(e)
            for v in h.edges[e]:
                if v not in covered:
                    covered.add(v)
                    vertex_classes[k].add(v)
    if frozenset(covered) != t.nodes:
        bad.append("node set does not match the log")
    if edges_seen != set(t.edge_list):
        bad.append("edge set does not match the log")
    for k in range(t.m):
        if frozenset(vertex_classes[k]) != t.vertex_classes[k]:
            bad.append(f"vertex class {k} does not match the log")
        if frozenset(edge_classes[k]) != t.edge_classes[k]:
            bad.append(f"edge class {k} does not match the log")
    if len(set(t.leaf_edges)) != len(t.leaf_edges):
        bad.append("duplicate leaf edges")
    if t.leaf_edges != tuple(suffix[-1] for suffix, _ in t.construction_log):
        bad.append("leaf edges do not match the glued hyperpath ends")
    return bad


def _edge_parents(t: PriorityTree) -> dict[int, int | None]:
    """Parent of every tree edge, read off the construction log.

    A non-entry edge of a glued suffix hangs on its predecessor in the
    suffix.  An entry edge hangs on the edge that first covered its
    previously covered vertex of least class (its least foreign class);
    among several such vertices the earliest-glued covering edge wins.
    Edges containing the root have no parent: the first glued edge and
    every entry edge meeting the root start a branch.
    """
    h = t.hypergraph
    glued_at = {e: i for i, e in enumerate(t.edge_list)}
    owner: dict[int, int] = {}  # vertex -> edge that first covered it
    parent: dict[int, int | None] = {}
    for suffix, _ in t.construction_log:
        entry = suffix[0]
        if t.root in h.edges[entry]:
            parent[entry] = None
        else:
            old = [v for v in h.edges[entry] if v in owner]
            v = min(old, key=lambda x: (t.vertex_class_of(x), glued_at[owner[x]]))
            parent[entry] = owner[v]
        for prev, e in zip(suffix, suffix[1:]):
            parent[e] = prev
        for e in suffix:
            for v in h.edges[e]:
                owner.setdefault(v, e)
    return parent


def branches(t: PriorityTree, cap: int = 10**6) -> list[tuple[int, ...]]:
    """All root-anchored descents through the tree's edges.

    A branch is the path of parents (see ``_edge_parents``) from an
    edge containing the root down to some tree edge, so every tree edge
    ends exactly one branch and every prefix of a branch is a branch.
    Consecutive edges of a branch intersect, but on rank >= 3 an entry
    edge may also meet earlier edges of its branch, so a branch need
    not be a hyperpath.  Branches are listed depth first, children in
    increasing edge id; the enumeration is capped.
    """
    parent = _edge_parents(t)
    children: dict[int | None, list[int]] = {}
    for e in sorted(parent):
        children.setdefault(parent[e], []).append(e)
    result: list[tuple[int, ...]] = []
    stack = [(e,) for e in reversed(children.get(None, []))]
    while stack:
        seq = stack.pop()
        result.append(seq)
        if len(result) > cap:
            raise CapExceeded(f"more than {cap} branches")
        for f in reversed(children.get(seq[-1], [])):
            stack.append(seq + (f,))
    return result


def edge_order(t: PriorityTree, cap: int = 10**6) -> VertexOrder:
    """e <= f iff e lies on the branch ending at f, i.e. e is f or one
    of its ancestors.  A forest order, so ``tree_order_violations`` is
    empty by construction."""
    down = {seq[-1]: set(seq) for seq in branches(t, cap)}
    return VertexOrder(sorted(t.edge_list), lambda e, f: e in down[f], "partial")


@dataclass
class EquivClass:
    """One vertex class of the tree: a hyperpath worth of vertices that
    entered with the same class index, ending at its unique leaf edge."""

    class_index: int
    vertices: frozenset
    path_edges: tuple
    leaf_edge: int
    last_position: dict = field(repr=False, default_factory=dict)


def vertex_equiv(t: PriorityTree) -> list[EquivClass]:
    """Partition of the tree's vertices into hyperpath classes.

    Two vertices are equivalent when they share a class index k and a
    hyperpath of class-k edges connects them through class-k vertices.
    Edges of one gluing step share only new (class-k) vertices, while
    distinct steps of the same class never do, so the classes coincide
    with the glued suffixes.  Raises MalformedTree if a class fails to
    be a hyperpath with a unique leaf edge.
    """
    h = t.hypergraph
    leaf_set = set(t.leaf_edges)
    classes: list[EquivClass] = []
    for k in range(t.m):
        edges_k = sorted(t.edge_classes[k])
        if not edges_k:
            continue
        own = {e: set(h.edges[e]) & t.vertex_classes[k] for e in edges_k}
        comp_of: dict[int, int] = {}
        groups: list[list[int]] = []
        for e in edges_k:
            if e in comp_of:
                continue
            group = [e]
            comp_of[e] = len(groups)
            frontier = [e]
            while frontier:
                cur = frontier.pop()
                for other in edges_k:
                    if other not in comp_of and own[cur] & own[other]:
                        comp_of[other] = len(groups)
                        group.append(other)
                        frontier.append(other)
            groups.append(group)
        for group in groups:
            path = _order_as_path(h, group, leaf_set)
            verts = frozenset(v for e in group for v in own[e])
            last_pos: dict[int, int] = {}
            for i, e in enumerate(path):
                for v in own[e]:
                    last_pos[v] = i
            classes.append(EquivClass(k, verts, tuple(path), path[-1], last_pos))
    classes.sort(key=lambda c: (c.class_index, min(c.vertices)))
    return classes


def _order_as_path(h: Hypergraph, group: list[int], leaf_set: set) -> list[int]:
    """Arrange a class's edges as the hyperpath they were glued as,
    leaf edge last."""
    leaves = [e for e in group if e in leaf_set]
    if len(leaves) != 1:
        raise MalformedTree(
            f"class with edges {sorted(group)} has {len(leaves)} leaf edges"
        )
    if len(group) == 1:
        return list(group)
    members = {e: set(h.edges[e]) for e in group}
    neighbours = {
        e: [f for f in group if f != e and members[e] & members[f]]
        for e in group
    }
    ends = [e for e in group if len(neighbours[e]) == 1]
    if len(ends) != 2 or any(len(ns) > 2 for ns in neighbours.values()):
        raise MalformedTree(f"class with edges {sorted(group)} is not a path")
    leaf = leaves[0]
    if leaf not in ends:
        raise MalformedTree(f"leaf edge {leaf} is interior to its class")
    start = ends[0] if ends[1] == leaf else ends[1]
    path = [start]
    prev = None
    while path[-1] != leaf:
        nxt = [f for f in neighbours[path[-1]] if f != prev]
        prev = path[-1]
        path.append(nxt[0])
    if not is_hyperpath(h, path):
        raise MalformedTree(f"class with edges {sorted(group)} is not a hyperpath")
    return path


def priority_tree_linear_order(
    t: PriorityTree, leaf_order=None
) -> VertexOrder:
    """Linear order on the tree's vertices.

    Vertices are ranked by class index, then by their hyperpath class's
    leaf edge under ``leaf_order`` (edge id order by default), then by
    nearness to the leaf edge (shorter suffix first), and finally by a
    slot refinement that separates the at-most-rank-many vertices
    sharing one edge position.
    """
    if leaf_order is None:
        leaf_order = sorted(t.leaf_edges)
    leaf_rank = {e: i for i, e in enumerate(leaf_order)}
    if set(leaf_rank) != set(t.leaf_edges):
        raise MalformedTree("leaf_order must enumerate the leaf edges")
    classes = vertex_equiv(t)
    key: dict[int, tuple] = {}
    for c in classes:
        buckets: dict[int, list[int]] = {}
        for v in c.vertices:
            buckets.setdefault(c.last_position[v], []).append(v)
        for pos, vs in buckets.items():
            for slot, v in enumerate(sorted(vs)):
                key[v] = (
                    c.class_index,
                    leaf_rank[c.leaf_edge],
                    len(c.path_edges) - pos,
                    slot,
                )
    carrier = sorted(t.nodes)
    if set(key) != set(carrier):
        raise MalformedTree("vertex classes do not cover the tree")
    return VertexOrder.from_key(carrier, key, "linear")


# --- depth-first spanning trees ---------------------------------------------


@dataclass
class DepthFirstSpanningTree:
    """Tree nodes with disjoint auxiliary vertex sets covering V.

    ``nodes`` is the construction order (a linear extension of the tree
    order); ``attach_edges[v]`` is F_v, ``aux_sets[v]`` is A_v, and
    ``vertex_types[v]`` is ``("root", 0)`` or ``("succ", l)``.
    """

    hypergraph: Hypergraph
    root: int
    nodes: tuple
    parent: dict
    attach_edges: dict
    aux_sets: dict
    vertex_types: dict

    def __post_init__(self):
        self._depth = {}
        for v in self.nodes:
            p = self.parent[v]
            self._depth[v] = 0 if p is None else self._depth[p] + 1

    def depth(self, v: int) -> int:
        return self._depth[v]

    def tree_leq(self, u: int, v: int) -> bool:
        """u is an ancestor of v (or equal)."""
        if u not in self._depth or v not in self._depth:
            raise NotATreeNode(f"{u} or {v} is not a tree node")
        while v is not None and self._depth.get(v, -1) > self._depth[u]:
            v = self.parent[v]
        return u == v

    def is_chain(self, vs) -> bool:
        return _is_chain(self.parent, self._depth, vs)


def _is_chain(parent: dict, depth: dict, nodes) -> bool:
    """The nodes lie on one path from the root: each is an ancestor of
    the next deeper one."""
    vs = sorted(set(nodes), key=depth.__getitem__)
    for a, b in zip(vs, vs[1:]):
        while depth[b] > depth[a]:
            b = parent[b]
        if a != b:
            return False
    return True


def _grow_dfst(h: Hypergraph, root: int, vertices) -> DepthFirstSpanningTree:
    """The tree of ``build_dfst`` over the component of ``root``, grown
    in place in ``h``: ``vertices`` are that component's vertices, and
    none is reindexed."""
    nodes = [root]
    parent: dict[int, int | None] = {root: None}
    depth = {root: 0}
    attach: dict[int, frozenset] = {root: frozenset()}
    aux: dict[int, frozenset] = {root: frozenset([root])}
    types: dict[int, tuple] = {root: ("root", 0)}
    owner = {root: root}  # vertex -> tree node owning it
    for start in sorted(vertices):
        while start not in owner:
            comp, border, frontier = {start}, set(), [start]
            while frontier:
                for ei in h.incident_edges[frontier.pop()]:
                    for w in h.edges[ei]:
                        if w in owner:
                            border.add(owner[w])
                        elif w not in comp:
                            comp.add(w)
                            frontier.append(w)
            assert border and _is_chain(parent, depth, border)
            u = max(border, key=depth.__getitem__)
            edge = min(
                ei
                for w in aux[u]
                for ei in h.incident_edges[w]
                if not comp.isdisjoint(h.edges[ei])
            )
            members = h.edges[edge]
            v = min(w for w in members if w in comp)
            # v is uncovered, so fewer than |members| levels are taken
            taken = {types[owner[w]] for w in members if w in owner}
            level = next(
                l for l in range(len(members)) if ("succ", l) not in taken
            )
            nodes.append(v)
            parent[v] = u
            depth[v] = depth[u] + 1
            attach[v] = frozenset([edge])
            aux[v] = frozenset(w for w in members if w not in owner)
            types[v] = ("succ", level)
            for w in aux[v]:
                owner[w] = v
    return DepthFirstSpanningTree(
        h, root, tuple(nodes), parent, attach, aux, types
    )


def build_dfst(h: Hypergraph, root: int) -> DepthFirstSpanningTree:
    """Depth-first spanning tree of a connected hypergraph.

    Each step takes the component C of the least uncovered vertex under
    edge traces (two uncovered vertices are adjacent when some edge
    contains both), walks to the deepest tree node u on the border of C
    (the owners of covered members of edges meeting C), and attaches the
    least C-vertex of the least edge meeting both C and A_u below u.
    The new node absorbs the edge's uncovered members, all of them in C,
    so no other component's border changes: a vertex outside C sharing
    an edge with one of them would lie in C.  Asserting that each
    component's border is a chain when it is taken therefore checks
    every border the growth makes.
    """
    if not 0 <= root < h.num_vertices:
        raise NotATreeNode(f"root {root} not a vertex")
    if not is_connected(h):
        raise Disconnected("spanning trees need a connected hypergraph")
    return _grow_dfst(h, root, range(h.num_vertices))


def _recompute_aux(t: DepthFirstSpanningTree) -> dict:
    aux: dict[int, frozenset] = {}
    for v in t.nodes:
        claimed: set[int] = set()
        x = t.parent[v]
        while x is not None:
            claimed |= aux[x]
            x = t.parent[x]
        base = {v} | {w for e in t.attach_edges[v] for w in t.hypergraph.edges[e]}
        aux[v] = frozenset(base - claimed)
    return aux


def b_set(t: DepthFirstSpanningTree, vertex_set):
    """(B(X/T), beta): tree nodes whose auxiliary sets meet X, in tree
    order, and the greatest one, present iff B is a nonempty chain."""
    xs = set(vertex_set)
    b = [v for v in t.nodes if t.aux_sets[v] & xs]
    if b and t.is_chain(b):
        return b, max(b, key=t.depth)
    return b, None


def validate_dfst(h: Hypergraph, t: DepthFirstSpanningTree) -> list[str]:
    """All violations of the spanning-tree conditions; empty when valid."""
    bad: list[str] = []
    node_set = set(t.nodes)
    for v in t.nodes:
        p = t.parent.get(v, None)
        if p is None:
            if v != t.root:
                bad.append(f"{v} has no parent but is not the root")
        elif p not in node_set:
            bad.append(f"parent of {v} is not a node")
    recomputed = _recompute_aux(t)
    for v in t.nodes:
        if recomputed[v] != t.aux_sets[v]:
            bad.append(f"A_{v} does not match its defining formula")
    seen: dict[int, int] = {}
    for v in t.nodes:
        if v not in t.aux_sets[v]:
            bad.append(f"{v} missing from A_{v}")
        for w in t.aux_sets[v]:
            if w in seen:
                bad.append(f"auxiliary sets of {seen[w]} and {v} overlap at {w}")
            seen[w] = v
        if t.aux_sets[v] & node_set != {v}:
            bad.append(f"A_{v} meets the tree outside {v}")
    if set(seen) != set(range(h.num_vertices)):
        bad.append("auxiliary sets do not cover the vertex set")
    for ei in range(h.num_edges):
        b, beta = b_set(t, h.edges[ei])
        if not b:
            bad.append(f"edge {ei} has empty border")
        elif beta is None:
            bad.append(f"border of edge {ei} is not a chain")
    roots = [v for v in t.nodes if t.vertex_types[v][0] == "root"]
    if roots != [t.root]:
        bad.append("root type must mark exactly the root")
    for v in t.nodes:
        kind, level = t.vertex_types[v]
        if kind == "root":
            if t.attach_edges[v]:
                bad.append(f"root {v} has attach edges")
        elif kind == "succ":
            if not 0 <= level < max(h.rank(), 1):
                bad.append(f"type index {level} of {v} out of range")
            if len(t.attach_edges[v]) != 1:
                bad.append(f"succ node {v} needs exactly one attach edge")
                continue
            (e,) = t.attach_edges[v]
            if v not in h.edges[e]:
                bad.append(f"succ node {v} not on its attach edge")
            b, _ = b_set(t, h.edges[e])
            same = [
                x
                for x in b
                if t.vertex_types[x] == ("succ", level)
            ]
            if same != [v]:
                bad.append(f"{v} is not the unique succ_{level} on its edge border")
            rest = set(h.edges[e]) - {v}
            b2, beta2 = b_set(t, rest)
            b2 = [x for x in b2 if x != v]
            beta2 = max(b2, key=t.depth) if b2 and t.is_chain(b2) else None
            if beta2 != t.parent[v]:
                bad.append(f"attach edge of {v} does not point at its parent")
        else:
            bad.append(f"unknown type {kind!r} on {v}")
    return bad


def _owner_slots(t: DepthFirstSpanningTree) -> tuple[dict, dict]:
    """Owning node and slot of every vertex; the slots number the
    members of each auxiliary set in id order."""
    owner: dict[int, int] = {}
    slot: dict[int, int] = {}
    for v in t.nodes:
        for i, w in enumerate(sorted(t.aux_sets[v])):
            owner[w] = v
            slot[w] = i
    return owner, slot


def aux_preorder(t: DepthFirstSpanningTree) -> VertexOrder:
    """Preorder on all vertices: x below y iff x's owning node is a tree
    ancestor of y's; vertices owned by one node are equivalent."""
    owner, _ = _owner_slots(t)

    def leq(x, y):
        return t.tree_leq(owner[x], owner[y])

    return VertexOrder(sorted(owner), leq, "preorder")


def aux_order(t: DepthFirstSpanningTree) -> VertexOrder:
    """Partial order refining aux_preorder: inside one auxiliary set,
    members are separated by their slots.  Linear on every vertex set
    whose border is a chain, in particular on edges."""
    owner, slot = _owner_slots(t)

    def leq(x, y):
        if owner[x] == owner[y]:
            return slot[x] <= slot[y]
        return t.tree_leq(owner[x], owner[y])

    return VertexOrder(sorted(owner), leq, "partial")


# --- orders and orientations from spanning trees ----------------------------


def edge_ordering(h: Hypergraph) -> dict[int, tuple[int, ...]]:
    """Members of every edge, linearly ordered by the depth-first tree
    order of its component, rooted at the component's least vertex.

    The owners of an edge's members lie on one chain of the tree, so
    sorting by (depth of owner, slot) gives the ``aux_order`` of the
    component's tree."""
    key: dict[int, tuple[int, int]] = {}
    for comp in connected_components(h):
        tree = _grow_dfst(h, comp[0], comp)
        owner, slot = _owner_slots(tree)
        for w, v in owner.items():
            key[w] = (tree.depth(v), slot[w])
    return {
        ei: tuple(sorted(members, key=key.__getitem__))
        for ei, members in enumerate(h.edges)
    }


def dfst_orientation(h: Hypergraph) -> Orientation:
    """Orient every edge to its least member under the component's
    depth-first tree order."""
    ordering = edge_ordering(h)
    return Orientation(h, [ordering[ei][0] for ei in range(h.num_edges)])


def neighbourhood_ordering(g: DirectedGraph) -> dict[int, tuple[int, ...]]:
    """Linearly order every vertex's in-neighbourhood.

    The distinct nonempty in-neighbourhoods form a hypergraph of rank
    max-indegree over the same vertices; its edge ordering orders each
    neighbourhood."""
    distinct: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    for v in g.vertices():
        ns = g.in_neighbours[v]
        if ns and ns not in index:
            index[ns] = len(distinct)
            distinct.append(ns)
    hyper = Hypergraph(g.vertex_labels, distinct)
    ordering = edge_ordering(hyper)
    return {
        v: (ordering[index[g.in_neighbours[v]]] if g.in_neighbours[v] else ())
        for v in g.vertices()
    }
