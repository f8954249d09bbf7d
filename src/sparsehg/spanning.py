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
from itertools import compress

from .core import (
    DirectedGraph,
    Hypergraph,
    Orientation,
    _forest_index,
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
    """Check that ``order`` is a forest order, from |carrier|^2 ``leq``
    answers kept one byte each, listing violations in carrier order.

    Let p(x) be the element of down(x) - {x} with the largest down set.
    A reflexive, antisymmetric relation is a forest order exactly when
    down(x) = {x} | down(p(x)) wherever p(x) exists: down sets then
    shrink by one along p, so the relation is ancestry in the forest of
    p, and transitivity, chain down sets and infima follow.  A missing
    z is reported as ``transitivity fails on z,p,x``, an extra y as
    ``downset of x not a chain: y,p``.
    """
    xs = order.carrier
    leq = order._leq  # the oracle itself, without the bool() of leq()
    # row i holds one 0/1 byte per carrier element: is it <= xs[i]?
    rows = [bytes([1 if leq(y, x) else 0 for y in xs]) for x in xs]
    at = list(range(len(xs)))  # a list: compress() yields its ints, makes none
    size = [row.count(1) for row in rows]
    bad = [f"not reflexive at {xs[i]}" for i in at if not rows[i][i]]
    bad += [f"antisymmetry fails on {xs[i]},{xs[j]}"
            for i in at for j in compress(at, rows[i]) if j != i and rows[j][i]]
    for i, down in enumerate(rows):
        strict = (j for j in compress(at, down) if j != i)
        p = max(strict, key=size.__getitem__, default=None)
        if p is None or rows[p][:i] == down[:i] and rows[p][i + 1 :] == down[i + 1 :]:
            continue  # a root, or down(x) = {x} | down(p): nothing to report
        up, x, px = rows[p], xs[i], xs[p]
        bad += [f"transitivity fails on {xs[j]},{px},{x}"
                for j in compress(at, up) if not down[j] and j != i]
        bad += [f"downset of {x} not a chain: {xs[j]},{px}"
                for j in compress(at, down) if not up[j] and j != i and j != p]
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


def _edge_bfs(h: Hypergraph, start_edges) -> dict[int, int | None]:
    """Parent of every edge reachable from the start set, in discovery
    order, exploring edges in increasing id order.  A parent is fixed
    when its edge is first discovered, so walking the parents back from
    an edge gives the path an early-exit search for it would return.
    Shortest paths are automatically hyperpaths: a chord between
    non-consecutive edges would shorten the path."""
    parent: dict[int, int | None] = dict.fromkeys(sorted(set(start_edges)))
    queue = list(parent)
    for e in queue:  # grows while it is read: breadth first
        for nxt in _edge_neighbours(h, e):
            if nxt not in parent:
                parent[nxt] = e
                queue.append(nxt)
    return parent


def _path_back(parent: dict[int, int | None], e: int) -> list[int]:
    """The search path from the start set to ``e``."""
    path = []
    cursor: int | None = e
    while cursor is not None:
        path.append(cursor)
        cursor = parent[cursor]
    path.reverse()
    return path


def find_hyperpath(h: Hypergraph, u: int, v: int) -> list[int]:
    """Shortest hyperpath connecting u and v (u in the first edge only,
    v in the last edge only), least-id among shortest."""
    for x in (u, v):
        if not 0 <= x < h.num_vertices:
            raise NoHyperpath(f"vertex {x} not in hypergraph")
    start = h.incident_edges[u]
    if not start:
        raise NoHyperpath(f"vertex {u} lies on no edge")
    parent = _edge_bfs(h, start)
    targets = set(h.incident_edges[v])
    last = next((e for e in parent if e in targets), None)
    if last is None:
        raise NoHyperpath(f"no hyperpath between {u} and {v}")
    path = _path_back(parent, last)
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

    def vertex_class_of(self, v: int) -> int:
        for k, verts in enumerate(self.vertex_classes):
            if v in verts:
                return k
        raise NotATreeNode(f"vertex {v} not in tree")


def build_priority_tree(h: Hypergraph, root: int, l0, m: int | None = None) -> PriorityTree:
    """Grow a priority tree from ``root`` reaching every edge in ``l0``.

    Targets are processed in increasing id order; for each, the shortest
    suffix of a shortest root hyperpath that still meets the tree is
    glued on, and its edges take the least class index whose vertex
    class misses the suffix's first edge.  Guarantees that the union of
    the final leaf set is covered and every leaf edge belongs to l0.
    One breadth-first search from the root's edges gives every target's
    root hyperpath.
    """
    if m is not None and m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
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
    # connected, so the root lies on an edge and every edge is reached
    parent = _edge_bfs(h, h.incident_edges[root])
    for target in targets:
        if covered.issuperset(h.edges[target]):
            continue  # already inside the tree, nothing to glue
        path = _path_back(parent, target)
        meet = max(
            (i for i, e in enumerate(path) if not covered.isdisjoint(h.edges[e])),
            default=0,
        )
        suffix = path[meet:]
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


def edge_order(t: PriorityTree) -> VertexOrder:
    """e <= f iff e lies on the branch ending at f, i.e. e is f or one
    of its ancestors: f's preorder number lies in e's subtree interval.
    A forest order, so ``tree_order_violations`` is empty by
    construction."""
    # every parent is glued before its children
    _, pre, end = _forest_index(t.edge_list, _edge_parents(t))
    return VertexOrder(
        sorted(t.edge_list), lambda e, f: pre[e] <= pre[f] < end[e], "partial"
    )


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
    Edges of one gluing step share only new (class-k) vertices, while a
    class-k suffix meets no earlier class-k vertex (its entry edge
    misses class k and its other edges miss the tree), so each entry
    of the construction log is one class: the suffix's class-k members.
    """
    h = t.hypergraph
    classes: list[EquivClass] = []
    for suffix, k in t.construction_log:
        last_pos: dict[int, int] = {}
        for i, e in enumerate(suffix):
            for v in t.vertex_classes[k].intersection(h.edges[e]):
                last_pos[v] = i
        vertices = frozenset(last_pos)
        classes.append(EquivClass(k, vertices, suffix, suffix[-1], last_pos))
    classes.sort(key=lambda c: (c.class_index, min(c.vertices)))
    return classes


def priority_tree_linear_order(t: PriorityTree) -> VertexOrder:
    """Linear order on the tree's vertices.

    Vertices are ranked by class index, then by the edge id of their
    hyperpath class's leaf edge, then by nearness to the leaf edge
    (shorter suffix first), and finally by a slot refinement that
    separates the at-most-rank-many vertices sharing one edge position.
    """
    leaf_rank = {e: i for i, e in enumerate(sorted(t.leaf_edges))}
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

    Construction indexes ``nodes``, ``parent`` and ``aux_sets`` once:
    each node's depth and preorder interval (Tarjan 1972), and each
    vertex's owner, the last node whose auxiliary set holds it.  Change
    a field by ``dataclasses.replace``, never in place.  A node listed
    twice, or a parent that is not an earlier node, is ``MalformedTree``.
    """

    hypergraph: Hypergraph
    root: int
    nodes: tuple
    parent: dict
    attach_edges: dict
    aux_sets: dict
    vertex_types: dict

    def __post_init__(self):
        self._depth, self._pre, self._end = _forest_index(self.nodes, self.parent)
        # the last node whose auxiliary set holds a vertex owns it
        self._owner = {w: v for v in self.nodes for w in self.aux_sets[v]}

    def depth(self, v: int) -> int:
        return self._depth[v]

    def tree_leq(self, u: int, v: int) -> bool:
        """u is an ancestor of v (or equal): v's preorder number lies in
        u's subtree interval."""
        try:
            return self._pre[u] <= self._pre[v] < self._end[u]
        except KeyError:
            raise NotATreeNode(f"{u} or {v} is not a tree node") from None

    def is_chain(self, vs) -> bool:
        """The nodes lie on one path from the root: each is an ancestor of
        the next deeper one."""
        vs = sorted(set(vs), key=self._depth.__getitem__)
        return all(self.tree_leq(a, b) for a, b in zip(vs, vs[1:]))


def _grow_dfst(h: Hypergraph, root: int) -> DepthFirstSpanningTree:
    """The tree of ``build_dfst`` over the component of ``root``, grown
    in place in ``h``: no vertex is reindexed."""
    parent: dict[int, int | None] = {root: None}
    attach: dict[int, frozenset] = {root: frozenset()}
    aux: dict[int, frozenset] = {root: frozenset([root])}
    types: dict[int, tuple] = {root: ("root", 0)}
    owner = {root: root}  # vertex -> tree node owning it
    least = {root: root}  # node -> least vertex of its subtree so far
    # the stack, in push order: each node with one pass over its incident
    # edges in id order, as an edge without uncovered members gets none back
    stack = {root: iter(h.incident_edges[root])}
    while stack:
        u = next(reversed(stack))
        for edge in stack[u]:
            if any(w not in owner for w in h.edges[edge]):
                break
        else:
            del stack[u]
            if parent[u] is not None:
                least[parent[u]] = min(least[parent[u]], least[u])
            continue
        members = h.edges[edge]
        # the edge's border is a chain: its covered members belong to u's
        # root path, the only nodes that still have live edges
        assert all(owner[w] in stack for w in members if w in owner)
        # an uncovered member exists, so fewer than |members| levels are taken
        taken = {types[owner[w]] for w in members if w in owner}
        level = next(l for l in range(len(members)) if ("succ", l) not in taken)
        v = min(w for w in members if w not in owner)
        parent[v] = u
        attach[v] = frozenset([edge])
        aux[v] = frozenset(w for w in members if w not in owner)
        types[v] = ("succ", level)
        least[v] = v
        for w in aux[v]:
            owner[w] = v
        stack[v] = iter(sorted({ei for w in aux[v] for ei in h.incident_edges[w]}))
    # stable over creation order: nodes sharing a least vertex form a root path
    nodes = sorted(parent, key=least.__getitem__)
    return DepthFirstSpanningTree(
        h, root, tuple(nodes), parent, attach, aux, types
    )


def build_dfst(h: Hypergraph, root: int) -> DepthFirstSpanningTree:
    """Depth-first spanning tree of a connected hypergraph.

    The tree is that of a process on pieces, the components of the
    uncovered vertices under edge traces.  Each step takes the piece C of
    the least uncovered vertex and the deepest tree node u on its border
    (the owners of covered members of edges meeting C), and attaches
    below u the least C-vertex v of the least edge meeting C and A_u; v
    absorbs that edge's uncovered members.  A piece split off C then
    meets A_v, and its border lies in C's border plus v: v is its
    deepest border node, so v's subtree covers exactly C.  The process
    is therefore a depth-first search (Tarjan 1972), grown as one: the
    node on top of the stack attaches its least live edge (one with an
    uncovered member) and is popped when none is left, and every border
    is a chain on the stack.  The least vertex of v's subtree is the
    least uncovered vertex when v was attached, and the nodes attached
    while it stays uncovered go deeper, so ``nodes``, the order of the
    steps, is the order by (least vertex of the subtree, depth).
    """
    if not 0 <= root < h.num_vertices:
        raise NotATreeNode(f"root {root} not a vertex")
    if not is_connected(h):
        raise Disconnected("spanning trees need a connected hypergraph")
    return _grow_dfst(h, root)


def b_set(t: DepthFirstSpanningTree, vertex_set):
    """(B(X/T), beta): the owners of X's members in preorder, which is
    ``nodes`` order when B is a chain, and the greatest one, present iff
    B is a nonempty chain."""
    owner = t._owner
    b = sorted({owner[w] for w in vertex_set if w in owner}, key=t._pre.__getitem__)
    if b and all(t.tree_leq(x, y) for x, y in zip(b, b[1:])):
        return b, b[-1]
    return b, None


def validate_dfst(h: Hypergraph, t: DepthFirstSpanningTree) -> list[str]:
    """All violations of the spanning-tree conditions; empty when valid."""
    bad: list[str] = []
    node_set = set(t.nodes)
    for v in t.nodes:
        if t.parent[v] is None and v != t.root:
            bad.append(f"{v} has no parent but is not the root")
    # A_v = ({v} | members of F_v) minus the formula sets of v's proper
    # ancestors; claims[w] lists the nodes whose formula set holds w
    claims: dict[int, list[int]] = {}
    for v in t.nodes:
        base = {v} | {w for e in t.attach_edges[v] for w in t.hypergraph.edges[e]}
        formula = {
            w for w in base if not any(t.tree_leq(x, v) for x in claims.get(w, ()))
        }
        for w in formula:
            claims.setdefault(w, []).append(v)
        if formula != t.aux_sets[v]:
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
    levels = max(h.rank(), 1)
    for v in t.nodes:
        kind, level = t.vertex_types[v]
        if kind == "root":
            if t.attach_edges[v]:
                bad.append(f"root {v} has attach edges")
        elif kind == "succ":
            if not 0 <= level < levels:
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
            b2 = [x for x in b_set(t, set(h.edges[e]) - {v})[0] if x != v]
            beta2 = b2[-1] if b2 and t.is_chain(b2) else None
            if beta2 != t.parent[v]:
                bad.append(f"attach edge of {v} does not point at its parent")
        else:
            bad.append(f"unknown type {kind!r} on {v}")
    return bad


def aux_preorder(t: DepthFirstSpanningTree) -> VertexOrder:
    """Preorder on all vertices: x below y iff x's owning node is a tree
    ancestor of y's; vertices owned by one node are equivalent."""
    owner = t._owner

    def leq(x, y):
        return t.tree_leq(owner[x], owner[y])

    return VertexOrder(sorted(owner), leq, "preorder")


def aux_order(t: DepthFirstSpanningTree) -> VertexOrder:
    """Partial order refining aux_preorder: inside one auxiliary set,
    members are ordered by id.  Linear on every vertex set whose border
    is a chain, in particular on edges."""
    owner = t._owner

    def leq(x, y):
        if owner[x] == owner[y]:
            return x <= y
        return t.tree_leq(owner[x], owner[y])

    return VertexOrder(sorted(owner), leq, "partial")


# --- orders and orientations from spanning trees ----------------------------


def edge_ordering(h: Hypergraph) -> dict[int, tuple[int, ...]]:
    """Members of every edge, linearly ordered by the depth-first tree
    order of its component, rooted at the component's least vertex.

    The owners of an edge's members lie on one chain of the tree, so
    sorting by (depth of owner, id) gives the ``aux_order`` of the
    component's tree."""
    key: dict[int, tuple[int, int]] = {}
    for comp in connected_components(h):
        tree = _grow_dfst(h, comp[0])
        for w, v in tree._owner.items():
            key[w] = (tree.depth(v), w)
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
    hyper = Hypergraph._from_valid(g.vertex_labels, distinct)
    ordering = edge_ordering(hyper)
    return {
        v: (ordering[index[g.in_neighbours[v]]] if g.in_neighbours[v] else ())
        for v in g.vertices()
    }
