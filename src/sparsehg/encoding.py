"""Coding finite vertex sets by vertices.

A finite-to-one set-to-vertex map h is refined into an injective one:
the induced demand distribution is realized by a flow-derived function
gmap, each gmap-preimage gets slot representatives, and the sets mapped
to one vertex are ranked by a lexicographic set order built from a
spanning forest.  The result h0 satisfies h = gmap after h0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import UndirectedGraph, _content_lines, _forest_index, _vertex_ids
from .errors import ParseError
from .flows import compute_delta_flow, function_from_flow, induced_distribution


@dataclass(frozen=True)
class FiniteSetFunction:
    """Finite table of (vertex set, image vertex) pairs, functional."""

    entries: tuple

    def __post_init__(self):
        seen = set()
        normalized = []
        for xs, v in self.entries:
            key = frozenset(xs)
            if key in seen:
                raise ValueError(f"set {sorted(key)} appears twice")
            seen.add(key)
            normalized.append((key, v))
        object.__setattr__(self, "entries", tuple(normalized))

    def domain(self):
        return [xs for xs, _ in self.entries]

    def image(self, xs) -> int:
        key = frozenset(xs)
        for candidate, v in self.entries:
            if candidate == key:
                return v
        raise KeyError(f"set {sorted(key)} not in domain")

    def preimage(self, v: int):
        return [xs for xs, w in self.entries if w == v]


@dataclass
class LexContext:
    """Spanning forest with ordered children and lexicographic positions.

    ``pre[v]`` is v's preorder number in the forest, roots in id order
    and children in their listed order, and ``end[v]`` the number after
    v's subtree.  Preorder is the lexicographic order of the paths of
    child indices from the roots, so an ancestor comes first."""

    graph: UndirectedGraph
    roots: tuple
    parent: dict
    children: dict
    forest_edges: tuple
    pre: dict
    end: dict

    def tree_leq(self, u: int, v: int) -> bool:
        return self.pre[u] <= self.pre[v] < self.end[u]


def spanning_forest(g: UndirectedGraph) -> LexContext:
    """Breadth-first forest over the sorted ``adjacency``, one search
    over the vertices in id order: the first vertex it has not reached
    is the least of the next component and becomes its root.  Children
    are in id order.  That is the neighbourhood ordering of the
    child-to-parent digraph: its in-neighbourhoods, the children sets,
    are disjoint, so each is a one-edge component whose edge ordering
    puts its least member first and the rest, owned by one depth-1
    node, after it by id."""
    parent: dict[int, int | None] = {}
    children: dict[int, list[int]] = {v: [] for v in g.vertices()}
    roots = []
    forest_edges = []
    reached = []  # every vertex, in the order the search reaches it
    for root in g.vertices():
        if root in parent:
            continue
        roots.append(root)
        parent[root] = None
        queue = [root]
        for u in queue:  # grows while it is read: breadth first
            for w in g.adjacency[u]:
                if w not in parent:
                    parent[w] = u
                    children[u].append(w)
                    forest_edges.append(g.edge_between(u, w))
                    queue.append(w)
        reached += queue
    _, pre, end = _forest_index(reached, parent)
    return LexContext(
        graph=g,
        roots=tuple(roots),
        parent=parent,
        children={u: tuple(cs) for u, cs in children.items()},
        forest_edges=tuple(forest_edges),
        pre=pre,
        end=end,
    )


def vertex_lex_order(ctx: LexContext, u: int, v: int) -> int:
    """-1, 0 or 1 as u comes before, equals or comes after v."""
    pu, pv = ctx.pre[u], ctx.pre[v]
    return (pu > pv) - (pu < pv)


def set_order(ctx: LexContext, x, y) -> int:
    """Compare finite vertex sets: the set missing the lexicographically
    least element of the symmetric difference is the smaller one."""
    xs, ys = frozenset(x), frozenset(y)
    if xs == ys:
        return 0
    least = min(xs ^ ys, key=ctx.pre.__getitem__)
    return -1 if least in ys else 1


def sort_sets(ctx: LexContext, sets) -> list:
    """``sets`` in increasing ``set_order``: each set's key lists the
    negated lex positions of its members, least member first."""
    pre = ctx.pre
    return sorted(sets, key=lambda xs: sorted((-pre[v] for v in xs), reverse=True))


def refine_to_injective(
    g: UndirectedGraph, h: FiniteSetFunction, k: int
) -> tuple[FiniteSetFunction, dict]:
    """Refine h into an injective h0 with h = gmap after h0.

    The induced distribution must be k-sparse (NotSparseDistribution
    otherwise).  gmap realizes the distribution; within one image
    vertex v, the sets of h^-1(v) are ranked by set_order and sent to
    the members of gmap^-1(v) in id order.
    """
    delta = induced_distribution(h, g)
    flow = compute_delta_flow(g, delta, k)
    gmap = function_from_flow(g, delta, flow)
    slots: dict[int, list[int]] = {}
    for u, v in sorted(gmap.items()):
        slots.setdefault(v, []).append(u)
    ctx = spanning_forest(g)
    preimages: dict[int, list[frozenset]] = {}  # h.preimage(v) for every image v
    for xs, v in h.entries:
        preimages.setdefault(v, []).append(xs)
    new_image: dict[frozenset, int] = {}
    for v in sorted(preimages):
        ranked = sort_sets(ctx, preimages[v])
        assert len(ranked) == len(slots[v])
        for i, xs in enumerate(ranked):
            new_image[xs] = slots[v][i]
    h0 = FiniteSetFunction(
        tuple((xs, new_image[xs]) for xs, _ in h.entries)
    )
    assert verify_encoding(h, h0, gmap)
    return h0, gmap


def verify_encoding(h: FiniteSetFunction, h0: FiniteSetFunction, gmap) -> bool:
    """h0 injective, same domain as h, and gmap(h0(X)) = h(X) for all X."""
    dom = {xs: v for xs, v in h.entries}
    dom0 = {xs: v for xs, v in h0.entries}
    if set(dom) != set(dom0):
        return False
    images = list(dom0.values())
    if len(set(images)) != len(images):
        return False
    return all(gmap.get(dom0[xs]) == v for xs, v in dom.items())


# --- file formats -----------------------------------------------------------


def parse_set_function(text: str, g: UndirectedGraph) -> FiniteSetFunction:
    """Lines `<v1>,<v2>,... -> <vertex-label>`; empty left side is the
    empty set."""
    entries = []
    for lineno, line in _content_lines(text):
        if "->" not in line:
            raise ParseError("expected `<members> -> <vertex>`", line=lineno)
        left, _, right = line.partition("->")
        left = left.strip()
        labels = [token.strip() for token in left.split(",")] if left else []
        members = _vertex_ids(g.vertex_id, labels, lineno)
        image_label = right.strip()
        if not image_label or len(image_label.split()) != 1:
            raise ParseError("expected a single image vertex", line=lineno)
        (image,) = _vertex_ids(g.vertex_id, [image_label], lineno)
        if len(set(members)) != len(members):
            raise ParseError("set member repeated", line=lineno)
        entries.append((frozenset(members), image))
    try:
        return FiniteSetFunction(tuple(entries))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_set_function(h: FiniteSetFunction, g: UndirectedGraph) -> str:
    lines = []
    for xs, v in h.entries:
        left = ",".join(g.vertex_labels[u] for u in sorted(xs))
        lines.append(f"{left}{' ' if left else ''}-> {g.vertex_labels[v]}")
    return "".join(line + "\n" for line in lines)


def serialize_gmap(gmap, g: UndirectedGraph) -> str:
    lines = [
        f"{g.vertex_labels[v]} -> {g.vertex_labels[gmap[v]]}"
        for v in sorted(gmap)
    ]
    return "".join(line + "\n" for line in lines)
