"""Coding finite vertex sets by vertices.

A finite set-to-vertex map h may send several sets to one vertex.  When
its induced demand distribution is k-sparse, h factors as gmap after
h0 where h0 is injective: each vertex v hands the sets of h^-1(v) to
the members of gmap^-1(v), ranked by a lexicographic set order built
from a spanning forest of the graph.
"""

from sparsehg import (
    FiniteSetFunction,
    UndirectedGraph,
    refine_to_injective,
    serialize_gmap,
    serialize_set_function,
    set_order,
    sort_sets,
    spanning_forest,
    verify_encoding,
)

g = UndirectedGraph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (0, 3)])


def banner(title: str) -> None:
    print(f"\n== {title} ==")


banner("the lexicographic set order")
ctx = spanning_forest(g)
# a vertex's preorder position and the position after its subtree
print(
    "forest positions:",
    {g.vertex_labels[v]: (ctx.pre[v], ctx.end[v]) for v in sorted(ctx.pre)},
)
sets = [frozenset(), {0}, {1}, {0, 1}, {2, 3}]
ranked = sort_sets(ctx, sets)
print("ranked sets:", [sorted(g.vertex_labels[v] for v in xs) for xs in ranked])
print("compare {a} vs {b}:", set_order(ctx, {0}, {1}), "(positive: {b} first)")

banner("three sets landing on one vertex")
h = FiniteSetFunction(
    (
        (frozenset(), 1),
        (frozenset({1}), 1),
        (frozenset({1, 2}), 1),
        (frozenset({0, 3}), 3),
    )
)
print(serialize_set_function(h, g), end="")

banner("refined to an injective map")
h0, gmap = refine_to_injective(g, h, 1)
print(serialize_set_function(h0, g), end="")
print("gmap:")
print(serialize_gmap(gmap, g), end="")
print("h0 injective and gmap after h0 restores h:", verify_encoding(h, h0, gmap))
