"""Sparsity decisions and edge orientations on small hypergraphs.

A hypergraph is k-sparse when every vertex set X spans at most k|X|
edges.  The flow-based decision and the subset-enumeration oracle must
agree; on sparse inputs an orientation with preimages bounded by k
exists.  Removing vertices in order of least remaining degree gives
another, with preimages bounded by rank*k and an acyclic quotient.
"""

from sparsehg import (
    Hypergraph,
    antisymmetric_orientation,
    bounded_orientation,
    directed_quotient,
    find_homomorphism,
    is_k_sparse,
    is_k_sparse_bruteforce,
    preimage_counts,
    serialize_orientation,
)


def banner(title: str) -> None:
    print(f"\n== {title} ==")


banner("a triangle is 1-sparse")
triangle = Hypergraph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
for check in (is_k_sparse, is_k_sparse_bruteforce):
    report = check(triangle, 1)
    print(f"{check.__name__}: sparse={report.is_sparse}")

banner("three parallel edges are not")
triple = Hypergraph(["a", "b"], [(0, 1), (0, 1), (0, 1)])
report = is_k_sparse(triple, 1)
witness = [triple.vertex_labels[v] for v in report.witness]
print(f"sparse={report.is_sparse}, violating set {witness}")
print("that set spans 3 edges but 1-sparsity allows only", len(witness))

banner("orientation with preimages bounded by k")
f = bounded_orientation(triangle, 1)
print(serialize_orientation(f), end="")
print("preimage counts:", preimage_counts(f))

banner("antisymmetric quotient")
# mixed edge sizes; rank 3, 1-sparse
h = Hypergraph(["a", "b", "c", "d"], [(0, 1, 2), (1, 2, 3), (2, 3)])
f = antisymmetric_orientation(h, 1)
print(serialize_orientation(f), end="")
quotient = directed_quotient(f)
print("quotient arcs:", sorted(quotient.arcs))
print("antisymmetric:", quotient.is_antisymmetric())

banner("homomorphism into a small digraph")
# every quotient arc points to a vertex eliminated earlier, so the
# quotient is acyclic and maps into the transitive tournament x -> y -> z
# (with x -> z); it has no map into a directed cycle of the same size
from sparsehg import DirectedGraph

tournament = DirectedGraph(["x", "y", "z"], [(0, 1), (1, 2), (0, 2)])
quotient = directed_quotient(antisymmetric_orientation(triangle, 1))
mapping = find_homomorphism(quotient, tournament)
for v in quotient.vertices():
    print(f"{quotient.vertex_labels[v]} -> {tournament.vertex_labels[mapping[v]]}")
