"""Sparse hypergraphs: orientations, spanning structures, flows and
set-by-vertex encodings.  Each name below is imported from its module on
first use (PEP 562), so a program loads only the modules it uses."""

from importlib import import_module as _import_module

_EXPORTS = {  # module -> the names exported from it
    "core": """DirectedGraph Hypergraph Orientation UndirectedGraph as_graph
        connected_components induced_subhypergraph is_connected parse_digraph
        parse_hypergraph preimage_counts serialize_digraph serialize_hypergraph
        serialize_orientation""",
    "errors": """CapExceeded ClassOverflow Disconnected InvalidFlow MalformedPartition
        MalformedTree NoHomomorphism NoHyperpath NotAGraph NotATreeNode NotKSparse
        NotSparseDistribution ParseError RankTooSmall SparseHGError""",
    "sparsity": """SparsityReport antisymmetric_orientation bounded_orientation
        check_h_orientation directed_quotient find_homomorphism is_k_sparse
        is_k_sparse_bruteforce orientation_weight""",
    "spanning": """DepthFirstSpanningTree PriorityTree VertexOrder aux_order
        aux_preorder b_set branches build_dfst build_priority_tree dfst_orientation
        edge_order edge_ordering find_hyperpath is_hyperpath neighbourhood_ordering
        priority_tree_linear_order tree_order_violations validate_dfst
        validate_priority_tree vertex_equiv""",
    "flows": """Flow PathFamily border bounds cancel_cycles check_delta_flow
        compute_delta_flow decompose_flow_paths defect distribution_sum
        function_from_flow induced_distribution is_k_sparse_distribution
        is_k_sparse_distribution_bruteforce parse_distribution parse_flow
        serialize_distribution serialize_flow validate_path_family""",
    "encoding": """FiniteSetFunction parse_set_function refine_to_injective
        serialize_gmap serialize_set_function set_order sort_sets spanning_forest
        verify_encoding vertex_lex_order""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# the modules too, which ``import *`` and ``sparsehg.<module>`` reached
# when all of them were loaded here
__all__ = [*_HOME, *_EXPORTS, "maxflow"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_HOME.get(name, name)}", __name__)
    value = globals()[name] = getattr(module, name) if name in _HOME else module
    return value


def __dir__():
    return sorted({*globals(), *__all__})
