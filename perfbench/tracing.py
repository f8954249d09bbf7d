"""Spans around the public functions of ``sparsehg``, installed from outside.

``Tracer.install`` replaces each listed function by a wrapper in every
``sparsehg`` module that binds it (``encoding.compute_delta_flow`` is
``flows.compute_delta_flow`` under another module's name, and
``suites`` imports most of the library), so every call path is seen.
Per-arc helpers such as ``FlowNetwork.add_edge`` are left alone: they
run millions of times and would drown the spans they belong to.

Spans (name, start, end, parent span, request id) are kept in flat
arrays in memory and written out only when the benchmark ends.
"""

from __future__ import annotations

import sys
import time
from array import array

# module -> public functions wrapped; "Class.method" wraps a method
LAYERS = {
    "cli": ["run"],
    "core": [
        "parse_hypergraph", "parse_digraph", "serialize_orientation", "as_graph",
        "connected_components", "induced_subhypergraph", "is_connected",
    ],
    "maxflow": ["FlowNetwork.max_flow", "FlowNetwork.source_side"],
    "sparsity": [
        "is_k_sparse", "is_k_sparse_bruteforce", "bounded_orientation",
        "antisymmetric_orientation", "directed_quotient", "find_homomorphism",
    ],
    "flows": [
        "is_k_sparse_distribution", "is_k_sparse_distribution_bruteforce",
        "compute_delta_flow", "check_delta_flow", "cancel_cycles",
        "decompose_flow_paths", "function_from_flow", "parse_distribution",
        "parse_flow", "serialize_flow",
    ],
    "spanning": [
        "build_dfst", "validate_dfst", "edge_ordering", "neighbourhood_ordering",
        "aux_order", "dfst_orientation", "build_priority_tree",
        "validate_priority_tree", "branches", "edge_order",
        "tree_order_violations", "priority_tree_linear_order",
    ],
    "encoding": [
        "spanning_forest", "sort_sets", "refine_to_injective", "verify_encoding",
        "parse_set_function", "serialize_set_function", "serialize_gmap",
    ],
    "generators": [
        "random_sparse_distribution", "random_set_function", "random_hypergraph",
        "random_connected_hypergraph", "random_connected_graph",
        "random_graph_max_degree", "random_circulation",
    ],
    "suites": ["run_suite"],
}

SPAN_NAMES = [f"{module}.{name}" for module, names in LAYERS.items() for name in names]

# work counted at the wrapped boundaries, from arguments and results
COUNTS = [
    "maxflow.arcs", "maxflow.units", "generators.increments",
    "generators.accepted", "core.parse_bytes",
]


def _count_max_flow(counts, args, result):
    counts["maxflow.arcs"] += len(args[0].to) // 2
    counts["maxflow.units"] += result


def _count_distribution(counts, args, result):
    counts["generators.increments"] += 2 * args[1].num_vertices
    counts["generators.accepted"] += sum(result)


def _count_parse(counts, args, result):
    counts["core.parse_bytes"] += len(args[0].encode())


COUNTERS = {
    "maxflow.FlowNetwork.max_flow": _count_max_flow,
    "generators.random_sparse_distribution": _count_distribution,
    "core.parse_hypergraph": _count_parse,
    "core.parse_digraph": _count_parse,
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTS, 0)
        self.request_id = -1
        self._stack = []
        self._undo = []

    def _wrap(self, index: int, fn):
        counter = COUNTERS.get(self.names[index])
        clock = time.perf_counter
        stack, counts = self._stack, self.counts
        name_id, parent, request = self.name_id, self.parent, self.request
        start, end = self.start, self.end

        def span(*args, **kwargs):
            me = len(name_id)
            name_id.append(index)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(me)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[me] = t0
                end[me] = t1
            if counter is not None:
                counter(counts, args, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        """Wrap every listed function wherever a sparsehg module binds it.
        Names the program no longer has are skipped."""
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "sparsehg" or name.startswith("sparsehg."))
        ]
        for index, full in enumerate(self.names):
            module_name, _, attr = full.partition(".")
            owner = sys.modules.get(f"sparsehg.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(method) if cls is not None else None
                if original is not None:
                    self._undo.append((cls, method, original))
                    setattr(cls, method, self._wrap(index, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue  # gone from the program: reported as zero calls
            wrapper = self._wrap(index, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def self_times(self) -> tuple:
        """Per span name: (calls, self seconds).  Self time is a span's
        duration minus the durations of its direct children; spans nest
        strictly because the program is single-threaded."""
        spans = len(self.name_id)
        child = [0.0] * spans
        for i in range(spans):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(spans):
            index = self.name_id[i]
            calls[index] += 1
            self_s[index] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\trequest\n")
            for i in range(len(self.name_id)):
                handle.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.request[i]}\n"
                )
