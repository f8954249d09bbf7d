"""Command line front end.

Verbs mirror the library: ``sparsity check``, ``orient
bounded|antisym|hom``, ``tree dfst|priority``, ``order
edges|neighbourhoods``, ``flow delta|paths|check``, ``encode refine``
and ``suite oracle|lemmas|pipeline``.

Exit codes: 0 success, 1 domain error (report starts with
``ERROR <code>``), 2 usage or input-parse error.  All output is
deterministic given identical inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import (
    _vertex_ids, as_graph, parse_digraph, parse_hypergraph, serialize_orientation,
)
from .errors import InvalidFlow, NotKSparse, ParseError, SparseHGError, UndeclaredVertex


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None


def _load_hypergraph(args, path: str):
    """Parse a hypergraph file; its labels name the vertices of a witness."""
    h = parse_hypergraph(_read(path))
    args.labels = h.vertex_labels
    return h


def _load_graph(args, path: str):
    return as_graph(_load_hypergraph(args, path))


# --- verb handlers ----------------------------------------------------------
#
# Each handler imports the library module it calls when it runs, so a
# process loads only what its verb needs.


def _cmd_sparsity_check(args) -> list[str]:
    from . import sparsity
    h = _load_hypergraph(args, args.hypergraph)
    if args.oracle:
        report = sparsity.is_k_sparse_bruteforce(h, args.k, cap=args.cap)
        method = "bruteforce"
    else:
        report = sparsity.is_k_sparse(h, args.k)
        method = "flow"
    if not report.is_sparse:
        raise NotKSparse(f"not {args.k}-sparse", witness=report.witness)
    return [f"ok {args.k}-sparse method={method}"]


def _cmd_orient(args) -> list[str]:
    from . import sparsity
    h = _load_hypergraph(args, args.hypergraph)
    if args.verb == "bounded":
        f = sparsity.bounded_orientation(h, args.k)
    else:
        f = sparsity.antisymmetric_orientation(h, args.k)
    return serialize_orientation(f).splitlines()


def _cmd_orient_hom(args) -> list[str]:
    from . import sparsity
    h = _load_hypergraph(args, args.hypergraph)
    target = parse_digraph(_read(args.target))
    f = sparsity.antisymmetric_orientation(h, args.k)
    quotient = sparsity.directed_quotient(f)
    mapping = sparsity.find_homomorphism(quotient, target)
    return [
        f"{h.vertex_labels[v]} -> {target.vertex_labels[mapping[v]]}"
        for v in range(h.num_vertices)
    ]


def _cmd_tree_dfst(args) -> list[str]:
    from . import spanning
    h = _load_hypergraph(args, args.hypergraph)
    root = _root(h, args)
    tree = spanning.build_dfst(h, root)
    lines = []
    for v in tree.nodes:
        parent = tree.parent[v]
        kind, level = tree.vertex_types[v]
        attach = ",".join(
            h.edge_labels[e] for e in sorted(tree.attach_edges[v])
        )
        aux = ",".join(h.vertex_labels[w] for w in sorted(tree.aux_sets[v]))
        lines.append(
            f"{h.vertex_labels[v]}"
            f" parent={h.vertex_labels[parent] if parent is not None else '-'}"
            f" type={kind}{level}"
            f" F={attach or '-'}"
            f" A={aux or '-'}"
        )
    return lines


def _cmd_tree_priority(args) -> list[str]:
    from . import spanning
    h = _load_hypergraph(args, args.hypergraph)
    root = _root(h, args)
    targets = [_resolve_edge(h, label) for label in args.leaves.split(",")]
    tree = spanning.build_priority_tree(h, root, targets, m=args.m)
    lines = []
    for edges, cls in tree.construction_log:
        glued = ",".join(h.edge_labels[e] for e in edges)
        lines.append(f"glued {glued} class {cls}")
    for cls, members in enumerate(tree.vertex_classes):
        if members:
            names = " ".join(h.vertex_labels[v] for v in sorted(members))
            lines.append(f"P{cls} {names}")
    lines.append(
        "L " + ",".join(h.edge_labels[e] for e in tree.leaf_edges)
    )
    return lines


def _cmd_order_edges(args) -> list[str]:
    from . import spanning
    h = _load_hypergraph(args, args.hypergraph)
    ordering = spanning.edge_ordering(h)
    return [
        f"{h.edge_labels[ei]} "
        + " ".join(h.vertex_labels[v] for v in ordering[ei])
        for ei in range(h.num_edges)
    ]


def _cmd_order_neighbourhoods(args) -> list[str]:
    from . import spanning
    g = parse_digraph(_read(args.digraph))
    ordering = spanning.neighbourhood_ordering(g)
    lines = []
    for v in g.vertices():
        names = " ".join(g.vertex_labels[w] for w in ordering[v])
        lines.append(f"{g.vertex_labels[v]}{' ' + names if names else ''}")
    return lines


def _cmd_flow_delta(args) -> list[str]:
    from . import flows
    g = _load_graph(args, args.graph)
    d = flows.parse_distribution(_read(args.dist), g)
    f = flows.compute_delta_flow(g, d, args.k)
    return flows.serialize_flow(f).splitlines()


def _cmd_flow_paths(args) -> list[str]:
    from . import flows
    g = _load_graph(args, args.graph)
    d = flows.parse_distribution(_read(args.dist), g)
    if args.flow is not None:
        f = flows.parse_flow(_read(args.flow), g)
    else:
        f = flows.compute_delta_flow(g, d, args.k)
    acyclic = flows.cancel_cycles(f)
    family = flows.decompose_flow_paths(g, acyclic, d, _acyclic=True)
    return [
        "path " + " ".join(g.vertex_labels[v] for v in path)
        for path in family.paths
    ]


def _cmd_flow_check(args) -> list[str]:
    from . import flows
    g = _load_graph(args, args.graph)
    d = flows.parse_distribution(_read(args.dist), g)
    f = flows.parse_flow(_read(args.flow), g)
    if not flows.check_delta_flow(f, d):
        raise InvalidFlow("defect does not match delta - 1")
    edge_bound, vertex_bound = flows.bounds(f)
    return [
        "ok delta-flow",
        f"edge-bound {edge_bound}",
        f"vertex-bound {vertex_bound}",
    ]


def _cmd_encode_refine(args) -> list[str]:
    from . import encoding
    g = _load_graph(args, args.graph)
    h = encoding.parse_set_function(_read(args.sets), g)
    h0, gmap = encoding.refine_to_injective(g, h, args.k)
    lines = ["# h0"]
    lines.extend(encoding.serialize_set_function(h0, g).splitlines())
    lines.append("# gmap")
    lines.extend(encoding.serialize_gmap(gmap, g).splitlines())
    return lines


def _cmd_suite(args) -> list[str]:
    from . import suites
    suites.check_n(args.n)
    sizes = suites.parse_sizes(args.sizes, args.name)
    return suites.run_suite(args.name, args.seed, args.n, sizes)


def _root(h, args) -> int:
    return 0 if args.root is None else _vertex_ids(h.vertex_id, [args.root])[0]


def _resolve_edge(h, label: str) -> int:
    try:
        return h.edge_id(label.strip())
    except KeyError:
        raise UndeclaredVertex(f"unknown edge {label!r}") from None


# --- parser -----------------------------------------------------------------


# Option rows, (flag, add_argument keywords), that several verbs share.
_K = ("--k", {"type": int, "required": True})
_ROOT = ("--root", {"help": "root vertex label (default least id)"})

# group -> (help, {verb -> (help, handler, positional input, option rows)}).
# Handlers are this module's own functions, which look the library up
# when they run, so a function rebound in its module is the one called.
_VERBS = {
    "sparsity": ("sparsity decisions", {
        "check": ("decide k-sparsity", _cmd_sparsity_check, "hypergraph", [
            _K,
            ("--oracle", {"action": "store_true", "help": "use the subset-enumeration oracle"}),
            ("--cap", {"type": int, "default": 20, "help": "vertex cap for the oracle"}),
        ]),
    }),
    "orient": ("edge orientations", {
        "bounded": ("preimages bounded by k", _cmd_orient, "hypergraph", [_K]),
        "antisym": ("acyclic quotient, preimages within rank*k", _cmd_orient, "hypergraph", [_K]),
        "hom": ("homomorphism of the oriented quotient into a digraph", _cmd_orient_hom,
                "hypergraph", [_K, ("--target", {"required": True, "help": "digraph file"})]),
    }),
    "tree": ("spanning structures", {
        "dfst": ("depth-first spanning tree", _cmd_tree_dfst, "hypergraph", [_ROOT]),
        "priority": ("priority tree", _cmd_tree_priority, "hypergraph", [
            _ROOT,
            ("--leaves", {"required": True, "help": "comma-separated target edge labels"}),
            ("--m", {"type": int, "help": "number of classes (default: rank)"}),
        ]),
    }),
    "order": ("derived linear orders", {
        "edges": ("order each edge's members", _cmd_order_edges, "hypergraph", []),
        "neighbourhoods": ("order each in-neighbourhood of a digraph",
                           _cmd_order_neighbourhoods, "digraph", []),
    }),
    "flow": ("distribution flows", {
        "delta": ("compute a delta-flow", _cmd_flow_delta, "graph", [
            _K, ("--dist", {"required": True, "help": "distribution file"}),
        ]),
        "paths": ("decompose into paths", _cmd_flow_paths, "graph", [
            ("--k", {"type": int, "default": 1}),
            ("--dist", {"required": True}),
            ("--flow", {"help": "flow file (default: compute)"}),
        ]),
        "check": ("verify a delta-flow", _cmd_flow_check, "graph", [
            ("--dist", {"required": True}), ("--flow", {"required": True}),
        ]),
    }),
    "encode": ("set-by-vertex encodings", {
        "refine": ("make a set-to-vertex map injective", _cmd_encode_refine, "graph", [
            _K, ("--sets", {"required": True, "help": "set-function file"}),
        ]),
    }),
}


@functools.cache  # parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsehg",
        description="Sparse hypergraph orientations, spanning structures, "
        "flows and set encodings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None,
                        help="write the report to this file")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, verbs) in _VERBS.items():
        group_p = groups.add_parser(group, help=group_help)
        verb_ps = group_p.add_subparsers(dest="verb", required=True)
        for verb, (verb_help, handler, positional, options) in verbs.items():
            verb_p = verb_ps.add_parser(verb, help=verb_help, parents=[common])
            verb_p.add_argument(positional)
            for flag, keywords in options:
                verb_p.add_argument(flag, **keywords)
            verb_p.set_defaults(handler=handler)

    suite = groups.add_parser("suite", help="seeded verification suites",
                              parents=[common])
    suite.add_argument("name", choices=("oracle", "lemmas", "pipeline"))
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--n", type=int, default=10,
                       help="instances per size")
    suite.add_argument("--sizes",
                       help="comma-separated vertex counts (empty for none)")
    suite.set_defaults(handler=_cmd_suite)

    return parser


def run(argv, out=None) -> int:
    """Execute one command line; returns the exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        lines = args.handler(args)
        code = 0
    except SparseHGError as exc:
        if exc.witness is None:
            lines = [f"ERROR {exc.code}", f"detail {exc}"]
        else:
            names = " ".join(args.labels[v] for v in exc.witness)
            lines = [f"ERROR {exc.code}", f"witness {names}"]
        code = 2 if isinstance(exc, ParseError) else 1
    except OSError as exc:
        # unreadable input file
        lines = ["ERROR IO", f"detail {exc}"]
        code = 2
    except ValueError as exc:
        # bad user-supplied numbers (k <= 0, malformed counts)
        lines = ["ERROR Usage", f"detail {exc}"]
        code = 2
    text = "".join(line + "\n" for line in lines)
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            return code
    except OSError as exc:  # unwritable report file, like an unreadable input
        text, code = f"ERROR IO\ndetail {exc}\n", 2
    out.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
