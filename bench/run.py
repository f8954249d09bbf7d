"""Size-scaling bench: how each layer operation grows with the input.

    python bench/run.py [--out BENCH.json]

Each case runs one library call on a seeded input at
n = 100, 200, 400, 800, 1600 and 3200 vertices.  A row holds the input's
n, m and rank, the median and the minimum of 5 timed runs
(``time.perf_counter``) and the peak memory of one more run under
``tracemalloc``.  A case stops before a size whose projected cost, four
times what the previous size took with its input set-up, would exceed
its 30 s budget, and lists the sizes it skipped.  The CPU count and
Python version are recorded once per file.

The ``cli_order_edges`` case reads its input file from ``bench/work/``,
which the script fills with seeded files and leaves in place.

The script measures the ``src/`` next to it: copy it into another
checkout to measure that one on the same machine.  Standard library
only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE / "work"
sys.path.insert(0, str(HERE.parent / "src"))

from sparsehg import cli, core, encoding, flows, generators, sparsity, spanning  # noqa: E402

SIZES = (100, 200, 400, 800, 1600, 3200)
RUNS = 5
BUDGET_S = 30.0  # per case


def hypergraph(n):
    """The k = 4 hypergraph rows: a connected backbone plus 2n edges of
    rank up to 4."""
    return generators.random_connected_hypergraph(generators.rng_for(7, n), n, 4, 2 * n)


def hypergraph_text(n):
    """The k = 4 hypergraph and its text."""
    h = hypergraph(n)
    return h, core.serialize_hypergraph(h)


def hypergraph_file(n):
    """The k = 4 hypergraph and the path of its text file."""
    h, text = hypergraph_text(n)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"hypergraph_{n}.hg"
    path.write_text(text, encoding="utf-8")
    return h, str(path)


def build_priority_tree(h):
    """The priority tree from vertex 0 towards every third edge, with
    m = 8 classes."""
    return spanning.build_priority_tree(h, 0, range(0, h.num_edges, 3), m=8)


def priority_tree(n):
    """The k = 4 hypergraph and its priority tree."""
    h = hypergraph(n)
    return h, build_priority_tree(h)


def priority_edge_order(n):
    """The k = 4 hypergraph and the edge order of its priority tree."""
    h, t = priority_tree(n)
    return h, spanning.edge_order(t)


def path_hypergraph(n):
    """The path on n vertices as a hypergraph of n - 1 two-vertex edges."""
    return core.Hypergraph([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def path_graph(n):
    """The path on n vertices: its breadth-first forest is n deep."""
    return core.as_graph(path_hypergraph(n))


def path_priority_tree(n):
    """The path hypergraph and its priority tree from vertex 0 towards
    its last edge: the tree's edge order is one chain of n - 1 edges."""
    h = path_hypergraph(n)
    return h, spanning.build_priority_tree(h, 0, [n - 2])


def path_edge_order(n):
    """The path hypergraph and the edge order of its priority tree."""
    h, t = path_priority_tree(n)
    return h, spanning.edge_order(t)


def dfst(n):
    """The k = 4 hypergraph and its depth-first tree from vertex 0."""
    h = hypergraph(n)
    return h, spanning.build_dfst(h, 0)


def aux_order_edges(ht):
    """Every member pair of every edge compared under ``aux_order``, as
    the suites' depth-first tree check does."""
    h, tree = ht
    order = spanning.aux_order(tree)
    return all(order.comparable(u, v) for e in h.edges for u in e for v in e)


def cli_run(argv):
    """One in-process command line, its report kept in memory."""
    code = cli.run(argv, io.StringIO())
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")


def graph(n):
    """The k = 2 distribution rows: a random spanning tree plus n chords."""
    return generators.random_connected_graph(generators.rng_for(7, n), n, n)


def distribution_input(n):
    g = graph(n)
    return g, generators.random_sparse_distribution(generators.rng_for(8, n), g, 2)


def mixed_flow(n):
    """The k = 2 graph, its distribution, and the delta-flow plus n/10
    random circulations, the mix that ``suite pipeline`` cancels."""
    g, d = distribution_input(n)
    f = flows.compute_delta_flow(g, d, 2)
    circ = generators.random_circulation(generators.rng_for(9, n), g, n // 10)
    keys = set(dict(f.items())) | set(dict(circ.items()))
    return g, d, flows.Flow(g, {key: f.value(*key) + circ.value(*key) for key in keys})


def acyclic_flow(n):
    """The k = 2 graph, its distribution, and the mixed flow with its
    cycles cancelled."""
    g, d, mixed = mixed_flow(n)
    return g, d, flows.cancel_cycles(mixed)


def set_function_input(n):
    """The k = 2 graph and a random set function whose distribution is
    2-sparse."""
    g = graph(n)
    return g, generators.random_set_function(generators.rng_for(10, n), g, 2)


# name -> (input builder, operation on that input)
CASES = {
    "is_k_sparse": (hypergraph, lambda h: sparsity.is_k_sparse(h, 4)),
    "bounded_orientation": (hypergraph, lambda h: sparsity.bounded_orientation(h, 4)),
    "antisymmetric_orientation": (
        hypergraph,
        lambda h: sparsity.antisymmetric_orientation(h, 4),
    ),
    "build_dfst": (hypergraph, lambda h: spanning.build_dfst(h, 0)),
    "validate_dfst": (dfst, lambda ht: spanning.validate_dfst(*ht)),
    "aux_order_edges": (dfst, aux_order_edges),
    "edge_ordering": (hypergraph, spanning.edge_ordering),
    "dfst_orientation": (hypergraph, spanning.dfst_orientation),
    "build_priority_tree": (hypergraph, build_priority_tree),
    "validate_priority_tree": (
        priority_tree,
        lambda ht: spanning.validate_priority_tree(*ht),
    ),
    "edge_order": (priority_tree, lambda ht: spanning.edge_order(ht[1])),
    "edge_order_path": (path_priority_tree, lambda ht: spanning.edge_order(ht[1])),
    "tree_order_violations": (
        priority_edge_order,
        lambda ho: spanning.tree_order_violations(ho[1]),
    ),
    "tree_order_violations_path": (
        path_edge_order,
        lambda ho: spanning.tree_order_violations(ho[1]),
    ),
    "priority_tree_linear_order": (
        priority_tree,
        lambda ht: spanning.priority_tree_linear_order(ht[1]),
    ),
    # a fresh generator per run, so every run makes the same increments
    "random_sparse_distribution": (
        graph,
        lambda g: generators.random_sparse_distribution(
            generators.rng_for(8, g.num_vertices), g, 2
        ),
    ),
    "compute_delta_flow": (
        distribution_input,
        lambda gd: flows.compute_delta_flow(gd[0], gd[1], 2),
    ),
    "cancel_cycles": (mixed_flow, lambda gdf: flows.cancel_cycles(gdf[2])),
    "decompose_flow_paths": (
        acyclic_flow,
        lambda gdf: flows.decompose_flow_paths(gdf[0], gdf[2], gdf[1]),
    ),
    "spanning_forest": (graph, encoding.spanning_forest),
    "spanning_forest_path": (path_graph, encoding.spanning_forest),
    "refine_to_injective": (
        set_function_input,
        lambda gh: encoding.refine_to_injective(gh[0], gh[1], 2),
    ),
    "parse_hypergraph": (hypergraph_text, lambda ht: core.parse_hypergraph(ht[1])),
    # end to end: argv and input file to report
    "cli_order_edges": (hypergraph_file, lambda hp: cli_run(["order", "edges", hp[1]])),
}


def shape(x) -> dict:
    g = x[0] if isinstance(x, tuple) else x
    return {"n": g.num_vertices, "m": g.num_edges, "rank": g.rank()}


def measure(op, x) -> dict:
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        op(x)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        op(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "median_s": round(statistics.median(times), 6),
        "min_s": round(min(times), 6),
        "runs_s": [round(t, 6) for t in times],
        "peak_mib": round(peak / 2**20, 3),
    }


def run_case(build, op) -> dict:
    rows, skipped = [], []
    spent, last = 0.0, 0.0
    for n in SIZES:
        if skipped or spent + 4 * last > BUDGET_S:
            skipped.append(n)
            continue
        start = time.perf_counter()
        x = build(n)
        rows.append({**shape(x), **measure(op, x)})
        last = time.perf_counter() - start
        spent += last
    return {"rows": rows, "skipped": skipped}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH.json", help="JSON file to write")
    args = parser.parse_args(argv)
    report = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "sizes": list(SIZES),
        "runs": RUNS,
        "budget_s": BUDGET_S,
        "cases": {},
    }
    for name, (build, op) in CASES.items():
        report["cases"][name] = result = run_case(build, op)
        medians = ", ".join(f"{r['n']}: {r['median_s']:.4f} s" for r in result["rows"])
        print(f"{name}: {medians}; skipped {result['skipped']}", file=sys.stderr)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
