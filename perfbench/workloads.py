"""The three workloads: seeded input files and the CLI requests on them.

Each round of a workload is a list of ``Request`` objects that one
closed-loop client sends back to back.  A request carries the check its
report must pass and the number of operations it stands for: one for a
verb, one per case line for a suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import checks
import inputs

# Every round writes fresh inputs at ``count`` sizes evenly spaced over
# [low, high), the verbs taking turns along them.  Each round shifts the
# sizes by a fraction of a step and rotates the verbs by one, so that
# over the rounds every verb meets sizes all over the range and the
# latencies spread smoothly instead of bunching around a few inputs.
ORIENT_SIZES = (100, 420, 20)  # low, high, count
ORIENT_K = 4
TREE_SIZES = (100, 400, 12)
GRAPH_SIZES = (250, 1000, 9)
GRAPH_K = 2
# suites: (suite, --n, --sizes, requests per round) at small sizes; the
# three suites take about the same time per request, so the latency
# percentiles do not fall in a gap between two clusters
SUITE_MIX = (
    ("oracle", 1, (8, 12, 16), 4),
    ("lemmas", 4, (8, 16, 32), 8),
    ("pipeline", 1, (16, 32, 48), 6),
)
# case lines per instance and size, as the suites emit them
SUITE_CASES = {"oracle": 6, "lemmas": 8, "pipeline": 2}
ORACLE_CAP = 20

WORKLOADS = ("orient", "trees-encode", "suites")


@dataclass
class Request:
    argv: list
    # (exit code, report text) -> problems; suite checks return
    # (problems, failed case lines, case lines of the known defect)
    check: object
    ops: int = 1


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _sizes(r: int, low: int, high: int, count: int) -> list:
    """Sizes of round r, shifted by the golden-ratio sequence."""
    phase = (r * 0.6180339887498949) % 1
    return [round(low + (high - low) * (i + phase) / count) for i in range(count)]


def orient(rng: random.Random, r: int, work: Path, sizes=ORIENT_SIZES) -> list:
    """Each request builds and solves one large flow network, so maxflow
    and sparsity do nearly all the work; the non-sparse inputs use the
    same engine for a min-cut witness instead of a full orientation."""
    verbs = (
        (["sparsity", "check"], inputs.planted_sparse_hypergraph, checks.check_sparsity),
        (["sparsity", "check"], inputs.planted_dense_hypergraph, checks.check_sparsity),
        (["orient", "bounded"], inputs.planted_sparse_hypergraph, checks.check_bounded),
        (["orient", "antisym"], inputs.planted_sparse_hypergraph, checks.check_antisym),
    )
    requests = []
    for i, n in enumerate(_sizes(r, *sizes)):
        verb, planted, check = verbs[(i + r) % len(verbs)]
        h = planted(rng, n, 3 * n, ORIENT_K)
        path = _write(work / f"h{i}.hg", h.text())
        requests.append(Request(verb + [path, "--k", str(ORIENT_K)], partial(check, h=h)))
    return requests


def _tree_request(rng, work: Path, i: int, n: int, verb: int) -> Request:
    h = inputs.planted_connected_hypergraph(rng, n, 2 * n)
    path = _write(work / f"h{i}.hg", h.text())
    if verb == 0:
        return Request(["tree", "dfst", path], partial(checks.check_dfst, h=h))
    if verb == 1:
        return Request(["order", "edges", path], partial(checks.check_order_edges, h=h))
    targets = sorted({rng.randrange(len(h.edges)) for _ in range(4)})
    leaves = ",".join(inputs.elabel(e) for e in targets)
    return Request(["tree", "priority", path, "--leaves", leaves],
                   partial(checks.check_priority, h=h, targets=targets))


def _graph_request(rng, work: Path, i: int, n: int, verb: int) -> Request:
    g = inputs.connected_graph(rng, n, n // 2)
    inputs.plant_distribution(rng, g, GRAPH_K, n // 4)
    graph = _write(work / f"g{i}.hg", g.text())
    k = str(GRAPH_K)
    if verb == 2:
        inputs.plant_set_function(rng, g)
        sets = _write(work / f"g{i}.sets", g.sets_text())
        return Request(["encode", "refine", graph, "--k", k, "--sets", sets],
                       partial(checks.check_refine, g=g))
    dist = _write(work / f"g{i}.dist", g.dist_text())
    if verb == 0:
        return Request(["flow", "delta", graph, "--k", k, "--dist", dist],
                       partial(checks.check_flow_delta, g=g))
    flow = inputs.add_circulation(rng, g, inputs.path_flow(g), 8)
    flow_file = _write(work / f"g{i}.flow", inputs.flow_text(flow))
    return Request(["flow", "paths", graph, "--dist", dist, "--flow", flow_file],
                   partial(checks.check_flow_paths, g=g))


def trees_encode(rng: random.Random, r: int, work: Path, tree_sizes=TREE_SIZES,
                 graph_sizes=GRAPH_SIZES) -> list:
    """dfst, order edges and priority trees take turns along the
    hypergraph sizes; flow delta, flow paths and encode refine along the
    graph sizes.  Spanning does most of the work, maxflow a minor share,
    and sparsity and generators none."""
    return [
        _tree_request(rng, work, i, n, (i + r) % 3)
        for i, n in enumerate(_sizes(r, *tree_sizes))
    ] + [
        _graph_request(rng, work, i, n, (i + r) % 3)
        for i, n in enumerate(_sizes(r, *graph_sizes))
    ]


def suites(rng: random.Random, r: int, work: Path, mix=SUITE_MIX) -> list:
    """Fresh suite seeds every round: thousands of tiny flow networks in
    the generator's accept/reject loop, the numpy brute-force oracles,
    and the FAIL lines of the known rank-3 priority-tree defect."""
    requests = []
    for name, count, sizes, seeds in mix:
        cases = count * SUITE_CASES[name] * sum(
            1 for s in sizes if name != "oracle" or s <= ORACLE_CAP
        )
        for _ in range(seeds):
            argv = ["suite", name, "--seed", str(rng.randrange(1 << 31)),
                    "--n", str(count), "--sizes", ",".join(map(str, sizes))]
            requests.append(
                Request(argv, partial(checks.check_suite, cases=cases), cases)
            )
    return requests


ROUND_MAKERS = {"orient": orient, "trees-encode": trees_encode, "suites": suites}


def build(workload: str, seed: int, round_index: int, work: Path) -> list:
    """Write the input files of one round and return its requests.  Each
    round has fresh inputs; the same workload, seed and round give the
    same files and requests."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    return ROUND_MAKERS[workload](rng, round_index, work)


def warmup(requests: list) -> list:
    """The first request of every distinct verb or suite, the smallest
    input of each in the first round."""
    seen, out = set(), []
    for request in requests:
        verb = tuple(request.argv[:2])
        if verb not in seen:
            seen.add(verb)
            out.append(request)
    return out
