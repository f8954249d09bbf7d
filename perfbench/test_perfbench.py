"""Self-tests of the benchmark: planted inputs, report checkers, tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sparsehg import cli, encoding, flows  # noqa: E402
from sparsehg.core import Hypergraph, UndirectedGraph, is_connected  # noqa: E402
from sparsehg.flows import Flow, is_k_sparse_distribution_bruteforce  # noqa: E402
from sparsehg.sparsity import is_k_sparse_bruteforce  # noqa: E402

SMALL = {
    "orient": dict(sizes=(10, 16, 8)),
    "trees-encode": dict(tree_sizes=(8, 16, 6), graph_sizes=(10, 16, 6)),
    "suites": dict(mix=(("oracle", 1, (6,), 1), ("lemmas", 1, (8,), 2),
                        ("pipeline", 1, (8,), 1))),
}


def _sparsehg_hyper(h):
    return Hypergraph([inputs.vlabel(v) for v in range(h.n)], h.edges)


def _sparsehg_graph(g):
    return UndirectedGraph([inputs.vlabel(v) for v in range(g.n)], g.edges)


def _run(argv):
    out = io.StringIO()
    return cli.run(argv, out), out.getvalue()


# --- planted inputs agree with the subset-enumeration oracles --------------


@pytest.mark.parametrize("seed", range(12))
def test_planted_hypergraphs_match_oracle(seed):
    rng = random.Random(seed)
    n, k = rng.randint(6, 16), rng.randint(1, 3)
    sparse = inputs.planted_sparse_hypergraph(rng, n, k * n - rng.randrange(3), k)
    dense = inputs.planted_dense_hypergraph(rng, n, 3 * n, k)
    assert is_k_sparse_bruteforce(_sparsehg_hyper(sparse), k).is_sparse
    report = is_k_sparse_bruteforce(_sparsehg_hyper(dense), k)
    assert not report.is_sparse
    assert checks._edges_inside(dense, dense.witness_set) > k * len(dense.witness_set)


@pytest.mark.parametrize("seed", range(12))
def test_planted_distributions_match_oracle(seed):
    rng = random.Random(seed)
    n, k = rng.randint(6, 16), rng.randint(1, 2)
    g = inputs.connected_graph(rng, n, rng.randrange(n))
    inputs.plant_distribution(rng, g, k, n // 2)
    sg = _sparsehg_graph(g)
    assert is_k_sparse_distribution_bruteforce(sg, g.demand, k)[0]
    assert any(d >= 2 for d in g.demand)
    planted = Flow(sg, inputs.path_flow(g))
    assert flows.check_delta_flow(planted, g.demand)
    assert flows.bounds(planted)[0] <= k
    mixed = Flow(sg, inputs.add_circulation(rng, g, inputs.path_flow(g), 3))
    assert flows.defect(mixed) == flows.defect(planted)
    inputs.plant_set_function(rng, g)
    sets = [xs for xs, _ in g.sets]
    assert len(set(sets)) == len(sets)
    assert flows.induced_distribution(g.sets, sg) == g.demand


def test_planted_connected_hypergraph_is_connected():
    h = inputs.planted_connected_hypergraph(random.Random(3), 40, 20)
    assert len(h.edges) == 59 and h.rank() <= 4
    assert is_connected(_sparsehg_hyper(h))


# --- every checker accepts the program's reports ---------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checkers_accept_program_reports(workload, tmp_path):
    rng = random.Random(f"test:{workload}")
    requests = workloads.ROUND_MAKERS[workload](rng, 0, tmp_path, **SMALL[workload])
    assert requests
    for request in requests:
        code, text = _run(request.argv)
        result = request.check(code, text)
        problems = result[0] if isinstance(result, tuple) else result
        assert problems == [], (request.argv, text)


# --- every checker rejects a tampered report --------------------------------


def _replace_line(text, index, line):
    lines = text.splitlines()
    lines[index] = line
    return "".join(x + "\n" for x in lines)


def test_bounded_rejects_preimage_above_k():
    h = inputs.Hyper(3, [(0, 1), (0, 2), (1, 2)], k=1)
    assert checks.check_bounded(0, "e0 -> v0\ne1 -> v2\ne2 -> v1\n", h) == []
    assert checks.check_bounded(0, "e0 -> v0\ne1 -> v0\ne2 -> v1\n", h)
    assert checks.check_bounded(0, "e0 -> v0\ne1 -> v1\ne2 -> v2\n", h)  # v1 not in e1


def test_antisym_rejects_opposite_arcs_and_large_preimage():
    h = inputs.Hyper(3, [(0, 1), (0, 1, 2)], k=1)
    assert checks.check_antisym(0, "e0 -> v1\ne1 -> v1\n", h) == []
    assert checks.check_antisym(0, "e0 -> v1\ne1 -> v0\n", h)
    crowded = inputs.Hyper(2, [(0, 1)] * 5, k=1)
    assert checks.check_antisym(0, "".join(f"e{i} -> v0\n" for i in range(5)), crowded)


def test_sparsity_rejects_witness_that_does_not_violate():
    h = inputs.planted_dense_hypergraph(random.Random(1), 24, 40, 2)
    good = "ERROR NotKSparse\nwitness " + " ".join(map(inputs.vlabel, h.witness_set)) + "\n"
    assert checks.check_sparsity(1, good, h) == []
    lone = next(v for v in range(h.n) if v not in h.witness_set)
    assert checks.check_sparsity(1, f"ERROR NotKSparse\nwitness {inputs.vlabel(lone)}\n", h)
    assert checks.check_sparsity(0, "ok 2-sparse method=flow\n", h)
    sparse = inputs.planted_sparse_hypergraph(random.Random(1), 24, 40, 2)
    assert checks.check_sparsity(1, good, sparse)


def _program_report(workload, verb, tmp_path):
    rng = random.Random(f"tamper:{workload}")
    requests = workloads.ROUND_MAKERS[workload](rng, 0, tmp_path, **SMALL[workload])
    request = next(r for r in requests if r.argv[:2] == verb)
    code, text = _run(request.argv)
    return request, code, text


def test_flow_delta_rejects_wrong_defect(tmp_path):
    request, code, text = _program_report("trees-encode", ["flow", "delta"], tmp_path)
    u, v, val = text.splitlines()[0].split()
    tampered = _replace_line(text, 0, f"{u} {v} {int(val) - 1}")
    assert request.check(code, text) == []
    assert request.check(code, tampered)
    assert any("defect" in p for p in request.check(code, tampered))


def test_refine_rejects_non_injective_h0(tmp_path):
    request, code, text = _program_report("trees-encode", ["encode", "refine"], tmp_path)
    lines = text.splitlines()
    first, second = lines[1], lines[2]
    tampered = _replace_line(text, 2, second.split("->")[0] + "->" + first.split("->")[1])
    assert request.check(code, text) == []
    assert "h0 is not injective" in request.check(code, tampered)


def test_flow_paths_rejects_repeated_end(tmp_path):
    request, code, text = _program_report("trees-encode", ["flow", "paths"], tmp_path)
    lines = text.splitlines()
    tampered = text + lines[0] + "\n"
    assert request.check(code, text) == []
    assert request.check(code, tampered)


def test_dfst_rejects_broken_tree(tmp_path):
    request, code, text = _program_report("trees-encode", ["tree", "dfst"], tmp_path)
    lines = text.splitlines()
    assert request.check(code, text) == []
    assert request.check(code, "".join(x + "\n" for x in lines[:-1]))  # A-sets miss a vertex
    child = lines[1].split()
    cyclic = _replace_line(text, 0, lines[0].replace("parent=-", f"parent={child[0]}"))
    assert request.check(code, cyclic)


def test_order_and_priority_reject_tampering(tmp_path):
    request, code, text = _program_report("trees-encode", ["order", "edges"], tmp_path)
    first = text.splitlines()[0].split()
    assert request.check(code, text) == []
    assert request.check(code, _replace_line(text, 0, " ".join(first[:-1] + first[1:2])))
    request, code, text = _program_report("trees-encode", ["tree", "priority"], tmp_path)
    assert request.check(code, text) == []
    assert request.check(code, text.replace("\nL ", "\nL e999999,"))


def test_suite_rejects_dropped_case_line(tmp_path):
    request, code, text = _program_report("suites", ["suite", "lemmas"], tmp_path)
    problems, *_ = request.check(code, text)
    assert problems == []
    lines = text.splitlines()
    dropped = "".join(x + "\n" for x in lines[:1] + lines[2:])
    problems, *_ = request.check(code, dropped)
    assert problems


def test_suite_counts_fail_lines():
    text = (
        "suite lemmas seed=1 n=1 sizes=8\n"
        "case a size=8 idx=0 ok\n"
        "case b size=8 idx=0 FAIL antisymmetry fails on 2,5\n"
        "summary cases=2 failures=1\n"
    )
    assert checks.check_suite(0, text, 2) == ([], 1, {"priority_tree": 0, "antisym_bound": 0})


def test_suite_separates_known_defects():
    text = (
        "suite lemmas seed=1 n=1 sizes=8\n"
        "case priority-tree size=8 idx=0 FAIL antisymmetry fails on 2,5\n"
        "case priority-tree size=8 idx=1 FAIL downset of 8 not a chain: 2,3\n"
        "case priority-tree size=8 idx=2 FAIL targets not covered\n"
        "case priority-tree size=8 idx=3 FAIL assert boom\n"
        "case orientations size=8 idx=0 k=1 FAIL assert \n"
        "case orientations size=8 idx=0 k=2 FAIL quotient has opposite arcs\n"
        "summary cases=6 failures=6\n"
    )
    assert checks.check_suite(0, text, 6) == ([], 3, {"priority_tree": 2, "antisym_bound": 1})


# --- tracer ----------------------------------------------------------------


def test_tracer_sees_calls_through_every_binding(tmp_path):
    rng = random.Random("trace")
    requests = workloads.trees_encode(rng, 0, tmp_path, tree_sizes=(8, 8, 1),
                                      graph_sizes=(12, 12, 3))
    original = encoding.compute_delta_flow
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert encoding.compute_delta_flow is not original
        assert encoding.compute_delta_flow is flows.compute_delta_flow
        for request in requests:
            assert _run(request.argv)[0] == 0
    finally:
        tracer.uninstall()
    assert encoding.compute_delta_flow is original
    calls, self_s = tracer.self_times()
    count = dict(zip(tracer.names, calls))
    assert count["cli.run"] == len(requests)
    assert count["encoding.refine_to_injective"] == 1
    assert count["flows.compute_delta_flow"] == 2  # flow delta, encode refine
    assert count["spanning.build_dfst"] >= 1
    assert count["sparsity.is_k_sparse"] == 0
    assert all(s >= -1e-6 for s in self_s)
    assert tracer.counts["maxflow.arcs"] > 0 and tracer.counts["core.parse_bytes"] > 0
    assert min(tracer.parent) == -1 and max(tracer.request) == -1


def test_tracer_never_wraps_per_arc_helpers():
    assert not any(name.endswith("add_edge") or name.endswith("flow_on")
                   for name in tracing.SPAN_NAMES)
