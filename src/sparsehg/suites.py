"""Seeded verification suites.

Each suite generates random instances from a 64-bit seed, checks a
family of properties and reports one line per case.  Failures are
report content, not exceptions: the command line exits 0 either way
and reruns with the same seed must produce byte-identical text.
"""

from __future__ import annotations

from .core import preimage_counts
from .encoding import refine_to_injective, verify_encoding
from .errors import CapExceeded, NotKSparse
from .flows import (
    Flow, bounds, cancel_cycles, check_delta_flow, compute_delta_flow,
    decompose_flow_paths, defect, function_from_flow, is_k_sparse_distribution,
    is_k_sparse_distribution_bruteforce, _find_positive_cycle,
)
from .generators import (
    random_circulation, random_connected_graph, random_connected_hypergraph,
    random_graph_max_degree, random_hypergraph, random_set_function,
    random_sparse_distribution, rng_for, sample,
)
from .sparsity import (
    antisymmetric_orientation, bounded_orientation, directed_quotient, is_k_sparse,
    is_k_sparse_bruteforce,
)
from .spanning import (
    aux_order, build_dfst, build_priority_tree, dfst_orientation, edge_order,
    priority_tree_linear_order, tree_order_violations, validate_dfst,
    validate_priority_tree,
)

DEFAULT_SIZES = {
    "oracle": (6, 8, 10, 12),
    "lemmas": (8, 14, 20),
    "pipeline": (8, 12, 16),
}

KS = (1, 2, 3)

BRUTE_CAP = 20

# Largest vertex count a suite accepts.  One instance's tracemalloc peak
# grows as size^2 (the generators list every vertex pair): 7.1 MiB at
# size 400 and 31 MiB at 800 for lemmas and pipeline, so about 200 MiB
# at 2,000.
SUITE_MAX_SIZE = 2000

# Most instances per size a suite accepts.  The report holds one line
# per case; at the default sizes --n 1000 took 40 s (lemmas) and 44 s
# (oracle) for 24,002 lines, with a tracemalloc peak of 3.4 and 8.9 MiB.
SUITE_MAX_N = 1000


def check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    if n > SUITE_MAX_N:
        raise CapExceeded(f"n {n} exceeds the suite ceiling {SUITE_MAX_N}")


def parse_sizes(text, suite: str):
    if text is None:
        return list(DEFAULT_SIZES[suite])
    text = text.strip()
    if not text:
        return []
    sizes = [int(part) for part in text.split(",")]
    if min(sizes) < 1:
        raise ValueError(f"sizes must be positive integers, got {min(sizes)}")
    if max(sizes) > SUITE_MAX_SIZE:
        raise CapExceeded(f"size {max(sizes)} exceeds the suite ceiling {SUITE_MAX_SIZE}")
    return sizes


def run_suite(name: str, seed: int, n: int, sizes) -> list[str]:
    runner = {
        "oracle": _oracle_cases,
        "lemmas": _lemmas_cases,
        "pipeline": _pipeline_cases,
    }[name]
    lines = [
        f"suite {name} seed={seed} n={n} sizes={','.join(str(s) for s in sizes)}"
    ]
    cases = 0
    failures = 0
    for case_line in runner(seed, n, sizes):
        cases += 1
        if not case_line.endswith(" ok"):
            failures += 1
        lines.append(case_line)
    lines.append(f"summary cases={cases} failures={failures}")
    return lines


def _case(name: str, size: int, idx: int, k, verdict: str) -> str:
    ktext = f" k={k}" if k is not None else ""
    return f"case {name} size={size} idx={idx}{ktext} {verdict}"


def _verdict(check) -> str:
    """Run a boolean check, turning assertion failures and violation
    lists into FAIL text instead of a crash."""
    try:
        result = check()
    except AssertionError as exc:
        return f"FAIL assert {exc}"
    if result is True:
        return "ok"
    if result is False:
        return "FAIL"
    return f"FAIL {result}"


def _oracle_cases(seed: int, n: int, sizes):
    for size in sizes:
        if size > BRUTE_CAP:
            continue  # brute-force oracle cannot confirm larger sizes
        for idx in range(n):
            rng = rng_for(seed, 1, size, idx)
            h = random_hypergraph(
                rng, size, min(4, size), rng.randrange(1, 3 * size + 1)
            )
            for k in KS:
                verdict = _verdict(
                    lambda: is_k_sparse_bruteforce(h, k).is_sparse
                    == is_k_sparse(h, k).is_sparse
                )
                yield _case("sparsity-agreement", size, idx, k, verdict)
            g = random_connected_graph(rng, size, rng.randrange(0, size))
            for k in KS:
                d = random_sparse_distribution(rng, g, k)
                bumped = list(d)
                bumped[rng.randrange(size)] += k * size + 1

                def agree(dist=d, b=bumped, kk=k):
                    return (
                        is_k_sparse_distribution_bruteforce(g, dist, kk)[0]
                        == is_k_sparse_distribution(g, dist, kk)[0]
                        and is_k_sparse_distribution_bruteforce(g, b, kk)[0]
                        == is_k_sparse_distribution(g, b, kk)[0]
                    )

                yield _case(
                    "distribution-agreement", size, idx, k, _verdict(agree)
                )


def _lemmas_cases(seed: int, n: int, sizes):
    for size in sizes:
        for idx in range(n):
            rng = rng_for(seed, 2, size, idx)
            for k in KS:
                g = random_graph_max_degree(rng, size, 2 * k)
                verdict = _verdict(lambda: is_k_sparse(g, k).is_sparse)
                yield _case("degree-2k-sparse", size, idx, k, verdict)
            h = random_hypergraph(
                rng, size, min(4, size), rng.randrange(1, 2 * size + 1)
            )
            for k in KS:
                yield _case(
                    "orientations", size, idx, k,
                    _verdict(lambda: _orientation_check(h, k)),
                )
            hc = random_connected_hypergraph(
                rng, size, 4, rng.randrange(0, size)
            )
            root = rng.randrange(size)
            yield _case(
                "dfst-valid", size, idx, None,
                _verdict(lambda: _dfst_check(hc, root)),
            )
            targets = sorted(
                set(sample(rng, range(hc.num_edges), rng.randrange(1, 4)))
            )
            if targets:  # a single vertex has no edges to target
                yield _case(
                    "priority-tree", size, idx, None,
                    _verdict(lambda: _priority_tree_check(hc, root, targets)),
                )


def _orientation_check(h, k):
    try:
        f = bounded_orientation(h, k)
    except NotKSparse:
        return True  # nothing to orient
    if max(preimage_counts(f), default=0) > k:
        return "bounded orientation exceeds k"
    if h.rank() >= 2:
        g2 = antisymmetric_orientation(h, k)
        if max(preimage_counts(g2), default=0) > h.rank() * k:
            return "antisymmetric orientation exceeds rank*k"
        if not directed_quotient(g2).is_antisymmetric():
            return "quotient has opposite arcs"
    return True


def _dfst_check(hc, root):
    tree = build_dfst(hc, root)
    problems = validate_dfst(hc, tree)
    if problems:
        return problems[0]
    order = aux_order(tree)
    for ei in range(hc.num_edges):
        members = hc.edges[ei]
        if not all(
            order.comparable(u, v) for u in members for v in members
        ):
            return f"edge {ei} not linearly ordered"
    dfst_orientation(hc)
    return True


def _priority_tree_check(hc, root, targets):
    t = build_priority_tree(hc, root, targets)
    problems = validate_priority_tree(hc, t)
    if problems:
        return problems[0]
    if not all(set(hc.edges[e]) <= t.nodes for e in targets):
        return "targets not covered"
    if not set(t.leaf_edges) <= set(targets):
        return "leaves outside l0"
    violations = tree_order_violations(edge_order(t))
    if violations:
        return violations[0]
    if not priority_tree_linear_order(t).is_total():
        return "linear order not total"
    return True


def _pipeline_cases(seed: int, n: int, sizes):
    for size in sizes:
        for idx in range(n):
            rng = rng_for(seed, 3, size, idx)
            g = random_connected_graph(rng, size, rng.randrange(0, size))
            k = KS[idx % len(KS)]
            d = random_sparse_distribution(rng, g, k)
            circ_count = rng.randrange(0, 3)
            yield _case(
                "flow-pipeline", size, idx, k,
                _verdict(lambda: _flow_pipeline_check(rng, g, d, k, circ_count)),
            )
            h = random_set_function(rng, g, k)
            yield _case(
                "set-encoding", size, idx, k,
                _verdict(lambda: verify_encoding(*_refine(g, h, k))),
            )


def _refine(g, h, k):
    h0, gmap = refine_to_injective(g, h, k)
    return h, h0, gmap


def _flow_pipeline_check(rng, g, d, k, circ_count):
    size = g.num_vertices
    f = compute_delta_flow(g, d, k)
    if not check_delta_flow(f, d) or bounds(f)[0] > k:
        return "delta flow violates its contract"
    circ = random_circulation(rng, g, circ_count)
    keys = set(dict(f.items())) | set(dict(circ.items()))
    mixed = Flow(g, {key: f.value(*key) + circ.value(*key) for key in keys})
    cancelled = cancel_cycles(mixed)
    if defect(cancelled) != defect(mixed):
        return "cycle canceling changed the defect"
    if _find_positive_cycle(cancelled) is not None:
        return "cycle survives canceling"
    family = decompose_flow_paths(g, cancelled, d, _acyclic=True)
    if family.start_counts(size) != list(d):
        return "start counts do not match delta"
    gmap = function_from_flow(g, d, mixed)
    counts = [0] * size
    for v in gmap.values():
        counts[v] += 1
    if counts != list(d):
        return "gmap preimages do not match delta"
    return True
