from __future__ import annotations

import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from sparsehg import flows
from sparsehg.core import UndirectedGraph
from sparsehg.errors import (
    CapExceeded,
    DuplicateLabel,
    InvalidFlow,
    NotSparseDistribution,
    ParseError,
    UndeclaredVertex,
)
from sparsehg.flows import (
    Flow,
    PathFamily,
    _find_positive_cycle,
    border,
    bounds,
    cancel_cycles,
    check_delta_flow,
    compute_delta_flow,
    decompose_flow_paths,
    defect,
    distribution_sum,
    function_from_flow,
    induced_distribution,
    is_k_sparse_distribution,
    is_k_sparse_distribution_bruteforce,
    parse_distribution,
    parse_flow,
    serialize_distribution,
    serialize_flow,
    validate_path_family,
)
from sparsehg.sparsity import ORACLE_MAX_VERTICES
from sparsehg.generators import (
    random_circulation,
    random_connected_graph,
    random_graph_max_degree,
    random_sparse_distribution,
    rng_for,
)
from sparsehg.maxflow import FlowNetwork


def k2() -> UndirectedGraph:
    return UndirectedGraph(["a", "b"], [(0, 1)])


def p3() -> UndirectedGraph:
    return UndirectedGraph(["a", "b", "c"], [(0, 1), (1, 2)])


def triangle() -> UndirectedGraph:
    return UndirectedGraph(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)])


def circulation(g: UndirectedGraph) -> Flow:
    # one unit around a-b-c-a
    return Flow(g, {(0, 1): 1, (1, 2): 1, (0, 2): -1})


# --- borders and distributions ------------------------------------------------


def test_border_path():
    g = p3()
    assert border(g, [0]) == [0]
    assert border(g, [1]) == [0, 1]
    assert border(g, [0, 1]) == [1]
    assert border(g, []) == []
    assert border(g, [0, 1, 2]) == []


def test_distribution_sum():
    assert distribution_sum([2, 0, 1], [0, 2]) == 3
    assert distribution_sum([2, 0, 1], []) == 0


def test_induced_distribution():
    entries = [(frozenset(), 0), (frozenset({0}), 0), (frozenset({0, 1}), 2)]
    assert induced_distribution(entries, p3()) == [2, 0, 1]


def test_induced_distribution_rejects_foreign_vertex():
    with pytest.raises(UndeclaredVertex):
        induced_distribution([(frozenset(), 5)], p3())


# --- the Flow container -------------------------------------------------------


def test_flow_value_is_antisymmetric():
    f = Flow(triangle(), {(1, 0): 2})
    assert f.value(1, 0) == 2
    assert f.value(0, 1) == -2
    assert f.value(0, 0) == 0
    assert f.value(0, 2) == 0
    assert f.items() == [((0, 1), -2)]


def test_flow_rejects_non_edge():
    with pytest.raises(InvalidFlow):
        Flow(p3(), {(0, 2): 1})


def test_flow_mirror_values():
    f = Flow(triangle(), {(0, 1): 1, (1, 0): -1})
    assert f.items() == [((0, 1), 1)]
    with pytest.raises(InvalidFlow):
        Flow(triangle(), {(0, 1): 1, (1, 0): 1})


def test_flow_drops_zero_entries():
    assert Flow(triangle(), {(0, 1): 0}).is_zero()


def test_defect():
    f = Flow(k2(), {(0, 1): 1})
    assert defect(f) == [1, -1]
    assert defect(circulation(triangle())) == [0, 0, 0]


def test_check_delta_flow_branches():
    g = k2()
    assert check_delta_flow(Flow(g), [1, 0])
    # d_f(b) = -1 is accepted for delta(b) = 0 via the -1 branch
    assert check_delta_flow(Flow(g, {(0, 1): 1}), [2, 0])
    assert not check_delta_flow(Flow(g), [2, 0])
    assert not check_delta_flow(Flow(g, {(0, 1): 1}), [0, 0])


def test_bounds():
    assert bounds(Flow(triangle())) == (0, 0)
    assert bounds(circulation(triangle())) == (1, 2)
    assert bounds(Flow(k2(), {(0, 1): -3})) == (3, 3)


# --- sparsity of distributions -------------------------------------------------


def test_overloaded_vertex_witness():
    g = k2()
    assert is_k_sparse_distribution_bruteforce(g, [3, 0], 1) == (False, [0])
    assert is_k_sparse_distribution(g, [3, 0], 1) == (False, [0])


def test_sparse_distribution_on_path():
    g = p3()
    assert is_k_sparse_distribution_bruteforce(g, [2, 0, 1], 1) == (True, None)
    assert is_k_sparse_distribution(g, [2, 0, 1], 1) == (True, None)


def test_bruteforce_cap():
    n = 21
    g = UndirectedGraph([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    with pytest.raises(CapExceeded):
        is_k_sparse_distribution_bruteforce(g, [0] * n, 1)
    ok, witness = is_k_sparse_distribution_bruteforce(g, [0] * n, 1, cap=25)
    assert ok and witness is None


def test_bruteforce_table_memory():
    # one int32 table: about 4 bytes per subset
    n = 18
    g = UndirectedGraph([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    # the first table loads numpy: measure a later one
    is_k_sparse_distribution_bruteforce(UndirectedGraph(["a"], []), [1], 1)
    tracemalloc.start()
    try:
        assert is_k_sparse_distribution_bruteforce(g, [1] * n, 1, cap=n) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << n


def test_bruteforce_ceiling_ignores_cap(monkeypatch):
    # refused before any table exists: importing numpy would raise
    monkeypatch.setitem(sys.modules, "numpy", None)
    n = ORACLE_MAX_VERTICES + 1
    g = UndirectedGraph([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    with pytest.raises(CapExceeded, match=f"exceeds the brute-force cap {ORACLE_MAX_VERTICES}"):
        is_k_sparse_distribution_bruteforce(g, [0] * n, 1, cap=10**6)
    with pytest.raises(ValueError, match="cap must be a nonnegative integer, got -1"):
        is_k_sparse_distribution_bruteforce(g, [0] * n, 1, cap=-1)


@pytest.mark.parametrize("k", [0, -1])
def test_flow_decisions_refuse_k_below_one(monkeypatch, k):
    # refused before any work: a distribution no k could make sparse,
    # and no numpy for the oracle's table
    monkeypatch.setitem(sys.modules, "numpy", None)
    g = UndirectedGraph(["a", "b"], [(0, 1)])
    d = [5, 5]
    for decide in (compute_delta_flow, is_k_sparse_distribution,
                   is_k_sparse_distribution_bruteforce):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            decide(g, d, k)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_sparsity_routes_agree(seed):
    rng = rng_for(seed)
    g = random_connected_graph(rng, 2 + rng.randrange(7), rng.randrange(4))
    d = [rng.randrange(4) for _ in g.vertices()]
    k = 1 + rng.randrange(3)
    fast = is_k_sparse_distribution(g, d, k)
    brute = is_k_sparse_distribution_bruteforce(g, d, k)
    assert fast[0] == brute[0]
    assert brute[1] == fast[1]  # both name the least maximum-excess set
    if not fast[0]:
        z = fast[1]
        assert distribution_sum(d, z) > len(z) + k * len(border(g, z))


# --- delta-flow construction ----------------------------------------------------


def test_compute_delta_flow_single_edge():
    g = k2()
    f = compute_delta_flow(g, [2, 0], 1)
    assert f.items() == [((0, 1), 1)]
    assert check_delta_flow(f, [2, 0])
    assert bounds(f) == (1, 1)


def test_compute_delta_flow_not_sparse():
    with pytest.raises(NotSparseDistribution) as excinfo:
        compute_delta_flow(k2(), [3, 0], 1)
    assert excinfo.value.witness == [0]


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_delta_flow_properties(seed):
    rng = rng_for(seed)
    g = random_connected_graph(rng, 2 + rng.randrange(9), rng.randrange(5))
    k = 1 + rng.randrange(3)
    d = random_sparse_distribution(rng, g, k)
    f = compute_delta_flow(g, d, k)
    assert check_delta_flow(f, d)
    edge_bound, vertex_bound = bounds(f)
    assert edge_bound <= k
    max_degree = max(g.degree(v) for v in g.vertices())
    assert vertex_bound <= max_degree * k


# --- the distribution generator ----------------------------------------------


def fresh_solve_distribution(rng, g: UndirectedGraph, k: int) -> list[int]:
    """Reference rule for random_sparse_distribution: solve a new delta
    network for every increment and roll back the ones it rejects."""
    n = g.num_vertices
    d = [0] * n
    for _ in range(2 * n):
        v = rng.randrange(n)
        d[v] += 1
        if not is_k_sparse_distribution(g, d, k)[0]:
            d[v] -= 1
    return d


def generator_graph(family: str, seed: int) -> UndirectedGraph:
    rng = rng_for(seed, 71)
    n = 1 + rng.randrange(40)
    if family == "connected":
        return random_connected_graph(rng, n, rng.randrange(n))
    if family == "max-degree":  # often disconnected
        return random_graph_max_degree(rng, n, 1 + rng.randrange(4))
    if family == "single":
        return UndirectedGraph(["v0"], [])
    return UndirectedGraph([f"v{i}" for i in range(n)], [])  # edgeless


@pytest.mark.parametrize(
    "family,seeds",
    [("connected", 100), ("max-degree", 100), ("single", 3), ("edgeless", 12)],
)
def test_sparse_distribution_matches_fresh_solves(family, seeds):
    for seed in range(seeds):
        g = generator_graph(family, seed)
        k = 1 + seed % 3
        rng, reference_rng = rng_for(seed, 72), rng_for(seed, 72)
        d = random_sparse_distribution(rng, g, k)
        assert d == fresh_solve_distribution(reference_rng, g, k)
        assert rng.random() == reference_rng.random()


@pytest.mark.parametrize("seed", range(20))
def test_route_increment_keeps_the_network_of_d(seed):
    # after every decision the residual capacities are those of d's
    # network under a flow that saturates every source arc, and a
    # rejected increment leaves every capacity as it was
    g = generator_graph("connected", seed)
    n, k = g.num_vertices, 1 + seed % 3
    d = [0] * n
    net = flows._solve_delta_network(g, d, k)[0]
    rng = rng_for(seed, 73)
    for _ in range(2 * n):
        v = rng.randrange(n)
        before = list(net.cap)
        if flows._route_increment(net, d, v):
            d[v] += 1
        else:
            assert net.cap == before
        for w in range(n):
            assert net.cap[2 * w : 2 * w + 2] == [0, max(0, d[w] - 1)]
            sink_arc = net.cap[2 * (n + w) : 2 * (n + w) + 2]
            assert sum(sink_arc) == (1 if d[w] == 0 else 0)


@pytest.mark.parametrize("n", [10, 200])
def test_sparse_distribution_solves_one_network(n, monkeypatch):
    # one network for the zero demands and one for the final assertion,
    # whatever n; every later max_flow on the first routes one increment
    # and adds at most one unit
    networks, added = [], []
    build, solve = FlowNetwork.__init__, FlowNetwork.max_flow
    monkeypatch.setattr(
        FlowNetwork, "__init__", lambda net, size: networks.append(net) or build(net, size)
    )
    monkeypatch.setattr(
        FlowNetwork, "max_flow",
        lambda net, s, t: added.append((net, solve(net, s, t))) or added[-1][1],
    )
    g = random_connected_graph(rng_for(7, n), n, n)
    random_sparse_distribution(rng_for(8, n), g, 2)
    assert len(networks) == 2
    routing = [value for net, value in added[1:] if net is networks[0]]
    assert len(routing) == len(added) - 2 > 0
    assert all(value in (0, 1) for value in routing)


# --- cycle cancelling ------------------------------------------------------------


def test_cancel_cycles_triangle():
    f = circulation(triangle())
    cancelled = cancel_cycles(f)
    assert cancelled.is_zero()
    assert defect(cancelled) == defect(f)


def test_cancel_cycles_keeps_acyclic_flow():
    f = Flow(p3(), {(0, 1): 2, (1, 2): 1})
    assert cancel_cycles(f).items() == f.items()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_cancel_cycles_properties(seed):
    rng = rng_for(seed)
    g = random_connected_graph(rng, 3 + rng.randrange(8), 1 + rng.randrange(5))
    f = random_circulation(rng, g, rng.randrange(1, 4))
    cancelled = cancel_cycles(f)
    assert defect(cancelled) == defect(f)
    old = bounds(f)
    new = bounds(cancelled)
    assert new[0] <= old[0] and new[1] <= old[1]
    # a circulation has defect zero everywhere, so nothing may remain
    assert cancelled.is_zero()


def reference_find_positive_cycle(f: Flow):
    """The replaced least-id depth-first search for a cycle of
    positive-flow arcs."""
    g = f.graph
    color = {v: 0 for v in g.vertices()}  # 0 white, 1 on stack, 2 done
    for start in g.vertices():
        if color[start] != 0:
            continue
        stack = [(start, iter(g.adjacency[start]))]
        color[start] = 1
        on_path = [start]
        while stack:
            u, it = stack[-1]
            advanced = False
            for w in it:
                if f.value(u, w) <= 0:
                    continue
                if color[w] == 1:
                    return on_path[on_path.index(w) :]
                if color[w] == 0:
                    color[w] = 1
                    on_path.append(w)
                    stack.append((w, iter(g.adjacency[w])))
                    advanced = True
                    break
            if not advanced:
                color[u] = 2
                on_path.pop()
                stack.pop()
    return None


def reference_cancel_cycles(f: Flow) -> Flow:
    """The replaced rule: restart the least-id search for a positive
    cycle after every cancellation, on a fresh copy of the flow."""
    values = {key: val for key, val in f.items()}
    current = Flow(f.graph, values)
    while True:
        cycle = reference_find_positive_cycle(current)
        if cycle is None:
            break
        closed = cycle + [cycle[0]]
        c = min(
            current.value(closed[i], closed[i + 1])
            for i in range(len(cycle))
        )
        assert c > 0
        updates = dict(current.items())
        for i in range(len(cycle)):
            u, v = closed[i], closed[i + 1]
            key, sign = ((u, v), 1) if u < v else ((v, u), -1)
            updates[key] = updates.get(key, 0) - sign * c
        current = Flow(f.graph, updates)
    return current


def reference_decompose_flow_paths(g: UndirectedGraph, f: Flow, d) -> PathFamily:
    """The replaced rule: every step rescans the vertex's arcs from the
    first one."""
    n = g.num_vertices
    beta = [0] * n
    mu: dict[tuple[int, int], int] = {}
    paths = []
    for v in range(n):
        for _ in range(d[v]):
            path = [v]
            u = v
            while beta[u] != 0:
                nxt = None
                for w in g.adjacency[u]:
                    if f.value(u, w) > mu.get((u, w), 0):
                        nxt = w
                        break
                assert nxt is not None, "path cannot continue"
                mu[(u, nxt)] = mu.get((u, nxt), 0) + 1
                assert nxt not in path, "path revisits a vertex"
                path.append(nxt)
                u = nxt
            beta[u] = 1
            paths.append(tuple(path))
    return PathFamily(tuple(paths), mu)


def pipeline_mix(seed: int):
    """A graph, a k-sparse distribution and its delta-flow plus random
    circulations, as ``suite pipeline`` mixes them."""
    rng = rng_for(seed, 81)
    n = 2 + rng.randrange(24)
    g = random_connected_graph(rng, n, rng.randrange(n + 1))
    k = 1 + rng.randrange(3)
    d = random_sparse_distribution(rng, g, k)
    f = compute_delta_flow(g, d, k)
    circ = random_circulation(rng, g, rng.randrange(n // 10 + 3))
    keys = set(dict(f.items())) | set(dict(circ.items()))
    return g, d, Flow(g, {key: f.value(*key) + circ.value(*key) for key in keys})


def random_signed_flow(seed: int) -> Flow:
    """Values in -3..3 on a random graph, connected or not."""
    rng = rng_for(seed, 82)
    n = 1 + rng.randrange(25)
    if rng.randrange(2):
        g = random_connected_graph(rng, n, rng.randrange(2 * n + 1))
    else:
        g = random_graph_max_degree(rng, n, 1 + rng.randrange(5))
    return Flow(g, {edge: rng.randrange(-3, 4) for edge in g.edges})


@pytest.mark.parametrize("block", range(4))
def test_cancel_cycles_and_decomposition_match_reference_on_pipeline_mixes(block):
    for seed in range(500 * block, 500 * (block + 1)):
        g, d, mixed = pipeline_mix(seed)
        assert _find_positive_cycle(mixed) == reference_find_positive_cycle(mixed), seed
        cancelled = cancel_cycles(mixed)
        assert cancelled.items() == reference_cancel_cycles(mixed).items(), seed
        family = decompose_flow_paths(g, cancelled, d)
        want = reference_decompose_flow_paths(g, cancelled, d)
        assert (family.paths, family.usage) == (want.paths, want.usage), seed


@pytest.mark.parametrize("block", range(4))
def test_cycle_search_and_cancelling_match_reference_on_signed_flows(block):
    for seed in range(500 * block, 500 * (block + 1)):
        f = random_signed_flow(seed)
        assert _find_positive_cycle(f) == reference_find_positive_cycle(f), seed
        assert cancel_cycles(f).items() == reference_cancel_cycles(f).items(), seed


# --- path decomposition -----------------------------------------------------------


def test_decompose_single_edge():
    g = k2()
    family = decompose_flow_paths(g, Flow(g, {(0, 1): 1}), [2, 0])
    assert family.paths == ((0,), (0, 1))
    assert family.usage == {(0, 1): 1}
    assert family.start_counts(2) == [2, 0]
    assert family.end_counts(2) == [1, 1]
    assert not validate_path_family(g, family, 1)
    assert validate_path_family(g, family, 2)


def test_decompose_identity():
    g = triangle()
    family = decompose_flow_paths(g, Flow(g), [1, 1, 1])
    assert family.paths == ((0,), (1,), (2,))
    assert validate_path_family(g, family, 1)


def test_decompose_rejects_bad_inputs():
    g = triangle()
    with pytest.raises(InvalidFlow, match="delta-flow"):
        decompose_flow_paths(g, Flow(g), [2, 0, 0])
    with pytest.raises(InvalidFlow, match="cycle"):
        decompose_flow_paths(g, circulation(g), [1, 1, 1])


def test_function_from_flow_single_edge():
    g = k2()
    gmap = function_from_flow(g, [2, 0], Flow(g, {(0, 1): 1}))
    assert gmap == {0: 0, 1: 0}


def test_function_from_flow_rejects_a_non_delta_flow():
    g = triangle()
    with pytest.raises(InvalidFlow, match="delta-flow"):
        function_from_flow(g, [2, 0, 0], Flow(g))


def test_function_from_flow_cancels_first():
    g = triangle()
    gmap = function_from_flow(g, [1, 1, 1], circulation(g))
    assert gmap == {0: 0, 1: 1, 2: 2}


def test_function_from_flow_searches_no_cycle(monkeypatch):
    # cancel_cycles leaves no cycle, so only the public entry searches
    g = triangle()
    with monkeypatch.context() as patched:
        patched.setattr(flows, "_find_positive_cycle", lambda f: pytest.fail("searched"))
        assert function_from_flow(g, [1, 1, 1], circulation(g)) == {0: 0, 1: 1, 2: 2}
    with pytest.raises(InvalidFlow, match="cycle"):
        decompose_flow_paths(g, circulation(g), [1, 1, 1])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_flow_pipeline_properties(seed):
    rng = rng_for(seed)
    g = random_connected_graph(rng, 2 + rng.randrange(9), rng.randrange(5))
    k = 1 + rng.randrange(3)
    d = random_sparse_distribution(rng, g, k)
    f = compute_delta_flow(g, d, k)
    gmap = function_from_flow(g, d, f)
    counts = [0] * g.num_vertices
    for v in gmap.values():
        counts[v] += 1
    assert counts == d
    # ends are vertices, each used once
    assert len(gmap) == len(set(gmap))


# --- file formats -------------------------------------------------------------------


def test_parse_distribution():
    g = p3()
    assert parse_distribution("a 2\nc 1\n", g) == [2, 0, 1]
    assert parse_distribution("# comment\n\n", g) == [0, 0, 0]


def test_parse_distribution_errors():
    g = p3()
    with pytest.raises(UndeclaredVertex, match="line 1"):
        parse_distribution("z 1\n", g)
    with pytest.raises(DuplicateLabel, match="line 2"):
        parse_distribution("a 1\na 2\n", g)
    with pytest.raises(ParseError, match="nonnegative"):
        parse_distribution("a -1\n", g)
    with pytest.raises(ParseError, match="nonnegative"):
        parse_distribution("a x\n", g)
    with pytest.raises(ParseError):
        parse_distribution("a\n", g)


def test_distribution_round_trip():
    g = p3()
    text = serialize_distribution([2, 0, 1], g)
    assert text == "a 2\nc 1\n"
    assert parse_distribution(text, g) == [2, 0, 1]


def test_parse_flow():
    g = p3()
    f = parse_flow("a b 1\nc b 2\n", g)
    assert f.value(0, 1) == 1
    assert f.value(2, 1) == 2
    # a reversed pair with a negated value is the same flow
    assert parse_flow("b a -1\n", g).items() == parse_flow("a b 1\n", g).items()


def test_parse_flow_errors():
    g = p3()
    with pytest.raises(ParseError, match="not an edge"):
        parse_flow("a c 1\n", g)
    with pytest.raises(ParseError, match="twice"):
        parse_flow("a b 1\nb a -1\n", g)
    with pytest.raises(UndeclaredVertex, match="line 1"):
        parse_flow("a z 1\n", g)
    with pytest.raises(ParseError, match="integer"):
        parse_flow("a b x\n", g)
    with pytest.raises(ParseError):
        parse_flow("a b\n", g)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_flow_round_trip(seed):
    rng = rng_for(seed)
    g = random_connected_graph(rng, 2 + rng.randrange(8), rng.randrange(6))
    values = {
        edge: rng.randrange(-3, 4)
        for edge in g.edges
        if rng.randrange(2)
    }
    f = Flow(g, values)
    assert parse_flow(serialize_flow(f), g).items() == f.items()
    # total defect balances to zero
    assert sum(defect(f)) == 0
