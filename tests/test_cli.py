from __future__ import annotations

import io

import pytest

from sparsehg import flows, sparsity, suites
from sparsehg.cli import run
from sparsehg.maxflow import FlowNetwork
from test_golden import GOLDEN, help_snapshot


TRIANGLE = "v a\nv b\nv c\ne ab a b\ne bc b c\ne ac a c\n"
SINGLE_EDGE = "v a\nv b\nv c\ne abc a b c\n"
K2 = "v a\nv b\ne ab a b\n"
TRIPLE = "v a\nv b\ne e1 a b\ne e2 a b\ne e3 a b\n"
PATH4 = "v a\nv b\nv c\nv d\ne e0 a b\ne e1 b c\ne e2 c d\n"
DAG = "v a\nv b\nv c\na a b\na a c\na b c\n"


def cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


@pytest.fixture
def files(tmp_path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


# --- exit codes and error reports ----------------------------------------------


def test_sparsity_check_ok(files):
    code, text = cli("sparsity", "check", files("t.hg", TRIANGLE), "--k", "1")
    assert code == 0
    assert text == "ok 1-sparse method=flow\n"


def test_sparsity_check_oracle(files):
    code, text = cli(
        "sparsity", "check", files("t.hg", TRIANGLE), "--k", "1", "--oracle"
    )
    assert code == 0
    assert text == "ok 1-sparse method=bruteforce\n"


def test_sparsity_check_witness(files):
    code, text = cli(
        "sparsity", "check", files("t.hg", TRIPLE), "--k", "1", "--oracle"
    )
    assert code == 1
    assert text == "ERROR NotKSparse\nwitness a b\n"


def test_missing_file():
    code, text = cli("sparsity", "check", "/nonexistent.hg", "--k", "1")
    assert code == 2
    assert text.startswith("ERROR IO\n")


def test_help_text_is_pinned():
    # argparse prints help and usage errors outside the report, so the
    # golden corpus pins them in one snapshot of every parser
    assert help_snapshot() == (GOLDEN / "help.txt").read_text(encoding="utf-8")


def test_malformed_input(files):
    code, text = cli(
        "sparsity", "check", files("bad.hg", "v a\nv a\n"), "--k", "1"
    )
    assert code == 2
    assert text.startswith("ERROR DuplicateLabel\n")
    assert "line 2" in text


def test_oracle_cap_has_a_ceiling(files):
    # 40 vertices would need 2^40-entry tables; refused before any work
    text = "".join(f"v v{i}\n" for i in range(40))
    code, report = cli(
        "sparsity", "check", files("big.hg", text), "--k", "1", "--oracle", "--cap", "40"
    )
    assert code == 1
    assert report == "ERROR CapExceeded\ndetail 40 vertices exceeds the brute-force cap 25\n"


def test_bad_k(files):
    code, text = cli("sparsity", "check", files("t.hg", TRIANGLE), "--k", "0")
    assert code == 2
    assert text.startswith("ERROR Usage\n")


def test_unknown_verb():
    code, _ = cli("sparsity", "frobnicate")
    assert code == 2


def test_no_arguments():
    code, _ = cli()
    assert code == 2


def test_output_flag(files, tmp_path):
    report = tmp_path / "report.txt"
    code, text = cli(
        "sparsity",
        "check",
        files("t.hg", TRIANGLE),
        "--k",
        "1",
        "--output",
        str(report),
    )
    assert code == 0
    assert text == ""
    assert report.read_text() == "ok 1-sparse method=flow\n"


@pytest.mark.parametrize(
    "where",
    [pytest.param("missing/report.txt", id="missing-directory"),
     pytest.param(".", id="a-directory")],
)
def test_unwritable_output_is_an_io_error(files, tmp_path, where):
    report = tmp_path / where
    code, text = cli(
        "sparsity", "check", files("t.hg", TRIANGLE), "--k", "1", "--output", str(report)
    )
    assert code == 2
    assert text.startswith("ERROR IO\ndetail [Errno ")
    assert text.endswith(f"{str(report)!r}\n")


# --- orientations -----------------------------------------------------------------


def test_orient_bounded(files):
    code, text = cli("orient", "bounded", files("t.hg", TRIANGLE), "--k", "1")
    assert code == 0
    assert text == "ab -> a\nbc -> b\nac -> c\n"


def test_orient_bounded_not_sparse(files):
    code, text = cli("orient", "bounded", files("t.hg", TRIPLE), "--k", "1")
    assert code == 1
    assert text == "ERROR NotKSparse\nwitness a b\n"


def test_orient_antisym(files):
    # all degrees are 2, so a goes first and takes ab and ac; then b
    # and c both have degree 1, and b, the lesser, takes bc
    code, text = cli("orient", "antisym", files("t.hg", TRIANGLE), "--k", "1")
    assert code == 0
    assert text == "ab -> a\nbc -> b\nac -> a\n"


def test_orient_antisym_elimination_fallback(files):
    # elimination by least remaining degree removes v4, v5, v3, v1, v0
    # in turn and each takes its surviving edges; no preimage exceeds
    # rank*k = 4 although v0 lies on every edge
    hg = "".join(f"v v{i}\n" for i in range(7)) + (
        "e 0 v0 v1 v2\ne 1 v0 v1 v6\ne 2 v0 v2 v3 v6\n"
        "e 3 v0 v1 v3 v6\ne 4 v0 v2 v4 v5\ne 5 v0 v2 v6\n"
    )
    code, text = cli("orient", "antisym", files("c.hg", hg), "--k", "1")
    assert code == 0
    assert text == "0 -> v1\n1 -> v1\n2 -> v3\n3 -> v3\n4 -> v4\n5 -> v0\n"


def test_orient_hom(files):
    code, text = cli(
        "orient",
        "hom",
        files("k2.hg", K2),
        "--k",
        "1",
        "--target",
        files("xy.dg", "v x\nv y\na x y\n"),
    )
    assert code == 0
    assert text == "a -> y\nb -> x\n"


def test_orient_hom_search_budget(files, monkeypatch):
    # past its node budget the search is refused, not run on
    monkeypatch.setattr(sparsity, "HOM_SEARCH_BUDGET", 1)
    code, text = cli(
        "orient",
        "hom",
        files("k2.hg", K2),
        "--k",
        "1",
        "--target",
        files("xy.dg", "v x\nv y\na x y\n"),
    )
    assert code == 1
    assert text == "ERROR CapExceeded\ndetail more than 1 search nodes\n"


def test_orient_hom_impossible(files):
    code, text = cli(
        "orient",
        "hom",
        files("t.hg", TRIANGLE),
        "--k",
        "1",
        "--target",
        files("xy.dg", "v x\nv y\na x y\n"),
    )
    assert code == 1
    assert text.startswith("ERROR NoHomomorphism\n")


# --- spanning structures -------------------------------------------------------------


def test_tree_dfst_single_edge(files):
    code, text = cli("tree", "dfst", files("s.hg", SINGLE_EDGE))
    assert code == 0
    assert text == (
        "a parent=- type=root0 F=- A=a\n"
        "b parent=a type=succ0 F=abc A=b,c\n"
    )


def test_tree_dfst_triangle(files):
    code, text = cli("tree", "dfst", files("t.hg", TRIANGLE))
    assert code == 0
    assert text == (
        "a parent=- type=root0 F=- A=a\n"
        "b parent=a type=succ0 F=ab A=b\n"
        "c parent=b type=succ1 F=bc A=c\n"
    )


def test_tree_dfst_root_flag(files):
    code, text = cli("tree", "dfst", files("t.hg", TRIANGLE), "--root", "b")
    assert code == 0
    assert text.splitlines()[0] == "b parent=- type=root0 F=- A=b"


def test_tree_dfst_unknown_root(files):
    code, text = cli("tree", "dfst", files("t.hg", TRIANGLE), "--root", "z")
    assert code == 2
    assert text.startswith("ERROR UndeclaredVertex\n")


def test_tree_priority(files):
    code, text = cli(
        "tree", "priority", files("p.hg", PATH4), "--leaves", "e2"
    )
    assert code == 0
    assert text == "glued e0,e1,e2 class 0\nP0 a b c d\nL e2\n"


# --- derived orders ---------------------------------------------------------------------


def test_order_edges(files):
    code, text = cli("order", "edges", files("t.hg", TRIANGLE))
    assert code == 0
    assert text == "ab a b\nbc b c\nac a c\n"


def test_order_neighbourhoods(files):
    code, text = cli("order", "neighbourhoods", files("d.dg", DAG))
    assert code == 0
    assert text == "a\nb a\nc a b\n"


# --- flows ------------------------------------------------------------------------------


def test_flow_delta(files):
    code, text = cli(
        "flow",
        "delta",
        files("k2.hg", K2),
        "--k",
        "1",
        "--dist",
        files("d.txt", "a 2\n"),
    )
    assert code == 0
    assert text == "a b 1\n"


def test_flow_delta_not_sparse(files):
    code, text = cli(
        "flow",
        "delta",
        files("k2.hg", K2),
        "--k",
        "1",
        "--dist",
        files("d.txt", "a 3\n"),
    )
    assert code == 1
    assert text == "ERROR NotSparseDistribution\nwitness a\n"


def test_flow_delta_requires_graph(files):
    code, text = cli(
        "flow",
        "delta",
        files("s.hg", SINGLE_EDGE),
        "--k",
        "1",
        "--dist",
        files("d.txt", "a 1\n"),
    )
    assert code == 1
    assert text.startswith("ERROR NotAGraph\n")


def test_flow_paths(files):
    code, text = cli(
        "flow",
        "paths",
        files("k2.hg", K2),
        "--dist",
        files("d.txt", "a 2\n"),
    )
    assert code == 0
    assert text == "path a\npath a b\n"


def test_flow_paths_cancels_given_flow(files):
    code, text = cli(
        "flow",
        "paths",
        files("t.hg", TRIANGLE),
        "--dist",
        files("d.txt", "a 1\nb 1\nc 1\n"),
        "--flow",
        files("f.txt", "a b 1\nb c 1\na c -1\n"),
    )
    assert code == 0
    assert text == "path a\npath b\npath c\n"


def test_flow_paths_searches_no_cycle_after_cancelling(monkeypatch):
    # cancel_cycles leaves no cycle, so the decomposition looks for none
    calls = []
    search = flows._find_positive_cycle
    monkeypatch.setattr(flows, "_find_positive_cycle", lambda f: calls.append(1) or search(f))
    code, text = cli("flow", "paths", str(GOLDEN / "graph.hg"), "--dist",
                     str(GOLDEN / "dist.txt"), "--flow", str(GOLDEN / "flow.txt"))
    assert f"exit {code}\n{text}" == (GOLDEN / "expected" / "flow-paths-given.txt").read_text()
    assert calls == []


def test_flow_check_ok(files):
    code, text = cli(
        "flow",
        "check",
        files("k2.hg", K2),
        "--dist",
        files("d.txt", "a 2\n"),
        "--flow",
        files("f.txt", "a b 1\n"),
    )
    assert code == 0
    assert text == "ok delta-flow\nedge-bound 1\nvertex-bound 1\n"


def test_flow_check_invalid(files):
    code, text = cli(
        "flow",
        "check",
        files("k2.hg", K2),
        "--dist",
        files("d.txt", "a 1\n"),
        "--flow",
        files("f.txt", "a b 1\n"),
    )
    assert code == 1
    assert text.startswith("ERROR InvalidFlow\n")


# the sparse decisions that a greedy 1-bounded orientation settles with
# no solve; SPLIT is 1-sparse but defeats it (e0 goes to a, e1 to c,
# and then both members of e2 are full), so it takes the one solve
SETTLED = {("sparsity", "check", "GRAPH", "--k", "1"), ("orient", "antisym", "GRAPH", "--k", "1")}


@pytest.mark.parametrize(
    "argv,exit_code",
    [
        (("flow", "delta", "GRAPH", "--k", "1", "--dist", "DIST"), 0),
        (("flow", "delta", "GRAPH", "--k", "1", "--dist", "BAD"), 1),
        (("encode", "refine", "GRAPH", "--k", "1", "--sets", "SETS"), 0),
        (("sparsity", "check", "GRAPH", "--k", "1"), 0),
        (("sparsity", "check", "TRIPLE", "--k", "1"), 1),
        (("orient", "bounded", "GRAPH", "--k", "1"), 0),
        (("orient", "bounded", "TRIPLE", "--k", "1"), 1),
        (("orient", "antisym", "GRAPH", "--k", "1"), 0),
        (("orient", "antisym", "TRIPLE", "--k", "1"), 1),
        (("sparsity", "check", "SPLIT", "--k", "1"), 0),
        (("orient", "antisym", "SPLIT", "--k", "1"), 0),
    ],
)
def test_one_max_flow_per_decision(files, monkeypatch, argv, exit_code):
    # the sparsity decision and the flow or orientation come from the
    # same solve, or from none when a greedy orientation settles it
    calls = []
    solve = FlowNetwork.max_flow
    monkeypatch.setattr(
        FlowNetwork, "max_flow", lambda net, s, t: calls.append(1) or solve(net, s, t)
    )
    paths = {
        "GRAPH": files("p.hg", PATH4),
        "DIST": files("d.txt", "a 2\nc 1\n"),
        "BAD": files("b.txt", "a 3\nb 3\n"),
        "SETS": files("s.txt", "a -> a\na,b -> a\n"),
        "TRIPLE": files("t.hg", TRIPLE),
        "SPLIT": files("s.hg", "v a\nv b\nv c\nv d\ne e0 a b\ne e1 c d\ne e2 a c\n"),
    }
    code, _ = cli(*(paths.get(arg, arg) for arg in argv))
    assert code == exit_code
    assert len(calls) == (0 if argv in SETTLED else 1)


# --- encodings ---------------------------------------------------------------------------


def test_encode_refine(files):
    code, text = cli(
        "encode",
        "refine",
        files("k2.hg", K2),
        "--k",
        "1",
        "--sets",
        files("s.txt", "a -> a\na,b -> a\n"),
    )
    assert code == 0
    assert text == "# h0\na -> a\na,b -> b\n# gmap\na -> a\nb -> a\n"


def test_encode_refine_not_sparse(files):
    code, text = cli(
        "encode",
        "refine",
        files("k2.hg", K2),
        "--k",
        "1",
        "--sets",
        files("s.txt", "-> a\na -> a\nb -> a\n"),
    )
    assert code == 1
    assert text == "ERROR NotSparseDistribution\nwitness a\n"


# --- suites ------------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["oracle", "lemmas", "pipeline"])
def test_suite_reruns_are_identical(name):
    first = cli("suite", name, "--seed", "5", "--n", "2", "--sizes", "6")
    second = cli("suite", name, "--seed", "5", "--n", "2", "--sizes", "6")
    assert first == second
    assert first[0] == 0
    assert first[1]  # at least one report line


def test_suite_seed_changes_report():
    _, a = cli("suite", "oracle", "--seed", "1", "--n", "2", "--sizes", "6")
    _, b = cli("suite", "oracle", "--seed", "2", "--n", "2", "--sizes", "6")
    assert a != b


@pytest.mark.parametrize(
    "argv,detail",
    [
        (["--sizes", "0"], "sizes must be positive integers, got 0"),
        (["--sizes", "8,-3"], "sizes must be positive integers, got -3"),
        (["--n", "-1"], "n must be a nonnegative integer, got -1"),
    ],
)
def test_suite_refuses_bad_arguments_before_any_work(argv, detail, monkeypatch):
    def no_work(*args):
        raise AssertionError("suite started")

    monkeypatch.setattr(suites, "run_suite", no_work)
    assert cli("suite", "pipeline", *argv) == (2, f"ERROR Usage\ndetail {detail}\n")


@pytest.mark.parametrize("name", ["oracle", "lemmas", "pipeline"])
def test_suite_refuses_sizes_above_the_ceiling_before_any_work(name, monkeypatch):
    def no_work(*args):
        raise AssertionError("suite started")

    monkeypatch.setattr(suites, "run_suite", no_work)
    over = suites.SUITE_MAX_SIZE + 1
    assert cli("suite", name, "--sizes", f"8,{over}") == (
        1, f"ERROR CapExceeded\ndetail size {over} exceeds the suite ceiling 2000\n"
    )
    assert suites.parse_sizes(str(suites.SUITE_MAX_SIZE), name) == [2000]


@pytest.mark.parametrize("name", ["oracle", "lemmas", "pipeline"])
def test_suite_refuses_n_above_the_ceiling_before_any_work(name, monkeypatch):
    def no_work(*args):
        raise AssertionError("suite started")

    monkeypatch.setattr(suites, "run_suite", no_work)
    monkeypatch.setattr(suites, "parse_sizes", no_work)
    over = suites.SUITE_MAX_N + 1
    assert cli("suite", name, "--n", str(over)) == (
        1, f"ERROR CapExceeded\ndetail n {over} exceeds the suite ceiling 1000\n"
    )
    suites.check_n(suites.SUITE_MAX_N)
