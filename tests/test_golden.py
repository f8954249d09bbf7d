"""Golden corpus: byte-exact CLI reports and exit codes.

``golden/cases.txt`` names one command line per case, run from the
``golden/`` directory so that every path in a report is relative.
``golden/expected/<name>.txt`` holds ``exit <code>`` on its first line
and the exact stdout after it.  ``golden/help.txt`` holds what argparse
writes outside the report: every parser's ``--help`` text and one usage
error.  After an intended output change, rewrite the expected files and
the help text from the current code with

    PYTHONPATH=src python tests/test_golden.py

and explain every diff.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from sparsehg.cli import _VERBS, _build_parser, run

GOLDEN = Path(__file__).parent / "golden"

# The cases whose reports need a brute-force oracle table; every other
# case must run without loading numpy.
TABLE_CASES = ("sparsity-check-oracle", "sparsity-check-witness-oracle", "suite-oracle")

# The sparsehg modules each command group loads; a verb imports only
# the library module it calls, and what that module imports.
_CLI = ["sparsehg", "sparsehg.cli", "sparsehg.core", "sparsehg.errors"]
_DECIDE = ["sparsehg.maxflow", "sparsehg.sparsity"]
_SPAN = ["sparsehg.spanning"]
_FLOW = ["sparsehg.flows", "sparsehg.maxflow"]
GROUP_MODULES = {
    "sparsity": _CLI + _DECIDE,
    "orient": _CLI + _DECIDE,
    "tree": _CLI + _SPAN,
    "order": _CLI + _SPAN,
    "flow": _CLI + _FLOW,
    "encode": _CLI + _FLOW + ["sparsehg.encoding"],
    "suite": _CLI + _DECIDE + _SPAN
    + ["sparsehg.encoding", "sparsehg.flows", "sparsehg.generators", "sparsehg.suites"],
}

# Replays (name, argv, expected report, numpy loaded after it, sparsehg
# modules loaded after it or None) tuples, read from stdin, in one fresh
# interpreter.
_IMPORT_GUARD = """
import io, json, sys
import sparsehg, sparsehg.cli
assert "numpy" not in sys.modules, "import sparsehg"
for name, argv, expected, loaded, modules in json.load(sys.stdin):
    buf = io.StringIO()
    code = sparsehg.cli.run(argv, out=buf)
    assert f"exit {code}\\n{buf.getvalue()}" == expected, name
    assert ("numpy" in sys.modules) == loaded, name
    if modules is not None:
        got = sorted(m for m in sys.modules if m.partition(".")[0] == "sparsehg")
        assert got == sorted(modules), (name, got)
"""


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for line in (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, *argv = line.split()
            cases.append((name, argv))
    return cases


def _expected(name: str) -> str:
    return (GOLDEN / "expected" / f"{name}.txt").read_bytes().decode("utf-8")


def _report(argv: list[str]) -> str:
    """``exit <code>`` followed by the stdout of one in-process run."""
    buf = io.StringIO()
    code = run(argv, out=buf)
    return f"exit {code}\n{buf.getvalue()}"


def _parser_paths(parser, path=()):
    """The verb path of ``parser`` and of every parser below it, depth first."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parser_paths(sub, path + (name,))


def help_snapshot() -> str:
    """The ``--help`` text of every parser, then a missing-option error.

    argparse prints these to sys.stdout and sys.stderr, not to the
    report stream; COLUMNS fixes the width it wraps them to.
    """
    runs = [[*path, "--help"] for path in _parser_paths(_build_parser())]
    runs.append(["orient", "bounded", "tri.hg"])
    blocks = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in runs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = run(argv, out=buf)
            blocks.append(f"$ sparsehg {' '.join(argv)}\nexit {code}\n{buf.getvalue()}")
    return "\n".join(blocks)


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("name,argv", [pytest.param(*c, id=c[0]) for c in _cases()])
def test_golden(name, argv, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert _report(argv) == _expected(name)


def test_reverse_replay_matches_forward(tmp_path, monkeypatch):
    # the CLI builds its parser once per process, so no run may leave
    # state behind for the next: replay the corpus backwards, each case
    # also through --output, and compare with one forward replay
    monkeypatch.chdir(GOLDEN)
    cases = _cases()
    forward = {name: _report(argv) for name, argv in cases}
    for name, argv in reversed(cases):
        assert _report(argv) == forward[name], name
        exit_line, stdout = forward[name].split("\n", 1)
        report = tmp_path / f"{name}.txt"
        assert _report(argv + ["--output", str(report)]) == exit_line + "\n", name
        assert (report.read_text(encoding="utf-8") if report.exists() else "") == stdout, name


def test_numpy_loads_only_for_an_oracle_table():
    # numpy serves only the brute-force tables: replay every other case,
    # the refused --oracle ones too, in a fresh interpreter without
    # loading it, then one table case that must load it
    cases = dict(_cases())
    assert {"sparsity-check-cap", "usage-cap"} <= cases.keys() - set(TABLE_CASES)
    replay = [
        (name, argv, _expected(name), False, None)
        for name, argv in cases.items()
        if name not in TABLE_CASES
    ]
    name = "sparsity-check-oracle"
    replay.append((name, cases[name], _expected(name), True, None))
    _replay_fresh(replay)


def _verb_cases() -> dict:
    """The first golden case of each verb, by its command words."""
    first: dict = {}
    for name, argv in _cases():
        verb = tuple(argv[:2])
        if verb[0] in GROUP_MODULES:
            first.setdefault(verb, (name, argv))
    return first


@pytest.mark.parametrize(
    "name,argv", [pytest.param(*c, id=" ".join(v)) for v, c in _verb_cases().items()]
)
def test_verb_loads_only_its_modules(name, argv):
    # a fresh interpreter per verb: the sparsehg modules in sys.modules
    # after one golden case are exactly its group's
    _replay_fresh([(name, argv, _expected(name), name in TABLE_CASES,
                    GROUP_MODULES[argv[0]])])


def test_every_verb_has_a_module_case():
    verbs = {(group, verb) for group, (_, table) in _VERBS.items() for verb in table}
    verbs |= {("suite", name) for name in ("oracle", "lemmas", "pipeline")}
    assert verbs == set(_verb_cases())


def test_import_loads_a_module_when_a_name_needs_it():
    code = """
import sys, sparsehg
loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "sparsehg")
assert loaded() == ["sparsehg"], loaded()
assert sparsehg.build_dfst is sys.modules["sparsehg.spanning"].build_dfst
assert sparsehg.flows.bounds is sparsehg.bounds  # a module, as an attribute
assert loaded() == ["sparsehg", *sorted(f"sparsehg.{m}" for m in (
    "core", "errors", "flows", "maxflow", "spanning"))], loaded()
"""
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def _replay_fresh(replay) -> None:
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD],
        input=json.dumps(replay),
        cwd=GOLDEN,
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("module", ["sparsehg", "sparsehg.cli"])
def test_runs_as_a_module(module):
    # python -m runs the same command line as the installed script
    result = subprocess.run(
        [sys.executable, "-m", module, "sparsity", "check", "tri.hg", "--k", "1"],
        cwd=GOLDEN,
        env=_src_env(),
        capture_output=True,
        timeout=120,
    )
    report = f"exit {result.returncode}\n".encode() + result.stdout
    assert report == (GOLDEN / "expected" / "sparsity-check-flow.txt").read_bytes()


def test_cases_match_expected_files():
    # a stale or missing expected file fails here instead of lingering
    names = [name for name, _ in _cases()]
    assert len(names) == len(set(names))
    assert set(names) == {p.stem for p in (GOLDEN / "expected").glob("*.txt")}


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, argv in _cases():
        Path("expected", f"{name}.txt").write_bytes(_report(argv).encode("utf-8"))
    Path("help.txt").write_bytes(help_snapshot().encode("utf-8"))
