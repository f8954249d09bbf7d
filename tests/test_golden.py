"""Golden corpus: byte-exact CLI reports and exit codes.

``golden/cases.txt`` names one command line per case, run from the
``golden/`` directory so that every path in a report is relative.
``golden/expected/<name>.txt`` holds ``exit <code>`` on its first line
and the exact stdout after it.  After an intended output change,
rewrite the expected files from the current code with

    PYTHONPATH=src python tests/test_golden.py

and explain every diff.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import pytest

from sparsehg.cli import run

GOLDEN = Path(__file__).parent / "golden"


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for line in (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, *argv = line.split()
            cases.append((name, argv))
    return cases


def _report(argv: list[str]) -> str:
    """``exit <code>`` followed by the stdout of one in-process run."""
    buf = io.StringIO()
    code = run(argv, out=buf)
    return f"exit {code}\n{buf.getvalue()}"


@pytest.mark.parametrize("name,argv", [pytest.param(*c, id=c[0]) for c in _cases()])
def test_golden(name, argv, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / "expected" / f"{name}.txt").read_bytes().decode("utf-8")
    assert _report(argv) == expected


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


def test_cases_match_expected_files():
    # a stale or missing expected file fails here instead of lingering
    names = [name for name, _ in _cases()]
    assert len(names) == len(set(names))
    assert set(names) == {p.stem for p in (GOLDEN / "expected").glob("*.txt")}


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, argv in _cases():
        Path("expected", f"{name}.txt").write_bytes(_report(argv).encode("utf-8"))
