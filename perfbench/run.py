"""Closed-loop benchmark of the sparsehg command line.

    python3 perfbench/run.py --workload orient|trees-encode|suites \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One client replays the workload's requests back to back,
each an in-process ``sparsehg.cli.run(argv)`` call from input files to
report, in rounds until ``--seconds`` of requests have run.  Every
report is checked outside the timed rounds.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` spends half the time untraced and
half with spans around every public function, and prints per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 5
# enough samples for a p90 tail with ten samples beyond it
MIN_SAMPLES = 100
PERCENTILES = (50, 90, 99, 99.9)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fresh_import():
    """Import sparsehg.cli from the checkout, dropping any earlier copy so
    every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "sparsehg" or n.startswith("sparsehg.")]:
        del sys.modules[name]
    import sparsehg.cli

    return sparsehg.cli


def set_up(workload: str, seed: int, work: Path):
    """Import, write the first round's input files and warm up; returns
    the module and the set-up time."""
    t0 = time.perf_counter()
    cli = fresh_import()
    requests = workloads.build(workload, seed, 0, work)
    for request in workloads.warmup(requests):
        try:
            cli.run(request.argv, io.StringIO())
        except Exception:  # the same request fails, and is counted, in round 0
            pass
    return cli, time.perf_counter() - t0


class Tally:
    """Operations attempted and failed, suite case lines of each known
    defect, and whether every report passed its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defects = dict.fromkeys(checks.KNOWN_DEFECTS, 0)
        self.correct = True
        self.problems = []

    def add(self, request, code: int, text: str) -> None:
        result = request.check(code, text)
        problems, fails, known = result if isinstance(result, tuple) else (result, 0, {})
        self.attempted += request.ops
        if problems:
            self.correct = False
            self.failed += request.ops
            self.problems.append(f"{' '.join(request.argv[:2])}: {problems[0]}")
        else:
            self.failed += fails
            for name, count in known.items():
                self.known_defects[name] += count


def run_rounds(cli, build, seconds: float, tally: Tally, tracer=None, samples=1):
    """Run rounds 0, 1, ... until ``seconds`` of rounds have run and at
    least ``samples`` requests.  Each round's inputs are written before it
    and its reports are checked after it, both untimed.  Returns round
    wall times and per-request latencies."""
    walls, latencies = [], []
    clock = time.perf_counter
    while sum(walls) < seconds or len(latencies) < samples:
        requests = build(len(walls))
        gc.collect()
        reports = []
        start = clock()
        for i, request in enumerate(requests):
            if tracer is not None:
                tracer.request_id = len(walls) * len(requests) + i
            out = io.StringIO()
            t0 = clock()
            try:
                code = cli.run(request.argv, out)
            except Exception:  # a crash is a failed operation, not the end of the run
                code = -1
                out.write(traceback.format_exc())
            latencies.append(clock() - t0)
            reports.append((code, out.getvalue()))
        walls.append(clock() - start)
        for request, (code, text) in zip(requests, reports):
            tally.add(request, code, text)
    return walls, latencies


def tail(latencies):
    """The highest percentile of ``PERCENTILES`` with at least ten samples
    beyond it (nearest rank), and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = max((p for p in PERCENTILES if n - math.ceil(p / 100 * n) >= 10), default=50)
    return ordered[math.ceil(pct / 100 * n) - 1], pct


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sparsehg" / "cli.py").is_file():
        print(f"error: no sparsehg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            cli, seconds = set_up(args.workload, args.seed, work)
            setups.append(seconds)
        build = partial(workloads.build, args.workload, args.seed, work=work)
        tally = Tally()
        budget = args.seconds / 2 if args.trace else args.seconds
        walls, latencies = run_rounds(cli, build, budget, tally, samples=MIN_SAMPLES)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_walls, _ = run_rounds(cli, build, budget, tally, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    p50 = statistics.median(latencies)
    tail_value, tail_pct = tail(latencies)
    failed_share = tally.failed / tally.attempted
    end_to_end = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "latency_p50_s": metric(p50, "s"),
        "latency_tail_s": metric(tail_value, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} rounds, "
          f"{len(latencies)} latency samples, tail at p{tail_pct:g}")
    for name, m in end_to_end.items():
        print(f"  {name:<16} {m['value']:.6f} {m['unit']}")
    print(f"  {'failed_share':<16} {failed_share:.6f} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    if args.workload == "suites":
        for name, count in tally.known_defects.items():
            print(f"  known defect {name}: {count} of {tally.attempted} case lines, "
                  "not counted as failed")
    for problem in tally.problems[:5]:
        print(f"  check failed: {problem}")

    metrics = end_to_end
    if args.trace:
        metrics = layer_metrics(tracer, len(traced_walls),
                                statistics.median(traced_walls) - end_to_end["wall_s"]["value"])
        for name, count in tally.known_defects.items():
            metrics[f"suites.{name}_defect_share"] = metric(count / tally.attempted, "ratio")
        WORK.mkdir(exist_ok=True)
        spans = WORK / f"spans-{args.workload}.tsv"
        tracer.write(spans)
        print(f"  {len(tracer.name_id)} spans written to {spans.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(tracer, rounds: int, overhead: float) -> dict:
    """Per traced round: calls and self time of every span name, the
    boundary counts, and the tracing overhead on wall_s."""
    calls, self_s = tracer.self_times()
    out = {}
    for name, c, s in zip(tracer.names, calls, self_s):
        out[f"{name}.calls"] = metric(c / rounds, "count")
        out[f"{name}.self_s"] = metric(s / rounds, "s")
    counts = tracer.counts
    for name in tracing.COUNTS:
        out[name] = metric(counts[name] / rounds, "count")
    increments = counts["generators.increments"]
    out["generators.accept_ratio"] = metric(
        counts["generators.accepted"] / increments if increments else 0.0, "ratio"
    )
    out["trace.overhead_s"] = metric(overhead, "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
