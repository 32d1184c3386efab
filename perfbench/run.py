"""Benchmark for wcetbound: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload refine --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports the package from
``src/``.  Every item is one call of ``wcetbound.cli.main(argv)``, in this
process and thread, on files generated from the seed (see ``deck.py``).
Each item's ``--out`` report is checked against the independent answers
in ``oracle.py``; a wrong answer or a failed call makes the run exit 1.

Untraced (``--trace 0``), the run repeats passes over the workload's items
until the items have taken ``--seconds`` of CLI time, then prints the
end-to-end metrics, with every time scaled to a nominal host speed by the
reference job in ``pace.py``.  Traced (``--trace 1``), it runs the first
pass once untraced and once under ``tracer.Tracer``, prints the per-layer
metrics, and writes the spans to ``.perfbench_out/``.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the same figures for people.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import deck
import oracle
import pace
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
# Passes generated in set-up; a run that needs more wraps around and
# repeats them.  Refine and explicit_deep hold a little more than a run
# needs at the seed commit's speed.  Feasibility holds about half: writing
# 40 passes (440 files) nine times per run, and deleting them at exit, made
# file creation slower in each following run, so set-up time grew from run
# to run (0.14 s to 0.47 s over ten runs).
POOL_PASSES = {"refine": 4, "explicit_deep": 6, "feasibility": 8}
# The tail is the highest percentile with TAIL_BEYOND items beyond it,
# reported only from TAIL_MIN_PERCENTILE up; smaller samples report the max.
TAIL_BEYOND = 10
TAIL_MIN_PERCENTILE = 90


def load_package():
    """Import ``wcetbound`` afresh, so each set-up repeat pays the imports."""
    for name in [m for m in sys.modules if m.split(".")[0] == "wcetbound"]:
        del sys.modules[name]
    wb = importlib.import_module("wcetbound")
    modules = {
        name: importlib.import_module(f"wcetbound.{name}")
        for name in ("cli", "program", "explorer", "refinement", "classifier")
    }
    return wb, modules


def set_up(workload, seed, workdir, smoke, pacer):
    """Imports plus input generation and file writing, SETUP_REPEATS times;
    the last repeat's package and files are the ones measured.  Returns
    the package, the passes and a ``pace`` span per repeat.  Each repeat
    writes into a new directory: overwriting the last repeat's files took
    several times longer than creating them, and varied far more."""
    spans = []
    for repeat in range(SETUP_REPEATS):
        gc.collect()
        began, start = time.perf_counter(), pacer.clock()
        wb, modules = load_package()
        into = workdir / f"setup{repeat}"
        into.mkdir()
        passes = [
            deck.build_pass(workload, seed, index, into, smoke)
            for index in range(POOL_PASSES[workload])
        ]
        for items in passes:
            for item in items:
                item.write()
        spans.append((began, time.perf_counter(), pacer.clock() - start))
    for repeat in range(SETUP_REPEATS - 1):
        shutil.rmtree(workdir / f"setup{repeat}")
    return wb, modules, passes, spans


class Runner:
    """Runs items through ``cli.main`` and checks every report."""

    def __init__(self, wb, cli, clock):
        self.wb = wb
        self.cli = cli
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.report_bytes = 0
        self._checked: dict[str, tuple[str, list[str]]] = {}

    def run(self, item, sink) -> float:
        """Wall seconds of one CLI call; the check runs after the clock stops."""
        item.report_path.unlink(missing_ok=True)
        gc.collect()
        err = io.StringIO()
        code = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            start = self.clock()
            try:
                code = self.cli.main(list(item.argv))
            except Exception:  # a crash is a failed item, not a failed run
                traceback.print_exc(file=err)
            elapsed = self.clock() - start
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"failed: {item.ident} exit={code}\n{err.getvalue()}", file=sys.stderr)
            return elapsed
        problems = self.check(item)
        if problems:
            self.wrong += 1
            print(f"wrong answer: {item.ident}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    def check(self, item) -> list[str]:
        text = item.report_path.read_text(encoding="utf-8")
        self.report_bytes += len(text.encode("utf-8"))
        seen = self._checked.get(item.ident)
        if seen is not None and seen[0] == text:
            return seen[1]
        report = oracle.parse_report(item.report_path)
        if item.trace is not None:
            problems = oracle.check_feasibility(item, report)
        else:
            problems = oracle.check_loop(item, report, oracle.expected_wcet(item), self.wb)
        self._checked[item.ident] = (text, problems)
        return problems


def tail(times: list[float]) -> tuple[str, float]:
    """(label, value): the item with exactly TAIL_BEYOND items beyond it,
    at percentile 100 * (n - TAIL_BEYOND) / n, or the max when that
    percentile is below TAIL_MIN_PERCENTILE."""
    ordered = sorted(times)
    n = len(ordered)
    percentile = 100 * (n - TAIL_BEYOND) / n
    if percentile < TAIL_MIN_PERCENTILE:
        return "max", ordered[-1]
    return f"p{percentile:.1f}", ordered[n - TAIL_BEYOND - 1]


def measure(runner, passes, seconds, sink) -> list[list[tuple[float, float, float]]]:
    """Whole passes until the items have run for ``seconds``; a ``pace``
    span per item, per pass."""
    per_pass, spent = [], 0.0
    while spent < seconds or not per_pass:
        spans = []
        for item in passes[len(per_pass) % len(passes)]:
            began = time.perf_counter()
            elapsed = runner.run(item, sink)
            spans.append((began, time.perf_counter(), elapsed))
        per_pass.append(spans)
        spent += sum(span[2] for span in spans)
    return per_pass


def timings(per_pass, setup_times):
    """The timed end-to-end metrics, with a note on each."""
    times = [t for pass_times in per_pass for t in pass_times]
    label, tail_s = tail(times)
    rate = statistics.median(len(p) / sum(p) for p in per_pass)
    return {
        "analyses_per_s": (rate, "1/s", f"median over {len(per_pass)} passes "
                                        f"of {len(per_pass[0])} items"),
        "analysis_p50_ms": (statistics.median(times) * 1000, "ms", f"{len(times)} items"),
        "analysis_tail_ms": (tail_s * 1000, "ms", f"{label} of {len(times)} items"),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
    }


def end_to_end(per_pass, setup_spans, pacer, runner):
    """Prints the measured times, then the same at the nominal host speed,
    which are the metrics."""
    measured = timings([[span[2] for span in spans] for spans in per_pass],
                       [span[2] for span in setup_spans])
    metrics = timings([pacer.scaled(spans) for spans in per_pass], pacer.scaled(setup_spans))
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "")
    metrics["wrong_answers"] = (runner.wrong, "count", "")
    metrics["failed_ratio"] = (runner.failed / runner.attempted, "ratio", "")
    refs = sorted(pacer.refs)
    print(f"host speed: reference job {refs[len(refs) // 2] / pace.REF_NOMINAL_S:.3f}x "
          f"its nominal time, median of {len(refs)} samples")
    for name, (value, unit, note) in metrics.items():
        raw = f"(measured {measured[name][0]:.4f})" if name in measured else ""
        print(f"{name:<18} {value:>14.4f} {unit:<6} {raw:<22} {note}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
            if name not in ("wrong_answers", "failed_ratio")}


def traced(runner, modules, items, sink, spans_path):
    """Each item untraced, then traced, so both runs meet the same warm
    state; one discarded run first takes the process's first-call costs."""
    runner.run(items[0], sink)
    tracer = Tracer(modules)
    untraced_s = wall_s = 0.0
    report_bytes = 0
    for index, item in enumerate(items):
        untraced_s += runner.run(item, sink)
        tracer.item = index
        bytes_before = runner.report_bytes
        with tracer.installed():
            wall_s += runner.run(item, sink)
        report_bytes += runner.report_bytes - bytes_before
    metrics = tracer.metrics(wall_s, untraced_s, report_bytes)
    for name in sorted(tracer.absent):
        print(f"absent in this version: {'.'.join(name)}", file=sys.stderr)
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    for name, metric in metrics.items():
        print(f"{name:<32} {metric['value']:>16.4f} {metric['unit']}")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object that main() prints."""
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        pacer = pace.Pacer()
        with open(os.devnull, "w", encoding="utf-8") as sink:
            with pacer.sampling(pace.SETUP_INTERVAL_S):
                wb, modules, passes, setup_spans = set_up(workload, seed, workdir, smoke, pacer)
            runner = Runner(wb, modules["cli"], pacer.clock)
            if not trace:
                with pacer.sampling():
                    per_pass = measure(runner, passes, seconds, sink)
            if trace:
                spans = ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.jsonl"
                metrics = traced(runner, modules, passes[0], sink, spans)
            else:
                metrics = end_to_end(per_pass, setup_spans, pacer, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": runner.wrong == 0 and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=deck.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wcetbound" / "cli.py").is_file():
        print(f"error: no wcetbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, python {sys.version.split()[0]}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
