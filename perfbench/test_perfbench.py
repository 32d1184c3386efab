"""Self-tests of the benchmark at smoke size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys

import pytest

import oracle
import pace
import run
import tracer

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_answers_are_checked_correct(workload):
    result = run.run(workload, seed=1, seconds=0, trace=False, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat(workload):
    first, second = (run.run(workload, seed=2, seconds=0, trace=True, smoke=True)
                     for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {name for name, m in first["metrics"].items() if m["unit"] in ("count", "bytes")}
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    # Layer self times cover the traced wall time, short of wrapper overhead.
    assert 0.9 < first["metrics"]["trace.attributed_ratio"]["value"] <= 1.0


def test_wrong_answer_fails_the_run(monkeypatch):
    real_wcet, real_run = oracle.expected_wcet, run.run
    monkeypatch.setattr(oracle, "expected_wcet", lambda item: real_wcet(item) + 1)
    monkeypatch.setattr(run, "run", functools.partial(real_run, smoke=True))
    assert run.main(["--workload", "explicit_deep", "--seed", "1", "--seconds", "0"]) == 1


def test_feasibility_check_catches_wrong_verdicts(tmp_path):
    items = run.deck.build_pass("feasibility", 1, 0, tmp_path, smoke=True)
    feasible = next(i for i in items if i.ident.startswith("p0_f"))
    infeasible = next(i for i in items if i.ident.startswith("p0_i"))
    claim_feasible = {"verdict": [{"feasible": "yes", "initial": "empty"}]}
    assert oracle.check_feasibility(infeasible, claim_feasible)
    head = feasible.trace[:3]
    claim_core = {
        "verdict": [{"feasible": "no"}],
        "core": [{"start": "0", "length": "3",
                  "symbols": ".".join(f"{line}:{cls}" for line, cls in head)}],
    }
    assert oracle.check_feasibility(feasible, claim_core)


def test_pacer_clock_leaves_samples_out():
    pacer = pace.Pacer()
    start = pacer.clock()
    pacer.sample()
    pacer.sample()
    assert pacer.clock() - start < min(pacer.refs)


def test_pacer_scales_by_the_samples_near_a_span():
    pacer = pace.Pacer()
    pacer.refs = [pace.REF_NOMINAL_S, 2 * pace.REF_NOMINAL_S]
    pacer.stamps = [0.0, 10.0]
    spans = [(0.1, 0.2, 1.0), (9.5, 9.9, 1.0), (5.0, 5.1, 1.0)]
    # The last span has no sample within WINDOW_S and falls back to all.
    assert pacer.scaled(spans) == pytest.approx([1.0, 0.5, 1 / 1.5])


def test_removed_name_is_an_absent_metric(monkeypatch):
    _, modules = run.load_package()
    monkeypatch.delattr(modules["refinement"], "candidate_initial_states")
    t = tracer.Tracer(modules)
    with t.installed():
        pass
    assert not hasattr(modules["refinement"], "candidate_initial_states")
    metrics = t.metrics(wall_s=1.0, untraced_s=1.0, report_bytes=0)
    assert "refinement.candidates_tried" not in metrics
    assert "refinement.realize_ratio" not in metrics
    assert "refinement.core_s" in metrics


def test_benchmark_json_lists_the_tracer_metrics():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracer.METRICS.items()
    }


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "refine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
