"""Short benchmark runs end correct. On `cohort_eval`, `perfbench/run.py`
checks the profile scores and the OCS order that `eval` and `compose`
produce; on `mock_pipeline` it checks that the parsed predictions of both
mock models equal the scripted answers (`scripted_model`) and that the two
score alike; on `retry_replay` it
checks the run records, the replayed texts, and that the parse of the replay
equals the parse of the first run. A traced `mock_pipeline` run also goes
through every layer the span tracer wraps and must report exactly the
per-layer metrics `BENCHMARK.json` declares. No timing is asserted."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_benchmark(workload: str, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_cohort_eval_benchmark_run_is_correct():
    summary = _run_benchmark("cohort_eval")
    assert summary["correct"] is True
    assert summary["failed"] == 0


def test_mock_pipeline_benchmark_run_is_correct():
    summary = _run_benchmark("mock_pipeline")
    assert summary["correct"] is True
    assert summary["failed"] == 0


def test_retry_replay_benchmark_run_is_correct():
    summary = _run_benchmark("retry_replay")
    assert summary["correct"] is True
    assert summary["failed"] == 0


def test_traced_mock_pipeline_reports_the_declared_per_layer_metrics():
    summary = _run_benchmark("mock_pipeline", trace=1)
    assert summary["correct"] is True
    assert summary["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(summary["metrics"]) == sorted(metric["name"] for metric in declared)
