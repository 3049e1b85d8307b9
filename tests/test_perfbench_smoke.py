"""Short benchmark runs end correct. On `cohort_eval`, `perfbench/run.py`
checks the profile scores and the OCS order that `eval` and `compose`
produce; on `retry_replay` it checks the run records, the replayed texts,
and that the parse of the replay equals the parse of the first run. No timing
is asserted."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_benchmark(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_cohort_eval_benchmark_run_is_correct():
    summary = _run_benchmark("cohort_eval")
    assert summary["correct"] is True
    assert summary["failed"] == 0


def test_retry_replay_benchmark_run_is_correct():
    summary = _run_benchmark("retry_replay")
    assert summary["correct"] is True
    assert summary["failed"] == 0
