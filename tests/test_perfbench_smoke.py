"""A short benchmark run ends correct: `perfbench/run.py` checks the profile
scores and the OCS order that `eval` and `compose` produce on the
`cohort_eval` workload. No timing is asserted."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cohort_eval_benchmark_run_is_correct():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "cohort_eval",
         "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
