"""What each stage process loads, checked in fresh interpreters.

The test process itself has every regeval module and numpy loaded already, so
these checks run their code in subprocesses: numpy must stay out of every
stage, `compose` included, and the span tracer in `perfbench/tracer.py` must find
every layer it wraps once `regeval.cli` is imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

STAGES_WITHOUT_NUMPY = """
import sys
from pathlib import Path
from regeval.cli import main

root = Path(sys.argv[1])
steps = [
    ["synth", "--seed", "3", "--files", "2", "--out-dir", str(root / "corpus")],
    ["shape", "--dataset", str(root / "corpus" / "dataset.json"), "--out-dir", str(root / "views")],
    ["run", "--views-dir", str(root / "views"), "--models", "m1,m2", "--profile", "RANDOM",
     "--backoff", "0", "--out-dir", str(root / "run")],
    ["parse", "--responses", str(root / "run" / "raw_responses.jsonl"),
     "--out-dir", str(root / "parsed")],
    ["eval", "--views-dir", str(root / "views"), "--predictions", str(root / "parsed"),
     "--out", str(root / "base.json")],
    ["compose", "--base", str(root / "base.json"), "--out-dir", str(root / "final")],
]
for step in steps:
    assert main(step) == 0, step
    assert "numpy" not in sys.modules, f"numpy loaded by {step[0]}"
print("ok")
"""

TRACER_INSTALLS = """
import sys
import regeval.cli
sys.path.insert(0, sys.argv[1])
from tracer import Tracer

original = regeval.cli.execute_run
tracer = Tracer()
tracer.install()
assert regeval.cli.execute_run is not original
tracer.uninstall()
assert regeval.cli.execute_run is original
print("ok")
"""


def _python(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_cli_import_does_not_load_numpy():
    done = _python("import sys, regeval.cli; assert 'numpy' not in sys.modules; print('ok')")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_no_stage_loads_numpy(tmp_path):
    done = _python(STAGES_WITHOUT_NUMPY, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("ok")


def test_tracer_finds_every_wrapped_layer_after_cli_import():
    done = _python(TRACER_INSTALLS, str(ROOT / "perfbench"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
