"""What each stage process loads, checked in fresh interpreters.

The test process itself has every regeval module and numpy loaded already, so
these checks run their code in subprocesses. `import regeval.cli` loads none
of `dataclasses` (with `inspect`), `concurrent.futures` (with `logging`) or
`hashlib`: only `run` starts lane threads and only `synth` hashes. numpy stays
out of every stage, `compose` included; `dataclasses` too, and OpenSSL's
`_hashlib` stays out of every stage after `synth`. The span tracer in
`perfbench/tracer.py` must find every layer it wraps once `regeval.cli` is
imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Modules that `import regeval.cli` must not load.
NOT_AT_IMPORT = ("dataclasses", "inspect", "concurrent.futures", "logging", "hashlib", "_hashlib")

# Runs the stages named after the work dir, in pipeline order, in this one
# process.
STAGES_WITHOUT_NUMPY = """
import sys
from pathlib import Path
from regeval.cli import main

root = Path(sys.argv[1])
names = sys.argv[2:]
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
    if step[0] not in names:
        continue
    assert main(step) == 0, step
    assert "numpy" not in sys.modules, f"numpy loaded by {step[0]}"
    assert "dataclasses" not in sys.modules, f"dataclasses loaded by {step[0]}"
    if "synth" not in names:
        assert "_hashlib" not in sys.modules, f"_hashlib loaded by {step[0]}"
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


def test_cli_import_loads_only_what_every_stage_runs():
    script = f"import sys, regeval.cli; print([m for m in {NOT_AT_IMPORT!r} if m in sys.modules])"
    done = _python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_no_stage_loads_numpy(tmp_path):
    # `synth` hashes, so the stages after it run in a second fresh process.
    for names in (["synth", "shape"], ["run", "parse", "eval", "compose"]):
        done = _python(STAGES_WITHOUT_NUMPY, str(tmp_path), *names)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().endswith("ok")


def test_tracer_finds_every_wrapped_layer_after_cli_import():
    done = _python(TRACER_INSTALLS, str(ROOT / "perfbench"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
