"""Golden `results.json` for the fixed synthetic CLI pipeline.

The pipeline is synth (seed 7, 20 files per law) -> shape -> run (two mock
models, RANDOM profile, no backoff) -> parse -> eval -> compose, all with
relative paths so the echoed configuration is stable. Any change that moves a
reference number, or the bytes of `results.json`, fails here. Regenerate the
golden file only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

from regeval.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_results.json"


def run_fixed_pipeline() -> Path:
    """Run the pipeline in the current directory; return the results.json path."""
    steps = [
        ["synth", "--seed", "7", "--files", "20", "--out-dir", "corpus"],
        ["shape", "--dataset", "corpus/dataset.json", "--out-dir", "views"],
        [
            "run", "--views-dir", "views", "--models", "model-a,model-b",
            "--transport", "mock", "--profile", "RANDOM", "--backoff", "0",
            "--out-dir", "run",
        ],
        ["parse", "--responses", "run/raw_responses.jsonl", "--out-dir", "parsed"],
        ["eval", "--views-dir", "views", "--predictions", "parsed", "--out", "base.json"],
        ["compose", "--base", "base.json", "--out-dir", "final"],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return Path("final") / "results.json"


def test_results_json_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_fixed_pipeline().read_bytes() == GOLDEN.read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        here = Path.cwd()
        os.chdir(work)
        try:
            shutil.copyfile(run_fixed_pipeline(), GOLDEN)
        finally:
            os.chdir(here)
    print(f"wrote {GOLDEN}")
