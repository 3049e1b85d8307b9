"""Golden outputs for two fixed synthetic CLI pipelines.

`results.json`: synth (seed 7, 20 files per law) -> shape -> run (two mock
models, RANDOM profile, no backoff) -> parse -> eval -> compose.

`base.json`: synth (seed 9, 20 files per law, predictions scripted for five
profiles) -> shape -> eval of the five prediction directories.

Both run with relative paths so the echoed configuration is stable. Any change
that moves a reference number, or the bytes of either file, fails here.
Regenerate the golden files only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

from regeval.cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden_results.json"
GOLDEN_COHORT = DATA / "golden_cohort_base.json"

COHORT_PROFILES = ("PERFECT", "BREADTH_ONLY", "RANKING_ONLY", "MAJORITY_LABEL", "RANDOM")


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


def run_scripted_cohort() -> Path:
    """Score five scripted profiles in the current directory; return the base.json path."""
    steps = [
        [
            "synth", "--seed", "9", "--files", "20",
            "--profiles", ",".join(COHORT_PROFILES), "--out-dir", "cohort",
        ],
        ["shape", "--dataset", "cohort/dataset.json", "--out-dir", "cohort_views"],
        [
            "eval", "--views-dir", "cohort_views",
            *(arg for p in COHORT_PROFILES for arg in ("--predictions", f"cohort/predictions_{p}")),
            "--out", "cohort_base.json",
        ],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return Path("cohort_base.json")


def test_results_json_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_fixed_pipeline().read_bytes() == GOLDEN.read_bytes()


def test_scripted_cohort_base_json_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_scripted_cohort().read_bytes() == GOLDEN_COHORT.read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        here = Path.cwd()
        os.chdir(work)
        try:
            shutil.copyfile(run_fixed_pipeline(), GOLDEN)
            shutil.copyfile(run_scripted_cohort(), GOLDEN_COHORT)
        finally:
            os.chdir(here)
    print(f"wrote {GOLDEN}")
    print(f"wrote {GOLDEN_COHORT}")
