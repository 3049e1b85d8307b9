"""Golden outputs for two fixed synthetic CLI pipelines.

`results.json`: synth (seed 7, 20 files per law) -> shape -> run (two mock
models, RANDOM profile, no backoff) -> parse -> eval -> compose.

`base.json`: synth (seed 9, 20 files per law, predictions scripted for five
profiles) -> shape -> eval of the five prediction directories.

Both run with relative paths so the echoed configuration is stable. Any change
that moves a reference number, or the bytes of either file, fails here.
Regenerate the golden files only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py

The first pipeline's `run` outputs are pinned by digest too, modulo their
timestamps: `raw_responses.jsonl` with every `started`/`finished` value
blanked, and `run.log` as its sorted lines with the leading timestamp cut.
The report files `compose` writes beside `results.json`, `report.txt` and
`plot_data.csv`, are pinned by digest as they are, and so is the `stats.json`
that `stats --dataset corpus/dataset.json` writes for the first pipeline's
corpus. Regenerating also prints the digests of the fresh run.

The golden bytes are the program's on every host: one more test runs both
pipelines under each other CPython 3.10 to 3.13 found on PATH (with only
`src` on its path, so without numpy unless that interpreter has it) and
compares them with the same files.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from regeval.cli import main

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDEN = DATA / "golden_results.json"
GOLDEN_COHORT = DATA / "golden_cohort_base.json"

# sha256 of the fixed pipeline's run outputs, modulo timestamps (see
# `run_digests`).
RAW_RESPONSES_SHA256 = "858a663c03110a0cbb0704cabe9fba2f49164415aa50332e943d31d591e0892f"
RUN_LOG_SHA256 = "65e0af14a14d59b72114771a6120830f1d40e331d67295ca92e3addfcab7997a"
# sha256 of the fixed pipeline's `final/report.txt` and `final/plot_data.csv`.
REPORT_TXT_SHA256 = "7b282f62b6431dbaaeffa90adcbea362f952f88872e245026c94d484d5dc50f1"
PLOT_DATA_SHA256 = "83fb8ac78659bdf77e63b6fdc8979eb30f7a57b93d72cc87628e4b8c1f8f06ac"
# sha256 of `stats.json` for the fixed pipeline's corpus (see `stats_digest`).
STATS_JSON_SHA256 = "1b63c5b315d9a6c769f58dccc360f6007b6575eda6be1fcd287235b37040e27e"

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


def run_digests(run_dir: Path) -> tuple[str, str]:
    """sha256 of a run's `raw_responses.jsonl` with its timestamp values
    blanked, and of its `run.log` lines with their timestamps cut, sorted."""
    raw = re.sub(rb'"(started|finished)": "[^"]*"', rb'"\1": ""', (run_dir / "raw_responses.jsonl").read_bytes())
    log_lines = sorted(line.split(" ", 1)[1] for line in (run_dir / "run.log").read_text().splitlines())
    log = "".join(line + "\n" for line in log_lines).encode()
    return hashlib.sha256(raw).hexdigest(), hashlib.sha256(log).hexdigest()


def report_digests(final_dir: Path) -> tuple[str, str]:
    """sha256 of `report.txt` and of `plot_data.csv` in `final_dir`."""
    return tuple(hashlib.sha256((final_dir / name).read_bytes()).hexdigest() for name in ("report.txt", "plot_data.csv"))


def stats_digest() -> str:
    """sha256 of the `stats.json` that `stats` writes for the fixed
    pipeline's corpus, synthesized in the current directory."""
    assert main(["synth", "--seed", "7", "--files", "20", "--out-dir", "corpus"]) == 0
    assert main(["stats", "--dataset", "corpus/dataset.json"]) == 0
    return hashlib.sha256(Path("stats.json").read_bytes()).hexdigest()


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


def test_run_outputs_match_golden_digests_modulo_timestamps(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_fixed_pipeline()
    assert run_digests(Path("run")) == (RAW_RESPONSES_SHA256, RUN_LOG_SHA256)


def test_report_files_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_fixed_pipeline()
    assert report_digests(Path("final")) == (REPORT_TXT_SHA256, PLOT_DATA_SHA256)


def test_stats_json_matches_golden_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert stats_digest() == STATS_JSON_SHA256


def test_scripted_cohort_base_json_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_scripted_cohort().read_bytes() == GOLDEN_COHORT.read_bytes()


BOTH_PIPELINES = """
import sys
sys.path.insert(0, sys.argv[1])
from test_golden import run_fixed_pipeline, run_scripted_cohort
run_fixed_pipeline()
run_scripted_cohort()
"""


def other_interpreters() -> list[str]:
    """Each `python3.10` ... `python3.13` on PATH that starts, reports that
    version, and is not this interpreter's version."""
    found = []
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if exe is None or sys.version_info[:2] == (3, minor):
            continue
        probe = subprocess.run(
            [exe, "-c", "import sys; print(*sys.version_info[:2])"], capture_output=True, text=True, timeout=60
        )
        if probe.returncode == 0 and probe.stdout.split() == ["3", str(minor)]:
            found.append(exe)
    return found


def test_golden_files_match_under_other_interpreters(tmp_path):
    interpreters = other_interpreters()
    if not interpreters:
        # Imported here: BOTH_PIPELINES imports this module in interpreters
        # that may not have pytest.
        import pytest

        pytest.skip("no other CPython 3.10-3.13 on PATH")
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    for number, exe in enumerate(interpreters):
        work = tmp_path / str(number)
        work.mkdir()
        done = subprocess.run(
            [exe, "-c", BOTH_PIPELINES, str(HERE)], capture_output=True, text=True, env=env, cwd=work, timeout=600
        )
        assert done.returncode == 0, (exe, done.stderr)
        assert (work / "final" / "results.json").read_bytes() == GOLDEN.read_bytes(), exe
        assert (work / "cohort_base.json").read_bytes() == GOLDEN_COHORT.read_bytes(), exe


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        here = Path.cwd()
        os.chdir(work)
        try:
            shutil.copyfile(run_fixed_pipeline(), GOLDEN)
            digests = run_digests(Path("run")) + report_digests(Path("final")) + (stats_digest(),)
            shutil.copyfile(run_scripted_cohort(), GOLDEN_COHORT)
        finally:
            os.chdir(here)
    print(f"wrote {GOLDEN}")
    print(f"wrote {GOLDEN_COHORT}")
    names = ("RAW_RESPONSES_SHA256", "RUN_LOG_SHA256", "REPORT_TXT_SHA256", "PLOT_DATA_SHA256", "STATS_JSON_SHA256")
    for name, digest in zip(names, digests):
        print(f"{name} = {digest!r}")
