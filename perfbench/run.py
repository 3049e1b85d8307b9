#!/usr/bin/env python3
"""Benchmark of the regeval CLI pipeline on seeded synthetic inputs.

    python3 perfbench/run.py --workload mock_pipeline --seed 1 --seconds 30 --trace 0

Set-up builds the workload's inputs with `synth` and `shape`, several times,
and reports the median as `setup_s`. Then whole rounds of the workload's
measured stages run, each stage as its own `python3 -m regeval.cli` process
timed with `time.perf_counter` and `os.wait4`, until `--seconds` have passed;
end-to-end metrics are medians over the rounds. Every round's outputs are
checked in a separate process (check_round.py, checks.py). With `--trace 1` the same stages also run once in
this process through `regeval.cli.main` under the span tracer (tracer.py), and
the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
An operation is one measured stage invocation or one transport request.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import PROFILES, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("cohort_eval", "mock_pipeline", "retry_replay")
# Synthetic files per law; the bundled config has three laws.
FILES_PER_LAW = {"cohort_eval": 600, "mock_pipeline": 300, "retry_replay": 300}
# Each model is one harness lane thread; no workload uses more than nproc.
MODELS = ("mock-a", "mock-b")
SETUP_REPEATS = 3
MEASURED_STAGES = ("run", "replay", "parse", "eval", "compose")
MB = 1e6


class StageFailed(Exception):
    pass


@dataclass(frozen=True)
class Stage:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]


@dataclass(frozen=True)
class StageRun:
    name: str
    start: float
    end: float
    cpu_s: float
    peak_rss_mb: float
    vcsw: int
    out_bytes: int

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def out_mb(self) -> float:
        return self.out_bytes / MB


def plan(workload: str, seed: int, d: Path, files: int | None = None) -> tuple[list[Stage], list[Stage]]:
    """Set-up stages and measured stages of one workload, rooted at `d`."""
    corpus, views = d / "corpus", d / "views"
    dataset = str(corpus / "dataset.json")
    files = files or FILES_PER_LAW[workload]
    synth = ["synth", "--seed", str(seed), "--files", str(files), "--out-dir", str(corpus)]
    if workload == "cohort_eval":
        synth += ["--profiles", ",".join(PROFILES)]
    setup = [
        Stage("synth", tuple(synth), (corpus,)),
        Stage("shape", ("shape", "--dataset", dataset, "--out-dir", str(views)), (views,)),
    ]
    run_args = ("run", "--views-dir", str(views), "--models", ",".join(MODELS), "--transport", "mock",
                "--profile", "RANDOM", "--seed", str(seed), "--backoff", "0", "--dataset", dataset)
    eval_compose = [
        Stage("eval", ("eval", "--views-dir", str(views), *_predictions_args(workload, d),
                       "--out", str(d / "base.json")), (d / "base.json",)),
        Stage("compose", ("compose", "--base", str(d / "base.json"), "--out-dir", str(d / "final")),
              (d / "final",)),
    ]
    if workload == "cohort_eval":
        return setup, eval_compose
    if workload == "mock_pipeline":
        return setup, [
            Stage("run", (*run_args, "--out-dir", str(d / "run")), (d / "run",)),
            parse_stage(d / "run", d / "parsed"),
            *eval_compose,
        ]
    return setup, [
        Stage("run", (*run_args, "--fail-times", "2", "--out-dir", str(d / "run")), (d / "run",)),
        Stage("replay", ("run", "--views-dir", str(views), "--models", ",".join(MODELS),
                         "--transport", "replay", "--replay", str(d / "run" / "raw_responses.jsonl"),
                         "--backoff", "0", "--dataset", dataset, "--out-dir", str(d / "replay")),
              (d / "replay",)),
        parse_stage(d / "replay", d / "parsed"),
    ]


def _predictions_args(workload: str, d: Path) -> list[str]:
    if workload == "cohort_eval":
        dirs = [d / "corpus" / f"predictions_{p}" for p in PROFILES]
    else:
        dirs = [d / "parsed"]
    return [arg for p in dirs for arg in ("--predictions", str(p))]


def parse_stage(run_dir: Path, out_dir: Path) -> Stage:
    return Stage("parse", ("parse", "--responses", str(run_dir / "raw_responses.jsonl"),
                           "--out-dir", str(out_dir)), (out_dir,))


# --- running stages ------------------------------------------------------------------


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def _size(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size if path.exists() else 0


def run_stage(stage: Stage, env: dict) -> StageRun:
    for out in stage.outputs:
        _remove(out)
    err_path = stage.outputs[0].parent / f"{stage.name}.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "regeval.cli", *stage.argv],
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise StageFailed(f"{stage.name} exited {proc.returncode}: {err_path.read_text().strip()[-2000:]}")
    return StageRun(
        name=stage.name,
        start=start,
        end=end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / MB,
        vcsw=usage.ru_nvcsw,
        out_bytes=sum(_size(out) for out in stage.outputs),
    )


def check_outputs(workload: str, seed: int, d: Path, env: dict, full: bool) -> dict:
    """Check a round's outputs in a separate process (check_round.py), so
    that what the checks load never shows in the stages' peak RSS: a child's
    ru_maxrss starts from its parent's RSS high-water mark."""
    argv = [sys.executable, str(HERE / "check_round.py"), "--workload", workload,
            "--seed", str(seed), "--dir", str(d)] + (["--full"] if full else [])
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise CheckFailed(proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- traced run -----------------------------------------------------------------------


def _call_stages(stages: list[Stage], tracer=None) -> float:
    """Run stages in this process through `regeval.cli.main`; returns the
    seconds from the first stage's start to the last stage's end."""
    import regeval.cli

    start = time.perf_counter()
    for stage in stages:
        for out in stage.outputs:
            _remove(out)
        span = tracer.span(f"cli.{stage.name}") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = regeval.cli.main(list(stage.argv))
        if code != 0:
            raise StageFailed(f"in-process {stage.name} exited {code}")
    return time.perf_counter() - start


def traced_pass(setup: list[Stage], stages: list[Stage], trace_path: Path) -> dict[str, float]:
    """One untraced round in this process, then set-up and one round under
    the tracer; their difference is the tracing overhead."""
    import regeval.cli  # noqa: F401  (imported before timing; the tracer wraps its modules)
    from tracer import Tracer

    untraced = _call_stages(stages)
    tracer = Tracer()
    tracer.install()
    try:
        _call_stages(setup, tracer)
        traced = _call_stages(stages, tracer)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)

    totals = tracer.totals()
    metrics = {"trace.pipeline_s": traced, "inprocess.pipeline_s": untraced}
    for name in LAYER_TIMES:
        metrics[f"{name}.s"] = totals.get(name, (0, 0.0))[1]
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = totals.get(name, (0, 0.0))[0]
    metrics["harness.execute_run.self_s"] = tracer.self_seconds("harness.execute_run", "harness.send")
    return metrics


LAYER_TIMES = (
    "harness.build_prompt_items", "harness.execute_run", "harness.send", "harness.load_responses",
    "harness.replay_init", "jurisdiction.canonicalize_article", "ingest.parse_responses",
    "ingest.write_prediction_files", "ingest.load_prediction_files", "ingest.bind_predictions",
    "retrieval.evaluate_task1", "multilabel.evaluate_task2", "composites.compose",
    "report.build_base_results", "report.emit_results", "shaping.shape_views", "shaping.load_view",
    "synthetic.generate_corpus", "synthetic.scripted_model", "corpus.load_dataset",
    "json.dumps", "json.loads",
)
LAYER_CALLS = (
    "harness.send", "jurisdiction.canonicalize_article", "ingest.parse_prediction_text",
    "retrieval.gold_keys_for_records", "retrieval.match_keys", "composites.rcs_scores", "json.dumps",
)


# --- main -----------------------------------------------------------------------------


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith((".calls", ".vcsw")):
        return "count"
    return "s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "regeval" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no regeval sources under {SRC}\n")
        return 2
    if len(os.sched_getaffinity(0)) < len(MODELS):
        sys.stderr.write(f"perfbench: needs {len(MODELS)} CPUs, one per model lane\n")
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    d = WORK / f"{args.workload}-{args.seed}"
    _remove(d)
    d.mkdir(parents=True)
    setup, stages = plan(args.workload, args.seed, d)

    correct = True
    attempted = failed = 0
    setup_runs: list[list[StageRun]] = []
    rounds: list[list[StageRun]] = []
    layer_metrics: dict[str, float] = {}
    try:
        for _ in range(SETUP_REPEATS):
            setup_runs.append([run_stage(stage, env) for stage in setup])
        first_digest = None
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            runs = []
            for stage in stages:
                attempted += 1
                try:
                    runs.append(run_stage(stage, env))
                except StageFailed:
                    failed += 1
                    raise
            rounds.append(runs)
            checked = check_outputs(args.workload, args.seed, d, env, full=first_digest is None)
            attempted += checked["requests"]
            failed += checked["failed"]
            first_digest = first_digest or checked["digest"]
            if checked["digest"] != first_digest:
                raise CheckFailed("outputs differ from the first round's on identical inputs")
        if args.trace:
            layer_metrics = traced_pass(setup, stages, WORK / f"trace-{args.workload}-{args.seed}.json")
    except (StageFailed, CheckFailed) as exc:
        sys.stderr.write(f"perfbench: {type(exc).__name__}: {exc}\n")
        correct = False
    finally:
        _remove(d)

    if not correct:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}))
        return 1

    med = statistics.median
    pipeline = [r[-1].end - r[0].start for r in rounds]
    sys.stderr.write("perfbench: round pipeline_s " + " ".join(f"{t:.3f}" for t in pipeline) + "\n")
    if args.trace:
        metrics = dict(layer_metrics)
        for name in MEASURED_STAGES:
            runs = [run for r in rounds for run in r if run.name == name]
            for field in ("wall_s", "cpu_s", "peak_rss_mb", "vcsw", "out_mb"):
                metrics[f"cli.{name}.{field}"] = med([getattr(run, field) for run in runs]) if runs else 0
        for i, stage in enumerate(setup):
            metrics[f"cli.{stage.name}.wall_s"] = med([s[i].wall_s for s in setup_runs])
        sys.stderr.write(
            f"perfbench: pipeline_s traced in-process {metrics['trace.pipeline_s']:.3f} s, "
            f"untraced in-process {metrics['inprocess.pipeline_s']:.3f} s, "
            f"untraced stage processes (median) {med(pipeline):.3f} s\n"
        )
    else:
        metrics = {
            "setup_s": med([s[-1].end - s[0].start for s in setup_runs]),
            "pipeline_s": med(pipeline),
            "peak_rss_mb": med([max(run.peak_rss_mb for run in r) for r in rounds]),
            "artifact_mb": med([sum(run.out_mb for run in r) for r in rounds]),
        }
    for name, value in sorted(metrics.items()):
        print(f"{name:<40} {value:>14.6f} {unit_of(name)}")
    print(f"rounds {len(rounds)}  attempted {attempted}  failed {failed}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
