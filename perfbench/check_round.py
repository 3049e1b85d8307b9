"""Checks one measured round's outputs, in a process of its own.

    python3 perfbench/check_round.py --workload mock_pipeline --seed 1 --dir D [--full]

`D` is the workload directory laid out by `run.plan`. Every call checks the
run records (one `ok` record per model and gold anchor or snippet, with the
workload's attempt count) and counts requests; `--full` adds the workload's
output checks from checks.py. Prints one JSON line
{"requests": N, "failed": K, "digest": sha256 of the deterministic outputs};
exits 1 with the reason on stderr when a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import run
from checks import (
    CheckFailed,
    check_cohort,
    check_identical_scores,
    check_parsed_equals_scripted,
    check_records,
    check_replay,
    check_same_predictions,
    key_json,
    load_gold,
    load_universe_sizes,
)

# Run directories whose raw_responses.jsonl a round writes, with the attempts
# every request must take (every mock request fails twice under --fail-times 2).
RUN_DIRS = {"cohort_eval": (), "mock_pipeline": (("run", 1),), "retry_replay": (("run", 3), ("replay", 1))}
# Outputs that must be byte-identical from round to round.
DETERMINISTIC = {
    "cohort_eval": ("base.json", "final"),
    "mock_pipeline": ("parsed", "base.json", "final"),
    "retry_replay": ("parsed",),
}


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(str(f.relative_to(path.parent)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def check(workload: str, seed: int, d: Path, full: bool) -> dict:
    gold = load_gold(d / "views")
    requests = failed = 0
    texts = {}
    for run_dir, attempts in RUN_DIRS[workload]:
        records = read_jsonl(d / run_dir / "raw_responses.jsonl")
        requests += len(records)
        failed += sum(1 for r in records if r["status"] != "ok")
        texts[run_dir] = check_records(gold, run.MODELS, records, attempts, run_dir)
    if full and workload == "cohort_eval":
        universe = load_universe_sizes(run.SRC / "regeval" / "data" / "jurisdictions.json")
        check_cohort(gold, universe, read_json(d / "final" / "results.json"))
    elif full and workload == "mock_pipeline":
        scripted_t1, scripted_t2 = scripted_random(d / "views", seed)
        check_parsed_equals_scripted(
            gold, run.MODELS,
            read_json(d / "parsed" / "predictions_task1.json"),
            read_json(d / "parsed" / "predictions_task2.json"),
            scripted_t1, scripted_t2,
        )
        check_identical_scores(read_json(d / "final" / "results.json"), list(run.MODELS))
    elif full:
        check_replay(texts["run"], texts["replay"])
        run.run_stage(run.parse_stage(d / "run", d / "parsed_first"), dict(os.environ))
        for name in ("predictions_task1.json", "predictions_task2.json"):
            check_same_predictions(
                read_json(d / "parsed_first" / name), read_json(d / "parsed" / name),
                f"replay parse vs first-run parse ({name})",
            )
    return {"requests": requests, "failed": failed,
            "digest": digest([d / name for name in DETERMINISTIC[workload]])}


def scripted_random(views_dir: Path, seed: int):
    """The RANDOM profile's predictions by (law, key json), from the program's
    scripted generator, i.e. what the mock transport was told to answer."""
    from regeval.jurisdiction import JurisdictionRegistry
    from regeval.shaping import ShapedViews, load_task1_view, load_task2_view
    from regeval.synthetic import scripted_model

    views = {}
    for t1 in sorted(views_dir.glob("task1_*.json")):
        law, t1_records = load_task1_view(t1)
        _, t2_records = load_task2_view(views_dir / f"task2_{law}.json")
        views[law] = ShapedViews(law=law, task1=t1_records, task2=t2_records)
    scripted = scripted_model("RANDOM", views, JurisdictionRegistry.default(), seed=seed)
    t1 = {
        (p.key.law, key_json({k: v for k, v in p.key.to_dict().items() if k != "law"})): p.ranking
        for p in scripted.ranked
    }
    t2 = {
        (p.law, key_json({"file_path": p.pointer.file_path, "span": p.pointer.span.as_list(),
                          "commit_id": p.pointer.commit_id})): p.labels
        for p in scripted.sets
    }
    return t1, t2


def main() -> int:
    parser = argparse.ArgumentParser(description="Check one benchmark round's outputs.")
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()
    try:
        result = check(args.workload, args.seed, args.dir, args.full)
    except (CheckFailed, run.StageFailed) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
