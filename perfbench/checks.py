"""Output checks for the benchmark workloads, computed apart from the program.

Gold anchors and snippet pointers are read straight from the shaped view
files, universe sizes from the jurisdiction config, and every expected value
is derived from those. Each check raises `CheckFailed` naming the first claim
that does not hold.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

PROFILES = ("PERFECT", "BREADTH_ONLY", "RANKING_ONLY", "MAJORITY_LABEL", "RANDOM")


class CheckFailed(Exception):
    """An output of the program does not have a property it must have."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_close(actual: float, wanted: float, what: str, tol: float = 1e-9) -> None:
    expect(
        isinstance(actual, (int, float)) and math.isclose(actual, wanted, rel_tol=tol, abs_tol=tol),
        f"{what}: got {actual!r}, want {wanted!r}",
    )


def key_json(key: Mapping) -> str:
    return json.dumps(dict(key), sort_keys=True)


@dataclass
class Gold:
    """Gold sets by anchor, read from task1_<LAW>.json / task2_<LAW>.json."""

    task1: dict[tuple[str, str], list[tuple[str, frozenset[str]]]]  # (law, gran) -> [(key json, gold)]
    task2: dict[str, list[tuple[str, frozenset[str]]]]  # law -> [(pointer json, gold)]

    def identities(self) -> set[tuple[str, str, str]]:
        """(task, law, key json) of every request a run must make per model."""
        ids = {("task1", law, key) for (law, _gran), keys in self.task1.items() for key, _ in keys}
        ids |= {("task2", law, ptr) for law, ptrs in self.task2.items() for ptr, _ in ptrs}
        return ids


def load_gold(views_dir: Path) -> Gold:
    task1: dict[tuple[str, str], list] = {}
    task2: dict[str, list] = {}
    for path in sorted(views_dir.glob("task1_*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        law = data["law"]
        for rec in data["records"]:
            base = dict(rec["key"])
            sections = rec["sections"]
            task1.setdefault((law, "file"), []).append(
                (key_json({**base, "granularity": "file"}), frozenset(sections["file"]["gold"]))
            )
            module = sections["module"]
            task1.setdefault((law, "module"), []).append(
                (key_json({**base, "granularity": "module", "module": module["name"]}),
                 frozenset(module["gold"]))
            )
            for entry in sections["line"]:
                task1.setdefault((law, "line"), []).append(
                    (key_json({**base, "granularity": "line", "span": entry["span"]}),
                     frozenset(entry["gold"]))
                )
    for path in sorted(views_dir.glob("task2_*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        task2[data["law"]] = [
            (key_json(rec["pointer"]), frozenset(rec["gold"])) for rec in data["records"]
        ]
    expect(bool(task1) and bool(task2), f"no gold views under {views_dir}")
    return Gold(task1=task1, task2=task2)


def load_universe_sizes(jurisdictions_json: Path) -> dict[str, int]:
    config = json.loads(jurisdictions_json.read_text(encoding="utf-8"))
    sizes = {}
    for law, entry in config.items():
        universe = entry["universe"]
        if "ids" in universe:
            sizes[law] = len(universe["ids"])
        else:
            lo, hi = universe["range"]
            sizes[law] = int(hi) - int(lo) + 1
    return sizes


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values)


# --- cohort_eval -------------------------------------------------------------------


def check_cohort(gold: Gold, universe: Mapping[str, int], results: Mapping) -> None:
    """Scripted-profile scores that follow from the gold views alone."""
    models = results["models"]
    expect(sorted(models) == sorted(PROFILES), f"models scored: {sorted(models)}")
    perfect, breadth = models["PERFECT"], models["BREADTH_ONLY"]
    for (law, gran), keys in sorted(gold.task1.items()):
        row = perfect["task1"][law][gran]
        for name in ("acc_at_5", "r_precision", "mrr", "map", "ndcg_at_5"):
            expect_close(row[name], 1.0, f"PERFECT {law}/{gran} {name}")
        expect_close(
            row["acc_at_1"], _mean(1 / len(g) for _, g in keys), f"PERFECT {law}/{gran} acc_at_1"
        )
        row = breadth["task1"][law][gran]
        expect_close(row["acc_at_1"], 0.0, f"BREADTH_ONLY {law}/{gran} acc_at_1")
        expect_close(row["acc_at_5"], 1.0, f"BREADTH_ONLY {law}/{gran} acc_at_5")
        expect_close(row["mrr"], 0.5, f"BREADTH_ONLY {law}/{gran} mrr")
    for law, pointers in sorted(gold.task2.items()):
        row = perfect["task2"][law]
        for name in ("micro_f1", "macro_f1", "weighted_f1", "jaccard", "one_minus_hamming"):
            expect_close(row[name], 1.0, f"PERFECT {law} {name}")
        size = universe[law]
        expect_close(
            row["one_minus_coverage_error"],
            1 - _mean((len(g) - 1) / (size - 1) for _, g in pointers),
            f"PERFECT {law} one_minus_coverage_error",
        )

    composites = results["composites"]
    epsilon = composites["config"]["epsilon"]
    ocs = {model: block["ocs"] for model, block in composites["models"].items()}
    expect(
        ocs["PERFECT"] > ocs["BREADTH_ONLY"] > ocs["RANDOM"],
        f"OCS order PERFECT > BREADTH_ONLY > RANDOM broken: {ocs}",
    )
    for model, block in sorted(composites["models"].items()):
        values = [("ocs", block["ocs"])]
        values += [(f"crgs.{t}", v) for t, v in block["crgs"].items()]
        values += [(f"rcs.{t}.{law}", v) for t, by_law in block["rcs"].items() for law, v in by_law.items()]
        values += [(f"coupled.{law}", v) for law, v in block["coupled"].items()]
        for name, value in values:
            expect(0.0 <= value <= 1.0, f"{model} {name}={value} outside [0, 1]")
        # SGS is harmonic(v + eps) * penalty, so its ceiling is 1 + eps.
        for law, table in block["sgs"].items():
            for metric, value in table.items():
                expect(0.0 <= value <= 1.0 + epsilon, f"{model} sgs.{law}.{metric}={value} outside [0, 1+eps]")
    _check_full_coverage(gold, results)


def _check_full_coverage(gold: Gold, results: Mapping) -> None:
    for model, block in sorted(results["models"].items()):
        for law, gran in gold.task1:
            cov = block["coverage"]["task1"][law][gran]["coverage"]
            expect(cov == 1, f"{model} task1 {law}/{gran} coverage {cov}")
        for law in gold.task2:
            cov = block["coverage"]["task2"][law]["coverage"]
            expect(cov == 1, f"{model} task2 {law} coverage {cov}")


# --- runs and parses ---------------------------------------------------------------


def record_identity(record: Mapping) -> tuple[str, str, str, str]:
    return (record["model"], record["task"], record["law"], key_json(record["key"]))


def check_records(
    gold: Gold,
    models: Sequence[str],
    records: Sequence[Mapping],
    attempts: int,
    what: str,
) -> dict[tuple[str, str, str, str], str]:
    """One `ok` record per (model, gold anchor or snippet) with the given
    attempt count; returns the response text by identity."""
    seen = Counter(record_identity(r) for r in records)
    wanted = {(m, *ident) for m in models for ident in gold.identities()}
    expect(set(seen) == wanted, f"{what}: {len(set(seen) ^ wanted)} request identities differ from the gold anchors")
    dupes = [ident for ident, n in seen.items() if n > 1]
    expect(not dupes, f"{what}: {len(dupes)} identities recorded more than once")
    for record in records:
        expect(record["status"] == "ok", f"{what}: status {record['status']!r} for {record_identity(record)}")
        expect(
            record["attempts"] == attempts,
            f"{what}: {record['attempts']} attempts, want {attempts}, for {record_identity(record)}",
        )
    return {record_identity(r): r["text"] for r in records}


def prediction_identity(entry: Mapping, payload_field: str) -> tuple[str, str, str]:
    key = {k: v for k, v in entry.items() if k not in ("law", "model", payload_field)}
    return (entry.get("model", ""), entry["law"], key_json(key))


def check_parsed_equals_scripted(
    gold: Gold,
    models: Sequence[str],
    parsed_t1: Mapping,
    parsed_t2: Mapping,
    scripted_t1: Mapping[tuple[str, str], Sequence[str]],
    scripted_t2: Mapping[tuple[str, str], Sequence[str]],
) -> None:
    """Render-then-parse of native ids is the identity: every parsed ranking
    and label list equals the scripted prediction for the same key."""
    for task, payload, field, scripted in (
        ("task1", parsed_t1, "ranking", scripted_t1),
        ("task2", parsed_t2, "labels", scripted_t2),
    ):
        got = {prediction_identity(e, field): list(e[field]) for e in payload["predictions"]}
        expect(
            len(got) == len(payload["predictions"]),
            f"{task}: duplicate parsed predictions",
        )
        wanted_ids = {(m, law, key) for m in models for (t, law, key) in gold.identities() if t == task}
        expect(set(got) == wanted_ids, f"{task}: parsed prediction keys differ from the gold anchors")
        for (model, law, key), ids in got.items():
            want = list(scripted[(law, key)])
            expect(ids == want, f"{task} {model} {law} {key}: parsed {ids}, scripted {want}")


def check_identical_scores(results: Mapping, models: Sequence[str]) -> None:
    """Models answering identically get identical base metrics and composites."""
    blocks = results["models"]
    expect(sorted(blocks) == sorted(models), f"models scored: {sorted(blocks)}")
    first = models[0]
    for model in models[1:]:
        for part in ("task1", "task2", "coverage"):
            expect(blocks[model][part] == blocks[first][part], f"{model} {part} differs from {first}")
        ref = results["composites"]["models"][first]
        comp = results["composites"]["models"][model]
        expect_close(comp["ocs"], ref["ocs"], f"{model} ocs vs {first}", tol=1e-12)
        for task in ("task1", "task2"):
            expect_close(comp["crgs"][task], ref["crgs"][task], f"{model} crgs.{task} vs {first}", tol=1e-12)


def check_replay(
    first: Mapping[tuple[str, str, str, str], str],
    replayed: Mapping[tuple[str, str, str, str], str],
) -> None:
    """Every replayed response has the first run's text for the same identity."""
    expect(set(first) == set(replayed), "replay covers other request identities than the first run")
    for ident, text in replayed.items():
        expect(text == first[ident], f"replayed text differs for {ident}")


def check_same_predictions(a: Mapping, b: Mapping, what: str) -> None:
    expect(a["predictions"] == b["predictions"], f"{what}: parsed predictions differ")
