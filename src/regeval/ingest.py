"""Parsing of raw model output into canonical predictions.

Only native identifier surface forms are extracted; everything else in the
response is discarded. Bare integers count as identifiers for the integer-id
laws only directly after a recognized prefix or inside a delimiter-continued
list, which keeps line numbers in free-text rationale from being captured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import write_json
from .errors import OutOfUniverse, RegevalError
from .jurisdiction import JurisdictionRegistry
from .multilabel import SetPrediction, Task2Match, match_task2
from .retrieval import (
    RankedPrediction,
    RetrievalKey,
    Task1Match,
    match_task1,
)
from .shaping import ShapedViews, SnippetPointer

RANKED = "ranked"
SET = "set"


@dataclass(frozen=True)
class ParsedPrediction:
    """Canonical ids in first-occurrence order plus parse diagnostics."""

    law: str
    mode: str
    ids: tuple[str, ...]
    dropped_out_of_universe: tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.ids


def parse_prediction_text(
    text: str,
    law: str,
    mode: str,
    registry: JurisdictionRegistry,
) -> ParsedPrediction:
    """Extract canonical article ids from free-form model output.

    Never raises on bad text: unparseable output yields an empty prediction,
    and identifiers outside the label universe are dropped and counted.
    """
    if mode not in (RANKED, SET):
        raise RegevalError(f"unknown parse mode: {mode!r}")
    ids: list[str] = []
    dropped: list[str] = []
    seen: set[str] = set()
    for token in registry.get(law).scan(text or ""):
        try:
            ref = registry.canonicalize_article(token, law)
        except OutOfUniverse:
            dropped.append(token)
            continue
        if ref.article not in seen:
            seen.add(ref.article)
            ids.append(ref.article)
    return ParsedPrediction(law=law, mode=mode, ids=tuple(ids), dropped_out_of_universe=tuple(dropped))


# --- response records -> prediction tables -------------------------------------


@dataclass
class ParseSummary:
    responses: int = 0
    empty_predictions: int = 0
    dropped_out_of_universe: int = 0

    def to_dict(self) -> dict:
        return {
            "responses": self.responses,
            "empty_predictions": self.empty_predictions,
            "dropped_out_of_universe": self.dropped_out_of_universe,
        }


def parse_responses(
    records: Iterable[Mapping],
    registry: JurisdictionRegistry,
) -> tuple[list[RankedPrediction], list[SetPrediction], ParseSummary]:
    """Turn raw response records into canonical task-1 / task-2 predictions."""
    ranked: list[RankedPrediction] = []
    sets: list[SetPrediction] = []
    summary = ParseSummary()
    for record in records:
        summary.responses += 1
        law = record["law"]
        task = record["task"]
        mode = RANKED if task == "task1" else SET
        parsed = parse_prediction_text(record.get("text", ""), law, mode, registry)
        summary.dropped_out_of_universe += len(parsed.dropped_out_of_universe)
        if parsed.empty:
            summary.empty_predictions += 1
        model = record.get("model", "")
        if task == "task1":
            key = RetrievalKey.from_dict(law, record["key"])
            ranked.append(RankedPrediction(key=key, ranking=parsed.ids, model=model))
        elif task == "task2":
            pointer = record.get("pointer", record.get("key"))
            sets.append(
                SetPrediction(
                    law=law,
                    pointer=SnippetPointer.from_dict(pointer),
                    labels=parsed.ids,
                    model=model,
                )
            )
        else:
            raise RegevalError(f"unknown task in response record: {task!r}")
    return ranked, sets, summary


# --- prediction file schemas ----------------------------------------------------


def ranked_prediction_to_dict(pred: RankedPrediction) -> dict:
    payload = pred.key.to_dict()
    payload["ranking"] = list(pred.ranking)
    if pred.model:
        payload["model"] = pred.model
    return payload


def set_prediction_to_dict(pred: SetPrediction) -> dict:
    return {
        "law": pred.law,
        **pred.pointer.to_dict(),
        "labels": list(pred.labels),
        **({"model": pred.model} if pred.model else {}),
    }


def _canonical_ids(raw_ids: Iterable, law: str, registry: JurisdictionRegistry) -> tuple[str, ...]:
    """Canonical ids of a stored id list, duplicates dropped, first occurrence kept."""
    ids = {registry.canonicalize_article(str(raw), law).article: None for raw in raw_ids}
    return tuple(ids)


def ranked_prediction_from_dict(data: Mapping, registry: JurisdictionRegistry) -> RankedPrediction:
    law = data["law"]
    return RankedPrediction(
        key=RetrievalKey.from_dict(law, data),
        ranking=_canonical_ids(data["ranking"], law, registry),
        model=data.get("model", ""),
    )


def set_prediction_from_dict(data: Mapping, registry: JurisdictionRegistry) -> SetPrediction:
    law = data["law"]
    return SetPrediction(
        law=law,
        pointer=SnippetPointer.from_dict(data),
        labels=_canonical_ids(data["labels"], law, registry),
        model=data.get("model", ""),
    )


def write_prediction_files(
    out_dir: str | Path,
    ranked: Sequence[RankedPrediction],
    sets: Sequence[SetPrediction],
    config_echo: Mapping | None = None,
) -> tuple[Path, Path]:
    out = Path(out_dir)
    t1_payload = {
        "config": dict(config_echo or {}),
        "predictions": [ranked_prediction_to_dict(p) for p in ranked],
    }
    t2_payload = {
        "config": dict(config_echo or {}),
        "predictions": [set_prediction_to_dict(p) for p in sets],
    }
    # Machine-only files: compact, so the C encoder writes them.
    return (
        write_json(out / "predictions_task1.json", t1_payload, indent=None),
        write_json(out / "predictions_task2.json", t2_payload, indent=None),
    )


def load_prediction_files(
    t1_path: str | Path,
    t2_path: str | Path,
    registry: JurisdictionRegistry,
) -> tuple[list[RankedPrediction], list[SetPrediction]]:
    ranked = []
    sets = []
    t1_data = json.loads(Path(t1_path).read_text(encoding="utf-8"))
    for entry in t1_data["predictions"]:
        ranked.append(ranked_prediction_from_dict(entry, registry))
    t2_data = json.loads(Path(t2_path).read_text(encoding="utf-8"))
    for entry in t2_data["predictions"]:
        sets.append(set_prediction_from_dict(entry, registry))
    return ranked, sets


# --- binding -------------------------------------------------------------------


@dataclass
class BindResult:
    """The one join of a model's predictions to gold: per-slice task-1 and
    per-law task-2 matches, which scoring reads, plus diagnostics."""

    task1: dict[tuple[str, str], Task1Match] = field(default_factory=dict)
    task2: dict[str, Task2Match] = field(default_factory=dict)
    orphan_task1: list[dict] = field(default_factory=list)
    cardinality: dict[str, dict[str, dict[int, int]]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "task1": {f"{law}/{gran}": m.report.to_dict() for (law, gran), m in sorted(self.task1.items())},
            "task2": {law: m.report.to_dict() for law, m in sorted(self.task2.items())},
            "orphan_task1_predictions": self.orphan_task1,
            "label_cardinality": {
                law: {task: dict(sorted(hist.items())) for task, hist in tasks.items()}
                for law, tasks in sorted(self.cardinality.items())
            },
        }


def bind_predictions(
    views: Mapping[str, ShapedViews],
    gold: Mapping[RetrievalKey, frozenset[str]],
    ranked: Sequence[RankedPrediction],
    sets: Sequence[SetPrediction],
    policy: str,
) -> BindResult:
    """Join predictions to gold keys/pointers and report coverage.

    `gold` is `gold_keys_for_records` of the views' task-1 records, expanded
    once by the caller and shared by every model it binds.
    """
    result = BindResult(
        task1=match_task1(gold, ranked, policy),
        task2=match_task2([rec for view in views.values() for rec in view.task2], sets),
    )
    matched_keys = {p.key for m in result.task1.values() for p in m.alignment.values()}
    for pred in ranked:
        if pred.key not in gold and pred.key not in matched_keys:
            result.orphan_task1.append({"key": pred.key.to_dict(), "model": pred.model})

    for pred in ranked:
        hist = result.cardinality.setdefault(pred.key.law, {}).setdefault("task1", {})
        hist[len(pred.ranking)] = hist.get(len(pred.ranking), 0) + 1
    for pred in sets:
        hist = result.cardinality.setdefault(pred.law, {}).setdefault("task2", {})
        hist[len(pred.labels)] = hist.get(len(pred.labels), 0) + 1
    return result
