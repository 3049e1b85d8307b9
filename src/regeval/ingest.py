"""Parsing of raw model output into canonical predictions.

Only native identifier surface forms are extracted; everything else in the
response is discarded. Bare integers count as identifiers for the integer-id
laws only directly after a recognized prefix or inside a delimiter-continued
list, which keeps line numbers in free-text rationale from being captured.
"""

from __future__ import annotations

import json
import re
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import LineSpan
from .errors import OutOfUniverse, RegevalError
from .jurisdiction import Jurisdiction, JurisdictionRegistry
from .multilabel import PointerMatchReport, SetPrediction
from .retrieval import (
    RankedPrediction,
    RetrievalKey,
    gold_keys_for_records,
    match_keys,
)
from .shaping import ShapedViews, SnippetPointer

RANKED = "ranked"
SET = "set"

_CONNECTIVE = r"(?:\s*(?:,|;|/|&|\+|\band\b|\bor\b|\be\b)\s*)+"


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


class _LawScanner:
    """Compiled identifier grammar for one jurisdiction."""

    def __init__(self, jur: Jurisdiction):
        self.jur = jur
        words = sorted((p for p in jur.prefixes if p != "§"), key=len, reverse=True)
        prefix = rf"(?:§|(?<![A-Za-z])(?:{'|'.join(map(re.escape, words))})\s*\.?)"
        # A trailing sentence dot is fine; a letter or a further numeric
        # component (".3", "x") means the digits are part of something else.
        tail_guard = r"(?![A-Za-z])(?!\.?\d)"
        prefixed_token = rf"({jur.id_pattern}){tail_guard}"
        bare_token = rf"(?<![A-Za-z\d.])({jur.id_pattern}){tail_guard}"
        if jur.allow_bare_ids:
            self.head = re.compile(rf"(?:{prefix}\s*)?{bare_token}", re.IGNORECASE)
        else:
            self.head = re.compile(rf"{prefix}\s*{prefixed_token}", re.IGNORECASE)
        self.continuation = re.compile(
            rf"{_CONNECTIVE}(?:{prefix}\s*)?{bare_token}", re.IGNORECASE
        )

    def scan(self, text: str) -> list[str]:
        tokens: list[str] = []
        pos = 0
        while True:
            head = self.head.search(text, pos)
            if head is None:
                break
            tokens.append(head.group(1))
            pos = head.end()
            while True:
                cont = self.continuation.match(text, pos)
                if cont is None:
                    break
                tokens.append(cont.group(1))
                pos = cont.end()
        return tokens


_SCANNERS: "weakref.WeakKeyDictionary[JurisdictionRegistry, dict[str, _LawScanner]]" = None  # type: ignore[assignment]


def _scanner(registry: JurisdictionRegistry, law: str) -> _LawScanner:
    global _SCANNERS
    if _SCANNERS is None:
        _SCANNERS = weakref.WeakKeyDictionary()
    per_registry = _SCANNERS.setdefault(registry, {})
    scanner = per_registry.get(law)
    if scanner is None:
        scanner = _LawScanner(registry.get(law))
        per_registry[law] = scanner
    return scanner


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
    for token in _scanner(registry, law).scan(text or ""):
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


def _key_from_dict(law: str, data: Mapping) -> RetrievalKey:
    span = data.get("span")
    return RetrievalKey(
        law=law,
        repo_url=data["repo_url"],
        app_name=data["app_name"],
        commit_id=data["commit_id"],
        file_path=data["file_path"],
        granularity=data["granularity"],
        module=data.get("module"),
        span=LineSpan(*span) if span else None,
    )


def _pointer_from_dict(data: Mapping) -> SnippetPointer:
    return SnippetPointer(
        file_path=data["file_path"],
        span=LineSpan(*data["span"]),
        commit_id=data["commit_id"],
    )


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
            ranked.append(
                RankedPrediction(key=_key_from_dict(law, record["key"]), ranking=parsed.ids, model=model)
            )
        elif task == "task2":
            pointer = record.get("pointer", record.get("key"))
            sets.append(
                SetPrediction(
                    law=law,
                    pointer=_pointer_from_dict(pointer),
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
        "file_path": pred.pointer.file_path,
        "span": pred.pointer.span.as_list(),
        "commit_id": pred.pointer.commit_id,
        "labels": list(pred.labels),
        **({"model": pred.model} if pred.model else {}),
    }


def ranked_prediction_from_dict(data: Mapping, registry: JurisdictionRegistry) -> RankedPrediction:
    law = data["law"]
    ids: list[str] = []
    for raw in data["ranking"]:
        article = registry.canonicalize_article(str(raw), law).article
        if article not in ids:
            ids.append(article)
    return RankedPrediction(key=_key_from_dict(law, data), ranking=tuple(ids), model=data.get("model", ""))


def set_prediction_from_dict(data: Mapping, registry: JurisdictionRegistry) -> SetPrediction:
    law = data["law"]
    ids: list[str] = []
    for raw in data["labels"]:
        article = registry.canonicalize_article(str(raw), law).article
        if article not in ids:
            ids.append(article)
    return SetPrediction(
        law=law,
        pointer=_pointer_from_dict(data),
        labels=tuple(ids),
        model=data.get("model", ""),
    )


def write_prediction_files(
    out_dir: str | Path,
    ranked: Sequence[RankedPrediction],
    sets: Sequence[SetPrediction],
    config_echo: Mapping | None = None,
) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t1 = out / "predictions_task1.json"
    t2 = out / "predictions_task2.json"
    t1_payload = {
        "config": dict(config_echo or {}),
        "predictions": [ranked_prediction_to_dict(p) for p in ranked],
    }
    t2_payload = {
        "config": dict(config_echo or {}),
        "predictions": [set_prediction_to_dict(p) for p in sets],
    }
    # Machine-only files: compact JSON keeps the C encoder (indent forces the Python one).
    t1.write_text(json.dumps(t1_payload, sort_keys=True) + "\n", encoding="utf-8")
    t2.write_text(json.dumps(t2_payload, sort_keys=True) + "\n", encoding="utf-8")
    return t1, t2


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
    """Alignment of parsed predictions to gold anchors, plus diagnostics."""

    task1_alignment: dict[RetrievalKey, RankedPrediction] = field(default_factory=dict)
    task1_reports: dict[tuple[str, str], dict] = field(default_factory=dict)
    task2_report: dict[str, PointerMatchReport] = field(default_factory=dict)
    orphan_task1: list[dict] = field(default_factory=list)
    cardinality: dict[str, dict[str, dict[int, int]]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "task1": {f"{law}/{gran}": rep for (law, gran), rep in sorted(self.task1_reports.items())},
            "task2": {law: rep.to_dict() for law, rep in sorted(self.task2_report.items())},
            "orphan_task1_predictions": self.orphan_task1,
            "label_cardinality": {
                law: {task: dict(sorted(hist.items())) for task, hist in tasks.items()}
                for law, tasks in sorted(self.cardinality.items())
            },
        }


def bind_predictions(
    views: Mapping[str, ShapedViews],
    ranked: Sequence[RankedPrediction],
    sets: Sequence[SetPrediction],
    policy: str,
) -> BindResult:
    """Join predictions to gold keys/pointers and report coverage."""
    result = BindResult()
    gold_keys: dict[RetrievalKey, frozenset[str]] = {}
    for view in views.values():
        gold_keys.update(gold_keys_for_records(view.task1))

    slices = sorted({(k.law, k.granularity) for k in gold_keys})
    known_keys = set(gold_keys)
    matched_keys: set[RetrievalKey] = set()
    for law, gran in slices:
        slice_gold = [k for k in gold_keys if k.law == law and k.granularity == gran]
        slice_preds = [p for p in ranked if p.key.law == law and p.key.granularity == gran]
        alignment, report = match_keys(sorted(slice_gold, key=lambda k: k.sort_key()), slice_preds, policy)
        result.task1_alignment.update(alignment)
        result.task1_reports[(law, gran)] = report.to_dict()
        matched_keys.update(p.key for p in alignment.values())
    for pred in ranked:
        if pred.key not in known_keys and pred.key not in matched_keys:
            result.orphan_task1.append({"key": pred.key.to_dict(), "model": pred.model})

    gold_pointers: dict[str, set[SnippetPointer]] = {}
    for law, view in views.items():
        gold_pointers[law] = {rec.pointer for rec in view.task2}
    for law, pointers in sorted(gold_pointers.items()):
        report = PointerMatchReport(gold_pointers=len(pointers))
        law_preds = [p for p in sets if p.law == law]
        seen = set()
        for pred in law_preds:
            if pred.pointer in pointers:
                if pred.pointer not in seen:
                    report.matched_pointers += 1
                    seen.add(pred.pointer)
            else:
                report.orphans.append(
                    {
                        "file_path": pred.pointer.file_path,
                        "span": pred.pointer.span.as_list(),
                        "commit_id": pred.pointer.commit_id,
                        "model": pred.model,
                    }
                )
        result.task2_report[law] = report

    for pred in ranked:
        hist = result.cardinality.setdefault(pred.key.law, {}).setdefault("task1", {})
        hist[len(pred.ranking)] = hist.get(len(pred.ranking), 0) + 1
    for pred in sets:
        hist = result.cardinality.setdefault(pred.law, {}).setdefault("task2", {})
        hist[len(pred.labels)] = hist.get(len(pred.labels), 0) + 1
    return result
