"""Parsing of raw model output into canonical predictions.

Only native identifier surface forms are extracted; everything else in the
response is discarded. Bare integers count as identifiers for the integer-id
laws only directly after a recognized prefix or inside a delimiter-continued
list, which keeps line numbers in free-text rationale from being captured.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import atomic_write, encode_sorted
from .errors import MalformedPrediction, OutOfUniverse, RegevalError
from .jurisdiction import JurisdictionRegistry
from .multilabel import GoldPointers, SetPrediction, Task2Match, index_pointers, match_task2
from .retrieval import (
    GoldSlice,
    RankedPrediction,
    RetrievalKey,
    Task1Match,
    decode_anchor,
    gold_keys_for_records,
    index_gold_keys,
    match_task1,
)
from .shaping import ShapedViews, SnippetPointer, decode_pointer

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


def write_prediction_files(
    out_dir: str | Path,
    ranked: Sequence[RankedPrediction],
    sets: Sequence[SetPrediction],
    config_echo: Mapping | None = None,
) -> tuple[Path, Path]:
    out = Path(out_dir)
    config = dict(config_echo or {})
    return (
        _write_predictions(out / "predictions_task1.json", config, map(ranked_prediction_to_dict, ranked)),
        _write_predictions(out / "predictions_task2.json", config, map(set_prediction_to_dict, sets)),
    )


# Entries encoded per call: a list encodes as its items' encodings joined by
# ", " inside brackets, so a chunk costs one encoder call and holds only
# this many entries' text at once.
_WRITE_CHUNK = 1024


def _write_predictions(path: Path, config: dict, entries: Iterable[dict]) -> Path:
    """Write {"config": config, "predictions": [entries]} a chunk of entries
    at a time, atomically. The bytes are those of
    `write_json(path, payload, indent=None)`: compact key-sorted JSON plus a
    newline, and "config" sorts before "predictions"."""
    entries = iter(entries)
    with atomic_write(path) as fh:
        fh.write(f'{{"config": {encode_sorted(config)}, "predictions": [')
        separator = ""
        while chunk := list(islice(entries, _WRITE_CHUNK)):
            fh.write(separator + encode_sorted(chunk)[1:-1])
            separator = ", "
        fh.write("]}\n")
    return path


def _canonical_ids(
    raw_ids, law: str, registry: JurisdictionRegistry, memo: dict[str, dict[str, str]]
) -> tuple[str, ...]:
    """Canonical ids of a stored id list, duplicates dropped, first occurrence
    kept. `memo[law]` maps the text of each id already resolved for `law` to
    its canonical id; only successes are stored, so any other id goes through
    `canonicalize_article` and still raises there."""
    if type(raw_ids) is not list:
        raise MalformedPrediction(f"ids must be a list, got {raw_ids!r}")
    known = memo.setdefault(law, {})
    ids: dict[str, None] = {}
    for raw in raw_ids:
        try:
            article = known[raw]
        except (KeyError, TypeError):
            text = str(raw)
            article = known[text] = registry.canonicalize_article(text, law).article
        ids[article] = None
    return tuple(ids)


def _prediction_fields(entry) -> tuple[str, str]:
    """An entry's law and model, both strings."""
    law = entry["law"]
    model = entry.get("model", "")
    if type(law) is not str or type(model) is not str:
        raise MalformedPrediction(f"law and model must be strings, got {law!r} and {model!r}")
    return law, model


def _decode_entries(path: str | Path, decode) -> list[tuple]:
    """`decode` of each entry of a prediction file; a malformed entry raises
    MalformedPrediction naming the file and the entry's index."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = data.get("predictions") if isinstance(data, dict) else None
    if type(entries) is not list:
        raise MalformedPrediction(f"{path}: no 'predictions' list")
    rows = []
    for index, entry in enumerate(entries):
        try:
            rows.append(decode(entry))
        except KeyError as exc:
            raise MalformedPrediction(f"{path}: prediction {index}: missing field {exc.args[0]!r}") from None
        except (MalformedPrediction, TypeError) as exc:
            raise MalformedPrediction(f"{path}: prediction {index}: {exc}") from None
    return rows


def load_prediction_files(
    t1_path: str | Path,
    t2_path: str | Path,
    registry: JurisdictionRegistry,
    memo: dict[str, dict[str, str]] | None = None,
) -> tuple[list[tuple], list[tuple]]:
    """Decode both prediction files straight to the rows `eval` joins:
    task 1 (anchor, ranking, model) and task 2 (law, pointer anchor, labels,
    model), ids canonical. `memo` holds the canonical ids resolved so far
    (see `_canonical_ids`); pass one dict to every call of one `eval`."""
    memo = {} if memo is None else memo

    def ranked_row(entry) -> tuple:
        law, model = _prediction_fields(entry)
        return (decode_anchor(law, entry), _canonical_ids(entry["ranking"], law, registry, memo), model)

    def set_row(entry) -> tuple:
        law, model = _prediction_fields(entry)
        return (law, decode_pointer(entry), _canonical_ids(entry["labels"], law, registry, memo), model)

    return _decode_entries(t1_path, ranked_row), _decode_entries(t2_path, set_row)


# --- binding -------------------------------------------------------------------


@dataclass
class GoldIndex:
    """The gold anchors (per law and granularity) and task-2 pointers (per
    law) of the loaded views, indexed once per `eval` and shared by every
    model's join."""

    task1: dict[tuple[str, str], GoldSlice]
    task2: dict[str, GoldPointers]

    @classmethod
    def from_views(cls, views: Mapping[str, ShapedViews]) -> "GoldIndex":
        return cls(
            task1=index_gold_keys(gold_keys_for_records([rec for view in views.values() for rec in view.task1])),
            task2=index_pointers([rec for view in views.values() for rec in view.task2]),
        )


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
    gold: GoldIndex,
    ranked: Sequence[tuple],
    sets: Sequence[tuple],
    policy: str,
) -> BindResult:
    """Join one model's prediction rows (as `load_prediction_files` decodes
    them) to the gold index and report coverage."""
    task1, orphans = match_task1(gold.task1, ranked, policy)
    result = BindResult(task1=task1, task2=match_task2(gold.task2, sets))
    result.orphan_task1 = [
        {"key": RetrievalKey.from_anchor(anchor).to_dict(), "model": model} for anchor, _ranking, model in orphans
    ]
    sizes = {
        "task1": Counter((anchor[0], len(ranking)) for anchor, ranking, _model in ranked),
        "task2": Counter((law, len(labels)) for law, _anchor, labels, _model in sets),
    }
    for task, counts in sizes.items():
        for (law, size), count in counts.items():
            result.cardinality.setdefault(law, {}).setdefault(task, {})[size] = count
    return result
