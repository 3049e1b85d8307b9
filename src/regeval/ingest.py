"""Parsing of raw model output into canonical predictions.

Only native identifier surface forms are extracted; everything else in the
response is discarded. Bare integers count as identifiers for the integer-id
laws only directly after a recognized prefix or inside a delimiter-continued
list, which keeps line numbers in free-text rationale from being captured.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence, TextIO

from .corpus import DECODE_ERRORS, atomic_write, decode_each, encode_sorted, read_json
from .errors import MalformedPrediction, MalformedResponse, OutOfUniverse, RegevalError
from .harness import numbered_responses
from .jurisdiction import JurisdictionRegistry
from .multilabel import GoldPointers, SetPrediction, Task2Match, index_pointers, match_task2
from .retrieval import GoldSlice, RankedPrediction, Task1Match, gold_keys_for_records, index_gold_keys, match_task1
from .shaping import RetrievalKey, ShapedViews, SnippetPointer, decode_anchor, decode_pointer

RANKED = "ranked"
SET = "set"


class ParsedPrediction(NamedTuple):
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
            article = registry.canonicalize_article(token, law)
        except OutOfUniverse:
            dropped.append(token)
            continue
        if article not in seen:
            seen.add(article)
            ids.append(article)
    return ParsedPrediction(law=law, mode=mode, ids=tuple(ids), dropped_out_of_universe=tuple(dropped))


# --- response records -> prediction tables -------------------------------------


def parse_responses(
    path: str | Path,
    registry: JurisdictionRegistry,
) -> tuple[list[RankedPrediction], list[SetPrediction], dict[str, int]]:
    """Turn the records of a raw_responses.jsonl into canonical task-1 /
    task-2 predictions, and count the responses, the empty predictions and
    the ids dropped as out of universe. A record whose law is unknown or
    whose key or pointer is malformed raises MalformedResponse naming the
    file and the line. Each distinct key, pointer, law and model name is
    one object, shared by the rows of every model that answered it."""
    ranked: list[RankedPrediction] = []
    sets: list[SetPrediction] = []
    anchors: dict[tuple, tuple] = {}
    names: dict[str, str] = {}
    summary = {"responses": 0, "empty_predictions": 0, "dropped_out_of_universe": 0}
    for number, record in numbered_responses(path):
        law = record["law"]
        task1 = record["task"] == "task1"
        if law not in registry:
            raise MalformedResponse(f"{path}: line {number}: unknown jurisdiction: {law!r}")
        law = names.setdefault(law, law)
        try:
            if task1:
                target = decode_anchor(law, record["key"])
            else:
                target = decode_pointer(record["pointer"] if "pointer" in record else record["key"])
        except MalformedPrediction as exc:
            raise MalformedResponse(f"{path}: line {number}: {exc}") from None
        target = anchors.setdefault(target, target)
        summary["responses"] += 1
        parsed = parse_prediction_text(record.get("text", ""), law, RANKED if task1 else SET, registry)
        summary["dropped_out_of_universe"] += len(parsed.dropped_out_of_universe)
        if parsed.empty:
            summary["empty_predictions"] += 1
        model = record.get("model", "")
        model = names.setdefault(model, model)
        if task1:
            ranked.append(RankedPrediction(target, parsed.ids, model))
        else:
            sets.append(SetPrediction(law, target, parsed.ids, model))
    return ranked, sets, summary


# --- prediction file schemas ----------------------------------------------------


def ranked_prediction_to_dict(pred: RankedPrediction) -> dict:
    payload = RetrievalKey.to_dict(pred.key)
    payload["ranking"] = list(pred.ranking)
    if pred.model:
        payload["model"] = pred.model
    return payload


def set_prediction_to_dict(pred: SetPrediction) -> dict:
    return {
        "law": pred.law,
        **SnippetPointer.to_dict(pred.pointer),
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


# Entries per line of a prediction file: a list encodes as its items'
# encodings joined by ", " inside brackets, so a line costs one encoder call,
# and the reader holds only this many entries' text at once.
_WRITE_CHUNK = 64

# The head line of a prediction file is its encoded config between these.
_HEAD_START, _HEAD_END = '{"config": ', ', "predictions": [\n'


def _write_predictions(path: Path, config: dict, entries: Iterable[dict]) -> Path:
    """Write {"config": config, "predictions": [entries]} atomically as
    compact key-sorted JSON ("config" sorts before "predictions") in lines:
    the head up to "[", one line per chunk of entries, each but the last
    ending in ",", and "]}". `json.loads` reads the payload from it, and
    `_stream_entries` reads it back a line at a time."""
    entries = iter(entries)
    with atomic_write(path) as fh:
        fh.write(_HEAD_START + encode_sorted(config) + _HEAD_END)
        separator = ""
        while chunk := list(islice(entries, _WRITE_CHUNK)):
            fh.write(separator + encode_sorted(chunk)[1:-1])
            separator = ",\n"
        fh.write("\n]}\n" if separator else "]}\n")
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
            article = known[text] = registry.canonicalize_article(text, law)
        ids[article] = None
    return tuple(ids)


def _prediction_fields(entry, names: dict[str, str]) -> tuple[str, str]:
    """An entry's law and model, both strings, each the one object `names`
    holds for its text."""
    law = entry["law"]
    model = entry.get("model", "")
    if type(law) is not str or type(model) is not str:
        raise MalformedPrediction(f"law and model must be strings, got {law!r} and {model!r}")
    return names.setdefault(law, law), names.setdefault(model, model)


def _decode_entries(path: str | Path, decode) -> list[tuple]:
    """`decode` of each entry of the `predictions` list of the prediction file
    at `path`, with the rows and errors of `json.loads` on the whole text.

    A file in the layout `_write_predictions` writes, every entry of which
    decodes, is streamed a line at a time: neither the document nor its text
    is ever held whole. Any other file (another layout, text that is not JSON
    or not UTF-8, or an entry that `decode` rejects) is read whole and decoded
    again, so its error is that of `read_json`, or MalformedPrediction naming
    the file and, for a malformed entry, the entry's index."""
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            return _stream_entries(fh, decode)
    except (ValueError, *DECODE_ERRORS):  # UnicodeDecodeError is a ValueError
        pass
    data = read_json(path)
    entries = data.get("predictions") if isinstance(data, dict) else None
    if type(entries) is not list:
        raise MalformedPrediction(f"{path}: no 'predictions' list")
    return decode_each(path, entries, decode, "prediction", MalformedPrediction)


def _stream_entries(fh: TextIO, decode) -> list:
    """The decoded rows of a file in the written layout, each line decoded by
    `json.loads`; ValueError on any other text. A line must hold entries, so
    that the lines joined are the one JSON text `json.loads` would read."""
    head = fh.readline()
    if not (head.startswith(_HEAD_START) and head.endswith(_HEAD_END)):
        raise ValueError("not the written head")
    json.loads(head[len(_HEAD_START) : -len(_HEAD_END)])  # the config, checked only
    rows: list = []
    line = fh.readline()
    more = line != "]}\n"  # whether a line of entries follows
    while more:
        more = line.endswith(",\n")
        # A last line with no "\n" loses a character here; the missing end
        # line rejects the file anyway.
        chunk = json.loads("[" + line[: -2 if more else -1] + "]")
        if not chunk:
            raise ValueError("a line with no entries")
        rows.extend(map(decode, chunk))
        line = fh.readline()
    if line != "]}\n" or fh.read(1):
        raise ValueError("not the written end")
    return rows


class DecodeCache:
    """What the prediction files of one `eval` share, so that a value decoded
    from many entries, files or models is held once:

    - `ids[law]` maps the text of each stored id already resolved for `law`
      to its canonical id (see `_canonical_ids`);
    - `anchors` maps each decoded task-1 key and task-2 pointer to its one
      tuple; `GoldIndex.from_views` seeds it with every gold one, so a
      matching prediction holds the gold index's own key or pointer;
    - `names` maps each law and model name to its one string.

    Rankings and label tuples are not shared: real model output rarely
    repeats them."""

    __slots__ = ("ids", "anchors", "names")

    def __init__(self, anchors: dict[tuple, tuple] | None = None):
        self.ids: dict[str, dict[str, str]] = {}
        self.anchors = {} if anchors is None else anchors
        self.names: dict[str, str] = {}


def load_prediction_files(
    t1_path: str | Path,
    t2_path: str | Path,
    registry: JurisdictionRegistry,
    cache: DecodeCache | None = None,
) -> tuple[list[tuple], list[tuple]]:
    """Decode both prediction files straight to the rows `eval` joins, laid
    out like `RankedPrediction` (key, ranking, model) and `SetPrediction`
    (law, pointer, labels, model), ids canonical. Each key, pointer, law and
    model is the object `cache` holds for it; pass one cache, such as
    `GoldIndex.cache`, to every call of one `eval`."""
    # Rows, keys and pointers are exact tuples of strings, ints and None, so
    # the cyclic GC untracks a row once it has untracked the row's items. A
    # named tuple is never untracked: named-tuple rows made `eval` of the
    # 600-file five-profile cohort about 10% slower (medians of 16 fresh
    # processes 0.85 -> 0.93 s, and 0.64 -> 0.70 s under gc.disable()).
    cache = DecodeCache() if cache is None else cache
    memo, anchors, names = cache.ids, cache.anchors, cache.names

    def ranked_row(entry) -> tuple:
        law, model = _prediction_fields(entry, names)
        key = decode_anchor(law, entry)
        ranking = _canonical_ids(entry["ranking"], law, registry, memo)
        return (anchors.setdefault(key, key), ranking, model)

    def set_row(entry) -> tuple:
        law, model = _prediction_fields(entry, names)
        pointer = decode_pointer(entry)
        labels = _canonical_ids(entry["labels"], law, registry, memo)
        return (law, anchors.setdefault(pointer, pointer), labels, model)

    return _decode_entries(t1_path, ranked_row), _decode_entries(t2_path, set_row)


# --- binding -------------------------------------------------------------------


class GoldIndex(NamedTuple):
    """The gold anchors (per law and granularity) and task-2 pointers (per
    law) of the loaded views, indexed once per `eval` and shared by every
    model's join."""

    task1: dict[tuple[str, str], GoldSlice]
    task2: dict[str, GoldPointers]
    cache: DecodeCache

    @classmethod
    def from_views(cls, views: Mapping[str, ShapedViews]) -> "GoldIndex":
        """The index of `views`, with a `cache` whose `anchors` hold the
        views' own tuple of every gold key and pointer, for this `eval`'s
        prediction files to share."""
        task1 = index_gold_keys(gold_keys_for_records([rec for view in views.values() for rec in view.task1]))
        task2 = index_pointers([rec for view in views.values() for rec in view.task2])
        anchors = chain(
            (key for gold_slice in task1.values() for key in gold_slice.keys),
            (pointer for pointers in task2.values() for pointer in pointers.slot),
        )
        return cls(task1, task2, DecodeCache(anchors={anchor: anchor for anchor in anchors}))


class BindResult:
    """The one join of a model's predictions to gold: per-slice task-1 and
    per-law task-2 matches, which scoring reads, plus diagnostics."""

    __slots__ = ("task1", "task2", "orphan_task1", "cardinality")

    def __init__(
        self,
        task1: dict[tuple[str, str], Task1Match] | None = None,
        task2: dict[str, Task2Match] | None = None,
    ):
        self.task1 = {} if task1 is None else task1
        self.task2 = {} if task2 is None else task2
        self.orphan_task1: list[dict] = []
        self.cardinality: dict[str, dict[str, dict[int, int]]] = {}

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

    def stray_laws(self) -> list[str]:
        """The laws, sorted, for which the joined rows match no gold key
        (relaxed fallbacks count) and no gold pointer."""
        matched = Counter()
        for (law, _gran), match in self.task1.items():
            matched[law] += match.report.matched_keys
        for law, match in self.task2.items():
            matched[law] += match.report.matched_pointers
        return [law for law in sorted(self.cardinality) if not matched[law]]


def bind_predictions(
    gold: GoldIndex,
    ranked: Sequence[tuple],
    sets: Sequence[tuple],
    policy: str,
) -> BindResult:
    """Join one model's prediction rows, laid out like `RankedPrediction`
    and `SetPrediction`, to the gold index and report coverage."""
    task1, orphans = match_task1(gold.task1, ranked, policy)
    result = BindResult(task1=task1, task2=match_task2(gold.task2, sets))
    result.orphan_task1 = [{"key": RetrievalKey.to_dict(key), "model": model} for key, _ranking, model in orphans]
    sizes = {
        "task1": Counter((key[0], len(ranking)) for key, ranking, _model in ranked),
        "task2": Counter((law, len(labels)) for law, _pointer, labels, _model in sets),
    }
    for task, counts in sizes.items():
        for (law, size), count in counts.items():
            result.cardinality.setdefault(law, {}).setdefault(task, {})[size] = count
    return result
