"""Localization (task 1) base metrics over ranked article predictions.

Metrics are computed per gold key and averaged without weighting. Gold keys
that attract no prediction under the active matching policy count as all-zero
rows, so coverage gaps lower the averages instead of hiding inside them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .corpus import LineSpan, decode_span
from .errors import EmptyGold, MalformedPrediction
from .jurisdiction import JurisdictionRegistry
from .shaping import GRANULARITIES, Task1Record

STRICT = "strict"
RELAXED = "relaxed"

T1_METRIC_NAMES = ("acc_at_1", "acc_at_5", "r_precision", "mrr", "map", "ndcg_at_5")


def _require_gold(gold: frozenset[str] | set[str]) -> None:
    if not gold:
        raise EmptyGold("gold set is empty")


def acc_at_k(gold: Iterable[str], ranking: Sequence[str], k: int) -> float:
    """Recall of the gold set within the top-k ranks."""
    gold = frozenset(gold)
    _require_gold(gold)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return len(gold.intersection(ranking[:k])) / len(gold)


def r_precision(gold: Iterable[str], ranking: Sequence[str]) -> float:
    """Precision at depth R = |gold|; short rankings are not padded."""
    gold = frozenset(gold)
    _require_gold(gold)
    depth = len(gold)
    return len(gold.intersection(ranking[:depth])) / depth


def mrr(gold: Iterable[str], ranking: Sequence[str]) -> float:
    """Reciprocal rank of the first correct prediction, zero if no hit."""
    gold = frozenset(gold)
    _require_gold(gold)
    for position, item in enumerate(ranking, start=1):
        if item in gold:
            return 1.0 / position
    return 0.0


def map_score(gold: Iterable[str], ranking: Sequence[str]) -> float:
    """Average precision over all gold items; items missing from the ranking
    contribute zero while keeping |gold| as the denominator."""
    gold = frozenset(gold)
    _require_gold(gold)
    total = 0.0
    hits = 0
    for position, item in enumerate(ranking, start=1):
        if item in gold:
            hits += 1
            total += hits / position
    return total / len(gold)


def ndcg_at_5(gold: Iterable[str], ranking: Sequence[str]) -> float:
    """Binary-gain nDCG at rank 5 against the ideal ordering."""
    gold = frozenset(gold)
    _require_gold(gold)
    dcg = sum(
        1.0 / math.log2(position + 1)
        for position, item in enumerate(ranking[:5], start=1)
        if item in gold
    )
    ideal = sum(1.0 / math.log2(position + 1) for position in range(1, min(len(gold), 5) + 1))
    return dcg / ideal


# Rank discounts 1/log2(p + 1) for p = 1..5, and the ideal DCG@5 for
# 1..5 gold items, each summed exactly as `ndcg_at_5` sums it.
_DISCOUNTS = tuple(1.0 / math.log2(position + 1) for position in range(1, 6))
_IDEAL_DCG = tuple(sum(_DISCOUNTS[:n]) for n in range(1, 6))


@dataclass(frozen=True)
class RetrievalMetrics:
    """Higher-is-better six-vector for one (law, granularity) slice."""

    acc_at_1: float
    acc_at_5: float
    r_precision: float
    mrr: float
    map: float
    ndcg_at_5: float

    def as_tuple(self) -> tuple[float, ...]:
        return (self.acc_at_1, self.acc_at_5, self.r_precision, self.mrr, self.map, self.ndcg_at_5)

    def to_dict(self) -> dict[str, float]:
        return dict(zip(T1_METRIC_NAMES, self.as_tuple()))

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "RetrievalMetrics":
        return cls(*(float(data[name]) for name in T1_METRIC_NAMES))

    @classmethod
    def zeros(cls) -> "RetrievalMetrics":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def score_ranking(gold: Iterable[str], ranking: Sequence[str]) -> RetrievalMetrics:
    """All six metrics of one ranking, equal bit for bit to the per-metric
    functions above."""
    gold = frozenset(gold)
    _require_gold(gold)
    return RetrievalMetrics(*_metric_row(gold, ranking))


def _metric_row(gold: frozenset[str], ranking: Sequence[str]) -> tuple[float, ...]:
    """`score_ranking` of a non-empty gold set as a plain tuple. MRR, MAP and
    nDCG@5 come from one pass over the ranking, summed in the same order as
    the per-metric functions; the set-based metrics keep their
    intersections, so rankings with repeated ids score as they do there."""
    size = len(gold)
    reciprocal_rank = 0.0
    precision_sum = 0.0
    gains: list[float] = []
    hits = 0
    for position, item in enumerate(ranking, start=1):
        if item in gold:
            hits += 1
            if hits == 1:
                reciprocal_rank = 1.0 / position
            precision_sum += hits / position
            if position <= 5:
                gains.append(_DISCOUNTS[position - 1])
    return (
        len(gold.intersection(ranking[:1])) / size,
        len(gold.intersection(ranking[:5])) / size,
        len(gold.intersection(ranking[:size])) / size,
        reciprocal_rank,
        precision_sum / size,
        sum(gains) / _IDEAL_DCG[min(size, 5) - 1],
    )


@dataclass(frozen=True)
class RetrievalKey:
    """Full pointer identity for one task-1 gold anchor."""

    law: str
    repo_url: str
    app_name: str
    commit_id: str
    file_path: str
    granularity: str
    module: str | None = None
    span: LineSpan | None = None

    def anchor(self) -> tuple:
        """The key as a plain tuple, which `eval` joins on: (law, granularity,
        repo_url, app_name, commit_id, file_path, module, span_start,
        span_end), with None for a missing module or span."""
        span = self.span
        return (
            self.law,
            self.granularity,
            self.repo_url,
            self.app_name,
            self.commit_id,
            self.file_path,
            self.module,
            span.start if span else None,
            span.end if span else None,
        )

    def sort_key(self) -> tuple:
        span = self.span.as_list() if self.span else [0, 0]
        return (
            self.law,
            self.repo_url,
            self.file_path,
            self.granularity,
            self.module or "",
            span[0],
            span[1],
            self.app_name,
            self.commit_id,
        )

    def to_dict(self) -> dict:
        payload = {
            "law": self.law,
            "repo_url": self.repo_url,
            "app_name": self.app_name,
            "commit_id": self.commit_id,
            "file_path": self.file_path,
            "granularity": self.granularity,
        }
        if self.module is not None:
            payload["module"] = self.module
        if self.span is not None:
            payload["span"] = self.span.as_list()
        return payload

    @classmethod
    def from_anchor(cls, anchor: tuple) -> "RetrievalKey":
        law, granularity, repo_url, app_name, commit_id, file_path, module, start, end = anchor
        return cls(
            law=law,
            repo_url=repo_url,
            app_name=app_name,
            commit_id=commit_id,
            file_path=file_path,
            granularity=granularity,
            module=module,
            span=None if start is None else LineSpan(start, end),
        )

    @classmethod
    def from_dict(cls, law: str, data: Mapping) -> "RetrievalKey":
        """Inverse of `to_dict`; `law` is passed because request keys omit it."""
        return cls.from_anchor(decode_anchor(law, data))


def decode_anchor(law: str, data: Mapping) -> tuple:
    """`RetrievalKey.anchor()` of the key a dict encodes, read without
    building the key: the one reader of task-1 key fields from a dict."""
    try:
        granularity = data["granularity"]
        repo_url = data["repo_url"]
        app_name = data["app_name"]
        commit_id = data["commit_id"]
        file_path = data["file_path"]
    except KeyError as exc:
        raise MalformedPrediction(f"missing key field {exc.args[0]!r}") from None
    module = data.get("module")
    if (
        type(granularity) is not str
        or type(repo_url) is not str
        or type(app_name) is not str
        or type(commit_id) is not str
        or type(file_path) is not str
        or (module is not None and type(module) is not str)
    ):
        raise MalformedPrediction("key fields must be strings")
    span = data.get("span")
    start, end = (None, None) if span is None else decode_span(span)
    return (law, granularity, repo_url, app_name, commit_id, file_path, module, start, end)


def file_identity(anchor: tuple) -> tuple:
    """(law, granularity, repo_url, app_name, commit_id, file_path): the
    anchor fields the relaxed policy falls back to."""
    return anchor[:6]


@dataclass(frozen=True)
class RankedPrediction:
    """Duplicate-free ranked article ids bound to one gold anchor."""

    key: RetrievalKey
    ranking: tuple[str, ...]
    model: str = ""

    def row(self) -> tuple:
        """The prediction as `eval` joins it: (anchor, ranking, model)."""
        return (self.key.anchor(), self.ranking, self.model)


def gold_keys_for_records(records: Sequence[Task1Record]) -> dict[RetrievalKey, frozenset[str]]:
    """Expand shaped records into per-granularity gold anchors."""
    gold: dict[RetrievalKey, frozenset[str]] = {}
    for rec in records:
        base = dict(
            law=rec.law,
            repo_url=rec.key.repo_url,
            app_name=rec.key.app_name,
            commit_id=rec.key.commit_id,
            file_path=rec.key.file_path,
        )
        gold[RetrievalKey(granularity="file", **base)] = rec.file_gold
        gold[RetrievalKey(granularity="module", module=rec.module_name, **base)] = rec.module_gold
        for entry in rec.line_entries:
            gold[RetrievalKey(granularity="line", span=entry.span, **base)] = entry.gold
    return gold


@dataclass
class GoldSlice:
    """The gold anchors of one (law, granularity) slice, indexed once per
    `eval` and shared by every model's join. Slot i holds `keys[i]` and its
    gold set `golds[i]`, in the order the keys were expanded, which fixes the
    order in which the metric means are summed; `slot` maps each key's anchor
    to its slot."""

    keys: list[RetrievalKey] = field(default_factory=list)
    golds: list[frozenset[str]] = field(default_factory=list)
    slot: dict[tuple, int] = field(default_factory=dict)

    def add(self, key: RetrievalKey, gold_set: frozenset[str]) -> None:
        if not gold_set:
            raise EmptyGold(f"gold set empty for key {key.to_dict()}")
        self.slot[key.anchor()] = len(self.keys)
        self.keys.append(key)
        self.golds.append(gold_set)

    @cached_property
    def sort_order(self) -> list[int]:
        """Slots in `RetrievalKey.sort_key` order: the order in which the
        relaxed fallback visits the gold keys and logs its collisions."""
        return sorted(range(len(self.keys)), key=lambda slot: self.keys[slot].sort_key())


def index_gold_keys(gold: Mapping[RetrievalKey, frozenset[str]]) -> dict[tuple[str, str], GoldSlice]:
    """Slice expanded gold keys by (law, granularity): every granularity of
    every law with gold, laws in sorted order, empty slices included."""
    slices = {
        (law, granularity): GoldSlice()
        for law in sorted({key.law for key in gold})
        for granularity in GRANULARITIES
    }
    for key, gold_set in gold.items():
        slices[(key.law, key.granularity)].add(key, gold_set)
    return slices


@dataclass
class KeyMatchReport:
    """Coverage of gold anchors by predictions under one matching policy."""

    policy: str
    gold_keys: int = 0
    matched_keys: int = 0
    unmatched: list[RetrievalKey] = field(default_factory=list)
    duplicates: list[dict] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        return self.matched_keys / self.gold_keys if self.gold_keys else 0.0

    def first_kept(self, key: RetrievalKey, policy: str) -> None:
        """Log that several predictions claimed `key` and the first one won."""
        self.duplicates.append({"key": key.to_dict(), "policy": policy, "action": "first kept"})

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "gold_keys": self.gold_keys,
            "matched_keys": self.matched_keys,
            "coverage": self.coverage,
            "unmatched": [key.to_dict() for key in sorted(self.unmatched, key=lambda k: k.sort_key())],
            "duplicate_prediction_keys": self.duplicates,
        }


@dataclass
class Task1Match:
    """One slice's join. `aligned[i]` is the prediction row matched to gold
    slot i, or None; `orphans` are the slice's rows that match no gold anchor
    (and, under the relaxed policy, serve as no fallback), in prediction
    order."""

    gold: GoldSlice
    aligned: list[tuple | None]
    report: KeyMatchReport
    orphans: list[tuple]


@dataclass
class Task1Evaluation:
    metrics: RetrievalMetrics
    report: KeyMatchReport
    truncated_rankings: int = 0

    def to_dict(self) -> dict:
        return {
            "metrics": self.metrics.to_dict(),
            "coverage": self.report.to_dict(),
            "truncated_rankings": self.truncated_rankings,
        }


def match_keys(gold: GoldSlice, predictions: Sequence[tuple], policy: str = STRICT) -> Task1Match:
    """Align one slice's prediction rows, (anchor, ranking, model), to its
    gold anchors: one anchor lookup per prediction.

    Strict matching needs anchor equality. Relaxed matching falls back to
    file identity when the anchor misses, as a coverage-ceiling diagnostic.
    When several predictions claim one gold key the first wins and the
    collision is logged, never raised.
    """
    if policy not in (STRICT, RELAXED):
        raise ValueError(f"unknown policy: {policy!r}")
    report = KeyMatchReport(policy=policy, gold_keys=len(gold.keys))
    aligned: list[tuple | None] = [None] * len(gold.keys)
    slot_of = gold.slot
    strays: list[tuple] = []
    stray_anchors: set[tuple] = set()
    for row in predictions:
        slot = slot_of.get(row[0])
        if slot is None:
            if row[0] in stray_anchors:
                report.first_kept(RetrievalKey.from_anchor(row[0]), STRICT)
            else:
                stray_anchors.add(row[0])
            strays.append(row)
        elif aligned[slot] is None:
            aligned[slot] = row
        else:
            report.first_kept(gold.keys[slot], STRICT)
    report.matched_keys = len(gold.keys) - aligned.count(None)

    if policy == RELAXED:
        by_file: dict[tuple, list[tuple]] = {}
        for row in predictions:
            by_file.setdefault(file_identity(row[0]), []).append(row)
        fallbacks: set[tuple] = set()
        for slot in gold.sort_order:
            if aligned[slot] is not None:
                continue
            candidates = by_file.get(file_identity(gold.keys[slot].anchor()))
            if candidates:
                aligned[slot] = candidates[0]
                fallbacks.add(candidates[0][0])
                report.matched_keys += 1
                if len(candidates) > 1:
                    report.first_kept(gold.keys[slot], RELAXED)
        strays = [row for row in strays if row[0] not in fallbacks]

    report.unmatched = [gold.keys[slot] for slot, row in enumerate(aligned) if row is None]
    return Task1Match(gold, aligned, report, strays)


def match_task1(
    slices: Mapping[tuple[str, str], GoldSlice],
    predictions: Sequence[tuple],
    policy: str = STRICT,
) -> tuple[dict[tuple[str, str], Task1Match], list[tuple]]:
    """One `match_keys` call per slice, plus the orphan rows of all slices in
    prediction order: rows that match no gold anchor and serve as no relaxed
    fallback, including rows of a (law, granularity) with no slice."""
    by_slice: dict[tuple[str, str], list[tuple]] = {slice_key: [] for slice_key in slices}
    strays: set[int] = set()
    for row in predictions:
        rows = by_slice.get(row[0][:2])  # an anchor starts with (law, granularity)
        if rows is None:
            strays.add(id(row))
        else:
            rows.append(row)
    matches = {
        slice_key: match_keys(gold, by_slice[slice_key], policy) for slice_key, gold in slices.items()
    }
    # Orphans are picked out of `predictions` by identity, which keeps their
    # order without hashing any anchor again.
    strays.update(id(row) for match in matches.values() for row in match.orphans)
    orphans = [row for row in predictions if id(row) in strays] if strays else []
    return matches, orphans


def score_task1(
    matches: Mapping[tuple[str, str], Task1Match],
    registry: JurisdictionRegistry,
) -> dict[tuple[str, str], Task1Evaluation]:
    """Per-slice metric means over all gold keys.

    Unmatched gold keys contribute all-zero rows. Rankings longer than the
    label universe are truncated (extra ranks cannot contain hits) and the
    truncation is counted in the result.
    """
    results: dict[tuple[str, str], Task1Evaluation] = {}
    for (law, granularity), match in matches.items():
        universe_size = len(registry.get(law).universe)
        truncated = 0
        totals = [0.0] * len(T1_METRIC_NAMES)
        for gold_set, row in zip(match.gold.golds, match.aligned):
            if row is None:
                continue
            ranking = row[1]
            if len(ranking) > universe_size:
                ranking = ranking[:universe_size]
                truncated += 1
            totals = list(map(operator.add, totals, _metric_row(gold_set, ranking)))
        count = len(match.gold.golds)
        mean = RetrievalMetrics(*(t / count for t in totals)) if count else RetrievalMetrics.zeros()
        results[(law, granularity)] = Task1Evaluation(
            metrics=mean, report=match.report, truncated_rankings=truncated
        )
    return results


def evaluate_task1(
    records: Sequence[Task1Record],
    predictions: Sequence[RankedPrediction],
    registry: JurisdictionRegistry,
    policy: str = STRICT,
) -> dict[tuple[str, str], Task1Evaluation]:
    """Per-(law, granularity) metrics of `predictions` against `records`."""
    slices = index_gold_keys(gold_keys_for_records(records))
    matches, _orphans = match_task1(slices, [pred.row() for pred in predictions], policy)
    return score_task1(matches, registry)
