"""Localization (task 1) base metrics over ranked article predictions.

Metrics are computed per gold key and averaged without weighting. Gold keys
that attract no prediction under the active matching policy count as all-zero
rows, so coverage gaps lower the averages instead of hiding inside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .corpus import LineSpan
from .errors import EmptyGold
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
    functions above. MRR, MAP and nDCG@5 come from one pass over the ranking,
    summed in the same order; the set-based metrics keep their intersections,
    so rankings with repeated ids score as they do there."""
    gold = frozenset(gold)
    _require_gold(gold)
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
    return RetrievalMetrics(
        acc_at_1=len(gold.intersection(ranking[:1])) / size,
        acc_at_5=len(gold.intersection(ranking[:5])) / size,
        r_precision=len(gold.intersection(ranking[:size])) / size,
        mrr=reciprocal_rank,
        map=precision_sum / size,
        ndcg_at_5=sum(gains) / _IDEAL_DCG[min(size, 5) - 1],
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

    def file_identity(self) -> tuple:
        return (self.law, self.repo_url, self.app_name, self.commit_id, self.file_path, self.granularity)

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
    def from_dict(cls, law: str, data: Mapping) -> "RetrievalKey":
        """Inverse of `to_dict`; `law` is passed because request keys omit it."""
        span = data.get("span")
        return cls(
            law=law,
            repo_url=data["repo_url"],
            app_name=data["app_name"],
            commit_id=data["commit_id"],
            file_path=data["file_path"],
            granularity=data["granularity"],
            module=data.get("module"),
            span=LineSpan(*span) if span else None,
        )


@dataclass(frozen=True)
class RankedPrediction:
    """Duplicate-free ranked article ids bound to one gold anchor."""

    key: RetrievalKey
    ranking: tuple[str, ...]
    model: str = ""


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

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "gold_keys": self.gold_keys,
            "matched_keys": self.matched_keys,
            "coverage": self.coverage,
            "unmatched": [key.to_dict() for key in sorted(self.unmatched, key=lambda k: k.sort_key())],
            "duplicate_prediction_keys": self.duplicates,
        }


def match_keys(
    gold_keys: Iterable[RetrievalKey],
    predictions: Sequence[RankedPrediction],
    policy: str = STRICT,
) -> tuple[dict[RetrievalKey, RankedPrediction], KeyMatchReport]:
    """Align predictions to gold anchors.

    Strict matching needs full pointer equality. Relaxed matching falls back
    to file-path identity when the full pointer misses, as a coverage-ceiling
    diagnostic. When several predictions claim one gold key the first wins and
    the collision is logged, never raised.
    """
    if policy not in (STRICT, RELAXED):
        raise ValueError(f"unknown policy: {policy!r}")
    report = KeyMatchReport(policy=policy)

    strict_index: dict[RetrievalKey, RankedPrediction] = {}
    file_index: dict[tuple, list[RankedPrediction]] = {}
    for pred in predictions:
        if pred.key in strict_index:
            report.duplicates.append(
                {"key": pred.key.to_dict(), "policy": STRICT, "action": "first kept"}
            )
        else:
            strict_index[pred.key] = pred
        if policy == RELAXED:
            file_index.setdefault(pred.key.file_identity(), []).append(pred)

    alignment: dict[RetrievalKey, RankedPrediction] = {}
    for key in gold_keys:
        report.gold_keys += 1
        pred = strict_index.get(key)
        if pred is None and policy == RELAXED:
            candidates = file_index.get(key.file_identity(), [])
            if candidates:
                pred = candidates[0]
                if len(candidates) > 1:
                    report.duplicates.append(
                        {"key": key.to_dict(), "policy": RELAXED, "action": "first kept"}
                    )
        if pred is None:
            report.unmatched.append(key)
        else:
            alignment[key] = pred
            report.matched_keys += 1
    return alignment, report


@dataclass
class Task1Match:
    """One (law, granularity) slice: its gold anchors and the predictions
    aligned to them. `gold` keeps the order of the expanded gold keys, which
    fixes the order in which the metric means are summed."""

    gold: dict[RetrievalKey, frozenset[str]]
    alignment: dict[RetrievalKey, RankedPrediction]
    report: KeyMatchReport


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


def match_task1(
    gold: Mapping[RetrievalKey, frozenset[str]],
    predictions: Sequence[RankedPrediction],
    policy: str = STRICT,
) -> dict[tuple[str, str], Task1Match]:
    """Align predictions to gold anchors, one `match_keys` call per
    (law, granularity) slice of every law that has gold."""
    gold_by_slice: dict[tuple[str, str], dict[RetrievalKey, frozenset[str]]] = {}
    for key, gold_set in gold.items():
        if not gold_set:
            raise EmptyGold(f"gold set empty for key {key.to_dict()}")
        gold_by_slice.setdefault((key.law, key.granularity), {})[key] = gold_set
    preds_by_slice: dict[tuple[str, str], list[RankedPrediction]] = {}
    for pred in predictions:
        preds_by_slice.setdefault((pred.key.law, pred.key.granularity), []).append(pred)

    matches: dict[tuple[str, str], Task1Match] = {}
    for law in sorted({key.law for key in gold}):
        for granularity in GRANULARITIES:
            slice_gold = gold_by_slice.get((law, granularity), {})
            alignment, report = match_keys(
                sorted(slice_gold, key=lambda k: k.sort_key()),
                preds_by_slice.get((law, granularity), []),
                policy,
            )
            matches[(law, granularity)] = Task1Match(slice_gold, alignment, report)
    return matches


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
        for key, gold_set in match.gold.items():
            pred = match.alignment.get(key)
            if pred is None:
                continue
            ranking = pred.ranking
            if len(ranking) > universe_size:
                ranking = ranking[:universe_size]
                truncated += 1
            row = score_ranking(gold_set, ranking)
            for i, value in enumerate(row.as_tuple()):
                totals[i] += value
        count = len(match.gold)
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
    return score_task1(match_task1(gold_keys_for_records(records), predictions, policy), registry)
