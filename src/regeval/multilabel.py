"""Judgment (task 2) multi-label metrics over predicted article sets.

All scoring is binarized against the jurisdiction's label universe. The
oriented output vector flips the two lower-is-better members (coverage error
and Hamming loss) so every entry reads higher-is-better downstream.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, NamedTuple, Sequence

from .errors import LengthMismatch, UniverseTooSmall
from .jurisdiction import JurisdictionRegistry
from .retrieval import left_sum
from .shaping import SnippetPointer, Task2Record

def _check_lengths(golds: Sequence, preds: Sequence) -> None:
    if len(golds) != len(preds):
        raise LengthMismatch(f"{len(golds)} gold sets vs {len(preds)} predictions")
    if not golds:
        raise LengthMismatch("no samples to score")


def f1_suite(
    golds: Sequence[frozenset[str] | set[str]],
    preds: Sequence[frozenset[str] | set[str]],
    universe: Sequence[str],
) -> tuple[float, float, float]:
    """(micro, macro, weighted) F1.

    Micro pools TP/FP/FN over every (sample, label) cell. Macro and weighted
    average per-label F1 over labels that occur in gold at least once; labels
    never present in gold are excluded so large configured universes cannot
    inflate the averages with trivial negatives.
    """
    _check_lengths(golds, preds)
    tp: Counter = Counter()
    fp: Counter = Counter()
    fn: Counter = Counter()
    gold_freq: Counter = Counter()
    for gold, pred in zip(golds, preds):
        for label in gold:
            gold_freq[label] += 1
            if label in pred:
                tp[label] += 1
            else:
                fn[label] += 1
        for label in pred:
            if label not in gold:
                fp[label] += 1

    pooled_tp = sum(tp.values())
    pooled_fp = sum(fp.values())
    pooled_fn = sum(fn.values())
    denom = 2 * pooled_tp + pooled_fp + pooled_fn
    micro = (2 * pooled_tp / denom) if denom else 0.0

    present = [label for label in universe if gold_freq[label] > 0]
    if not present:
        return micro, 0.0, 0.0
    per_label = {}
    for label in present:
        d = 2 * tp[label] + fp[label] + fn[label]
        per_label[label] = (2 * tp[label] / d) if d else 0.0
    macro = left_sum(per_label.values()) / len(present)
    total_freq = sum(gold_freq[label] for label in present)
    weighted = left_sum(per_label[label] * gold_freq[label] for label in present) / total_freq
    return micro, macro, weighted


def jaccard_samples(
    golds: Sequence[frozenset[str] | set[str]],
    preds: Sequence[frozenset[str] | set[str]],
) -> float:
    """Mean per-sample set overlap; an empty-empty pair scores 1."""
    _check_lengths(golds, preds)
    total = 0.0
    for gold, pred in zip(golds, preds):
        union = set(gold) | set(pred)
        if not union:
            total += 1.0
        else:
            total += len(set(gold) & set(pred)) / len(union)
    return total / len(golds)


def hamming_loss(
    golds: Sequence[frozenset[str] | set[str]],
    preds: Sequence[frozenset[str] | set[str]],
    universe: Sequence[str],
) -> float:
    """Fraction of misassigned label bits over the N x L grid (lower is better)."""
    _check_lengths(golds, preds)
    if not universe:
        raise UniverseTooSmall("hamming loss needs a non-empty universe")
    wrong = 0
    for gold, pred in zip(golds, preds):
        wrong += len(set(gold) ^ set(pred))
    return wrong / (len(golds) * len(universe))


def prediction_first_ranking(
    prediction_order: Sequence[str], universe: Sequence[str]
) -> list[str]:
    """Total label ranking: predicted labels first (in output order), then the
    remaining universe labels in stable universe order."""
    seen = set(prediction_order)
    return list(prediction_order) + [label for label in universe if label not in seen]


def normalized_coverage_error(
    golds: Sequence[frozenset[str] | set[str]],
    prediction_orders: Sequence[Sequence[str]],
    universe: Sequence[str],
) -> float:
    """Normalized depth needed to cover every true label (lower is better).

    Each sample contributes (max rank over true labels - 1) / (L - 1) under
    the prediction-first ranking; samples with no true labels contribute 0.
    Labels the model did not predict are not tied: they follow the predicted
    ones in the order of `universe`, so the score depends on that order. An
    empty prediction for gold {"1"} over universe 1..5 scores 0.0, and 1.0
    with the universe reversed. Every other task-2 metric reads the universe
    as a set.
    """
    _check_lengths(golds, prediction_orders)
    size = len(universe)
    if size < 2:
        raise UniverseTooSmall(f"coverage error needs >= 2 labels, got {size}")
    total = 0.0
    for gold, order in zip(golds, prediction_orders):
        if not gold:
            continue
        ranking = prediction_first_ranking(order, universe)
        position = {label: rank for rank, label in enumerate(ranking, start=1)}
        deepest = max(position[label] for label in gold)
        total += (deepest - 1) / (size - 1)
    return total / len(golds)


class JudgmentMetrics(NamedTuple):
    """Oriented higher-is-better six-vector for one law's judgment slice; the
    field order is the metric order."""

    micro_f1: float
    macro_f1: float
    weighted_f1: float
    jaccard: float
    one_minus_coverage_error: float
    one_minus_hamming: float

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "JudgmentMetrics":
        return cls(*(float(data[name]) for name in cls._fields))


T2_METRIC_NAMES = JudgmentMetrics._fields


class SetPrediction(NamedTuple):
    """Parsed label set for one snippet pointer, with its output order; the
    tuple is the row `eval` joins on."""

    law: str
    pointer: SnippetPointer
    labels: tuple[str, ...]
    model: str = ""


class PointerMatchReport:
    __slots__ = ("gold_pointers", "matched_pointers", "orphans")

    def __init__(self, gold_pointers: int = 0, matched_pointers: int = 0, orphans: list[dict] | None = None):
        self.gold_pointers = gold_pointers
        self.matched_pointers = matched_pointers
        self.orphans = [] if orphans is None else orphans

    @property
    def coverage(self) -> float:
        return self.matched_pointers / self.gold_pointers if self.gold_pointers else 0.0

    def to_dict(self) -> dict:
        return {
            "gold_pointers": self.gold_pointers,
            "matched_pointers": self.matched_pointers,
            "coverage": self.coverage,
            "orphan_predictions": self.orphans,
        }


class Task2Match(NamedTuple):
    """One law's gold label sets in record order and, for each, the output
    order of its matched prediction (empty when no prediction matched)."""

    golds: list[frozenset[str]]
    orders: list[tuple[str, ...]]
    report: PointerMatchReport


class GoldPointers:
    """One law's gold task-2 records, indexed once per `eval` and shared by
    every model's join: their gold sets in record order, a slot per distinct
    pointer, and each record's slot."""

    __slots__ = ("golds", "slot", "record_slots")

    def __init__(
        self,
        golds: list[frozenset[str]] | None = None,
        slot: dict[tuple, int] | None = None,
        record_slots: list[int] | None = None,
    ):
        self.golds = [] if golds is None else golds
        self.slot = {} if slot is None else slot
        self.record_slots = [] if record_slots is None else record_slots


def index_pointers(records: Sequence[Task2Record]) -> dict[str, GoldPointers]:
    """Index task-2 records per law, laws in sorted order."""
    by_law: dict[str, GoldPointers] = {}
    for rec in records:
        gold = by_law.setdefault(rec.law, GoldPointers())
        gold.golds.append(rec.gold)
        gold.record_slots.append(gold.slot.setdefault(rec.pointer, len(gold.slot)))
    return dict(sorted(by_law.items()))


def match_task2(
    index: Mapping[str, GoldPointers],
    predictions: Sequence[tuple],
) -> dict[str, Task2Match]:
    """Strict pointer matching per law of predictions, `SetPrediction`s or
    plain tuples laid out like them: one pointer lookup per prediction.

    The first prediction for a pointer is kept. A prediction whose pointer
    matches no gold record is an orphan, listed once per pointer (the first
    one) in the law's report and excluded from scoring. Predictions of laws
    without gold records are ignored.
    """
    rows_by_law: dict[str, list[tuple]] = {law: [] for law in index}
    for row in predictions:
        rows = rows_by_law.get(row[0])
        if rows is not None:
            rows.append(row)

    matches: dict[str, Task2Match] = {}
    for law, gold in index.items():
        slot_of = gold.slot
        found: list[tuple[str, ...] | None] = [None] * len(slot_of)
        orphans: dict[tuple, str] = {}
        for _law, pointer, labels, model in rows_by_law[law]:
            slot = slot_of.get(pointer)
            if slot is None:
                orphans.setdefault(pointer, model)
            elif found[slot] is None:
                found[slot] = labels
        report = PointerMatchReport(gold_pointers=len(gold.golds))
        orders: list[tuple[str, ...]] = []
        for slot in gold.record_slots:
            labels = found[slot]
            if labels is None:
                orders.append(())
            else:
                report.matched_pointers += 1
                orders.append(labels)
        report.orphans = [
            {**SnippetPointer._make(pointer).to_dict(), "model": model}
            for pointer, model in orphans.items()
        ]
        matches[law] = Task2Match(golds=gold.golds, orders=orders, report=report)
    return matches


def score_task2(
    matches: Mapping[str, Task2Match],
    registry: JurisdictionRegistry,
) -> dict[str, JudgmentMetrics]:
    """Per-law oriented metric vector; unmatched gold pointers score as empty
    predictions."""
    results: dict[str, JudgmentMetrics] = {}
    for law, match in matches.items():
        universe = registry.get(law).universe
        golds = match.golds
        pred_sets = [frozenset(order) for order in match.orders]
        micro, macro, weighted = f1_suite(golds, pred_sets, universe)
        results[law] = JudgmentMetrics(
            micro_f1=micro,
            macro_f1=macro,
            weighted_f1=weighted,
            jaccard=jaccard_samples(golds, pred_sets),
            one_minus_coverage_error=1.0 - normalized_coverage_error(golds, match.orders, universe),
            one_minus_hamming=1.0 - hamming_loss(golds, pred_sets, universe),
        )
    return results


def evaluate_task2(
    records: Sequence[Task2Record],
    predictions: Sequence[SetPrediction],
    registry: JurisdictionRegistry,
) -> dict[str, JudgmentMetrics]:
    """Per-law metrics of `predictions` against `records`."""
    return score_task2(match_task2(index_pointers(records), predictions), registry)
