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


def score_judgment(
    golds: Sequence[frozenset[str] | set[str]],
    orders: Sequence[Sequence[str]],
    universe: Sequence[str],
) -> JudgmentMetrics:
    """The six task-2 metrics of N samples, each a gold label set G and the
    output order of its predicted labels, whose set is P, over a universe of
    L labels.

    - Micro F1: 2TP / (2TP + FP + FN), with TP, FP and FN pooled over every
      (sample, label) cell; 0 when all three are 0.
    - Macro F1: the mean per-label F1 over the labels of `universe` that
      occur in some G. Labels never in gold are no term of their own, so a
      large universe cannot inflate the mean with trivial negatives; no such
      label gives 0.
    - Weighted F1: the same per-label F1s, weighted by how many G hold the
      label.
    - Jaccard: the mean of |G & P| / |G | P|; an empty-empty pair scores 1.
    - 1 - NCE: one minus the mean normalized coverage error. A sample's
      error is (deepest rank of a gold label - 1) / (L - 1) in the ranking
      of the predicted labels first, in output order, then the unpredicted
      labels in the order of `universe`; an empty G contributes 0. Labels the
      model did not predict are not tied, so this score depends on the
      universe order: an empty prediction for G = {"1"} over universe 1..5
      has error 0.0, and 1.0 with the universe reversed. Every other metric
      reads the universe as a set.
    - 1 - Hamming: one minus the share of the N x L label bits that differ,
      (FP + FN) / (N * L).

    One pass over the samples fills the counts. The F1 means are summed in
    universe order, and the Jaccard and coverage means in sample order.
    Unequal or empty inputs raise LengthMismatch, and fewer than 2 labels
    raise UniverseTooSmall.
    """
    samples = len(golds)
    if samples != len(orders):
        raise LengthMismatch(f"{samples} gold sets vs {len(orders)} predictions")
    if not samples:
        raise LengthMismatch("no samples to score")
    size = len(universe)
    if size < 2:
        raise UniverseTooSmall(f"coverage error needs >= 2 labels, got {size}")
    tp: Counter = Counter()
    predicted: Counter = Counter()
    freq: Counter = Counter()
    jaccard = 0.0
    coverage = 0.0
    for gold, order in zip(golds, orders):
        pred = frozenset(order)
        for label in pred:
            predicted[label] += 1
        hits = 0
        for label in gold:
            freq[label] += 1
            if label in pred:
                tp[label] += 1
                hits += 1
        union = len(gold) + len(pred) - hits
        jaccard += hits / union if union else 1.0
        if gold:
            ranking = [*order, *(label for label in universe if label not in pred)]
            position = {label: rank for rank, label in enumerate(ranking, start=1)}
            coverage += (max(position[label] for label in gold) - 1) / (size - 1)

    # 2TP + FP + FN, of one label or pooled, is its predicted plus its gold count.
    pooled_tp = sum(tp.values())
    cells = sum(predicted.values()) + sum(freq.values())
    micro = 2 * pooled_tp / cells if cells else 0.0
    present = [label for label in universe if freq[label]]
    macro = weighted = 0.0
    if present:
        per_label = [2 * tp[label] / (predicted[label] + freq[label]) for label in present]
        weights = [freq[label] for label in present]
        macro = left_sum(per_label) / len(present)
        weighted = left_sum(f1 * weight for f1, weight in zip(per_label, weights)) / sum(weights)
    return JudgmentMetrics(
        micro,
        macro,
        weighted,
        jaccard / samples,
        1.0 - coverage / samples,
        1.0 - (cells - 2 * pooled_tp) / (samples * size),
    )


class SetPrediction(NamedTuple):
    """Parsed label set for one snippet pointer, a tuple in `SnippetPointer`
    layout, with its output order; the tuple is the row `eval` joins on."""

    law: str
    pointer: tuple
    labels: tuple[str, ...]
    model: str = ""


class PointerMatchReport:
    __slots__ = ("gold_pointers", "matched_pointers", "orphans")

    def __init__(self, gold_pointers: int = 0):
        self.gold_pointers = gold_pointers
        self.matched_pointers = 0
        self.orphans: list[dict] = []

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
    pointer tuple, and each record's slot."""

    __slots__ = ("golds", "slot", "record_slots")

    def __init__(self):
        self.golds: list[frozenset[str]] = []
        self.slot: dict[tuple, int] = {}
        self.record_slots: list[int] = []


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
    """Strict pointer matching per law of predictions, rows laid out like
    `SetPrediction`: one pointer lookup per prediction.

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
            {**SnippetPointer.to_dict(pointer), "model": model}
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
    return {
        law: score_judgment(match.golds, match.orders, registry.get(law).universe)
        for law, match in matches.items()
    }


def evaluate_task2(
    records: Sequence[Task2Record],
    predictions: Sequence[SetPrediction],
    registry: JurisdictionRegistry,
) -> dict[str, JudgmentMetrics]:
    """Per-law metrics of `predictions` against `records`."""
    return score_task2(match_task2(index_pointers(records), predictions), registry)
