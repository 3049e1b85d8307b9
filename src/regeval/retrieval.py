"""Localization (task 1) base metrics over ranked article predictions.

Metrics are computed per gold key and averaged without weighting. Gold keys
that attract no prediction under the active matching policy count as all-zero
rows, so coverage gaps lower the averages instead of hiding inside them.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import EmptyGold
from .shaping import GRANULARITIES, RetrievalKey, Task1Record

STRICT = "strict"
RELAXED = "relaxed"


def left_sum(values: Iterable[float]) -> float:
    """Sum `values` one at a time from the left, starting at 0.

    The builtin `sum()` of floats is compensated from CPython 3.12 on; this
    fold gives the result it gives on 3.10 and 3.11, on every version, so no
    float reduction here or in `multilabel` and `composites` depends on the
    interpreter.
    """
    total = 0
    for value in values:
        total += value
    return total


# Rank discounts 1/log2(p + 1) for p = 1..5, with log2 correctly rounded,
# and the ideal DCG@5 for 1..5 gold items, each a left sum of the discounts.
_DISCOUNTS = (1.0, 0.6309297535714575, 0.5, 0.43067655807339306, 0.38685280723454163)
_IDEAL_DCG = tuple(left_sum(_DISCOUNTS[:n]) for n in range(1, 6))


class RetrievalMetrics(NamedTuple):
    """Higher-is-better six-vector for one (law, granularity) slice; the
    field order is the metric order."""

    acc_at_1: float
    acc_at_5: float
    r_precision: float
    mrr: float
    map: float
    ndcg_at_5: float

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "RetrievalMetrics":
        return cls(*(float(data[name]) for name in cls._fields))


T1_METRIC_NAMES = RetrievalMetrics._fields


def score_ranking(gold: frozenset[str] | set[str], ranking: Sequence[str]) -> RetrievalMetrics:
    """The six task-1 metrics of one ranking against its gold set G.

    - Acc@k (k = 1, 5): the share of G within the top k ranks.
    - R-Precision: the share of G within the top |G| ranks; a shorter
      ranking is not padded.
    - MRR: 1 / rank of the first hit, 0 without one.
    - MAP: precision at the rank of each hit, summed over |G|, so gold ids
      missing from the ranking count zero.
    - nDCG@5: binary-gain DCG of the top 5 ranks, discounted by
      1/log2(rank + 1), over the DCG of min(|G|, 5) hits at the top.

    MRR, MAP and nDCG@5 come from one pass over the ranking, which must be
    duplicate-free: a repeated hit counts again, so G = {a} and ranking
    (a, a) give MAP 2.0. No decoded ranking repeats an id: both
    `ingest._canonical_ids` and `ingest.parse_prediction_text` drop
    duplicates. An empty G raises EmptyGold.
    """
    if not gold:
        raise EmptyGold("gold set is empty")
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
        len(gold.intersection(ranking[:1])) / size,
        len(gold.intersection(ranking[:5])) / size,
        len(gold.intersection(ranking[:size])) / size,
        reciprocal_rank,
        precision_sum / size,
        left_sum(gains) / _IDEAL_DCG[min(size, 5) - 1],
    )


def file_identity(key: tuple) -> tuple:
    """(law, repo_url, app_name, commit_id, file_path, granularity): the key
    fields the relaxed policy falls back to."""
    return key[:6]


class RankedPrediction(NamedTuple):
    """Duplicate-free ranked article ids bound to one gold anchor, a key
    tuple in `RetrievalKey` layout; the tuple is the row `eval` joins on."""

    key: tuple
    ranking: tuple[str, ...]
    model: str = ""


def gold_keys_for_records(records: Sequence[Task1Record]) -> dict[tuple, frozenset[str]]:
    """The gold anchors of shaped records, each record's file, module and
    line keys in that order, mapped to their gold sets."""
    gold: dict[tuple, frozenset[str]] = {}
    for rec in records:
        gold[rec.file] = rec.file_gold
        gold[rec.module] = rec.module_gold
        gold.update(rec.lines)
    return gold


class GoldSlice:
    """The gold anchors of one (law, granularity) slice, indexed once per
    `eval` and shared by every model's join. Slot i holds the key tuple
    `keys[i]` and its gold set `golds[i]`, in the order the keys were
    expanded, which fixes the order in which the metric means are summed;
    `slot` maps each key to its slot."""

    def __init__(self):
        self.keys: list[tuple] = []
        self.golds: list[frozenset[str]] = []
        self.slot: dict[tuple, int] = {}

    def add(self, key: tuple, gold_set: frozenset[str]) -> None:
        if not gold_set:
            raise EmptyGold(f"gold set empty for key {RetrievalKey.to_dict(key)}")
        self.slot[key] = len(self.keys)
        self.keys.append(key)
        self.golds.append(gold_set)

    @cached_property
    def sort_order(self) -> list[int]:
        """Slots in `RetrievalKey.sort_key` order: the order in which the
        relaxed fallback visits the gold keys and logs its collisions."""
        return sorted(range(len(self.keys)), key=lambda slot: RetrievalKey.sort_key(self.keys[slot]))


def index_gold_keys(gold: Mapping[tuple, frozenset[str]]) -> dict[tuple[str, str], GoldSlice]:
    """Slice expanded gold keys by (law, granularity): every granularity of
    every law with gold, laws in sorted order, empty slices included."""
    slices = {
        (law, granularity): GoldSlice()
        for law in sorted({key[0] for key in gold})
        for granularity in GRANULARITIES
    }
    for key, gold_set in gold.items():
        slices[(key[0], key[5])].add(key, gold_set)  # (law, granularity)
    return slices


class KeyMatchReport:
    """Coverage of gold anchors by predictions under one matching policy."""

    __slots__ = ("policy", "gold_keys", "matched_keys", "unmatched", "duplicates")

    def __init__(self, policy: str, gold_keys: int = 0):
        self.policy = policy
        self.gold_keys = gold_keys
        self.matched_keys = 0
        self.unmatched: list[tuple] = []
        self.duplicates: list[dict] = []

    @property
    def coverage(self) -> float:
        return self.matched_keys / self.gold_keys if self.gold_keys else 0.0

    def first_kept(self, key: tuple, policy: str) -> None:
        """Log that several predictions claimed `key` and the first one won."""
        self.duplicates.append({"key": RetrievalKey.to_dict(key), "policy": policy, "action": "first kept"})

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "gold_keys": self.gold_keys,
            "matched_keys": self.matched_keys,
            "coverage": self.coverage,
            "unmatched": [RetrievalKey.to_dict(key) for key in sorted(self.unmatched, key=RetrievalKey.sort_key)],
            "duplicate_prediction_keys": self.duplicates,
        }


class Task1Match(NamedTuple):
    """One slice's join. `aligned[i]` is the prediction matched to gold
    slot i, or None; `orphans` are the slice's predictions that match no gold key
    (and, under the relaxed policy, serve as no fallback), in prediction
    order."""

    gold: GoldSlice
    aligned: list[tuple | None]
    report: KeyMatchReport
    orphans: list[tuple]


def match_keys(gold: GoldSlice, predictions: Sequence[tuple], policy: str = STRICT) -> Task1Match:
    """Align one slice's predictions, rows laid out like `RankedPrediction`,
    to its gold keys: one key lookup per prediction.

    Strict matching needs key equality. Relaxed matching falls back to
    file identity when the key misses, as a coverage-ceiling diagnostic.
    When several predictions claim one gold key the first wins and the
    collision is logged, never raised.
    """
    if policy not in (STRICT, RELAXED):
        raise ValueError(f"unknown policy: {policy!r}")
    report = KeyMatchReport(policy=policy, gold_keys=len(gold.keys))
    aligned: list[tuple | None] = [None] * len(gold.keys)
    slot_of = gold.slot
    strays: list[tuple] = []
    stray_keys: set[tuple] = set()
    for row in predictions:
        slot = slot_of.get(row[0])
        if slot is None:
            if row[0] in stray_keys:
                report.first_kept(row[0], STRICT)
            else:
                stray_keys.add(row[0])
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
            candidates = by_file.get(file_identity(gold.keys[slot]))
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
    """One `match_keys` call per slice, plus the orphans of all slices in
    prediction order: predictions that match no gold key and serve as no
    relaxed fallback, including those of a (law, granularity) with no slice."""
    by_slice: dict[tuple[str, str], list[tuple]] = {slice_key: [] for slice_key in slices}
    strays: set[int] = set()
    for row in predictions:
        key = row[0]
        rows = by_slice.get((key[0], key[5]))  # (law, granularity)
        if rows is None:
            strays.add(id(row))
        else:
            rows.append(row)
    matches = {
        slice_key: match_keys(gold, by_slice[slice_key], policy) for slice_key, gold in slices.items()
    }
    # Orphans are picked out of `predictions` by identity, which keeps their
    # order without hashing any key again.
    strays.update(id(row) for match in matches.values() for row in match.orphans)
    orphans = [row for row in predictions if id(row) in strays] if strays else []
    return matches, orphans


def score_task1(matches: Mapping[tuple[str, str], Task1Match]) -> dict[tuple[str, str], RetrievalMetrics]:
    """Per-slice metric means over all gold keys.

    Unmatched gold keys contribute all-zero rows, and a slice without gold
    keys scores all zeros.
    """
    results: dict[tuple[str, str], RetrievalMetrics] = {}
    for slice_key, match in matches.items():
        totals = [0.0] * len(T1_METRIC_NAMES)
        for gold_set, row in zip(match.gold.golds, match.aligned):
            if row is not None:
                totals = list(map(operator.add, totals, score_ranking(gold_set, row[1])))
        count = max(len(match.gold.golds), 1)
        results[slice_key] = RetrievalMetrics(*(t / count for t in totals))
    return results


def evaluate_task1(
    records: Sequence[Task1Record],
    predictions: Sequence[RankedPrediction],
    policy: str = STRICT,
) -> dict[tuple[str, str], RetrievalMetrics]:
    """Per-(law, granularity) metrics of `predictions` against `records`."""
    slices = index_gold_keys(gold_keys_for_records(records))
    matches, _orphans = match_task1(slices, predictions, policy)
    return score_task1(matches)
