"""Independent brute-force evaluators used to cross-check the fast paths.

Everything here is deliberately written against the definitions, not against
the production code: relevance vectors and explicit rank scans for the
retrieval metrics, bit matrices for the multi-label metrics, and pairwise
fixed-point merging for the span rule.
"""

from __future__ import annotations

import math
import re
from typing import Sequence

from regeval.errors import OutOfUniverse, UnrecognizedIdentifier


def _relevance_vector(gold: set[str], ranking: Sequence[str]) -> list[int]:
    return [1 if item in gold else 0 for item in ranking]


def oracle_acc_at_k(gold: set[str], ranking: Sequence[str], k: int) -> float:
    hits = 0
    for item in set(gold):
        for pos, candidate in enumerate(ranking, start=1):
            if pos > k:
                break
            if candidate == item:
                hits += 1
                break
    return hits / len(gold)


def oracle_r_precision(gold: set[str], ranking: Sequence[str]) -> float:
    rel = _relevance_vector(set(gold), ranking[: len(gold)])
    return sum(rel) / len(gold)


def oracle_mrr(gold: set[str], ranking: Sequence[str]) -> float:
    rel = _relevance_vector(set(gold), ranking)
    for pos, flag in enumerate(rel, start=1):
        if flag:
            return 1.0 / pos
    return 0.0


def oracle_map(gold: set[str], ranking: Sequence[str]) -> float:
    total = 0.0
    for item in set(gold):
        if item not in ranking:
            continue
        pos = ranking.index(item) + 1
        gold_at_or_before = sum(1 for candidate in ranking[:pos] if candidate in gold)
        total += gold_at_or_before / pos
    return total / len(gold)


def oracle_ndcg_at_5(gold: set[str], ranking: Sequence[str]) -> float:
    rel = _relevance_vector(set(gold), ranking[:5])
    dcg = sum(flag / math.log2(pos + 1) for pos, flag in enumerate(rel, start=1))
    ideal_hits = min(len(gold), 5)
    idcg = sum(1.0 / math.log2(pos + 1) for pos in range(1, ideal_hits + 1))
    return dcg / idcg


def oracle_canonicalize(jur, raw: str) -> str | type:
    """Canonical id of one surface form, or the exception type it must raise.

    The surface-form rule written out on its own: opening brackets or quotes,
    an optional citation prefix ("§", or a prefix word not glued to a
    preceding letter) with an optional dot, the id, then closing punctuation.
    Numeric components lose their leading zeros, and the result must be a
    member of the universe.
    """
    if not raw.strip():
        return UnrecognizedIdentifier
    words = "|".join(re.escape(p) for p in sorted(jur.prefixes, key=len, reverse=True) if p != "§")
    prefix = rf"(?:§|(?<![A-Za-z])(?:{words}))"
    match = re.match(
        rf"^[\s\(\[\"']*(?:{prefix}\s*\.?)?\s*({jur.id_pattern})[\s\)\]\"'.,;:!?]*$",
        raw,
        re.IGNORECASE,
    )
    if match is None:
        return UnrecognizedIdentifier
    token = match.group(1)
    if re.fullmatch(r"\d+(?:\.\d+)?", token):
        token = ".".join(str(int(part)) for part in token.split("."))
    return token if token in jur.universe else OutOfUniverse


def bit_matrix(samples: Sequence[set[str]], universe: Sequence[str]) -> list[list[int]]:
    return [[1 if label in sample else 0 for label in universe] for sample in samples]


def confusion_counts(
    golds: Sequence[set[str]], preds: Sequence[set[str]], universe: Sequence[str]
) -> dict[str, dict[str, int]]:
    y = bit_matrix(golds, universe)
    yhat = bit_matrix(preds, universe)
    counts = {label: {"tp": 0, "fp": 0, "fn": 0, "tn": 0} for label in universe}
    for i in range(len(golds)):
        for j, label in enumerate(universe):
            if y[i][j] and yhat[i][j]:
                counts[label]["tp"] += 1
            elif y[i][j] and not yhat[i][j]:
                counts[label]["fn"] += 1
            elif not y[i][j] and yhat[i][j]:
                counts[label]["fp"] += 1
            else:
                counts[label]["tn"] += 1
    return counts


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def oracle_micro_f1(golds, preds, universe) -> float:
    counts = confusion_counts(golds, preds, universe)
    tp = sum(c["tp"] for c in counts.values())
    fp = sum(c["fp"] for c in counts.values())
    fn = sum(c["fn"] for c in counts.values())
    return _f1(tp, fp, fn)


def _gold_present_labels(golds, universe) -> list[str]:
    return [label for label in universe if any(label in g for g in golds)]


def oracle_macro_f1(golds, preds, universe) -> float:
    counts = confusion_counts(golds, preds, universe)
    present = _gold_present_labels(golds, universe)
    if not present:
        return 0.0
    return sum(_f1(counts[l]["tp"], counts[l]["fp"], counts[l]["fn"]) for l in present) / len(present)


def oracle_weighted_f1(golds, preds, universe) -> float:
    counts = confusion_counts(golds, preds, universe)
    present = _gold_present_labels(golds, universe)
    if not present:
        return 0.0
    freq = {label: sum(1 for g in golds if label in g) for label in present}
    total = sum(freq.values())
    return sum(
        freq[l] * _f1(counts[l]["tp"], counts[l]["fp"], counts[l]["fn"]) for l in present
    ) / total


def oracle_hamming(golds, preds, universe) -> float:
    y = bit_matrix(golds, universe)
    yhat = bit_matrix(preds, universe)
    wrong = sum(
        1
        for i in range(len(golds))
        for j in range(len(universe))
        if y[i][j] != yhat[i][j]
    )
    return wrong / (len(golds) * len(universe))


def oracle_jaccard(golds, preds, empty_empty_is_one: bool) -> float:
    total = 0.0
    for gold, pred in zip(golds, preds):
        union = set(gold) | set(pred)
        if not union:
            total += 1.0 if empty_empty_is_one else 0.0
        else:
            total += len(set(gold) & set(pred)) / len(union)
    return total / len(golds)


def oracle_nce(golds, orders, universe) -> float:
    total = 0.0
    size = len(universe)
    for gold, order in zip(golds, orders):
        if not gold:
            continue
        ranking = list(order) + [label for label in universe if label not in set(order)]
        deepest = 0
        for rank, label in enumerate(ranking, start=1):
            if label in gold:
                deepest = max(deepest, rank)
        total += (deepest - 1) / (size - 1)
    return total / len(golds)


def oracle_merge_spans(
    entries: Sequence[tuple[tuple[int, int], frozenset[str]]]
) -> set[tuple[tuple[int, int], frozenset[str]]]:
    """Fixed-point pairwise merging: union identical spans, then repeatedly
    replace any overlapping pair with identical label sets by its cover."""
    pool: dict[tuple[int, int], set[str]] = {}
    for span, labels in entries:
        pool.setdefault(span, set()).update(labels)
    items = [(span, frozenset(labels)) for span, labels in pool.items()]
    changed = True
    while changed:
        changed = False
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                (s1, l1), (s2, l2) = items[i], items[j]
                overlapping = s1[0] <= s2[1] and s2[0] <= s1[1]
                if overlapping and l1 == l2:
                    cover = (min(s1[0], s2[0]), max(s1[1], s2[1]))
                    items = [items[k] for k in range(len(items)) if k not in (i, j)]
                    items.append((cover, l1))
                    changed = True
                    break
            if changed:
                break
    return set(items)
