"""Independent brute-force evaluators used to cross-check the fast paths.

Everything here is deliberately written against the definitions, not against
the production code: relevance vectors and explicit rank scans for the
retrieval metrics, bit matrices for the multi-label metrics, and pairwise
fixed-point merging for the span rule. A later section keeps the earlier
object-keyed join of `eval` as the reference for the slot join, the next
keeps the whole-document prediction-file reader as the reference for the
incremental one, and the last holds two references for RCS: the numpy
computation it replaced and a 50-digit mpmath evaluation.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Sequence

from regeval.corpus import decode_each, read_json
from regeval.errors import EmptyGold, MalformedPrediction, OutOfUniverse, UnrecognizedIdentifier
from regeval.multilabel import PointerMatchReport, SetPrediction, Task2Match, score_task2
from regeval.retrieval import (
    KeyMatchReport,
    RankedPrediction,
    RetrievalMetrics,
    gold_keys_for_records,
    score_ranking,
)
from regeval.shaping import GRANULARITIES, RetrievalKey, SnippetPointer


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


# --- the seed's RetrievalKey-keyed join of `eval` ---------------------------------
#
# `eval` joins plain-tuple prediction rows to gold through one slot per key.
# What follows is the join it replaced, kept as the reference semantics:
# predictions decoded field by field to `RankedPrediction`/`SetPrediction`
# objects, aligned through per-slice dicts keyed by their `RetrievalKey`s and
# `SnippetPointer`s, and scored by iterating those dicts. `oracle_eval_base`
# assembles the whole `base.json` payload from it, diagnostics included.


def _seed_key(law: str, data) -> RetrievalKey:
    span = data.get("span")
    return RetrievalKey(
        law=law,
        repo_url=data["repo_url"],
        app_name=data["app_name"],
        commit_id=data["commit_id"],
        file_path=data["file_path"],
        granularity=data["granularity"],
        module=data.get("module"),
        start=span[0] if span else None,
        end=span[1] if span else None,
    )


def _seed_ids(raw_ids, law: str, registry) -> tuple[str, ...]:
    return tuple({registry.canonicalize_article(str(raw), law): None for raw in raw_ids})


def oracle_load_predictions(pred_dir: Path, registry) -> tuple[list, list]:
    t1 = json.loads((pred_dir / "predictions_task1.json").read_text(encoding="utf-8"))
    t2 = json.loads((pred_dir / "predictions_task2.json").read_text(encoding="utf-8"))
    ranked = [
        RankedPrediction(
            key=_seed_key(entry["law"], entry),
            ranking=_seed_ids(entry["ranking"], entry["law"], registry),
            model=entry.get("model", ""),
        )
        for entry in t1["predictions"]
    ]
    sets = [
        SetPrediction(
            law=entry["law"],
            pointer=SnippetPointer(entry["file_path"], *entry["span"], entry["commit_id"]),
            labels=_seed_ids(entry["labels"], entry["law"], registry),
            model=entry.get("model", ""),
        )
        for entry in t2["predictions"]
    ]
    return ranked, sets


def _file_identity(key: RetrievalKey) -> tuple:
    return (key.law, key.repo_url, key.app_name, key.commit_id, key.file_path, key.granularity)


def oracle_match_keys(gold_keys, predictions, policy: str):
    report = KeyMatchReport(policy=policy)
    strict_index: dict = {}
    file_index: dict = {}
    for pred in predictions:
        if pred.key in strict_index:
            report.duplicates.append({"key": pred.key.to_dict(), "policy": "strict", "action": "first kept"})
        else:
            strict_index[pred.key] = pred
        if policy == "relaxed":
            file_index.setdefault(_file_identity(pred.key), []).append(pred)
    alignment = {}
    for key in gold_keys:
        report.gold_keys += 1
        pred = strict_index.get(key)
        if pred is None and policy == "relaxed":
            candidates = file_index.get(_file_identity(key), [])
            if candidates:
                pred = candidates[0]
                if len(candidates) > 1:
                    report.duplicates.append({"key": key.to_dict(), "policy": "relaxed", "action": "first kept"})
        if pred is None:
            report.unmatched.append(key)
        else:
            alignment[key] = pred
            report.matched_keys += 1
    return alignment, report


def oracle_match_task1(gold, predictions, policy: str) -> dict:
    gold_by_slice: dict = {}
    for key, gold_set in gold.items():
        gold_by_slice.setdefault((key.law, key.granularity), {})[key] = gold_set
    preds_by_slice: dict = {}
    for pred in predictions:
        preds_by_slice.setdefault((pred.key.law, pred.key.granularity), []).append(pred)
    matches = {}
    for law in sorted({key.law for key in gold}):
        for granularity in GRANULARITIES:
            slice_gold = gold_by_slice.get((law, granularity), {})
            alignment, report = oracle_match_keys(
                sorted(slice_gold, key=lambda k: k.sort_key()),
                preds_by_slice.get((law, granularity), []),
                policy,
            )
            matches[(law, granularity)] = (slice_gold, alignment, report)
    return matches


def oracle_match_task2(records, predictions) -> dict:
    by_law: dict = {}
    for rec in records:
        by_law.setdefault(rec.law, []).append(rec)
    predicted: dict = {}
    for pred in predictions:
        predicted.setdefault((pred.law, pred.pointer), pred)
    matches = {}
    for law, law_records in sorted(by_law.items()):
        report = PointerMatchReport(gold_pointers=len(law_records))
        orders = []
        for rec in law_records:
            pred = predicted.get((law, rec.pointer))
            if pred is None:
                orders.append(())
            else:
                report.matched_pointers += 1
                orders.append(pred.labels)
        known = {rec.pointer for rec in law_records}
        report.orphans = [
            {**pointer.to_dict(), "model": pred.model}
            for (pred_law, pointer), pred in predicted.items()
            if pred_law == law and pointer not in known
        ]
        matches[law] = Task2Match(golds=[rec.gold for rec in law_records], orders=orders, report=report)
    return matches


def oracle_score_task1(matches: dict) -> dict:
    results = {}
    for (law, granularity), (slice_gold, alignment, _report) in matches.items():
        totals = [0.0] * 6
        for key, gold_set in slice_gold.items():
            pred = alignment.get(key)
            if pred is None:
                continue
            for i, value in enumerate(score_ranking(gold_set, pred.ranking)):
                totals[i] += value
        count = len(slice_gold)
        results[(law, granularity)] = RetrievalMetrics(*(t / count if count else t for t in totals))
    return results


def oracle_eval_base(
    views: dict, pred_dirs: Sequence[Path], registry, policy: str, task: str, config_echo: dict
) -> tuple[dict, list[tuple[str, str]]]:
    """The `base.json` payload the seed's `eval` wrote for these inputs, and
    the (model, law) pairs, sorted, whose rows of that law match no gold key
    (relaxed fallbacks count) and no gold pointer, for which `eval` writes
    nothing and fails instead."""
    # The views hold plain key tuples; the seed's join read them by field name.
    gold = {
        RetrievalKey._make(key): gold_set
        for key, gold_set in gold_keys_for_records([rec for view in views.values() for rec in view.task1]).items()
    }
    for gold_set in gold.values():
        if not gold_set:
            raise EmptyGold("gold set empty")
    ranked_by_model: dict = {}
    sets_by_model: dict = {}
    for pred_dir in pred_dirs:
        ranked, sets = oracle_load_predictions(pred_dir, registry)
        for pred in ranked:
            kept = ranked_by_model.setdefault(pred.model or pred_dir.name, [])
            if pred.key.law in views:
                kept.append(pred)
        for pred in sets:
            kept = sets_by_model.setdefault(pred.model or pred_dir.name, [])
            if pred.law in views:
                kept.append(pred)

    base = {"schema_version": 1, "config": dict(config_echo), "models": {}, "diagnostics": {}}
    strays = []
    for model in sorted(set(ranked_by_model) | set(sets_by_model)):
        ranked = ranked_by_model.get(model, [])
        sets = sets_by_model.get(model, [])
        task1 = oracle_match_task1(gold, ranked, policy)
        task2 = oracle_match_task2([rec for view in views.values() for rec in view.task2], sets)
        matched_keys = {p.key for _gold, alignment, _report in task1.values() for p in alignment.values()}
        orphans = [
            {"key": pred.key.to_dict(), "model": pred.model}
            for pred in ranked
            if pred.key not in gold and pred.key not in matched_keys
        ]
        cardinality: dict = {}
        for pred in ranked:
            hist = cardinality.setdefault(pred.key.law, {}).setdefault("task1", {})
            hist[len(pred.ranking)] = hist.get(len(pred.ranking), 0) + 1
        for pred in sets:
            hist = cardinality.setdefault(pred.law, {}).setdefault("task2", {})
            hist[len(pred.labels)] = hist.get(len(pred.labels), 0) + 1
        for law in sorted(cardinality):
            key_hits = sum(len(alignment) for (of_law, _gran), (_gold, alignment, _r) in task1.items() if of_law == law)
            if not key_hits and not (law in task2 and task2[law].report.matched_pointers):
                strays.append((model, law))
        base["diagnostics"][model] = {
            "task1": {f"{law}/{gran}": m[2].to_dict() for (law, gran), m in sorted(task1.items())},
            "task2": {law: m.report.to_dict() for law, m in sorted(task2.items())},
            "orphan_task1_predictions": orphans,
            "label_cardinality": {
                law: {t: dict(sorted(hist.items())) for t, hist in tasks.items()}
                for law, tasks in sorted(cardinality.items())
            },
        }

        block: dict = {"task1": {}, "task2": {}, "coverage": {"task1": {}, "task2": {}}}
        if task in ("both", "task1"):
            metrics = oracle_score_task1(task1)
            for law in sorted({law for (law, _gran) in task1}):
                block["task1"][law] = {}
                for gran in GRANULARITIES:
                    if (law, gran) in task1:
                        block["task1"][law][gran] = metrics[(law, gran)]._asdict()
                        block["coverage"]["task1"].setdefault(law, {})[gran] = task1[(law, gran)][2].to_dict()
        if task in ("both", "task2"):
            metrics = score_task2(task2, registry)
            for law, match in sorted(task2.items()):
                block["task2"][law] = metrics[law]._asdict()
                block["coverage"]["task2"][law] = match.report.to_dict()
        base["models"][model] = block
    return base, strays


# --- whole-document prediction-file reader ------------------------------------


def oracle_prediction_entries(path: str | Path, decode) -> list:
    """`decode` of each entry of a prediction file read whole by `json.loads`,
    with the errors `eval` gives a file it cannot use."""
    data = read_json(path)
    entries = data.get("predictions") if isinstance(data, dict) else None
    if type(entries) is not list:
        raise MalformedPrediction(f"{path}: no 'predictions' list")
    return decode_each(path, entries, decode, "prediction", MalformedPrediction)


# --- RCS references -------------------------------------------------------------
#
# `composites.rcs_scores` factors each cohort's covariance in plain Python.
# The numpy version it replaced (np.cov, then np.linalg.solve per distance) is
# kept as a differential reference; its last bits depend on the BLAS kernel
# OpenBLAS picks for the CPU. The mpmath version evaluates the same
# definition at 50 digits.


def oracle_rcs_scores(cohort: Sequence[Sequence[float]], ridge: float) -> list[float]:
    """RCS of each cohort row as numpy computed it."""
    import numpy as np

    matrix = np.asarray(cohort, dtype=float)
    n, k = matrix.shape
    cov = np.zeros((k, k)) if n < 2 else np.cov(matrix, rowvar=False, bias=True)
    cov = cov + ridge * np.eye(k)

    def distance(diff):
        return math.sqrt(float(diff @ np.linalg.solve(cov, diff)))

    scores = []
    for row in matrix:
        d_plus, d_minus = distance(row - np.ones(k)), distance(row - np.zeros(k))
        scores.append(d_minus / (d_plus + d_minus) if (d_plus + d_minus) else 0.0)
    return scores


def mp_rcs_scores(cohort: Sequence[Sequence[float]], ridge: float, dps: int = 50) -> list[float]:
    """RCS of each cohort row evaluated with `dps` significant digits, rounded
    to the nearest float at the end."""
    import mpmath

    with mpmath.workdps(dps):
        rows = [[mpmath.mpf(v) for v in row] for row in cohort]
        n, k = len(rows), len(rows[0])
        means = [sum(row[j] for row in rows) / n for j in range(k)]
        cov = mpmath.matrix(k, k)
        for i in range(k):
            for j in range(k):
                cov[i, j] = sum((row[i] - means[i]) * (row[j] - means[j]) for row in rows) / n
            cov[i, i] += mpmath.mpf(ridge)

        def distance(diff):
            vector = mpmath.matrix(diff)
            return mpmath.sqrt((vector.T * mpmath.lu_solve(cov, vector))[0])

        scores = []
        for row in rows:
            d_plus, d_minus = distance([v - 1 for v in row]), distance(row)
            scores.append(float(d_minus / (d_plus + d_minus)) if (d_plus + d_minus) else 0.0)
        return scores
