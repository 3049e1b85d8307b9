from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from regeval.corpus import LineSpan
from regeval.errors import EmptyGold
from regeval.retrieval import (
    GoldSlice,
    RankedPrediction,
    RetrievalKey,
    RetrievalMetrics,
    acc_at_k,
    evaluate_task1,
    gold_keys_for_records,
    map_score,
    match_keys,
    mrr,
    ndcg_at_5,
    r_precision,
    score_ranking,
)
from regeval.shaping import SnippetPointer, shape_task1, shape_task2
from test_corpus import make_instance

VOCAB = ["a", "b", "c", "d", "e"]

rankings = st.lists(st.sampled_from(VOCAB), max_size=5, unique=True).map(tuple)
gold_sets = st.sets(st.sampled_from(VOCAB), min_size=1, max_size=3).map(frozenset)


class TestMetricExamples:
    def test_acc_at_k(self):
        assert acc_at_k({"a", "b"}, ["a", "x", "y", "z", "b"], 5) == 1.0
        assert acc_at_k({"a", "b"}, ["a", "c", "d"], 1) == 0.5
        assert acc_at_k({"a"}, [], 5) == 0.0

    def test_r_precision(self):
        assert r_precision({"a", "b"}, ["a", "c", "b"]) == 0.5
        assert r_precision({"a"}, ["a"]) == 1.0
        assert r_precision({"a", "b", "c"}, ["x"]) == 0.0

    def test_mrr(self):
        assert mrr({"a"}, ["b", "a", "c"]) == 0.5
        assert mrr({"a"}, ["a"]) == 1.0
        assert mrr({"a"}, ["b", "c"]) == 0.0

    def test_map(self):
        assert map_score({"a", "b"}, ["a", "c", "b"]) == pytest.approx(5 / 6, abs=1e-12)
        assert map_score({"a"}, ["a"]) == 1.0
        assert map_score({"a", "b"}, ["a"]) == 0.5

    def test_ndcg_at_5(self):
        assert ndcg_at_5({"a", "b"}, ["a", "c", "b"]) == pytest.approx(0.9197, abs=5e-5)
        assert ndcg_at_5({"a"}, ["a", "b", "c"]) == 1.0
        assert ndcg_at_5({"a"}, ["b", "c", "d", "e", "f"]) == 0.0

    def test_empty_gold_raises(self):
        for fn in (lambda: acc_at_k(set(), ["a"], 1), lambda: r_precision(set(), []),
                   lambda: mrr(set(), []), lambda: map_score(set(), []),
                   lambda: ndcg_at_5(set(), [])):
            with pytest.raises(EmptyGold):
                fn()


class TestOracleEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(gold=gold_sets, ranking=rankings, k=st.integers(min_value=1, max_value=6))
    def test_random_cases(self, gold, ranking, k):
        assert acc_at_k(gold, ranking, k) == pytest.approx(
            oracles.oracle_acc_at_k(set(gold), ranking, k), abs=1e-12
        )
        assert r_precision(gold, ranking) == pytest.approx(
            oracles.oracle_r_precision(set(gold), ranking), abs=1e-12
        )
        assert mrr(gold, ranking) == pytest.approx(oracles.oracle_mrr(set(gold), ranking), abs=1e-12)
        assert map_score(gold, ranking) == pytest.approx(
            oracles.oracle_map(set(gold), ranking), abs=1e-12
        )
        assert ndcg_at_5(gold, ranking) == pytest.approx(
            oracles.oracle_ndcg_at_5(set(gold), ranking), abs=1e-12
        )


class TestOnePassScoring:
    """`score_ranking` equals the six per-metric functions exactly."""

    @settings(max_examples=500, deadline=None)
    @given(
        gold=st.sets(st.sampled_from(VOCAB + ["f", "g"]), min_size=1, max_size=7).map(frozenset),
        ranking=st.one_of(
            st.just(()),
            st.lists(st.sampled_from(VOCAB + ["f", "g", "x", "y"]), max_size=12).map(tuple),
        ),
    )
    def test_bit_identical_to_per_metric_functions(self, gold, ranking):
        # Rankings may repeat ids, be empty, or be shorter than |gold|.
        reference = (
            acc_at_k(gold, ranking, 1),
            acc_at_k(gold, ranking, 5),
            r_precision(gold, ranking),
            mrr(gold, ranking),
            map_score(gold, ranking),
            ndcg_at_5(gold, ranking),
        )
        assert score_ranking(gold, ranking).as_tuple() == reference

    def test_empty_gold_raises(self):
        with pytest.raises(EmptyGold):
            score_ranking(set(), ("a",))


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(gold=gold_sets, ranking=rankings)
    def test_bounds_and_monotonicity(self, gold, ranking):
        row = score_ranking(gold, ranking)
        for value in row.as_tuple():
            assert -1e-12 <= value <= 1 + 1e-12
        assert row.acc_at_1 <= row.acc_at_5 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(gold=gold_sets, ranking=rankings)
    def test_tail_junk_leaves_top5_metrics_alone(self, gold, ranking):
        # Items appended after rank 5 cannot change Acc@1/Acc@5/nDCG@5, nor
        # MRR when the first hit is already inside the top 5.
        extended = tuple(ranking) + tuple(f"junk{i}" for i in range(3))
        before, after = score_ranking(gold, ranking), score_ranking(gold, extended)
        assert after.acc_at_1 == before.acc_at_1
        assert after.acc_at_5 == before.acc_at_5
        assert after.ndcg_at_5 == before.ndcg_at_5
        if any(item in gold for item in ranking[:5]):
            assert after.mrr == before.mrr


def _key(granularity="file", law="LGPD", file_path="app/A.kt", **kw):
    defaults = dict(
        law=law,
        repo_url="https://repos.example/demo",
        app_name="demo",
        commit_id="a" * 40,
        file_path=file_path,
        granularity=granularity,
    )
    defaults.update(kw)
    return RetrievalKey(**defaults)


class TestKeyCodec:
    @pytest.mark.parametrize("granularity", ["file", "module", "line"])
    def test_retrieval_key_round_trip(self, granularity):
        records = shape_task1([make_instance(path="app/A.kt", span=(3, 5))])
        [key] = [k for k in gold_keys_for_records(records) if k.granularity == granularity]
        assert RetrievalKey.from_dict(key.law, key.to_dict()) == key

    def test_request_key_omits_law(self):
        key = _key("line", span=LineSpan(3, 5))
        data = key.to_dict()
        del data["law"]
        assert RetrievalKey.from_dict("LGPD", data) == key

    def test_snippet_pointer_round_trip(self):
        [record] = shape_task2([make_instance(path="app/A.kt", span=(3, 5))])
        data = record.pointer.to_dict()
        assert data == {"file_path": "app/A.kt", "span": [3, 5], "commit_id": record.pointer.commit_id}
        assert SnippetPointer.from_dict(data) == record.pointer


def _match_keys(gold_keys, preds, policy):
    """`match_keys` over one slice holding `gold_keys`, read back as
    ({gold key: matched prediction}, report)."""
    rows = [pred.row() for pred in preds]
    pred_of_row = {id(row): pred for row, pred in zip(rows, preds)}
    gold = GoldSlice()
    for key in gold_keys:
        gold.add(key, frozenset({"7"}))
    match = match_keys(gold, rows, policy)
    alignment = {
        key: pred_of_row[id(row)] for key, row in zip(match.gold.keys, match.aligned) if row is not None
    }
    return alignment, match.report


class TestMatchKeys:
    def test_strict_exact_match(self):
        gold = [_key("line", span=LineSpan(10, 12))]
        preds = [RankedPrediction(key=gold[0], ranking=("7",))]
        alignment, report = _match_keys(gold, preds, "strict")
        assert report.matched_keys == 1 and not report.unmatched

    def test_offset_span_strict_miss_relaxed_hit(self):
        gold = [_key("line", span=LineSpan(10, 12))]
        preds = [RankedPrediction(key=_key("line", span=LineSpan(11, 13)), ranking=("7",))]
        _, strict = _match_keys(gold, preds, "strict")
        assert strict.matched_keys == 0
        alignment, relaxed = _match_keys(gold, preds, "relaxed")
        assert relaxed.matched_keys == 1
        assert alignment[gold[0]].ranking == ("7",)

    def test_different_file_misses_both(self):
        gold = [_key("file", file_path="app/A.kt")]
        preds = [RankedPrediction(key=_key("file", file_path="app/B.kt"), ranking=("7",))]
        for policy in ("strict", "relaxed"):
            _, report = _match_keys(gold, preds, policy)
            assert report.matched_keys == 0

    def test_relaxed_dominates_strict(self):
        gold = [
            _key("line", span=LineSpan(1, 2)),
            _key("line", span=LineSpan(8, 9)),
            _key("module", module="A"),
        ]
        preds = [
            RankedPrediction(key=_key("line", span=LineSpan(1, 2)), ranking=("7",)),
            RankedPrediction(key=_key("line", span=LineSpan(30, 31)), ranking=("5",)),
            RankedPrediction(key=_key("module", module="Wrong"), ranking=("12",)),
        ]
        _, strict = _match_keys(gold, preds, "strict")
        _, relaxed = _match_keys(gold, preds, "relaxed")
        assert relaxed.matched_keys >= strict.matched_keys
        assert relaxed.matched_keys == 3

    def test_duplicate_prediction_first_wins(self):
        gold = [_key("file")]
        preds = [
            RankedPrediction(key=_key("file"), ranking=("7",), model="first"),
            RankedPrediction(key=_key("file"), ranking=("12",), model="second"),
        ]
        alignment, report = _match_keys(gold, preds, "strict")
        assert alignment[gold[0]].model == "first"
        assert len(report.duplicates) == 1

    def test_strict_overlapping_line_span_does_not_match(self):
        gold = [_key("line", span=LineSpan(10, 12))]
        preds = [RankedPrediction(key=_key("line", span=LineSpan(12, 14)), ranking=("7",))]
        alignment, report = _match_keys(gold, preds, "strict")
        assert alignment == {}
        assert report.matched_keys == 0
        assert report.unmatched == gold


class TestEvaluateTask1:
    def _records(self):
        corpus = [
            make_instance(articles=("7",), path="app/A.kt", span=(1, 2)),
            make_instance(articles=("12",), path="app/B.kt", span=(5, 6)),
        ]
        return shape_task1(corpus)

    def test_mean_over_keys(self, registry):
        records = self._records()
        gold = gold_keys_for_records(records)
        file_keys = [k for k in gold if k.granularity == "file"]
        preds = [RankedPrediction(key=file_keys[0], ranking=tuple(gold[file_keys[0]]))]
        results = evaluate_task1(records, preds, registry, "strict")
        metrics = results[("LGPD", "file")].metrics
        # One perfect key, one unmatched zero key.
        assert metrics.acc_at_1 == 0.5
        assert metrics.mrr == 0.5
        assert results[("LGPD", "file")].report.matched_keys == 1

    def test_all_unmatched_all_zero(self, registry):
        records = self._records()
        results = evaluate_task1(records, [], registry, "strict")
        for (law, gran), evaluation in results.items():
            assert evaluation.metrics == RetrievalMetrics.zeros()
            assert evaluation.report.matched_keys == 0

    def test_single_perfect_key_all_ones(self, registry):
        records = shape_task1([make_instance(articles=("7",), span=(1, 1))])
        gold = gold_keys_for_records(records)
        preds = [RankedPrediction(key=key, ranking=("7",)) for key in gold]
        results = evaluate_task1(records, preds, registry, "strict")
        for evaluation in results.values():
            assert evaluation.metrics.as_tuple() == (1.0,) * 6

    def test_empty_gold_record_is_integrity_failure(self, registry):
        from regeval.shaping import Task1Key, Task1Record

        record = Task1Record(
            law="LGPD",
            key=Task1Key("r", "a", "a" * 40, "app/A.kt"),
            file_gold=frozenset(),
            module_name="A",
            module_gold=frozenset(),
            line_entries=(),
        )
        with pytest.raises(EmptyGold):
            evaluate_task1([record], [], registry, "strict")

    def test_overlong_ranking_truncated(self, registry):
        records = shape_task1([make_instance(articles=("7",), span=(1, 1))])
        gold = gold_keys_for_records(records)
        long_ranking = tuple(str(i) for i in range(100, 130)) + ("7",)
        preds = [RankedPrediction(key=key, ranking=long_ranking) for key in gold]
        results = evaluate_task1(records, preds, registry, "strict")
        evaluation = results[("LGPD", "file")]
        assert evaluation.truncated_rankings == 1
        assert evaluation.metrics.acc_at_5 == 0.0


class TestExhaustiveOracle:
    def test_small_exhaustive_slice(self):
        # The full sweep lives in the acceptance suite; keep a fast slice here.
        golds = [frozenset(c) for c in itertools.combinations(VOCAB, 2)]
        count = 0
        for gold in golds[:3]:
            for k in range(0, 4):
                for perm in itertools.permutations(VOCAB, k):
                    assert map_score(gold, perm) == pytest.approx(
                        oracles.oracle_map(set(gold), perm), abs=1e-12
                    )
                    count += 1
        assert count > 100
