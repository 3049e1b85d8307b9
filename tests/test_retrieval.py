from __future__ import annotations

import itertools

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from regeval.errors import EmptyGold
from regeval.retrieval import (
    GoldSlice,
    RankedPrediction,
    _DISCOUNTS,
    evaluate_task1,
    gold_keys_for_records,
    index_gold_keys,
    match_keys,
    match_task1,
    score_ranking,
)
from regeval.shaping import (
    RetrievalKey, SnippetPointer, Task1Record, decode_anchor, decode_pointer, shape_task1, shape_task2,
)
from test_corpus import make_instance

VOCAB = ["a", "b", "c", "d", "e"]

rankings = st.lists(st.sampled_from(VOCAB), max_size=5, unique=True).map(tuple)
gold_sets = st.sets(st.sampled_from(VOCAB), min_size=1, max_size=3).map(frozenset)


class TestMetricExamples:
    def test_acc_at_1(self):
        assert score_ranking({"a", "b"}, ["a", "c", "d"]).acc_at_1 == 0.5

    def test_acc_at_5(self):
        assert score_ranking({"a", "b"}, ["a", "x", "y", "z", "b"]).acc_at_5 == 1.0
        assert score_ranking({"a"}, []).acc_at_5 == 0.0

    def test_r_precision(self):
        assert score_ranking({"a", "b"}, ["a", "c", "b"]).r_precision == 0.5
        assert score_ranking({"a"}, ["a"]).r_precision == 1.0
        assert score_ranking({"a", "b", "c"}, ["x"]).r_precision == 0.0

    def test_mrr(self):
        assert score_ranking({"a"}, ["b", "a", "c"]).mrr == 0.5
        assert score_ranking({"a"}, ["a"]).mrr == 1.0
        assert score_ranking({"a"}, ["b", "c"]).mrr == 0.0

    def test_map(self):
        assert score_ranking({"a", "b"}, ["a", "c", "b"]).map == pytest.approx(5 / 6, abs=1e-12)
        assert score_ranking({"a"}, ["a"]).map == 1.0
        assert score_ranking({"a", "b"}, ["a"]).map == 0.5

    def test_ndcg_at_5(self):
        assert score_ranking({"a", "b"}, ["a", "c", "b"]).ndcg_at_5 == pytest.approx(0.9197, abs=5e-5)
        assert score_ranking({"a"}, ["a", "b", "c"]).ndcg_at_5 == 1.0
        assert score_ranking({"a"}, ["b", "c", "d", "e", "f"]).ndcg_at_5 == 0.0

    def test_empty_gold_raises(self):
        for gold, ranking in ((set(), ("a",)), (frozenset(), ())):
            with pytest.raises(EmptyGold):
                score_ranking(gold, ranking)

    def test_discounts_are_reciprocals_of_correctly_rounded_log2(self):
        # 1 / log2(p + 1) with log2 rounded once to binary64; the correctly
        # rounded reciprocal itself differs at p = 2 and p = 5 by 1 ulp.
        with mpmath.workdps(50):
            assert _DISCOUNTS == tuple(1.0 / float(mpmath.log(p + 1, 2)) for p in range(1, 6))


def assert_matches_oracles(gold, ranking):
    row = score_ranking(gold, ranking)
    gold_set = set(gold)
    assert row.acc_at_1 == pytest.approx(oracles.oracle_acc_at_k(gold_set, ranking, 1), abs=1e-12)
    assert row.acc_at_5 == pytest.approx(oracles.oracle_acc_at_k(gold_set, ranking, 5), abs=1e-12)
    assert row.r_precision == pytest.approx(oracles.oracle_r_precision(gold_set, ranking), abs=1e-12)
    assert row.mrr == pytest.approx(oracles.oracle_mrr(gold_set, ranking), abs=1e-12)
    assert row.map == pytest.approx(oracles.oracle_map(gold_set, ranking), abs=1e-12)
    assert row.ndcg_at_5 == pytest.approx(oracles.oracle_ndcg_at_5(gold_set, ranking), abs=1e-12)


class TestOracleEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(gold=gold_sets, ranking=rankings)
    def test_random_cases(self, gold, ranking):
        assert_matches_oracles(gold, ranking)

    @settings(max_examples=300, deadline=None)
    @given(
        gold=st.sets(st.sampled_from(VOCAB + ["f", "g"]), min_size=1, max_size=7).map(frozenset),
        ranking=st.lists(st.sampled_from(VOCAB + ["f", "g", "x", "y"]), max_size=9, unique=True).map(tuple),
    )
    def test_gold_sets_and_rankings_past_rank_five(self, gold, ranking):
        assert_matches_oracles(gold, ranking)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(gold=gold_sets, ranking=rankings)
    def test_bounds_and_monotonicity(self, gold, ranking):
        row = score_ranking(gold, ranking)
        for value in row:
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


def _key(granularity="file", law="LGPD", file_path="app/A.kt", span=None, **kw):
    defaults = dict(
        law=law,
        repo_url="https://repos.example/demo",
        app_name="demo",
        commit_id="a" * 40,
        file_path=file_path,
        granularity=granularity,
    )
    defaults.update(kw)
    if span is not None:
        defaults.update(start=span[0], end=span[1])
    return RetrievalKey(**defaults)


class TestKeyCodec:
    @pytest.mark.parametrize("granularity", ["file", "module", "line"])
    def test_retrieval_key_round_trip(self, granularity):
        records = shape_task1([make_instance(path="app/A.kt", span=(3, 5))])
        [key] = [k for k in gold_keys_for_records(records) if k[5] == granularity]
        # A shaped key is the plain tuple `eval` decodes, so it is the key for
        # dict lookups.
        assert type(key) is tuple
        decoded = decode_anchor(key[0], RetrievalKey.to_dict(key))
        assert type(decoded) is tuple
        assert decoded == key and hash(decoded) == hash(key)

    def test_request_key_omits_law(self):
        key = _key("line", span=(3, 5))
        data = key.to_dict()
        del data["law"]
        assert decode_anchor("LGPD", data) == key

    def test_snippet_pointer_round_trip(self):
        [record] = shape_task2([make_instance(path="app/A.kt", span=(3, 5))])
        data = SnippetPointer.to_dict(record.pointer)
        assert data == {"file_path": "app/A.kt", "span": [3, 5], "commit_id": record.pointer[3]}
        assert type(record.pointer) is tuple and decode_pointer(data) == record.pointer


def _match_keys(gold_keys, preds, policy):
    """`match_keys` over one slice holding `gold_keys`, read back as
    ({gold key: matched prediction}, report)."""
    gold = GoldSlice()
    for key in gold_keys:
        gold.add(key, frozenset({"7"}))
    match = match_keys(gold, preds, policy)
    alignment = {key: pred for key, pred in zip(match.gold.keys, match.aligned) if pred is not None}
    return alignment, match.report


class TestMatchKeys:
    def test_strict_exact_match(self):
        gold = [_key("line", span=(10, 12))]
        preds = [RankedPrediction(key=gold[0], ranking=("7",))]
        alignment, report = _match_keys(gold, preds, "strict")
        assert report.matched_keys == 1 and not report.unmatched

    def test_offset_span_strict_miss_relaxed_hit(self):
        gold = [_key("line", span=(10, 12))]
        preds = [RankedPrediction(key=_key("line", span=(11, 13)), ranking=("7",))]
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
            _key("line", span=(1, 2)),
            _key("line", span=(8, 9)),
            _key("module", module="A"),
        ]
        preds = [
            RankedPrediction(key=_key("line", span=(1, 2)), ranking=("7",)),
            RankedPrediction(key=_key("line", span=(30, 31)), ranking=("5",)),
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
        gold = [_key("line", span=(10, 12))]
        preds = [RankedPrediction(key=_key("line", span=(12, 14)), ranking=("7",))]
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

    def _reports(self, records, preds):
        """Each slice's key-match report of the join `evaluate_task1` scores."""
        matches, _orphans = match_task1(index_gold_keys(gold_keys_for_records(records)), preds, "strict")
        return {slice_key: match.report for slice_key, match in matches.items()}

    def test_mean_over_keys(self):
        records = self._records()
        gold = gold_keys_for_records(records)
        file_keys = [k for k in gold if k[5] == "file"]
        preds = [RankedPrediction(key=file_keys[0], ranking=tuple(gold[file_keys[0]]))]
        results = evaluate_task1(records, preds, "strict")
        metrics = results[("LGPD", "file")]
        # One perfect key, one unmatched zero key.
        assert metrics.acc_at_1 == 0.5
        assert metrics.mrr == 0.5
        assert self._reports(records, preds)[("LGPD", "file")].matched_keys == 1

    def test_all_unmatched_all_zero(self):
        records = self._records()
        results = evaluate_task1(records, [], "strict")
        reports = self._reports(records, [])
        for slice_key, metrics in results.items():
            assert metrics == (0.0,) * 6
            assert reports[slice_key].matched_keys == 0

    def test_single_perfect_key_all_ones(self):
        records = shape_task1([make_instance(articles=("7",), span=(1, 1))])
        gold = gold_keys_for_records(records)
        preds = [RankedPrediction(key=key, ranking=("7",)) for key in gold]
        results = evaluate_task1(records, preds, "strict")
        for metrics in results.values():
            assert metrics == (1.0,) * 6

    def test_empty_gold_record_is_integrity_failure(self):
        record = Task1Record(
            file=_key("file"),
            file_gold=frozenset(),
            module=_key("module", module="A"),
            module_gold=frozenset(),
            lines=(),
        )
        with pytest.raises(EmptyGold):
            evaluate_task1([record], [], "strict")


class TestExhaustiveOracle:
    def test_small_exhaustive_slice(self):
        # The full sweep lives in the acceptance suite; keep a fast slice here.
        golds = [frozenset(c) for c in itertools.combinations(VOCAB, 2)]
        count = 0
        for gold in golds[:3]:
            for k in range(0, 4):
                for perm in itertools.permutations(VOCAB, k):
                    assert_matches_oracles(gold, perm)
                    count += 1
        assert count > 100
