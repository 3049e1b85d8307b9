from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from regeval.errors import LengthMismatch, UniverseTooSmall
from regeval.jurisdiction import Jurisdiction, JurisdictionRegistry
from regeval.multilabel import (
    PointerMatchReport,
    SetPrediction,
    T2_METRIC_NAMES,
    Task2Match,
    evaluate_task2,
    index_pointers,
    match_task2,
    score_judgment,
    score_task2,
)
from regeval.shaping import SnippetPointer, shape_task2
from test_corpus import make_instance

U3 = ["a", "b", "c"]
U6 = ["a", "b", "c", "d", "e", "f"]


class TestF1:
    def test_micro_example(self):
        metrics = score_judgment([{"a"}], [("a", "b")], U3)
        assert metrics.micro_f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_macro_example(self):
        metrics = score_judgment([{"a"}, {"b"}], [("a",), ()], U3)
        assert metrics.macro_f1 == pytest.approx(0.5, abs=1e-12)
        assert metrics.micro_f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_perfect(self):
        golds = [{"a"}, {"b", "c"}]
        metrics = score_judgment(golds, [("a",), ("b", "c")], U3)
        assert metrics[:3] == (1.0, 1.0, 1.0)

    def test_gold_absent_labels_excluded_from_macro(self):
        # "c" never appears in gold: predicting it hurts micro but is not a
        # macro/weighted term of its own.
        assert score_judgment([{"a"}], [("a",)], U3).macro_f1 == 1.0
        assert score_judgment([{"a"}], [("a", "c")], U3).macro_f1 == 1.0

    def test_weighted_uses_gold_frequency(self):
        golds = [{"a"}, {"a"}, {"b"}]
        metrics = score_judgment(golds, [("a",), ("a",), ()], U3)
        assert metrics.macro_f1 == pytest.approx(0.5, abs=1e-12)
        assert metrics.weighted_f1 == pytest.approx(2 / 3, abs=1e-12)


class TestInputs:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            score_judgment([{"a"}], [], U3)
        with pytest.raises(LengthMismatch):
            score_judgment([], [], U3)

    def test_universe_too_small(self):
        with pytest.raises(UniverseTooSmall):
            score_judgment([{"a"}], [["a"]], ["a"])
        with pytest.raises(UniverseTooSmall):
            score_judgment([{"a"}], [["a"]], [])


class TestJaccard:
    def test_examples(self):
        assert score_judgment([{"a", "b"}], [("b", "c")], U3).jaccard == pytest.approx(1 / 3, abs=1e-12)
        assert score_judgment([{"a"}], [("a",)], U3).jaccard == 1.0
        assert score_judgment([set()], [()], U3).jaccard == 1.0


class TestHamming:
    def test_examples(self):
        assert score_judgment([{"a"}], [("a", "b")], U3).one_minus_hamming == pytest.approx(2 / 3, abs=1e-12)
        assert score_judgment([{"a"}], [("a",)], U3).one_minus_hamming == 1.0
        assert score_judgment([{"a"}], [("b",)], ["a", "b"]).one_minus_hamming == 0.0

    def test_equals_pooled_confusion(self):
        golds = [{"a", "b"}, {"c"}, set()]
        preds = [{"a"}, {"b", "c"}, {"a"}]
        counts = oracles.confusion_counts(golds, preds, U3)
        fp = sum(c["fp"] for c in counts.values())
        fn = sum(c["fn"] for c in counts.values())
        metrics = score_judgment(golds, [sorted(pred) for pred in preds], U3)
        assert metrics.one_minus_hamming == pytest.approx(1 - (fp + fn) / (len(golds) * len(U3)), abs=1e-12)


class TestCoverageError:
    def test_unpredicted_labels_follow_the_predicted_ones(self):
        """The ranking is the predicted labels in output order, then the rest
        in universe order: c, a, b for ("c",) and a, b, c for no prediction.
        A gold label at rank r over 3 labels has error (r - 1) / 2."""
        for order, ranking in ((("c",), ["c", "a", "b"]), ((), U3)):
            for depth, label in enumerate(ranking):
                metrics = score_judgment([{label}], [order], U3)
                assert metrics.one_minus_coverage_error == 1 - depth / 2

    def test_examples(self):
        assert score_judgment([{"a", "c"}], [["c"]], U3).one_minus_coverage_error == pytest.approx(0.5, abs=1e-12)
        assert score_judgment([{"a"}], [["a"]], U3).one_minus_coverage_error == 1.0
        assert score_judgment([{"c"}], [[]], U3).one_minus_coverage_error == 0.0

    def test_empty_gold_contributes_zero(self):
        assert score_judgment([set(), {"a"}], [[], ["a"]], U3).one_minus_coverage_error == 1.0

    def test_unpredicted_labels_are_ranked_in_universe_order(self):
        """Today's convention: labels the model did not predict follow in
        universe order, so an empty prediction's coverage error depends on
        where the gold labels sit in the universe."""
        universe = ["1", "2", "3", "4", "5"]
        assert score_judgment([{"1"}], [[]], universe).one_minus_coverage_error == 1.0
        assert score_judgment([{"1"}], [[]], universe[::-1]).one_minus_coverage_error == 0.0


LGPD_UNIVERSE = JurisdictionRegistry.default().get("LGPD").universe


class TestUniversePermutation:
    """Every task-2 metric but the coverage error reads the universe as a set.
    Macro and weighted F1 sum their per-label terms in universe order, so a
    permutation may move only their last bits."""

    @settings(max_examples=100, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(
                st.sets(st.sampled_from(LGPD_UNIVERSE), min_size=1, max_size=4).map(frozenset),
                st.lists(st.sampled_from(LGPD_UNIVERSE), max_size=5, unique=True).map(tuple),
            ),
            min_size=1,
            max_size=6,
        ),
        permuted=st.permutations(LGPD_UNIVERSE),
    )
    def test_metrics_other_than_coverage_error_ignore_universe_order(self, registry, samples, permuted):
        golds = [gold for gold, _ in samples]
        orders = [order for _, order in samples]
        match = {"LGPD": Task2Match(golds=golds, orders=orders, report=PointerMatchReport())}
        jur = registry.get("LGPD")
        reordered = JurisdictionRegistry(
            {"LGPD": Jurisdiction(
                jur.code, tuple(permuted), jur.citation_style, jur.prefixes, jur.id_pattern, jur.allow_bare_ids
            )}
        )
        base = score_task2(match, registry)["LGPD"]
        moved = score_task2(match, reordered)["LGPD"]
        for name in ("micro_f1", "jaccard", "one_minus_hamming"):
            assert getattr(moved, name) == getattr(base, name)
        for name in ("macro_f1", "weighted_f1"):
            assert getattr(moved, name) == pytest.approx(getattr(base, name), abs=1e-12)


def assert_matches_oracles(metrics, golds, orders, universe):
    """All six fields of `metrics` against the brute-force oracles."""
    preds = [set(order) for order in orders]
    expected = (
        oracles.oracle_micro_f1(golds, preds, universe),
        oracles.oracle_macro_f1(golds, preds, universe),
        oracles.oracle_weighted_f1(golds, preds, universe),
        oracles.oracle_jaccard(golds, preds, True),
        1 - oracles.oracle_nce(golds, orders, universe),
        1 - oracles.oracle_hamming(golds, preds, universe),
    )
    for name, value, oracle in zip(T2_METRIC_NAMES, metrics, expected):
        assert value == pytest.approx(oracle, abs=1e-12), name


class TestExhaustiveOracleSlice:
    def test_universe_3_exhaustive(self):
        labels = U3
        subsets = [frozenset(c) for n in range(4) for c in itertools.combinations(labels, n)]
        for gold in subsets:
            for pred in subsets:
                order = [l for l in labels if l in pred]
                assert_matches_oracles(score_judgment([gold], [order], labels), [gold], [order], labels)


class TestSampleListsMatchOracles:
    """Sums over several samples, in a universe of any order, meet the
    oracles too."""

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(
                st.sets(st.sampled_from(U6), max_size=4).map(frozenset),
                st.lists(st.sampled_from(U6), max_size=6, unique=True).map(tuple),
            ),
            min_size=1,
            max_size=6,
        ),
        universe=st.permutations(U6),
    )
    def test_all_six_fields(self, samples, universe):
        golds = [gold for gold, _ in samples]
        orders = [order for _, order in samples]
        assert_matches_oracles(score_judgment(golds, orders, universe), golds, orders, universe)


label_sets = st.sets(st.sampled_from(["a", "b", "c", "d"]), max_size=4).map(frozenset)


class TestMonotoneSafety:
    @settings(max_examples=200, deadline=None)
    @given(
        gold=st.sets(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=3).map(frozenset),
        pred=label_sets,
    )
    def test_removing_wrong_label_never_hurts(self, gold, pred):
        universe = ["a", "b", "c", "d"]
        wrong = [label for label in pred if label not in gold]
        if not wrong:
            return
        smaller = frozenset(pred - {wrong[0]})
        order_full = [l for l in universe if l in pred]
        order_small = [l for l in universe if l in smaller]

        before = score_judgment([gold], [order_full], universe)
        after = score_judgment([gold], [order_small], universe)
        for b, a in zip(before, after):
            assert a >= b - 1e-12


class TestEvaluateTask2:
    def _view(self):
        corpus = [
            make_instance(articles=("7",), path="app/A.kt", span=(1, 2), snippet="s1"),
            make_instance(articles=("12",), path="app/B.kt", span=(5, 6), snippet="s2"),
        ]
        return shape_task2(corpus)

    def _pred(self, record, labels, model="m"):
        return SetPrediction(law=record.law, pointer=record.pointer, labels=labels, model=model)

    def _report(self, records, preds):
        """The LGPD pointer-match report of the join `evaluate_task2` scores."""
        return match_task2(index_pointers(records), preds)["LGPD"].report

    def test_perfect_singletons_all_ones(self, registry):
        records = self._view()
        preds = [self._pred(rec, tuple(rec.gold)) for rec in records]
        assert evaluate_task2(records, preds, registry)["LGPD"] == (1.0,) * 6
        assert self._report(records, preds).coverage == 1.0

    def test_empty_predictions_hamming_is_one_minus_density(self, registry):
        records = self._view()
        metrics = evaluate_task2(records, [], registry)["LGPD"]
        universe_size = len(registry.get("LGPD").universe)
        density = sum(len(r.gold) for r in records) / (len(records) * universe_size)
        assert metrics.micro_f1 == 0.0
        assert metrics.one_minus_hamming == pytest.approx(1 - density, abs=1e-12)
        assert self._report(records, []).matched_pointers == 0

    def test_unmatched_pointer_scores_as_empty(self, registry):
        records = self._view()
        preds = [self._pred(records[0], tuple(records[0].gold))]
        assert self._report(records, preds).matched_pointers == 1
        assert 0 < evaluate_task2(records, preds, registry)["LGPD"].micro_f1 < 1

    def test_orphan_prediction_reported(self, registry):
        records = self._view()
        orphan = SetPrediction(
            law="LGPD",
            pointer=SnippetPointer("app/Zed.kt", 9, 9, "a" * 40),
            labels=("7",),
        )
        assert len(self._report(records, [orphan]).orphans) == 1

    def test_vector_order_matches_oriented_names(self, registry):
        records = self._view()
        preds = [self._pred(rec, tuple(rec.gold)) for rec in records]
        metrics = evaluate_task2(records, preds, registry)["LGPD"]
        assert tuple(metrics._asdict()) == T2_METRIC_NAMES
