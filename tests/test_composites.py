from __future__ import annotations

import json
import math
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regeval.composites import (
    CompositeConfig,
    compose,
    compose_from_rcs,
    couple_tasks,
    crgs,
    mahalanobis,
    ocs,
    rcs_scores,
    regularized_covariance,
    sgs,
)
from regeval.errors import MissingLaw, RegevalError, SingularCovariance
from regeval.multilabel import JudgmentMetrics
from regeval.report import metrics_from_base
from regeval.retrieval import RetrievalMetrics

from oracles import mp_rcs_scores, oracle_rcs_scores

EPS = 1e-6

DATA = Path(__file__).parent / "data"
REFERENCE = json.loads((DATA / "reference_scores.json").read_text())

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestSgs:
    def test_equal_values_within_two_epsilon(self):
        for v in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert abs(sgs([v, v, v]) - v) <= 2 * EPS

    def test_mixed_triple_value(self):
        # Harmonic factor 0.342857... times exp(-0.285714...) = 0.257650...
        assert sgs([0.2, 0.4, 0.8]) == pytest.approx(0.25765, abs=1e-4)

    def test_weak_level_dominates(self):
        assert sgs([0.0, 0.5, 0.5]) < 1e-5

    def test_mpmath_cross_check(self):
        import mpmath

        mpmath.mp.dps = 50
        values = [0.2, 0.4, 0.8]
        mp_vals = [mpmath.mpf(v) for v in values]
        harmonic = 1 / (sum(1 / (v + mpmath.mpf(EPS)) for v in mp_vals) / 3)
        mean = sum(mp_vals) / 3
        var = sum((v - mean) ** 2 for v in mp_vals) / 3
        expected = harmonic * mpmath.e ** (-(var / mean**2))
        assert sgs(values) == pytest.approx(float(expected), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(unit_floats, min_size=3, max_size=3))
    def test_never_exceeds_arithmetic_mean(self, values):
        assert sgs(values) <= sum(values) / 3 + 2 * EPS

    def test_mean_preserving_spread_monotonicity(self):
        rng = random.Random(17)
        for _ in range(1000):
            mean = rng.uniform(0.2, 0.8)
            d1 = rng.uniform(0.0, min(mean, 1 - mean) * 0.5)
            d2 = rng.uniform(d1, min(mean, 1 - mean))
            narrow = [mean - d1, mean, mean + d1]
            wide = [mean - d2, mean, mean + d2]
            if d2 > d1:
                assert sgs(wide) < sgs(narrow)

    def test_requires_three_values(self):
        with pytest.raises(RegevalError):
            sgs([0.5, 0.5])


class TestMahalanobis:
    def test_identity_of_indiscernibles(self):
        cov = np.eye(3)
        assert mahalanobis([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], cov) == 0.0

    def test_euclidean_reduction(self):
        cov = np.eye(2)
        assert mahalanobis([3.0, 4.0], [0.0, 0.0], cov) == pytest.approx(5.0, abs=1e-12)

    def test_inverse_variance_scaling(self):
        cov = np.diag([4.0, 1.0])
        assert mahalanobis([2.0, 0.0], [0.0, 0.0], cov) == pytest.approx(1.0, abs=1e-12)

    def test_singular_covariance(self):
        with pytest.raises(SingularCovariance):
            mahalanobis([1.0, 0.0], [0.0, 0.0], np.zeros((2, 2)))

    def test_indefinite_covariance(self):
        # Symmetric with eigenvalues 3 and -1: the quadratic form of (1, 1)
        # is positive, but no Cholesky factor exists.
        with pytest.raises(SingularCovariance):
            mahalanobis([1.0, 1.0], [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_one_by_one_covariance(self):
        assert mahalanobis([2.0], [0.0], [[4.0]]) == 1.0

    @pytest.mark.parametrize(
        "cov", [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]], ids=["2x3", "3x2"]
    )
    def test_non_square_covariance(self, cov):
        with pytest.raises(RegevalError, match="covariance must be 2 x 2 for 2-vectors"):
            mahalanobis([1.0, 0.0], [0.0, 0.0], cov)

    def test_ridge_regularization(self):
        cohort = np.array([[0.5, 0.5], [0.5, 0.5]])
        cov = regularized_covariance(cohort, ridge=0.1)
        assert np.allclose(cov, 0.1 * np.eye(2))

    def test_singleton_cohort_degrades_to_ridge(self):
        cov = regularized_covariance(np.array([[0.3, 0.7, 0.1]]), ridge=0.1)
        assert np.allclose(cov, 0.1 * np.eye(3))

    def test_population_covariance_used(self):
        cohort = np.array([[0.0, 0.0], [1.0, 1.0]])
        cov = regularized_covariance(cohort, ridge=0.1)
        # Population variance of {0, 1} is 0.25.
        assert cov[0][0] == pytest.approx(0.35, abs=1e-12)


class TestRcs:
    def test_endpoints(self):
        config = CompositeConfig()
        cohort = [[1.0] * 6, [0.0] * 6, [0.5] * 6]
        scores = rcs_scores(cohort, config)
        assert scores[0] == pytest.approx(1.0, abs=1e-12)
        assert scores[1] == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < scores[2] < 1.0

    def test_identity_covariance_symmetry(self):
        # A lone (1, 0) vector: covariance collapses to ridge * I, so the two
        # distances are equal and the score is exactly one half.
        scores = rcs_scores([[1.0, 0.0]], CompositeConfig())
        assert scores[0] == pytest.approx(0.5, abs=1e-12)

    def test_cohort_permutation_invariance(self):
        config = CompositeConfig()
        cohort = [[0.9, 0.8, 0.7, 0.6, 0.5, 0.4], [0.1, 0.3, 0.2, 0.4, 0.2, 0.1], [0.5] * 6]
        scores = rcs_scores(cohort, config)
        perm = [2, 0, 1]
        permuted_scores = rcs_scores([cohort[i] for i in perm], config)
        for new_pos, old_pos in enumerate(perm):
            assert permuted_scores[new_pos] == pytest.approx(scores[old_pos], abs=1e-12)

    def test_scores_in_unit_interval(self):
        rng = random.Random(5)
        cohort = [[rng.random() for _ in range(6)] for _ in range(4)]
        for score in rcs_scores(cohort, CompositeConfig()):
            assert 0.0 <= score <= 1.0

    def test_needs_two_metrics(self):
        with pytest.raises(RegevalError):
            rcs_scores([[1.0]], CompositeConfig())

    @pytest.mark.parametrize("cohort", [[], [[0.5, 0.5], [0.5]]], ids=["empty", "ragged"])
    def test_cohort_must_be_a_non_empty_matrix(self, cohort):
        with pytest.raises(RegevalError, match="cohort must be a non-empty 2-D array of equal-length rows"):
            rcs_scores(cohort, CompositeConfig())


def _ulps(a: float, b: float) -> int:
    """Number of floats between two non-negative floats."""
    return abs(struct.unpack("<q", struct.pack("<d", a))[0] - struct.unpack("<q", struct.pack("<d", b))[0])


# Metric values are 0, 1 or at least about 1e-7: SGS is floored by epsilon and
# the rest are ratios of counts. (Far below that, near 1e-160, the squares in
# any float evaluation underflow and no method keeps a few ulp.)
metric_values = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=1e-6, max_value=1.0))


@st.composite
def cohorts(draw):
    """1-7 rows of 2-6 metrics, drawn from fewer distinct rows (so rows
    repeat), with some columns held constant."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(1, 7))
    distinct = draw(st.lists(st.lists(metric_values, min_size=k, max_size=k), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    rows = [list(distinct[i]) for i in picks]
    for column in draw(st.sets(st.integers(0, k - 1))):
        value = draw(metric_values)
        for row in rows:
            row[column] = value
    return rows


def _golden_cohorts():
    """The (law, task) cohorts `compose` scores for both golden files: SGS
    vectors for task 1, judgment vectors for task 2."""
    for name in ("golden_results.json", "golden_cohort_base.json"):
        task1, task2 = metrics_from_base(json.loads((DATA / name).read_text()))
        report = compose(task1, task2)
        models = sorted(task1)
        for law in sorted(task2[models[0]]):
            yield [list(report.sgs_tables[model][law].values()) for model in models]
            yield [list(task2[model][law]) for model in models]


class TestRcsReferences:
    @settings(max_examples=200, deadline=None)
    @given(cohorts())
    def test_agrees_with_numpy_within_4_ulp(self, cohort):
        for value, expected in zip(rcs_scores(cohort, CompositeConfig()), oracle_rcs_scores(cohort, 0.1)):
            assert _ulps(value, expected) <= 4, (cohort, value, expected)

    def test_golden_cohorts_agree_with_50_digit_evaluation_within_4_ulp(self):
        cohorts = list(_golden_cohorts())
        assert len(cohorts) == 12
        for cohort in cohorts:
            for value, expected in zip(rcs_scores(cohort, CompositeConfig()), mp_rcs_scores(cohort, 0.1)):
                assert _ulps(value, expected) <= 4, (cohort, value, expected)


class TestCrgs:
    def test_reference_rows(self):
        assert crgs([0.3270, 0.3100, 0.3998]) == pytest.approx(0.3425, abs=5e-4)
        assert crgs([0.0342, 0.0396, 0.1576]) == pytest.approx(0.0594, abs=5e-4)

    def test_zero_variance_fixed_point(self):
        for v in (0.05, 0.3, 0.9):
            assert crgs([v, v, v]) == pytest.approx(v, abs=1e-9)

    def test_weak_member_collapses_geometric_mean(self):
        assert crgs([0.0, 0.5, 0.5]) < 0.02

    def test_empty_raises(self):
        with pytest.raises(MissingLaw):
            crgs([])


class TestCoupling:
    def test_equal_scores_harmonic(self):
        assert couple_tasks(0.4, 0.4) == pytest.approx(0.4, abs=1e-5)

    def test_reference_pair(self):
        assert couple_tasks(0.3270, 0.3932) == pytest.approx(0.3128, abs=5e-5)

    def test_zero_product(self):
        assert couple_tasks(0.0, 1.0) == pytest.approx(0.0, abs=1e-5)

    def test_gap_penalty(self):
        assert couple_tasks(0.2, 0.6) < couple_tasks(0.4, 0.4)


class TestOcs:
    def test_reference_models(self):
        config = CompositeConfig()
        for model, tasks in REFERENCE["models"].items():
            pairs = {law: (tasks["task1"][law], tasks["task2"][law]) for law in tasks["task1"]}
            value, coupled = ocs(pairs, config)
            assert value == pytest.approx(REFERENCE["expected"]["ocs"][model], abs=1.5e-3)
            assert set(coupled) == set(pairs)

    def test_zero_variance_fixed_point(self):
        value, _ = ocs({"A": (0.4, 0.4), "B": (0.4, 0.4), "C": (0.4, 0.4)}, CompositeConfig())
        assert value == pytest.approx(0.4, abs=1e-4)

    def test_zero_member_collapses(self):
        value, _ = ocs({"A": (0.0, 0.9), "B": (0.5, 0.5), "C": (0.5, 0.5)}, CompositeConfig())
        assert value < 0.02

    def test_missing_law(self):
        with pytest.raises(MissingLaw):
            ocs({"A": (0.5, None)}, CompositeConfig())


class TestComposeFromRcs:
    def test_full_reference_recomputation(self):
        report = compose_from_rcs(REFERENCE["models"], CompositeConfig())
        for model, expected in REFERENCE["expected"]["crgs_task1"].items():
            assert report.crgs_task1[model] == pytest.approx(expected, abs=5e-4)
        for model, expected in REFERENCE["expected"]["crgs_task2"].items():
            assert report.crgs_task2[model] == pytest.approx(expected, abs=5e-4)
        for model, expected in REFERENCE["expected"]["ocs"].items():
            assert report.ocs_scores[model] == pytest.approx(expected, abs=1.5e-3)

    def test_default_config_is_the_reference_config(self):
        default = compose_from_rcs(REFERENCE["models"])
        assert default.config == CompositeConfig()
        assert default.to_dict() == compose_from_rcs(REFERENCE["models"], CompositeConfig()).to_dict()


def _metrics_fixture(models=("m1", "m2"), laws=("LGPD", "PDPA", "PIPEDA"), seed=3):
    rng = random.Random(seed)
    task1 = {}
    task2 = {}
    for model in models:
        task1[model] = {}
        task2[model] = {}
        for law in laws:
            task1[model][law] = {
                gran: RetrievalMetrics(*(rng.random() for _ in range(6)))
                for gran in ("file", "module", "line")
            }
            task2[model][law] = JudgmentMetrics(*(rng.random() for _ in range(6)))
    return task1, task2


class TestCompose:
    def test_report_shape(self):
        task1, task2 = _metrics_fixture()
        report = compose(task1, task2)
        data = report.to_dict()
        assert set(data["models"]) == {"m1", "m2"}
        block = data["models"]["m1"]
        assert set(block["sgs"]) == {"LGPD", "PDPA", "PIPEDA"}
        assert set(block["rcs"]["task1"]) == {"LGPD", "PDPA", "PIPEDA"}
        assert 0.0 <= block["ocs"] <= 1.0

    def test_deterministic(self):
        task1, task2 = _metrics_fixture(seed=9)
        a = compose(task1, task2).to_dict()
        b = compose(task1, task2).to_dict()
        assert a == b

    def test_mismatched_models_rejected(self):
        task1, task2 = _metrics_fixture()
        del task2["m2"]
        with pytest.raises(MissingLaw):
            compose(task1, task2)

    def test_task2_law_set_differing_alone_rejected(self):
        task1, task2 = _metrics_fixture()
        del task2["m2"]["PIPEDA"]
        with pytest.raises(MissingLaw, match="m2: models must cover the same laws"):
            compose(task1, task2)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(RegevalError):
            CompositeConfig(ridge=0.0)
        with pytest.raises(RegevalError):
            CompositeConfig(epsilon=0.0)
        with pytest.raises(RegevalError):
            CompositeConfig(alpha=-1.0)
        for name in ("alpha", "beta", "gamma", "delta", "ridge", "epsilon"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(RegevalError, match=f"{name} must be finite"):
                    CompositeConfig(**{name: value})

    def test_accepts_zero_and_fractional_weights(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            for value in (0.0, 0.5):
                assert getattr(CompositeConfig(**{name: value}), name) == value
