"""Stability-aware score aggregation.

Four layers sit on top of the base metrics: a variance-penalized harmonic mean
across granularities, a covariance-aware TOPSIS distance-to-ideal per (law,
task), a variance-penalized geometric mean across laws, and a cross-task
coupling that is aggregated across laws the same way. Variances and standard
deviations are population (divide-by-n) throughout; that convention reproduces
released composite values from their published inputs.

Every float reduction is a left-to-right `left_sum`, and RCS factors each
cohort's covariance by a plain-Python Cholesky decomposition, so the bytes of
every composite are the same under any BLAS and on CPython 3.10 to 3.13; only
`exp` and `log` come from the platform's libm.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .corpus import Checked
from .errors import MissingLaw, RegevalError, SingularCovariance
from .multilabel import JudgmentMetrics
from .retrieval import T1_METRIC_NAMES, RetrievalMetrics, left_sum
from .shaping import GRANULARITIES


class _CompositeConfig(NamedTuple):
    alpha: float = 1.0
    beta: float = 2.0
    gamma: float = 2.0
    delta: float = 2.0
    ridge: float = 0.1
    epsilon: float = 1e-6


class CompositeConfig(Checked, _CompositeConfig):
    """Aggregation weights and numeric guards."""

    __slots__ = ()

    def _check(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta", "ridge", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise RegevalError(f"{name} must be finite, got {value!r}")
        for name in ("alpha", "beta", "gamma", "delta"):
            if getattr(self, name) < 0:
                raise RegevalError(f"{name} must be >= 0")
        if self.ridge <= 0:
            raise RegevalError("ridge must be > 0")
        if self.epsilon <= 0:
            raise RegevalError("epsilon must be > 0")

    def to_dict(self) -> dict:
        # RCS estimates one covariance per (law, task); the pooling key stays
        # so results.json keeps its schema.
        return {**self._asdict(), "pool_covariance_across_laws": False}


def _population_variance(values: Sequence[float]) -> float:
    mean = left_sum(values) / len(values)
    return left_sum((v - mean) ** 2 for v in values) / len(values)


def sgs(values: Sequence[float], alpha: float = 1.0, epsilon: float = 1e-6) -> float:
    """Granularity-stability score for one metric across file/module/line.

    Harmonic mean of the epsilon-floored level scores, discounted by
    exp(-alpha * CV^2) where CV is the population coefficient of variation.
    The harmonic factor lets any weak level dominate; the exponential
    penalizes cross-level volatility.
    """
    if len(values) != 3:
        raise RegevalError(f"expected three granularity values, got {len(values)}")
    harmonic = 1.0 / (left_sum(1.0 / (v + epsilon) for v in values) / len(values))
    mean = left_sum(values) / len(values)
    cv_sq = _population_variance(values) / max(mean, epsilon) ** 2
    return harmonic * math.exp(-alpha * cv_sq)


def _rows(matrix: Sequence[Sequence[float]], name: str) -> list[list[float]]:
    """`matrix` as a list of float rows of one length, at least one row."""
    try:
        rows = [[float(value) for value in row] for row in matrix]
    except (TypeError, ValueError):
        rows = []
    if not rows or len({len(row) for row in rows}) != 1:
        raise RegevalError(f"{name} must be a non-empty 2-D array of equal-length rows")
    return rows


def regularized_covariance(cohort: Sequence[Sequence[float]], ridge: float) -> list[list[float]]:
    """Population covariance of metric columns plus ridge * I, as K rows.

    A singleton cohort has zero deviations, so it degrades to ridge * I.
    """
    rows = _rows(cohort, "cohort")
    n = len(rows)
    means = [left_sum(column) / n for column in zip(*rows)]
    deviations = [[value - mean for value, mean in zip(row, means)] for row in rows]
    k = len(means)
    cov = [[left_sum(d[i] * d[j] for d in deviations) / n for j in range(k)] for i in range(k)]
    for i in range(k):
        cov[i][i] += ridge
    return cov


def _cholesky(cov: Sequence[Sequence[float]]) -> list[list[float]]:
    """Lower-triangular rows of L with L L^T = cov, read from cov's lower
    triangle; raises SingularCovariance unless cov is positive definite."""
    factor: list[list[float]] = []
    for i, cov_row in enumerate(cov):
        row: list[float] = []
        for j in range(i):
            row.append((cov_row[j] - left_sum(a * b for a, b in zip(row, factor[j]))) / factor[j][j])
        pivot = cov_row[i] - left_sum(a * a for a in row)
        if not pivot > 0:
            raise SingularCovariance("covariance is not positive definite")
        row.append(math.sqrt(pivot))
        factor.append(row)
    return factor


def _distance(diff: Sequence[float], factor: Sequence[Sequence[float]]) -> float:
    """sqrt(diff^T C^{-1} diff) for C = L L^T: the norm of z with L z = diff,
    found by forward substitution."""
    z: list[float] = []
    for value, row in zip(diff, factor):
        z.append((value - left_sum(a * b for a, b in zip(row, z))) / row[len(z)])
    return math.sqrt(left_sum(v * v for v in z))


def mahalanobis(x: Sequence[float], y: Sequence[float], cov: Sequence[Sequence[float]]) -> float:
    """sqrt((x - y)^T C^{-1} (x - y)) through the Cholesky factor of C."""
    diff = [float(a) - float(b) for a, b in zip(x, y, strict=True)]
    rows = _rows(cov, "covariance")
    if len(rows) != len(diff) or len(rows[0]) != len(diff):
        raise RegevalError(f"covariance must be {len(diff)} x {len(diff)} for {len(diff)}-vectors")
    return _distance(diff, _cholesky(rows))


def rcs_scores(cohort: Sequence[Sequence[float]], config: CompositeConfig) -> list[float]:
    """TOPSIS closeness to the all-ones ideal under Mahalanobis geometry,
    one score per cohort row. The covariance is estimated and factored once
    per cohort."""
    rows = _rows(cohort, "cohort")
    if len(rows[0]) < 2:
        raise RegevalError("metric vectors need K >= 2 entries")
    factor = _cholesky(regularized_covariance(rows, config.ridge))
    scores = []
    for row in rows:
        d_plus = _distance([value - 1.0 for value in row], factor)
        d_minus = _distance(row, factor)
        scores.append(d_minus / (d_plus + d_minus))
    return scores


def crgs(per_law_scores: Sequence[float], beta: float = 2.0, epsilon: float = 1e-6) -> float:
    """Variance-penalized geometric mean of per-law scores."""
    if not per_law_scores:
        raise MissingLaw("no per-law scores to aggregate")
    log_sum = left_sum(math.log(max(score, epsilon)) for score in per_law_scores)
    geometric = math.exp(log_sum / len(per_law_scores))
    return geometric * math.exp(-beta * _population_variance(per_law_scores))


def couple_tasks(x: float, y: float, gamma: float = 2.0, epsilon: float = 1e-6) -> float:
    """Harmonic coupling of the two task scores with a gap penalty."""
    return (2.0 * x * y / (x + y + epsilon)) * math.exp(-gamma * abs(x - y))


def ocs(
    per_law_pairs: Mapping[str, tuple[float | None, float | None]],
    config: CompositeConfig,
) -> tuple[float, dict[str, float]]:
    """Couple tasks within each law, then aggregate across laws geometrically."""
    coupled: dict[str, float] = {}
    for law, (x, y) in sorted(per_law_pairs.items()):
        if x is None or y is None:
            raise MissingLaw(f"{law}: both task scores are required")
        coupled[law] = couple_tasks(x, y, config.gamma, config.epsilon)
    value = crgs(list(coupled.values()), config.delta, config.epsilon)
    return value, coupled


class CompositeReport:
    """Full aggregation output for one evaluation cohort."""

    __slots__ = ("config", "sgs_tables", "rcs_task1", "rcs_task2", "crgs_task1", "crgs_task2", "coupled", "ocs_scores")

    def __init__(self, config: CompositeConfig):
        self.config = config
        self.sgs_tables: dict[str, dict[str, dict[str, float]]] = {}
        self.rcs_task1: dict[str, dict[str, float]] = {}
        self.rcs_task2: dict[str, dict[str, float]] = {}
        self.crgs_task1: dict[str, float] = {}
        self.crgs_task2: dict[str, float] = {}
        self.coupled: dict[str, dict[str, float]] = {}
        self.ocs_scores: dict[str, float] = {}

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "models": {
                model: {
                    "sgs": self.sgs_tables.get(model, {}),
                    "rcs": {
                        "task1": self.rcs_task1.get(model, {}),
                        "task2": self.rcs_task2.get(model, {}),
                    },
                    "crgs": {
                        "task1": self.crgs_task1.get(model),
                        "task2": self.crgs_task2.get(model),
                    },
                    "coupled": self.coupled.get(model, {}),
                    "ocs": self.ocs_scores.get(model),
                }
                for model in sorted(self.ocs_scores)
            },
        }


def compose(
    task1_metrics: Mapping[str, Mapping[str, Mapping[str, RetrievalMetrics]]],
    task2_metrics: Mapping[str, Mapping[str, JudgmentMetrics]],
    config: CompositeConfig | None = None,
) -> CompositeReport:
    """Aggregate base metrics for a cohort of models.

    task1_metrics: model -> law -> granularity -> RetrievalMetrics
    task2_metrics: model -> law -> JudgmentMetrics

    The RCS covariance cohort is the set of models scored in the same run,
    estimated once per (law, task).
    """
    config = config or CompositeConfig()
    models = sorted(task1_metrics)
    if sorted(task2_metrics) != models:
        raise MissingLaw("task 1 and task 2 cover different model sets")
    if not models:
        raise RegevalError("no models to compose")
    for task, other, metrics in (("task1", "task2", task1_metrics), ("task2", "task1", task2_metrics)):
        if not any(metrics[model] for model in models):
            raise MissingLaw(f"no {task} metrics in base (eval --task {other}); compose needs both tasks")
    laws = sorted({law for model in models for law in task1_metrics[model]})
    for model in models:
        if sorted(task1_metrics[model]) != laws or sorted(task2_metrics[model]) != laws:
            raise MissingLaw(f"{model}: models must cover the same laws")

    report = CompositeReport(config=config)

    # SGS per (model, law, metric) from the three granularity values.
    t1_vectors: dict[tuple[str, str], list[float]] = {}
    for model in models:
        report.sgs_tables[model] = {}
        for law in laws:
            by_gran = task1_metrics[model][law]
            missing = [g for g in GRANULARITIES if g not in by_gran]
            if missing:
                raise MissingLaw(f"{model}/{law}: missing granularities {missing}")
            # Each metric's file, module and line values, read as one column.
            columns = zip(T1_METRIC_NAMES, zip(*(by_gran[g] for g in GRANULARITIES)))
            table = {metric: sgs(levels, config.alpha, config.epsilon) for metric, levels in columns}
            report.sgs_tables[model][law] = table
            t1_vectors[(model, law)] = list(table.values())

    t2_vectors = {(model, law): list(task2_metrics[model][law]) for model in models for law in laws}

    def cohort_scores(vectors: Mapping[tuple[str, str], list[float]]) -> dict[str, dict[str, float]]:
        scores: dict[str, dict[str, float]] = {model: {} for model in models}
        for law in laws:
            values = rcs_scores([vectors[(model, law)] for model in models], config)
            for model, value in zip(models, values):
                scores[model][law] = value
        return scores

    report.rcs_task1 = cohort_scores(t1_vectors)
    report.rcs_task2 = cohort_scores(t2_vectors)
    return _aggregate_laws(report)


def compose_from_rcs(
    rcs_values: Mapping[str, Mapping[str, Mapping[str, float]]],
    config: CompositeConfig | None = None,
) -> CompositeReport:
    """Aggregate CRGS, coupling, and OCS from already-computed RCS values.

    rcs_values: model -> {"task1": {law: score}, "task2": {law: score}}.
    Used to recompute the cross-law layers from released per-law composites.
    """
    report = CompositeReport(config=config or CompositeConfig())
    for model, tasks in sorted(rcs_values.items()):
        t1 = dict(tasks["task1"])
        t2 = dict(tasks["task2"])
        if sorted(t1) != sorted(t2):
            raise MissingLaw(f"{model}: task law sets differ")
        laws = sorted(t1)
        report.rcs_task1[model] = {law: float(t1[law]) for law in laws}
        report.rcs_task2[model] = {law: float(t2[law]) for law in laws}
    return _aggregate_laws(report)


def _aggregate_laws(report: CompositeReport) -> CompositeReport:
    """Fill CRGS per task, the per-law coupling and OCS of every model from
    the per-law RCS tables already in `report` (their keys are sorted laws)."""
    config = report.config
    for model in sorted(report.rcs_task1):
        t1 = report.rcs_task1[model]
        t2 = report.rcs_task2[model]
        report.crgs_task1[model] = crgs(list(t1.values()), config.beta, config.epsilon)
        report.crgs_task2[model] = crgs(list(t2.values()), config.beta, config.epsilon)
        overall, coupled = ocs({law: (t1[law], t2[law]) for law in t1}, config)
        report.coupled[model] = coupled
        report.ocs_scores[model] = overall
    return report
