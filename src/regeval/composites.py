"""Stability-aware score aggregation.

Four layers sit on top of the base metrics: a variance-penalized harmonic mean
across granularities, a covariance-aware TOPSIS distance-to-ideal per (law,
task), a variance-penalized geometric mean across laws, and a cross-task
coupling that is aggregated across laws the same way. Variances and standard
deviations are population (divide-by-n) throughout; that convention reproduces
released composite values from their published inputs.

numpy is imported inside the three RCS functions, the only ones that use it,
so a process that never computes RCS does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import MissingLaw, RegevalError, SingularCovariance
from .multilabel import JudgmentMetrics
from .retrieval import T1_METRIC_NAMES, RetrievalMetrics
from .shaping import GRANULARITIES

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class CompositeConfig:
    """Aggregation weights and numeric guards."""

    alpha: float = 1.0
    beta: float = 2.0
    gamma: float = 2.0
    delta: float = 2.0
    ridge: float = 0.1
    epsilon: float = 1e-6
    pool_covariance_across_laws: bool = False

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            if getattr(self, name) < 0:
                raise RegevalError(f"{name} must be >= 0")
        if self.ridge <= 0:
            raise RegevalError("ridge must be > 0")
        if self.epsilon <= 0:
            raise RegevalError("epsilon must be > 0")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "delta": self.delta,
            "ridge": self.ridge,
            "epsilon": self.epsilon,
            "pool_covariance_across_laws": self.pool_covariance_across_laws,
        }


def _population_variance(values: Sequence[float]) -> float:
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def sgs(values: Sequence[float], alpha: float = 1.0, epsilon: float = 1e-6) -> float:
    """Granularity-stability score for one metric across file/module/line.

    Harmonic mean of the epsilon-floored level scores, discounted by
    exp(-alpha * CV^2) where CV is the population coefficient of variation.
    The harmonic factor lets any weak level dominate; the exponential
    penalizes cross-level volatility.
    """
    if len(values) != 3:
        raise RegevalError(f"expected three granularity values, got {len(values)}")
    harmonic = 1.0 / (sum(1.0 / (v + epsilon) for v in values) / len(values))
    mean = sum(values) / len(values)
    cv_sq = _population_variance(values) / max(mean, epsilon) ** 2
    return harmonic * math.exp(-alpha * cv_sq)


def regularized_covariance(cohort: np.ndarray, ridge: float) -> np.ndarray:
    """Population covariance of metric columns plus ridge * I.

    A singleton cohort has zero deviations, so it degrades to ridge * I.
    """
    import numpy as np

    matrix = np.asarray(cohort, dtype=float)
    if matrix.ndim != 2:
        raise RegevalError("cohort must be a 2-D (models x metrics) array")
    n, k = matrix.shape
    if n < 2:
        cov = np.zeros((k, k))
    else:
        cov = np.cov(matrix, rowvar=False, bias=True)
    return cov + ridge * np.eye(k)


def mahalanobis(x: Sequence[float], y: Sequence[float], cov: np.ndarray) -> float:
    """sqrt((x - y)^T C^{-1} (x - y)) via a direct solve of the K x K system."""
    import numpy as np

    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    try:
        solved = np.linalg.solve(cov, diff)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(str(exc)) from exc
    value = float(diff @ solved)
    if value < 0:
        raise SingularCovariance("covariance is not positive definite")
    return math.sqrt(value)


def rcs_scores(cohort: Sequence[Sequence[float]], config: CompositeConfig) -> list[float]:
    """TOPSIS closeness to the all-ones ideal under Mahalanobis geometry,
    one score per cohort row. The covariance is estimated once per cohort."""
    import numpy as np

    matrix = np.asarray(cohort, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise RegevalError("cohort must contain at least one metric vector")
    if matrix.shape[1] < 2:
        raise RegevalError("metric vectors need K >= 2 entries")
    cov = regularized_covariance(matrix, config.ridge)
    ideal = np.ones(matrix.shape[1])
    anti = np.zeros(matrix.shape[1])
    scores = []
    for row in matrix:
        d_plus = mahalanobis(row, ideal, cov)
        d_minus = mahalanobis(row, anti, cov)
        scores.append(d_minus / (d_plus + d_minus) if (d_plus + d_minus) else 0.0)
    return scores


def crgs(per_law_scores: Sequence[float], beta: float = 2.0, epsilon: float = 1e-6) -> float:
    """Variance-penalized geometric mean of per-law scores."""
    if not per_law_scores:
        raise MissingLaw("no per-law scores to aggregate")
    log_sum = sum(math.log(max(score, epsilon)) for score in per_law_scores)
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


@dataclass
class CompositeReport:
    """Full aggregation output for one evaluation cohort."""

    config: CompositeConfig
    sgs_tables: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    rcs_task1: dict[str, dict[str, float]] = field(default_factory=dict)
    rcs_task2: dict[str, dict[str, float]] = field(default_factory=dict)
    crgs_task1: dict[str, float] = field(default_factory=dict)
    crgs_task2: dict[str, float] = field(default_factory=dict)
    coupled: dict[str, dict[str, float]] = field(default_factory=dict)
    ocs_scores: dict[str, float] = field(default_factory=dict)

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
    estimated per (law, task) unless pooling across laws is enabled.
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
            table = {}
            vector = []
            for metric in T1_METRIC_NAMES:
                levels = [by_gran[g].to_dict()[metric] for g in GRANULARITIES]
                value = sgs(levels, config.alpha, config.epsilon)
                table[metric] = value
                vector.append(value)
            report.sgs_tables[model][law] = table
            t1_vectors[(model, law)] = vector

    t2_vectors = {
        (model, law): list(task2_metrics[model][law].as_tuple())
        for model in models
        for law in laws
    }

    def cohort_scores(vectors: Mapping[tuple[str, str], list[float]]) -> dict[str, dict[str, float]]:
        scores: dict[str, dict[str, float]] = {model: {} for model in models}
        if config.pool_covariance_across_laws:
            rows = [vectors[(model, law)] for model in models for law in laws]
            values = rcs_scores(rows, config)
            idx = 0
            for model in models:
                for law in laws:
                    scores[model][law] = values[idx]
                    idx += 1
        else:
            for law in laws:
                rows = [vectors[(model, law)] for model in models]
                values = rcs_scores(rows, config)
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
