"""Regulation-aware evaluation engine.

Reshapes a code-compliance gold corpus into localization and judgment views,
scores ranked and set-valued article predictions, and aggregates the base
metrics into stability-aware composite scores.
"""

from .composites import (
    CompositeConfig,
    CompositeReport,
    compose,
    compose_from_rcs,
    couple_tasks,
    crgs,
    mahalanobis,
    ocs,
    rcs_scores,
    sgs,
)
from .corpus import (
    LineSpan,
    RawInstance,
    corpus_stats,
    derive_module_name,
    load_dataset,
    normalize_path,
    save_dataset,
)
from .jurisdiction import (
    ArticleRef,
    Jurisdiction,
    JurisdictionRegistry,
    theme_anchor,
)
from .multilabel import (
    JudgmentMetrics,
    SetPrediction,
    evaluate_task2,
    f1_suite,
    hamming_loss,
    jaccard_samples,
    normalized_coverage_error,
)
from .retrieval import (
    KeyMatchReport,
    RankedPrediction,
    RetrievalKey,
    RetrievalMetrics,
    acc_at_k,
    evaluate_task1,
    map_score,
    match_keys,
    mrr,
    ndcg_at_5,
    r_precision,
)
from .shaping import (
    ShapedViews,
    Task1Record,
    Task2Record,
    shape_task1,
    shape_task2,
    shape_views,
)

__version__ = "0.1.0"

__all__ = [
    "ArticleRef",
    "CompositeConfig",
    "CompositeReport",
    "Jurisdiction",
    "JurisdictionRegistry",
    "JudgmentMetrics",
    "KeyMatchReport",
    "LineSpan",
    "RankedPrediction",
    "RawInstance",
    "RetrievalKey",
    "RetrievalMetrics",
    "SetPrediction",
    "ShapedViews",
    "Task1Record",
    "Task2Record",
    "acc_at_k",
    "compose",
    "compose_from_rcs",
    "corpus_stats",
    "couple_tasks",
    "crgs",
    "derive_module_name",
    "evaluate_task1",
    "evaluate_task2",
    "f1_suite",
    "hamming_loss",
    "jaccard_samples",
    "load_dataset",
    "mahalanobis",
    "map_score",
    "match_keys",
    "mrr",
    "ndcg_at_5",
    "normalize_path",
    "normalized_coverage_error",
    "ocs",
    "r_precision",
    "rcs_scores",
    "save_dataset",
    "sgs",
    "shape_task1",
    "shape_task2",
    "shape_views",
    "theme_anchor",
]
