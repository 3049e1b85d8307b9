"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and runtime
bound and prints one pass/fail line. Run with `pytest -s tests/test_acceptance.py`
to see the lines on success; on failure pytest surfaces them regardless.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import oracles
from regeval.composites import (
    CompositeConfig,
    compose,
    compose_from_rcs,
    couple_tasks,
    crgs,
    mahalanobis,
    ocs,
    rcs_scores,
    sgs,
)
from regeval.errors import UniverseTooSmall
from regeval.harness import (
    FailingTransport,
    MockTransport,
    RunConfig,
    build_prompt_items,
    execute_run,
    load_responses,
)
from regeval.ingest import parse_responses
from regeval.multilabel import evaluate_task2, score_judgment
from regeval.retrieval import evaluate_task1, score_ranking
from regeval.shaping import dump_views, shape_views
from regeval.synthetic import CorpusSpec, generate_corpus, profile_reply_fn, scripted_model

EPS = 1e-6
REFERENCE = json.loads((Path(__file__).parent / "data" / "reference_scores.json").read_text())


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    verdict = "PASS" if elapsed < budget_seconds else "FAIL (over time budget)"
    print(f"[acceptance] criterion {number} ({name}): {verdict} [{elapsed:.2f}s < {budget_seconds:.0f}s]")
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s exceeds {budget_seconds}s"


def test_criterion_1_crgs_task1_recomputation():
    with criterion(1, "published CRGS recomputation, localization task", 1.0):
        for model, tasks in REFERENCE["models"].items():
            scores = [tasks["task1"][law] for law in ("LGPD", "PDPA", "PIPEDA")]
            expected = REFERENCE["expected"]["crgs_task1"][model]
            assert crgs(scores, beta=2.0, epsilon=EPS) == pytest.approx(expected, abs=5e-4)
        assert crgs([0.3270, 0.3100, 0.3998]) == pytest.approx(0.3425, abs=5e-4)
        assert crgs([0.0342, 0.0396, 0.1576]) == pytest.approx(0.0594, abs=5e-4)


def test_criterion_2_crgs_task2_recomputation():
    with criterion(2, "published CRGS recomputation, judgment task", 1.0):
        for model, tasks in REFERENCE["models"].items():
            scores = [tasks["task2"][law] for law in ("LGPD", "PDPA", "PIPEDA")]
            expected = REFERENCE["expected"]["crgs_task2"][model]
            assert crgs(scores, beta=2.0, epsilon=EPS) == pytest.approx(expected, abs=5e-4)
        assert crgs([0.3932, 0.3811, 0.4320]) == pytest.approx(0.4011, abs=5e-4)


def test_criterion_3_ocs_recomputation():
    with criterion(3, "published OCS recomputation", 1.0):
        config = CompositeConfig()
        report = compose_from_rcs(REFERENCE["models"], config)
        for model, expected in REFERENCE["expected"]["ocs"].items():
            assert report.ocs_scores[model] == pytest.approx(expected, abs=1.5e-3)
        assert report.ocs_scores["claude-3.5-sonnet-20241022"] == pytest.approx(0.3295, abs=1.5e-3)
        assert report.ocs_scores["gemini-2.5-pro"] == pytest.approx(0.0538, abs=1.5e-3)


def test_criterion_4_retrieval_oracle_equivalence():
    with criterion(4, "retrieval metrics vs brute-force oracle, exhaustive", 10.0):
        vocab = ["a", "b", "c", "d", "e"]
        golds = [
            frozenset(combo)
            for size in (1, 2, 3)
            for combo in itertools.combinations(vocab, size)
        ]
        predictions = [
            perm for k in range(0, 6) for perm in itertools.permutations(vocab, k)
        ]
        cases = 0
        for gold in golds:
            gold_set = set(gold)
            for ranking in predictions:
                row = score_ranking(gold, ranking)
                assert abs(row.acc_at_1 - oracles.oracle_acc_at_k(gold_set, ranking, 1)) <= 1e-12
                assert abs(row.acc_at_5 - oracles.oracle_acc_at_k(gold_set, ranking, 5)) <= 1e-12
                assert abs(row.r_precision - oracles.oracle_r_precision(gold_set, ranking)) <= 1e-12
                assert abs(row.mrr - oracles.oracle_mrr(gold_set, ranking)) <= 1e-12
                assert abs(row.map - oracles.oracle_map(gold_set, ranking)) <= 1e-12
                assert abs(row.ndcg_at_5 - oracles.oracle_ndcg_at_5(gold_set, ranking)) <= 1e-12
                cases += 1
        assert cases == 25 * 326


def test_criterion_5_multilabel_oracle_equivalence():
    with criterion(5, "multi-label metrics vs confusion-count oracle, exhaustive", 10.0):
        for size in (1, 2, 3, 4):
            universe = [f"l{i}" for i in range(size)]
            subsets = [
                frozenset(combo)
                for n in range(size + 1)
                for combo in itertools.combinations(universe, n)
            ]
            assert len(subsets) == 2**size
            for gold in subsets:
                for pred in subsets:
                    if size < 2:
                        # A coverage error needs a second label to rank.
                        with pytest.raises(UniverseTooSmall):
                            score_judgment([gold], [sorted(pred)], universe)
                        continue
                    preds = [set(pred)]
                    # Every possible prediction-first order of the set.
                    for order in itertools.permutations(sorted(pred)):
                        orders = [list(order)]
                        row = score_judgment([gold], orders, universe)
                        assert abs(row.micro_f1 - oracles.oracle_micro_f1([gold], preds, universe)) <= 1e-12
                        assert abs(row.macro_f1 - oracles.oracle_macro_f1([gold], preds, universe)) <= 1e-12
                        assert abs(row.weighted_f1 - oracles.oracle_weighted_f1([gold], preds, universe)) <= 1e-12
                        assert abs(
                            row.one_minus_hamming - (1 - oracles.oracle_hamming([gold], preds, universe))
                        ) <= 1e-12
                        assert abs(row.jaccard - oracles.oracle_jaccard([gold], preds, True)) <= 1e-12
                        assert abs(
                            row.one_minus_coverage_error - (1 - oracles.oracle_nce([gold], orders, universe))
                        ) <= 1e-12


def test_criterion_6_composite_algebra():
    with criterion(6, "composite algebra identities and monotonicity", 5.0):
        # SGS fixed point across a value grid.
        for v in [i / 20 for i in range(21)]:
            assert abs(sgs([v, v, v]) - v) <= 2 * EPS
        # Mean-preserving spread monotonicity over 1,000 random triples.
        rng = random.Random(99)
        for _ in range(1000):
            mean = rng.uniform(0.15, 0.85)
            room = min(mean, 1 - mean)
            d1 = rng.uniform(0.0, room * 0.45)
            d2 = rng.uniform(d1 + 1e-4, room * 0.95)
            assert sgs([mean - d2, mean, mean + d2]) < sgs([mean - d1, mean, mean + d1])
        # TOPSIS endpoint identities.
        config = CompositeConfig()
        cohort = [[1.0] * 6, [0.0] * 6]
        ones_score, zeros_score = rcs_scores(cohort, config)
        assert ones_score == pytest.approx(1.0, abs=1e-12)
        assert zeros_score == pytest.approx(0.0, abs=1e-12)
        # Identity covariance reduces Mahalanobis to Euclidean distance.
        import numpy as np

        assert mahalanobis([3.0, 4.0], [0.0, 0.0], np.eye(2)) == pytest.approx(5.0, abs=1e-12)
        # Zero-variance fixed points of the cross-law aggregates.
        for v in (0.1, 0.45, 0.8):
            assert crgs([v, v, v]) == pytest.approx(v, abs=1e-9)
            value, _ = ocs({"A": (v, v), "B": (v, v), "C": (v, v)}, config)
            assert value == pytest.approx(couple_tasks(v, v), abs=1e-9)
            assert value == pytest.approx(v, abs=1e-4)


@pytest.fixture(scope="module")
def registry():
    from regeval.jurisdiction import JurisdictionRegistry

    return JurisdictionRegistry.default()


def test_criterion_7_synthetic_profile_ordering(registry):
    with criterion(7, "end-to-end synthetic profile ordering", 60.0):
        spec = CorpusSpec(seed=2026, files_per_law={"LGPD": 30, "PDPA": 30, "PIPEDA": 30})
        corpus = generate_corpus(spec, registry)
        per_law = {}
        for inst in corpus:
            per_law[inst.law] = per_law.get(inst.law, 0) + 1
        assert all(count >= 50 for count in per_law.values()), per_law
        views = shape_views(corpus)
        all_t1 = [rec for view in views.values() for rec in view.task1]
        all_t2 = [rec for view in views.values() for rec in view.task2]

        task1_metrics = {}
        task2_metrics = {}
        for profile in ("PERFECT", "BREADTH_ONLY", "RANDOM"):
            scripted = scripted_model(profile, views, registry, seed=spec.seed)
            t1_eval = evaluate_task1(all_t1, scripted.ranked, "strict")
            task1_metrics[profile] = {}
            for (law, gran), metrics in t1_eval.items():
                task1_metrics[profile].setdefault(law, {})[gran] = metrics
                if profile == "BREADTH_ONLY":
                    assert metrics.acc_at_5 == 1.0, (law, gran)
                    assert metrics.mrr <= 0.5, (law, gran)
            task2_metrics[profile] = evaluate_task2(all_t2, scripted.sets, registry)

        report = compose(task1_metrics, task2_metrics, CompositeConfig())
        ocs_by_profile = report.ocs_scores
        assert ocs_by_profile["PERFECT"] > ocs_by_profile["BREADTH_ONLY"] > ocs_by_profile["RANDOM"], (
            ocs_by_profile
        )


def test_criterion_8_harness_determinism_and_faults(registry, tmp_path):
    with criterion(8, "harness determinism and fault tolerance", 30.0):
        spec = CorpusSpec(seed=7, files_per_law={"LGPD": 4, "PDPA": 4})
        corpus = generate_corpus(spec, registry)
        views = shape_views(corpus)
        config = RunConfig(models=("model-x", "model-y"), backoff_seconds=0.0)

        def run(out, transport):
            return execute_run(config, build_prompt_items(views, corpus), transport, tmp_path / out, registry)

        def stripped(result):
            return [
                {k: v for k, v in rec.items() if k != "timestamps"}
                for rec in load_responses(result.responses_path)
            ]

        first = run("a", MockTransport(profile_reply_fn(views, registry, "PERFECT")))
        second = run("b", MockTransport(profile_reply_fn(views, registry, "PERFECT")))
        assert stripped(first) == stripped(second)

        flaky = run("c", MockTransport(profile_reply_fn(views, registry, "PERFECT"), fail_times=2))
        flaky_records = list(load_responses(flaky.responses_path))
        assert all(rec["status"] == "ok" for rec in flaky_records)
        assert all(rec["attempts"] == 3 for rec in flaky_records)

        def answers(result):
            return [
                {k: v for k, v in rec.items() if k not in ("timestamps", "attempts")}
                for rec in load_responses(result.responses_path)
            ]

        assert answers(flaky) == answers(first)

        dead = run("d", FailingTransport())
        dead_records = list(load_responses(dead.responses_path))
        assert all(rec["status"] == "exhausted_retries" for rec in dead_records)
        ranked, sets, summary = parse_responses(dead.responses_path, registry)
        assert summary["empty_predictions"] == len(dead_records)
        t1_eval = evaluate_task1(
            [rec for view in views.values() for rec in view.task1],
            [p for p in ranked if p.model == "model-x"],
            "strict",
        )
        for metrics in t1_eval.values():
            assert metrics == (0.0,) * 6
        t2_eval = evaluate_task2(
            [rec for view in views.values() for rec in view.task2],
            [p for p in sets if p.model == "model-x"],
            registry,
        )
        for metrics in t2_eval.values():
            assert metrics.micro_f1 == 0.0


def test_criterion_9_shaping_determinism(registry, tmp_path):
    with criterion(9, "shaping determinism and instance conservation", 10.0):
        spec = CorpusSpec(seed=11, files_per_law={"LGPD": 15, "PDPA": 15, "PIPEDA": 15})
        corpus = generate_corpus(spec, registry)
        views_a = shape_views(corpus)
        shuffled = corpus[:]
        random.Random(4).shuffle(shuffled)
        views_b = shape_views(shuffled)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dump_views(views_a, dir_a, registry)
        dump_views(views_b, dir_b, registry)
        for path_a in sorted(dir_a.iterdir()):
            assert path_a.read_bytes() == (dir_b / path_a.name).read_bytes(), path_a.name

        rng = random.Random(2025)
        for trial in range(100):
            laws = rng.sample(["LGPD", "PDPA", "PIPEDA"], rng.randint(1, 2))
            trial_spec = CorpusSpec(
                seed=rng.randint(0, 10**6),
                files_per_law={law: rng.randint(1, 3) for law in laws},
            )
            trial_corpus = generate_corpus(trial_spec, registry)
            trial_views = shape_views(trial_corpus)
            for law in laws:
                members = [inst for inst in trial_corpus if inst.law == law]
                t1 = trial_views[law].task1
                t2 = trial_views[law].task2
                file_keys = {r.file[1:5]: r for r in t1}
                pointers = {r.pointer: r for r in t2}
                for inst in members:
                    owner = file_keys[
                        (inst.repo_url, inst.app_name, inst.commit_id, inst.file_path)
                    ]
                    assert inst.articles <= owner.file_gold
                    pointer_rec = pointers[
                        next(p for p in pointers if (p[0], (p[1], p[2]), p[3]) == inst.pointer)
                    ]
                    assert inst.articles <= pointer_rec.gold
                assert frozenset().union(*(i.articles for i in members)) == frozenset().union(
                    *(r.gold for r in t2)
                )
