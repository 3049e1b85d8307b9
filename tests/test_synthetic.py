from __future__ import annotations

import pytest

from regeval.corpus import corpus_stats, encode_sorted
from regeval.errors import InvalidSpec, RegevalError
from regeval.harness import LocalizationPromptItem, TransportRequest, build_prompt_items, request_key
from regeval.multilabel import evaluate_task2
from regeval.retrieval import evaluate_task1, gold_keys_for_records
from regeval.shaping import RetrievalKey, SnippetPointer, decode_anchor, shape_views
from regeval.synthetic import (
    PROFILES,
    CorpusSpec,
    generate_corpus,
    profile_reply_fn,
    render_response_text,
    scripted_model,
)


class TestGenerateCorpus:
    def test_same_seed_identical(self, registry):
        spec = CorpusSpec(seed=1, files_per_law={"LGPD": 10, "PIPEDA": 5})
        assert generate_corpus(spec, registry) == generate_corpus(spec, registry)

    def test_different_seed_differs(self, registry):
        a = generate_corpus(CorpusSpec(seed=1, files_per_law={"LGPD": 10}), registry)
        b = generate_corpus(CorpusSpec(seed=2, files_per_law={"LGPD": 10}), registry)
        assert a != b

    def test_file_counts_via_stats(self, registry):
        spec = CorpusSpec(seed=4, files_per_law={"LGPD": 90})
        corpus = generate_corpus(spec, registry)
        stats = corpus_stats(corpus, registry)
        assert stats["per_law"]["LGPD"]["files"] == 90
        assert stats["per_law"]["LGPD"]["modules"] == 90

    def test_invalid_specs(self, registry):
        with pytest.raises(InvalidSpec):
            CorpusSpec(seed=1, files_per_law={"LGPD": 0})
        with pytest.raises(InvalidSpec):
            CorpusSpec(seed=1, files_per_law={})
        with pytest.raises(InvalidSpec):
            CorpusSpec(seed=1, files_per_law={"LGPD": 3}, instances_per_file=(2, 1))
        with pytest.raises(InvalidSpec):
            CorpusSpec(seed=1, files_per_law={"LGPD": 3}, skew=1.5)
        with pytest.raises(InvalidSpec):
            generate_corpus(CorpusSpec(seed=1, files_per_law={"GDPR": 3}), registry)

    def test_instances_honor_invariants(self, registry):
        spec = CorpusSpec(seed=6, files_per_law={"PDPA": 20})
        corpus = generate_corpus(spec, registry)
        jur = registry.get("PDPA")
        for inst in corpus:
            assert inst.articles
            assert all(jur.contains(a) for a in inst.articles)
            assert inst.span.start >= 1
            assert not inst.file_path.startswith("/")

    def test_per_file_gold_union_capped(self, registry):
        spec = CorpusSpec(seed=8, files_per_law={"LGPD": 30})
        corpus = generate_corpus(spec, registry)
        views = shape_views(corpus)
        for rec in views["LGPD"].task1:
            assert len(rec.file_gold) <= spec.max_labels_per_file

    def test_long_tail_label_skew(self, registry):
        spec = CorpusSpec(seed=10, files_per_law={"LGPD": 120})
        corpus = generate_corpus(spec, registry)
        stats = corpus_stats(corpus, registry, top_k=0)
        ranking = stats["label_frequencies"]["LGPD"]
        # Geometric weighting: the top label clearly outweighs the tail.
        assert ranking[0][1] >= 3 * ranking[-1][1]

    def test_spec_round_trip(self, tmp_path, registry):
        from regeval.synthetic import load_spec, write_spec

        spec = CorpusSpec(seed=3, files_per_law={"LGPD": 7}, skew=0.4)
        write_spec(spec, tmp_path / "spec.json")
        assert load_spec(tmp_path / "spec.json") == spec


@pytest.fixture(scope="module")
def synth_views(registry):
    spec = CorpusSpec(seed=42, files_per_law={"LGPD": 25, "PDPA": 25, "PIPEDA": 25})
    corpus = generate_corpus(spec, registry)
    return shape_views(corpus)


class TestScriptedProfiles:
    def test_unknown_profile(self, registry, synth_views):
        with pytest.raises(RegevalError):
            scripted_model("CLEVER", synth_views, registry)

    def test_rows_expose_keys_and_pointers_by_field_name(self, registry, synth_views):
        # The views hold plain tuples; `perfbench/check_round.py` reads the
        # scripted rows' keys and pointers by field name.
        scripted = scripted_model("RANDOM", synth_views, registry, seed=3)
        for pred in scripted.ranked:
            assert type(pred.key) is RetrievalKey
            data = pred.key.to_dict()
            assert data["law"] == pred.key.law and decode_anchor(pred.key.law, data) == pred.key
        for pred in scripted.sets:
            pointer = pred.pointer
            assert type(pointer) is SnippetPointer
            assert pointer.span.as_list() == [pointer.start, pointer.end]
            assert pointer.to_dict() == {
                "file_path": pointer.file_path, "span": pointer.span.as_list(), "commit_id": pointer.commit_id
            }

    def test_perfect_task1_hits_everything_after_rank1(self, registry, synth_views):
        scripted = scripted_model("PERFECT", synth_views, registry)
        records = [rec for view in synth_views.values() for rec in view.task1]
        results = evaluate_task1(records, scripted.ranked, "strict")
        for metrics in results.values():
            assert metrics.acc_at_5 == 1.0
            assert metrics.mrr == 1.0
            assert metrics.map == 1.0
            assert metrics.r_precision == 1.0

    def test_perfect_task2_f1_is_one(self, registry, synth_views):
        scripted = scripted_model("PERFECT", synth_views, registry)
        records = [rec for view in synth_views.values() for rec in view.task2]
        for metrics in evaluate_task2(records, scripted.sets, registry).values():
            assert metrics.micro_f1 == 1.0
            assert metrics.jaccard == 1.0

    def test_breadth_only_metric_shape(self, registry, synth_views):
        scripted = scripted_model("BREADTH_ONLY", synth_views, registry)
        records = [rec for view in synth_views.values() for rec in view.task1]
        results = evaluate_task1(records, scripted.ranked, "strict")
        for metrics in results.values():
            assert metrics.acc_at_5 == 1.0
            assert metrics.acc_at_1 == 0.0
            assert metrics.mrr <= 0.5

    def test_breadth_only_singleton_example(self, registry):
        from test_corpus import make_instance

        views = shape_views([make_instance(articles=("7",), span=(1, 1))])
        scripted = scripted_model("BREADTH_ONLY", views, registry)
        results = evaluate_task1(views["LGPD"].task1, scripted.ranked, "strict")
        metrics = results[("LGPD", "file")]
        assert metrics.acc_at_1 == 0.0
        assert metrics.acc_at_5 == 1.0
        assert metrics.mrr == 0.5

    def test_ranking_only_single_item(self, registry, synth_views):
        scripted = scripted_model("RANKING_ONLY", synth_views, registry)
        assert all(len(p.ranking) == 1 for p in scripted.ranked)
        gold = {}
        for view in synth_views.values():
            gold.update(gold_keys_for_records(view.task1))
        for pred in scripted.ranked:
            assert pred.ranking[0] in gold[pred.key]

    def test_majority_label_macro_below_micro(self, registry, synth_views):
        scripted = scripted_model("MAJORITY_LABEL", synth_views, registry)
        records = [rec for view in synth_views.values() for rec in view.task2]
        for metrics in evaluate_task2(records, scripted.sets, registry).values():
            assert metrics.macro_f1 < metrics.micro_f1

    def test_random_deterministic_per_seed(self, registry, synth_views):
        a = scripted_model("RANDOM", synth_views, registry, seed=5)
        b = scripted_model("RANDOM", synth_views, registry, seed=5)
        c = scripted_model("RANDOM", synth_views, registry, seed=6)
        assert a.ranked == b.ranked and a.sets == b.sets
        assert a.ranked != c.ranked

    @pytest.mark.parametrize("seed", [1, 99])
    def test_profile_ocs_ordering_across_seeds(self, registry, seed):
        from regeval.composites import CompositeConfig, compose

        spec = CorpusSpec(seed=seed, files_per_law={"LGPD": 28, "PDPA": 28, "PIPEDA": 28})
        views = shape_views(generate_corpus(spec, registry))
        t1 = [rec for view in views.values() for rec in view.task1]
        t2 = [rec for view in views.values() for rec in view.task2]
        task1_metrics, task2_metrics = {}, {}
        for profile in ("PERFECT", "BREADTH_ONLY", "RANDOM"):
            scripted = scripted_model(profile, views, registry, seed=seed)
            evaluations = evaluate_task1(t1, scripted.ranked, "strict")
            task1_metrics[profile] = {}
            for (law, gran), metrics in evaluations.items():
                task1_metrics[profile].setdefault(law, {})[gran] = metrics
            task2_metrics[profile] = evaluate_task2(t2, scripted.sets, registry)
        scores = compose(task1_metrics, task2_metrics, CompositeConfig()).ocs_scores
        assert scores["PERFECT"] > scores["BREADTH_ONLY"] > scores["RANDOM"]

    def test_all_profiles_cover_every_anchor(self, registry, synth_views):
        anchors = sum(len(gold_keys_for_records(v.task1)) for v in synth_views.values())
        snippets = sum(len(v.task2) for v in synth_views.values())
        for profile in PROFILES:
            scripted = scripted_model(profile, synth_views, registry)
            assert len(scripted.ranked) == anchors
            assert len(scripted.sets) == snippets


@pytest.mark.parametrize("profile", PROFILES)
def test_mock_reply_renders_the_scripted_labels_of_every_item(registry, profile):
    corpus = generate_corpus(CorpusSpec(seed=13, files_per_law={"LGPD": 4, "PDPA": 4}), registry)
    views = shape_views(corpus)
    scripted = scripted_model(profile, views, registry, seed=5)
    expected = {(p.key.law, p.key): render_response_text(p.ranking, registry.get(p.key.law)) for p in scripted.ranked}
    expected.update(((p.law, p.pointer), render_response_text(p.labels, registry.get(p.law))) for p in scripted.sets)
    reply = profile_reply_fn(views, registry, profile, seed=5)

    def request(task, law, key):
        return TransportRequest(
            model="m", task=task, law=law, key=key, prompt="", temperature=0.0, max_tokens=1,
            timeout_seconds=1.0, key_json=encode_sorted(key),
        )

    answered = {}
    for item in build_prompt_items(views, corpus):
        if isinstance(item, LocalizationPromptItem):
            answered[item.law, item.key] = reply(request("task1", item.law, request_key(item)))
        else:
            answered[item.law, item.pointer] = reply(request("task2", item.law, request_key(item)))
    assert answered == expected
    stray = {"file_path": "none.kt", "span": [1, 1], "commit_id": "c"}
    assert reply(request("task2", "LGPD", stray)) == "no violations found"
