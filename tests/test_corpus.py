from __future__ import annotations

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regeval.corpus import (
    LineSpan,
    RawInstance,
    atomic_write,
    corpus_stats,
    derive_module_name,
    encode_sorted,
    instance_from_record,
    instance_to_record,
    load_dataset,
    normalize_path,
    save_dataset,
    split_pointer_path,
    write_compact_json,
    write_json,
)
from regeval.errors import InvalidPath, RegevalError
from regeval.multilabel import T2_METRIC_NAMES
from regeval.report import write_plot_data_csv

COMMIT = "a" * 40


def make_instance(law="LGPD", articles=("7",), path="app/src/A.kt", span=(10, 12), **kw):
    defaults = dict(
        app_name="demo",
        repo_url="https://repos.example/demo",
        commit_id=COMMIT,
        law=law,
        articles=frozenset(articles),
        file_path=path,
        span=LineSpan(*span),
        snippet="fun a() {}",
        note="",
    )
    defaults.update(kw)
    return RawInstance(**defaults)


class TestNormalizePath:
    def test_backslash_mapping(self):
        assert normalize_path("src\\main\\A.kt") == "src/main/A.kt"

    def test_dot_segment_removal(self):
        assert normalize_path("./app/B.java") == "app/B.java"
        assert normalize_path("app/./B.java") == "app/B.java"

    def test_double_slash_collapse(self):
        assert normalize_path("app//x///B.java") == "app/x/B.java"

    def test_rejects_parent_escape(self):
        with pytest.raises(InvalidPath):
            normalize_path("../x.kt")
        with pytest.raises(InvalidPath):
            normalize_path("a/../x.kt")

    def test_rejects_absolute(self):
        with pytest.raises(InvalidPath):
            normalize_path("/abs/x.kt")
        with pytest.raises(InvalidPath):
            normalize_path("C:\\code\\x.kt")

    def test_rejects_empty(self):
        for bad in ("", "   ", ".", "././."):
            with pytest.raises(InvalidPath):
                normalize_path(bad)

    @given(
        st.lists(
            st.text(alphabet="abcXYZ09._-", min_size=1, max_size=8).filter(
                lambda s: s not in (".", "..") and s.strip()
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from(["/", "\\"]),
    )
    def test_idempotent_and_relative(self, segments, sep):
        raw = sep.join(segments)
        normalized = normalize_path(raw)
        assert normalize_path(normalized) == normalized
        assert not normalized.startswith("/")
        assert "\\" not in normalized
        assert ".." not in normalized.split("/")


class TestModuleName:
    def test_examples(self):
        assert derive_module_name("app/src/TrackerService.kt") == "TrackerService"
        assert derive_module_name("a/B.java") == "B"
        assert derive_module_name("x/y/Util.test.kt") == "Util.test"

    def test_extensionless(self):
        assert derive_module_name("scripts/build") == "build"


class TestLineSpan:
    def test_validation(self):
        with pytest.raises(RegevalError):
            LineSpan(0, 3)
        with pytest.raises(RegevalError):
            LineSpan(5, 4)

    def test_render(self):
        assert LineSpan(3, 9).render() == "3-9"

    def test_pointer_split(self):
        path, span = split_pointer_path("src\\a\\B.kt:10-12")
        assert path == "src/a/B.kt"
        assert span == LineSpan(10, 12)
        path, span = split_pointer_path("a/B.kt:7")
        assert span == LineSpan(7, 7)

    def test_overlap_and_cover(self):
        assert LineSpan(10, 12).overlaps(LineSpan(11, 14))
        assert not LineSpan(10, 12).overlaps(LineSpan(13, 14))
        assert LineSpan(10, 12).cover(LineSpan(11, 14)) == LineSpan(10, 14)


class TestRawInstance:
    def test_rejects_empty_articles(self):
        with pytest.raises(RegevalError):
            make_instance(articles=())

    def test_rejects_unnormalized_path(self):
        with pytest.raises(InvalidPath):
            make_instance(path="./app/A.kt")

    def test_rejects_bad_commit(self):
        with pytest.raises(RegevalError):
            make_instance(commit_id="not-hex")

    def test_module_property(self):
        assert make_instance(path="app/Tracker.kt").module_name == "Tracker"


class TestDatasetIO:
    def test_record_round_trip(self, registry, tmp_path):
        instances = [
            make_instance(articles=("7", "12")),
            make_instance(law="PIPEDA", articles=("4.3",), path="app/P.kt", span=(3, 3)),
        ]
        path = tmp_path / "dataset.json"
        save_dataset(path, instances, registry)
        loaded = load_dataset(path, registry)
        assert loaded == instances

    def test_write_json_bytes_and_no_temp_file_left(self, tmp_path):
        path = tmp_path / "nested" / "out.json"
        payload = {"b": [1, 2], "a": {"y": 1, "x": None}}
        assert write_json(path, payload) == path
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert [p.name for p in path.parent.iterdir()] == ["out.json"]

    def test_write_compact_json_bytes_and_no_temp_file_left(self, tmp_path):
        path = tmp_path / "nested" / "out.json"
        payload = {"b": [1, 2], "a": {"y": 1, "x": None}, "é": "ü"}
        assert write_compact_json(path, payload) == path
        assert path.read_text(encoding="utf-8") == encode_sorted(payload) + "\n"
        assert [p.name for p in path.parent.iterdir()] == ["out.json"]

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
            max_leaves=20,
        )
    )
    def test_encode_sorted_equals_json_dumps(self, value):
        """Non-ASCII text, escapes, NaN and infinities included."""
        assert encode_sorted(value) == json.dumps(value, sort_keys=True)

    def test_interrupted_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "raw_responses.jsonl"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("new first line\n")
                raise RuntimeError("interrupted mid-write")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["raw_responses.jsonl"]

    def test_failing_csv_row_keeps_old_plot_data(self, tmp_path):
        path = tmp_path / "plot_data.csv"
        path.write_text("old\n")
        # The second model's row cannot be rendered, after the header and the
        # first model's rows have been written.
        row = {name: 0.5 for name in T2_METRIC_NAMES}
        payload = {"models": {"a": {"task2": {"LGPD": row}}, "b": {"task2": {"LGPD": {}}}}}
        with pytest.raises(KeyError):
            write_plot_data_csv(path, payload)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["plot_data.csv"]

    def test_scalar_and_list_article_id(self, registry):
        base = {
            "app_name": "demo",
            "repo_url": "https://repos.example/demo",
            "commit_id": COMMIT,
            "file_path": "app/A.kt:10-12",
            "snippet": "x",
            "note": "",
        }
        one = instance_from_record({**base, "article_id": "Art. 7"}, registry, law="LGPD")
        assert one.articles == frozenset({"7"})
        numeric = instance_from_record({**base, "article_id": 7}, registry, law="LGPD")
        assert numeric.articles == frozenset({"7"})
        many = instance_from_record({**base, "article_id": ["7", 12]}, registry, law="LGPD")
        assert many.articles == frozenset({"7", "12"})

    def test_law_field_on_record_wins(self, registry):
        record = {
            "app_name": "demo",
            "repo_url": "r",
            "commit_id": COMMIT,
            "article_id": "s. 24",
            "file_path": "app/A.kt:1",
            "snippet": "",
            "note": "",
            "law": "PDPA",
        }
        assert instance_from_record(record, registry).law == "PDPA"

    def test_missing_law_raises(self, registry):
        record = {
            "app_name": "demo",
            "repo_url": "r",
            "commit_id": COMMIT,
            "article_id": "7",
            "file_path": "app/A.kt:1",
            "snippet": "",
        }
        with pytest.raises(RegevalError):
            instance_from_record(record, registry)

    def test_emitted_schema_fields(self, registry):
        record = instance_to_record(make_instance(), registry)
        assert set(record) == {
            "app_name",
            "repo_url",
            "commit_id",
            "law",
            "article_id",
            "file_path",
            "snippet",
            "note",
        }
        assert record["file_path"].endswith(":10-12")


class TestCorpusStats:
    def test_file_count_example(self, registry):
        corpus = [
            make_instance(path="app/A.kt", span=(1, 2)),
            make_instance(path="app/A.kt", span=(5, 6)),
            make_instance(path="app/B.kt", span=(1, 1)),
        ]
        stats = corpus_stats(corpus, registry)
        assert stats["per_law"]["LGPD"]["files"] == 2
        assert stats["per_law"]["LGPD"]["instances"] == 3
        assert stats["per_law"]["LGPD"]["lines"] == 3
        assert stats["per_law"]["LGPD"]["snippets"] == 3

    def test_coverage_matrix_shape(self, registry):
        corpus = [
            make_instance(law="LGPD"),
            make_instance(law="PDPA", articles=("13",), span=(20, 21)),
        ]
        stats = corpus_stats(corpus, registry)
        laws_with_rows = [law for law, row in stats["coverage"].items() if row]
        assert sorted(laws_with_rows) == ["LGPD", "PDPA"]
        for law in laws_with_rows:
            assert len(stats["coverage"][law]) == 1

    def test_empty_corpus_all_zero(self, registry):
        stats = corpus_stats([], registry)
        assert stats["total_instances"] == 0
        for law in registry.codes:
            assert set(stats["per_law"][law].values()) == {0}

    def test_permutation_invariance(self, registry):
        corpus = [
            make_instance(path=f"app/F{i}.kt", span=(i + 1, i + 3), articles=("7", "12"))
            for i in range(6)
        ] + [make_instance(law="PDPA", articles=("24",), path="app/P.kt", span=(2, 2))]
        stats_a = corpus_stats(corpus, registry)
        shuffled = corpus[:]
        random.Random(3).shuffle(shuffled)
        stats_b = corpus_stats(shuffled, registry)
        assert stats_a == stats_b

    def test_top_k_bounds_ranking_and_zero_keeps_all(self, registry):
        corpus = [
            make_instance(path="app/A.kt", span=(1, 1), articles=("7", "12")),
            make_instance(path="app/B.kt", span=(2, 2), articles=("7", "5")),
            make_instance(path="app/C.kt", span=(3, 3), articles=("11",)),
        ]
        full = corpus_stats(corpus, registry, top_k=0)["label_frequencies"]["LGPD"]
        assert len(full) == 4
        assert corpus_stats(corpus, registry, top_k=2)["label_frequencies"]["LGPD"] == full[:2]
        with pytest.raises(RegevalError, match="top_k"):
            corpus_stats(corpus, registry, top_k=-1)

    def test_label_frequency_ranking(self, registry):
        corpus = [
            make_instance(path="app/A.kt", span=(1, 1), articles=("7", "12")),
            make_instance(path="app/B.kt", span=(2, 2), articles=("7",)),
            make_instance(path="app/C.kt", span=(3, 3), articles=("5",)),
        ]
        stats = corpus_stats(corpus, registry)
        ranking = stats["label_frequencies"]["LGPD"]
        assert ranking[0] == ["7", 2]
        assert ["12", 1] in ranking and ["5", 1] in ranking
        # Tie between 5 and 12 broken by universe order.
        assert ranking[1] == ["5", 1]

    def test_theme_overlap_counts(self, registry):
        corpus = [
            make_instance(articles=("7",)),
            make_instance(law="PDPA", articles=("13",), path="app/P.kt", span=(4, 4)),
            make_instance(law="PDPA", articles=("24",), path="app/Q.kt", span=(5, 5)),
        ]
        stats = corpus_stats(corpus, registry)
        # Consent anchors present in both LGPD and PDPA; security only in PDPA.
        assert stats["theme_overlap"]["LGPD|PDPA"] == 1
        assert stats["theme_overlap"]["LGPD|PIPEDA"] == 0

    def test_stats_serializable(self, registry):
        stats = corpus_stats([make_instance()], registry)
        # It is the `stats` block of stats.json as it is.
        assert json.loads(json.dumps(stats)) == stats
