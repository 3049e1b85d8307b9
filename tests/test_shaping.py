from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_merge_spans
from regeval.cli import _load_views
from regeval.corpus import LineSpan, RawInstance, read_json, write_json
from regeval.errors import ConflictingSnippet, EmptyCorpus, RegevalError
from regeval.retrieval import gold_keys_for_records
from regeval.shaping import (
    DEFAULT_EXCLUDE_PATTERNS,
    dump_views,
    filter_corpus,
    load_task1_view,
    load_task2_view,
    merge_line_evidence,
    path_is_excluded,
    shape_task1,
    shape_task2,
    shape_views,
    task1_record_from_dict,
    task2_record_from_dict,
)
from regeval.synthetic import CorpusSpec, generate_corpus
from test_corpus import make_instance


def task2_as_instances(records) -> list[RawInstance]:
    """Re-read judgment records as raw instances (provenance round trip)."""
    return [
        RawInstance(
            app_name=rec.app_name,
            repo_url=rec.repo_url,
            commit_id=rec.pointer[3],
            law=rec.law,
            articles=rec.gold,
            file_path=rec.pointer[0],
            span=LineSpan(rec.pointer[1], rec.pointer[2]),
            snippet=rec.snippet,
        )
        for rec in records
    ]


def _line_sections(record) -> list:
    """(span, gold) of each line section of a task-1 record."""
    return [(LineSpan(*key[7:]), gold) for key, gold in record.lines]


class TestShapeTask1:
    def test_file_gold_union(self):
        corpus = [
            make_instance(articles=("7",), span=(1, 2)),
            make_instance(articles=("12",), span=(5, 6)),
        ]
        records = shape_task1(corpus)
        assert len(records) == 1
        assert records[0].file_gold == frozenset({"7", "12"})
        assert records[0].module_gold == frozenset({"7", "12"})
        assert records[0].module[6] == "A"

    def test_overlapping_identical_sets_merge(self):
        corpus = [
            make_instance(articles=("7",), span=(10, 12)),
            make_instance(articles=("7",), span=(11, 14)),
        ]
        [record] = shape_task1(corpus)
        assert _line_sections(record) == [(LineSpan(10, 14), frozenset({"7"}))]

    def test_overlapping_different_sets_preserved(self):
        corpus = [
            make_instance(articles=("7",), span=(10, 12)),
            make_instance(articles=("12",), span=(11, 14)),
        ]
        [record] = shape_task1(corpus)
        assert len(record.lines) == 2
        spans = {LineSpan(*key[7:]) for key, _gold in record.lines}
        assert spans == {LineSpan(10, 12), LineSpan(11, 14)}

    def test_identical_span_evidence_unions(self):
        corpus = [
            make_instance(articles=("7",), span=(10, 12)),
            make_instance(articles=("12",), span=(10, 12)),
        ]
        [record] = shape_task1(corpus)
        assert _line_sections(record) == [(LineSpan(10, 12), frozenset({"7", "12"}))]

    def test_chain_merge_to_fixed_point(self):
        corpus = [
            make_instance(articles=("7",), span=(10, 12)),
            make_instance(articles=("7",), span=(12, 15)),
            make_instance(articles=("7",), span=(15, 18)),
        ]
        [record] = shape_task1(corpus)
        assert _line_sections(record) == [(LineSpan(10, 18), frozenset({"7"}))]

    def test_separate_files_separate_records(self):
        corpus = [
            make_instance(path="app/A.kt"),
            make_instance(path="app/B.kt", span=(4, 5)),
        ]
        assert len(shape_task1(corpus)) == 2

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            shape_task1([])

    def test_mixed_laws_rejected(self):
        corpus = [make_instance(), make_instance(law="PDPA", articles=("24",))]
        with pytest.raises(RegevalError):
            shape_task1(corpus)


class TestMergeOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=30),
                st.integers(min_value=0, max_value=6),
                st.sets(st.sampled_from(["5", "7", "12"]), min_size=1, max_size=2),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_merge_matches_pairwise_fixed_point(self, raw):
        entries = [
            (LineSpan(start, start + length), frozenset(labels)) for start, length, labels in raw
        ]
        fast = merge_line_evidence(entries)
        got = {((span.start, span.end), gold) for span, gold in fast}
        expected = oracle_merge_spans(
            [((span.start, span.end), labels) for span, labels in entries]
        )
        assert got == expected


class TestShapeTask2:
    def test_same_pointer_unions_gold(self):
        corpus = [
            make_instance(articles=("7",), snippet="x = 1"),
            make_instance(articles=("12",), snippet="x = 1"),
        ]
        [record] = shape_task2(corpus)
        assert record.gold == frozenset({"7", "12"})

    def test_content_identical_distinct_pointers_stay_distinct(self):
        corpus = [
            make_instance(snippet="dup()", span=(1, 2)),
            make_instance(snippet="dup()", span=(9, 10)),
        ]
        assert len(shape_task2(corpus)) == 2

    def test_conflicting_snippet(self):
        corpus = [
            make_instance(snippet="alpha"),
            make_instance(snippet="beta"),
        ]
        with pytest.raises(ConflictingSnippet):
            shape_task2(corpus)

    def test_provenance_carried(self):
        [record] = shape_task2([make_instance()])
        assert record.repo_url == "https://repos.example/demo"
        assert record.app_name == "demo"


class TestDeterminismAndConservation:
    def _corpus(self, seed=11, n=40):
        rng = random.Random(seed)
        corpus = []
        for i in range(n):
            law = rng.choice(["LGPD", "PDPA"])
            articles = {"LGPD": ["5", "7", "12"], "PDPA": ["13", "24", "25"]}[law]
            start = rng.randint(1, 60)
            corpus.append(
                make_instance(
                    law=law,
                    articles=tuple(rng.sample(articles, rng.randint(1, 2))),
                    path=f"app/F{rng.randint(0, 5)}.kt",
                    span=(start, start + rng.randint(0, 4)),
                    snippet=f"snippet-{law}-F{rng.randint(0, 5)}",
                )
            )
        # Snippets must be pointer-consistent: key them by pointer.
        by_pointer = {}
        fixed = []
        for inst in corpus:
            snippet = by_pointer.setdefault((inst.law, inst.pointer), f"code {inst.pointer}")
            fixed.append(
                make_instance(
                    law=inst.law,
                    articles=tuple(inst.articles),
                    path=inst.file_path,
                    span=(inst.span.start, inst.span.end),
                    snippet=snippet,
                )
            )
        return fixed

    def test_permutation_determinism(self, registry, tmp_path):
        corpus = self._corpus()
        views_a = shape_views(corpus)
        shuffled = corpus[:]
        random.Random(5).shuffle(shuffled)
        views_b = shape_views(shuffled)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dump_views(views_a, dir_a, registry)
        dump_views(views_b, dir_b, registry)
        for path_a in sorted(dir_a.iterdir()):
            path_b = dir_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_instance_conservation(self):
        corpus = self._corpus(seed=23)
        views = shape_views(corpus)
        for law, members in (
            ("LGPD", [i for i in corpus if i.law == "LGPD"]),
            ("PDPA", [i for i in corpus if i.law == "PDPA"]),
        ):
            t1 = views[law].task1
            t2 = views[law].task2
            by_key = {r.file[1:5] for r in t1}
            by_pointer = {r.pointer for r in t2}
            for inst in members:
                key = (inst.repo_url, inst.app_name, inst.commit_id, inst.file_path)
                assert key in by_key
                assert inst.pointer in {
                    (path, LineSpan(start, end), commit) for path, start, end, commit in by_pointer
                }
                owner = next(r for r in t1 if r.file[1:5] == key)
                assert inst.articles <= owner.file_gold
            # Gold label multiset preserved under union semantics.
            union_raw = frozenset().union(*(i.articles for i in members))
            union_t2 = frozenset().union(*(r.gold for r in t2))
            assert union_raw == union_t2

    @pytest.mark.parametrize("seed", [11, 23, 31])
    def test_views_read_back_to_the_shaped_records(self, registry, tmp_path, seed):
        # `eval` joins predictions to keys read from views; they must be the
        # keys `shape` built, in the same order.
        views = shape_views(self._corpus(seed=seed))
        dump_views(views, tmp_path, registry)
        for law, view in views.items():
            loaded = load_task1_view(tmp_path / f"task1_{law}.json")
            assert loaded == (law, view.task1)
            assert load_task2_view(tmp_path / f"task2_{law}.json") == (law, view.task2)
            assert list(gold_keys_for_records(loaded[1]).items()) == list(gold_keys_for_records(view.task1).items())

    def test_reshaping_task2_is_fixed_point(self, registry, tmp_path):
        corpus = self._corpus(seed=31)
        views = shape_views(corpus)
        replayed = [inst for view in views.values() for inst in task2_as_instances(view.task2)]
        views_again = shape_views(replayed)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dump_views(views_a := views, dir_a, registry)
        dump_views(views_again, dir_b, registry)
        for name in ("task2_LGPD.json", "task2_PDPA.json", "task1_LGPD.json", "task1_PDPA.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


class TestSharedViewValues:
    """The records of one `_load_views` call hold each distinct key string
    and gold set once, and equal the records decoded one at a time."""

    @staticmethod
    def _dump(registry, views_dir, indented=False):
        corpus = generate_corpus(CorpusSpec(seed=7, files_per_law={"LGPD": 6, "PDPA": 5}), registry)
        views = shape_views(corpus)
        dump_views(views, views_dir, registry)
        if indented:
            for path in views_dir.glob("task*.json"):
                write_json(path, read_json(path))
        return views

    def test_one_load_holds_each_key_string_and_gold_set_once(self, registry, tmp_path):
        self._dump(registry, tmp_path)
        views = _load_views(str(tmp_path), registry=registry)
        t1 = [rec for view in views.values() for rec in view.task1]
        t2 = [rec for view in views.values() for rec in view.task2]
        keys = [key for rec in t1 for key in (rec.file, rec.module, *(key for key, _gold in rec.lines))]
        shared = {
            "repo_url": [key[1] for key in keys] + [rec.repo_url for rec in t2],
            "app_name": [key[2] for key in keys] + [rec.app_name for rec in t2],
            "commit_id": [key[3] for key in keys] + [rec.pointer[3] for rec in t2],
            "file_path": [key[4] for key in keys] + [rec.pointer[0] for rec in t2],
            "gold": [gold for rec in t1 for gold in (rec.file_gold, rec.module_gold, *(g for _key, g in rec.lines))]
            + [rec.gold for rec in t2],
        }
        for name, values in shared.items():
            assert len({id(value) for value in values}) == len(set(values)) < len(values), name

    @pytest.mark.parametrize("indented", [False, True])
    def test_shared_records_equal_records_decoded_alone(self, registry, tmp_path, indented):
        shaped = self._dump(registry, tmp_path, indented)
        views = _load_views(str(tmp_path), registry=registry)
        assert sorted(views) == sorted(shaped)
        for law, view in views.items():
            for task, records, decode in (
                ("task1", view.task1, task1_record_from_dict),
                ("task2", view.task2, task2_record_from_dict),
            ):
                alone = [decode(law, rec, {}) for rec in read_json(tmp_path / f"{task}_{law}.json")["records"]]
                assert records == alone
            assert (view.task1, view.task2) == (shaped[law].task1, shaped[law].task2)


class TestPathFilter:
    def test_default_patterns(self):
        assert path_is_excluded("app/build/gen/A.kt")
        assert path_is_excluded("app/generated/B.java")
        assert path_is_excluded("app/src/R.java")
        assert not path_is_excluded("app/src/Real.java")

    def test_filter_applied_before_shaping(self):
        corpus = [
            make_instance(path="app/build/A.kt"),
            make_instance(path="app/src/B.kt", span=(2, 3)),
        ]
        kept, excluded = filter_corpus(corpus)
        assert len(kept) == 1 and len(excluded) == 1
        views = shape_views(corpus)
        assert len(views["LGPD"].task1) == 1

    def test_all_filtered_is_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            shape_views([make_instance(path="app/build/A.kt")])

    def test_custom_patterns(self):
        assert path_is_excluded("x/test/Foo.kt", ("test/",))
        assert not path_is_excluded("x/test/Foo.kt", DEFAULT_EXCLUDE_PATTERNS)
