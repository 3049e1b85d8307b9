from __future__ import annotations

import json
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regeval.corpus import LineSpan
from regeval.errors import RegevalError
from regeval import ingest
from regeval.ingest import (
    RANKED,
    SET,
    GoldIndex,
    bind_predictions,
    load_prediction_files,
    parse_prediction_text,
    parse_responses,
    ranked_prediction_to_dict,
    set_prediction_to_dict,
    write_prediction_files,
)
from regeval.jurisdiction import JurisdictionRegistry
from regeval.multilabel import SetPrediction, score_task2
from regeval.retrieval import RankedPrediction, RetrievalKey, gold_keys_for_records, score_task1
from regeval.shaping import SnippetPointer, shape_views
from regeval.synthetic import CorpusSpec, generate_corpus, render_response_text, scripted_model
from test_corpus import make_instance


class TestParseExamples:
    def test_ranked_dedup_preserves_order(self, registry):
        parsed = parse_prediction_text(
            "Violations: Art. 7, Art. 12, and also Art. 7", "LGPD", RANKED, registry
        )
        assert parsed.ids == ("7", "12")

    def test_set_mode_single_identifier(self, registry):
        parsed = parse_prediction_text("s. 24 because safeguards...", "PDPA", SET, registry)
        assert set(parsed.ids) == {"24"}

    def test_no_identifiers_yields_empty(self, registry):
        parsed = parse_prediction_text("no violations found", "LGPD", RANKED, registry)
        assert parsed.empty
        parsed = parse_prediction_text("", "PDPA", SET, registry)
        assert parsed.empty

    def test_unknown_mode_rejected(self, registry):
        with pytest.raises(RegevalError):
            parse_prediction_text("Art. 7", "LGPD", "other", registry)


class TestGrammar:
    def test_list_context_bare_integers(self, registry):
        parsed = parse_prediction_text("Art. 7, 12 and 15.", "LGPD", RANKED, registry)
        assert parsed.ids == ("7", "12", "15")

    def test_comma_and_chain(self, registry):
        parsed = parse_prediction_text("s. 13, and 24; 25 / 26", "PDPA", RANKED, registry)
        assert parsed.ids == ("13", "24", "25", "26")

    def test_bare_integer_without_context_ignored(self, registry):
        parsed = parse_prediction_text("line 42 stores the id in field 7", "LGPD", RANKED, registry)
        assert parsed.ids == ()

    def test_list_chain_breaks_on_prose(self, registry):
        parsed = parse_prediction_text(
            "Art. 7 applies. The code at line 120 also runs.", "LGPD", RANKED, registry
        )
        assert parsed.ids == ("7",)

    def test_pipeda_bare_decimals(self, registry):
        parsed = parse_prediction_text(
            "4.3 and 4.7 both apply; maybe § 4.1 too", "PIPEDA", RANKED, registry
        )
        assert parsed.ids == ("4.3", "4.7", "4.1")

    def test_pipeda_plain_integer_not_captured(self, registry):
        parsed = parse_prediction_text("the 10 fields are fine", "PIPEDA", RANKED, registry)
        assert parsed.ids == ()

    def test_out_of_universe_dropped_and_counted(self, registry):
        parsed = parse_prediction_text("Art. 7 and Art. 999", "LGPD", RANKED, registry)
        assert parsed.ids == ("7",)
        assert parsed.dropped_out_of_universe == ("999",)

    def test_out_of_universe_junk_cannot_help(self, registry):
        # Monotone safety: appending extraneous out-of-universe identifiers
        # leaves the parsed prediction (and so every downstream score) unchanged.
        clean = parse_prediction_text("Art. 7, Art. 12", "LGPD", RANKED, registry)
        junked = parse_prediction_text("Art. 999, Art. 7, Art. 12, Art. 870", "LGPD", RANKED, registry)
        assert junked.ids == clean.ids
        assert junked.dropped_out_of_universe == ("999", "870")

    def test_prefix_needs_word_boundary(self, registry):
        parsed = parse_prediction_text("smart 7 parts 12", "LGPD", RANKED, registry)
        assert parsed.ids == ()

    def test_case_insensitive(self, registry):
        parsed = parse_prediction_text("ARTICLE 12; SEC. 13", "LGPD", RANKED, registry)
        assert "12" in parsed.ids

    def test_scan_takes_the_prefixes_of_the_surface_form(self, registry):
        # One prefix grammar: "§." is a prefix in free text as in a single token.
        assert registry.canonicalize_article("§. 24", "PDPA").article == "24"
        parsed = parse_prediction_text("see §. 24 and § .13", "PDPA", RANKED, registry)
        assert parsed.ids == ("24", "13")

    def test_mid_word_digits_not_identifiers(self, registry):
        parsed = parse_prediction_text("v4.3beta ships 4.3x", "PIPEDA", RANKED, registry)
        assert parsed.ids == ()


class TestIdempotence:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_parse_of_rendered_output_is_identity(self, registry, data):
        law = data.draw(st.sampled_from(["LGPD", "PDPA", "PIPEDA"]))
        jur = registry.get(law)
        labels = data.draw(
            st.lists(st.sampled_from(list(jur.universe)), min_size=1, max_size=4, unique=True)
        )
        text = render_response_text(labels, jur)
        parsed = parse_prediction_text(text, law, RANKED, registry)
        assert list(parsed.ids) == labels
        # Round trip: rendering the parse result parses identically.
        again = parse_prediction_text(render_response_text(parsed.ids, jur), law, RANKED, registry)
        assert again.ids == parsed.ids

    def test_set_order_is_permutation_of_set(self, registry):
        parsed = parse_prediction_text("Art. 12, Art. 7, Art. 12", "LGPD", SET, registry)
        assert sorted(parsed.ids) == sorted(set(parsed.ids))
        assert set(parsed.ids) == {"7", "12"}


class TestResponseParsing:
    def _records(self):
        return [
            {
                "model": "m",
                "task": "task1",
                "law": "LGPD",
                "key": {
                    "repo_url": "r",
                    "app_name": "a",
                    "commit_id": "a" * 40,
                    "file_path": "app/A.kt",
                    "granularity": "file",
                },
                "text": "Art. 7 and Art. 12",
            },
            {
                "model": "m",
                "task": "task2",
                "law": "PDPA",
                "key": {"file_path": "app/B.kt", "span": [5, 6], "commit_id": "a" * 40},
                "text": "s. 24",
            },
            {
                "model": "m",
                "task": "task2",
                "law": "PDPA",
                "key": {"file_path": "app/C.kt", "span": [9, 9], "commit_id": "a" * 40},
                "text": "",
            },
        ]

    def test_parse_responses(self, registry):
        ranked, sets, summary = parse_responses(self._records(), registry)
        assert len(ranked) == 1 and ranked[0].ranking == ("7", "12")
        assert len(sets) == 2 and sets[0].labels == ("24",)
        assert summary.responses == 3
        assert summary.empty_predictions == 1

    def test_prediction_file_round_trip(self, registry, tmp_path):
        ranked, sets, _ = parse_responses(self._records(), registry)
        t1, t2 = write_prediction_files(tmp_path, ranked, sets, {"source": "test"})
        loaded_ranked, loaded_sets = load_prediction_files(t1, t2, registry)
        assert loaded_ranked == [pred.row() for pred in ranked]
        assert loaded_sets == [pred.row() for pred in sets]


class TestCanonicalIdMemo:
    """`load_prediction_files` resolves each distinct (law, stored id) once
    and reuses the result, which must equal the registry's own."""

    FORMS = {
        "LGPD": ["Art. 7", "007", "7", "art 12", "Article 46"],
        "PIPEDA": ["§ 4.3", "4.03", "Principle 4.10", "4.3"],
    }
    KEY = {"repo_url": "r", "app_name": "a", "commit_id": "a" * 40, "file_path": "app/A.kt"}

    def test_memoized_forms_resolve_like_the_registry(self, registry, tmp_path, monkeypatch):
        entries = [
            {"law": law, **self.KEY, "granularity": "file", "ranking": forms}
            for _ in range(2)
            for law, forms in self.FORMS.items()
        ]
        t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
        t1.write_text(json.dumps({"predictions": entries}))
        t2.write_text(json.dumps({"predictions": []}))
        original = JurisdictionRegistry.canonicalize_article
        calls = []

        def counting(self, raw, law):
            calls.append((law, raw))
            return original(self, raw, law)

        monkeypatch.setattr(JurisdictionRegistry, "canonicalize_article", counting)
        memo: dict = {}
        ranked, _ = load_prediction_files(t1, t2, registry, memo)
        ranked_again, _ = load_prediction_files(t1, t2, registry, memo)

        expected = {
            law: {raw: original(registry, raw, law).article for raw in forms}
            for law, forms in self.FORMS.items()
        }
        assert memo == expected
        assert sorted(calls) == sorted((law, raw) for law, forms in self.FORMS.items() for raw in forms)
        for (anchor, ids, _model) in ranked + ranked_again:
            assert ids == tuple(dict.fromkeys(expected[anchor[0]][raw] for raw in self.FORMS[anchor[0]]))


class TestBindPredictions:
    def _views(self):
        corpus = [
            make_instance(articles=("7",), path="app/A.kt", span=(1, 2), snippet="s1"),
            make_instance(articles=("12",), path="app/B.kt", span=(5, 6), snippet="s2"),
        ]
        return shape_views(corpus)

    def test_bound_and_orphans(self, registry):
        views = self._views()
        keys = gold_keys_for_records(views["LGPD"].task1)
        some_key = next(iter(keys))
        good = RankedPrediction(key=some_key, ranking=("7",), model="m")
        orphan_t2 = SetPrediction(
            law="LGPD",
            pointer=SnippetPointer("app/Nope.kt", LineSpan(1, 1), "a" * 40),
            labels=("7",),
            model="m",
        )
        result = bind_predictions(GoldIndex.from_views(views), [good.row()], [orphan_t2.row()], "strict")
        assert result.task2["LGPD"].report.orphans
        data = result.to_dict()
        assert data["label_cardinality"]["LGPD"]["task1"] == {1: 1}

    def test_coverage_ratio(self, registry):
        views = self._views()
        gold = gold_keys_for_records(views["LGPD"].task1)
        keys = sorted(gold, key=lambda k: k.sort_key())
        preds = [RankedPrediction(key=k, ranking=("7",), model="m") for k in keys[:3]]
        result = bind_predictions(GoldIndex.from_views(views), [p.row() for p in preds], [], "strict")
        total_gold = sum(rep["gold_keys"] for rep in result.to_dict()["task1"].values())
        total_matched = sum(rep["matched_keys"] for rep in result.to_dict()["task1"].values())
        assert total_gold == 6  # 2 files x (file + module + line)
        assert total_matched == 3


class TestEvalPermutationInvariance:
    """Eval scores do not depend on the order of duplicate-free predictions."""

    _registry = JurisdictionRegistry.default()
    _views = shape_views(generate_corpus(CorpusSpec(seed=3, files_per_law={"LGPD": 3, "PIPEDA": 3}), _registry))
    _gold = GoldIndex.from_views(_views)
    _scripted = scripted_model("RANDOM", _views, _registry, seed=3)

    def _scores(self, ranked, sets):
        bound = bind_predictions(self._gold, [p.row() for p in ranked], [p.row() for p in sets], "strict")
        task1 = score_task1(bound.task1, self._registry)
        task2 = score_task2(bound.task2, self._registry)
        return (
            {slice_: ev.to_dict() for slice_, ev in task1.items()},
            {law: ev.to_dict() for law, ev in task2.items()},
            bound.to_dict(),
        )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_scores_invariant_under_permutation(self, data):
        # Some gold keys and pointers go unpredicted, so coverage is partial.
        ranked = [p for p in self._scripted.ranked if data.draw(st.integers(0, 4), label="keep") > 0]
        sets = [p for p in self._scripted.sets if data.draw(st.integers(0, 4), label="keep") > 0]
        shuffled_ranked = data.draw(st.permutations(ranked))
        shuffled_sets = data.draw(st.permutations(sets))
        assert self._scores(shuffled_ranked, shuffled_sets) == self._scores(ranked, sets)


# Text with non-ASCII characters, quotes, backslashes and control characters.
_TEXT = st.text(alphabet=st.sampled_from(list('aZ09 "\\\n\t\x00é漢😀/')), max_size=6)


@st.composite
def _ranked_prediction(draw) -> RankedPrediction:
    start = draw(st.integers(min_value=1, max_value=40))
    span = draw(st.none() | st.builds(LineSpan, st.just(start), st.integers(start, start + 5)))
    key = RetrievalKey(
        law=draw(_TEXT), repo_url=draw(_TEXT), app_name=draw(_TEXT), commit_id=draw(_TEXT),
        file_path=draw(_TEXT), granularity=draw(st.sampled_from(["file", "module", "line"])),
        module=draw(st.none() | _TEXT), span=span,
    )
    return RankedPrediction(key=key, ranking=tuple(draw(st.lists(_TEXT, max_size=3))), model=draw(st.just("") | _TEXT))


@st.composite
def _set_prediction(draw) -> SetPrediction:
    start = draw(st.integers(min_value=1, max_value=40))
    pointer = SnippetPointer(draw(_TEXT), LineSpan(start, draw(st.integers(start, start + 5))), draw(_TEXT))
    return SetPrediction(
        law=draw(_TEXT), pointer=pointer, labels=tuple(draw(st.lists(_TEXT, max_size=3))),
        model=draw(st.just("") | _TEXT),
    )


_CONFIG_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=80, deadline=None)
@given(
    ranked=st.lists(_ranked_prediction(), max_size=4),
    sets=st.lists(_set_prediction(), max_size=4),
    config=st.none() | st.dictionaries(_TEXT, _CONFIG_VALUE, max_size=3),
)
def test_streamed_prediction_files_equal_one_dump_of_the_payload(ranked, sets, config):
    """Entries are written a chunk at a time (two here, so most files span
    several chunks), with the bytes of one compact key-sorted dump of the
    whole payload: no entries, entries without a model, and any text
    included."""
    with tempfile.TemporaryDirectory() as out, mock.patch.object(ingest, "_WRITE_CHUNK", 2):
        t1, t2 = write_prediction_files(out, ranked, sets, config)
        for path, entries in ((t1, map(ranked_prediction_to_dict, ranked)), (t2, map(set_prediction_to_dict, sets))):
            payload = {"config": dict(config or {}), "predictions": list(entries)}
            assert path.read_bytes() == (json.dumps(payload, indent=None, sort_keys=True) + "\n").encode()
