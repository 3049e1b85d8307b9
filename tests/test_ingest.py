from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regeval.cli import _load_views
from regeval.corpus import encode_sorted, read_json
from regeval.errors import MalformedPrediction, RegevalError
from regeval import ingest
from regeval.ingest import (
    RANKED,
    SET,
    DecodeCache,
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
from regeval.retrieval import RankedPrediction, gold_keys_for_records, score_task1
from regeval.shaping import RetrievalKey, SnippetPointer, decode_anchor, decode_pointer, dump_views, shape_views
from regeval.synthetic import CorpusSpec, generate_corpus, render_response_text, scripted_model
from oracles import oracle_prediction_entries
from test_corpus import make_instance
from test_golden import HERE, other_interpreters


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
        assert registry.canonicalize_article("§. 24", "PDPA") == "24"
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
    def _responses(self, tmp_path):
        records = [
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
        path = tmp_path / "raw_responses.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        return path

    def test_parse_responses(self, registry, tmp_path):
        ranked, sets, summary = parse_responses(self._responses(tmp_path), registry)
        assert len(ranked) == 1 and ranked[0].ranking == ("7", "12")
        assert len(sets) == 2 and sets[0].labels == ("24",)
        assert summary["responses"] == 3
        assert summary["empty_predictions"] == 1

    def test_prediction_file_round_trip(self, registry, tmp_path):
        ranked, sets, _ = parse_responses(self._responses(tmp_path), registry)
        t1, t2 = write_prediction_files(tmp_path, ranked, sets, {"source": "test"})
        loaded_ranked, loaded_sets = load_prediction_files(t1, t2, registry)
        assert loaded_ranked == ranked
        assert loaded_sets == sets
        # Loaded rows stay plain tuples, which the cyclic GC can untrack.
        assert {type(row) for row in loaded_ranked + loaded_sets} == {tuple}
        assert {type(row[0]) for row in loaded_ranked} == {type(row[1]) for row in loaded_sets} == {tuple}


class TestIncrementalReader:
    """A prediction file in the layout `_write_predictions` writes is read one
    line at a time, never whole, and every file is read as `json.loads` reads
    it: the same rows from any layout it accepts, and the same error, with its
    message and position, from any text it rejects."""

    @pytest.fixture()
    def entries(self, registry):
        views = shape_views(generate_corpus(CorpusSpec(seed=5, files_per_law={"LGPD": 3, "PDPA": 3}), registry))
        return [ranked_prediction_to_dict(pred) for pred in scripted_model("RANDOM", views, registry, seed=5).ranked]

    LAYOUTS = {
        "indent": lambda entries: json.dumps({"config": {"seed": 5}, "predictions": entries}, indent=2),
        "predictions first": lambda entries: json.dumps({"predictions": entries, "config": {"seed": 5}}),
        "extra members": lambda entries: json.dumps(
            {"schema": [1, {"x": None}], "config": {}, "predictions": entries, "note": "é", "n": 1.5e3}
        ),
        "whitespace everywhere": lambda entries: "\n\t " + json.dumps(
            {"config": {"a": [1, 2]}, "predictions": entries}, indent="\t", separators=(" ,\r\n ", " :  ")
        ) + " \r\n\t",
        "repeated predictions": lambda entries: (
            f'{{"predictions": {json.dumps(entries[:2])}, "config": {{}}, "predictions": {json.dumps(entries)}}}'
        ),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_layouts_json_loads_accepts_give_the_same_rows(self, registry, tmp_path, entries, layout):
        t2 = tmp_path / "t2.json"
        t2.write_text('{"predictions": []}')
        compact, other = tmp_path / "compact.json", tmp_path / "other.json"
        compact.write_text(json.dumps({"config": {}, "predictions": entries}))
        other.write_text(self.LAYOUTS[layout](entries))
        assert json.loads(other.read_text())["predictions"] == entries
        expected, _ = load_prediction_files(compact, t2, registry)
        assert len(expected) == len(entries)
        assert load_prediction_files(other, t2, registry) == (expected, [])

    def test_an_empty_list_gives_no_rows(self, registry, tmp_path):
        t1 = tmp_path / "t1.json"
        t1.write_text('{ "predictions" : [ ] , "config" : { } }')
        assert load_prediction_files(t1, t1, registry) == ([], [])

    @staticmethod
    def _decode(entry):
        return (entry["law"], tuple(entry["ranking"]))

    def _outcome(self, read, path):
        # Any other exception, such as an IndexError, fails the test.
        try:
            return "rows", read(path, self._decode)
        except (json.JSONDecodeError, MalformedPrediction) as exc:
            return type(exc).__name__, str(exc)

    def test_every_cut_and_edit_reads_as_json_loads_reads_it(self, tmp_path, monkeypatch):
        valid = json.dumps(
            {"config": {"n": 12e5, "x": [1.5, -0.25e-3, True, None, "\u00e9 \\"]},
             "predictions": [{"law": "LGPD", "ranking": ["1", "2"]}, {"law": "PDPA", "ranking": []}]},
            indent=1,
        )
        # A malformed entry in a `predictions` list that a later one replaces.
        replaced = '{"predictions": [{"law": "LGPD"}, 7], "m": -1E+2, "predictions": [{"law": "A", "ranking": []}]}'
        written = written_documents(tmp_path)
        rng = random.Random(14)
        texts = [text[:cut] for text in (valid, replaced, *written) for cut in range(len(text) + 1)]
        for text in (valid, *written):
            for _ in range(100):
                at = rng.randrange(len(text))
                texts.append(text[:at] + rng.choice(' {}[],:"0123456789e.-+tn\\\n') + text[at + rng.randrange(2):])
        texts += [edit for text in written for edit in line_edits(text)]
        texts += [valid + " x", valid + "{}", f"[{valid}]", "\ufeff" + valid, '{"predictions": [1, 2]}']
        texts += TRAILING_COMMAS
        whole_reads = []
        monkeypatch.setattr(ingest, "read_json", lambda path: whole_reads.append(path) or read_json(path))
        path = tmp_path / "p.json"
        kinds, streamed = set(), 0
        for text in texts:
            path.write_text(text, encoding="utf-8")
            expected = self._outcome(oracle_prediction_entries, path)
            whole_reads.clear()
            assert self._outcome(ingest._decode_entries, path) == expected, text
            kinds.add(expected[0])
            streamed += not whole_reads
        assert kinds == {"rows", "JSONDecodeError", "MalformedPrediction"}
        assert streamed >= len(written)


def written_documents(tmp_path) -> list[str]:
    """Texts `_write_predictions` writes at one and two entries per line: of
    three entries, of none, and of two under a config string that holds the
    end of the head line."""
    entries = [
        {"law": "LGPD", "ranking": ["1", "2"]}, {"law": "PDPA", "ranking": []},
        {"law": "LGPD", "model": "m", "ranking": ["3"]},
    ]
    documents = [
        ({"n": 12e5, "x": [1.5, True, None, "\u00e9 \\"]}, entries),
        ({}, []),
        ({"s": ', "predictions": ['}, entries[:2]),
    ]
    path = tmp_path / "written.json"
    texts = []
    for chunk in (1, 2):
        with mock.patch.object(ingest, "_WRITE_CHUNK", chunk):
            for config, items in documents:
                ingest._write_predictions(path, config, items)
                texts.append(path.read_text(encoding="utf-8"))
    return texts


def line_edits(text: str) -> list[str]:
    """`text` with each line dropped, doubled, preceded by a blank line,
    blanked, and re-ended with its comma added or removed."""
    lines = text.splitlines(keepends=True)
    edits = []
    for at, line in enumerate(lines):
        reended = line[:-2] + "\n" if line.endswith(",\n") else line[:-1] + ",\n"
        for replacement in ([], [line, line], ["\n", line], ["\n"], [reended]):
            edits.append("".join(lines[:at] + replacement + lines[at + 1 :]))
    return edits


# Trailing commas in the top-level object, in `predictions`, in an entry and
# in `config`: CPython 3.13's `json.loads` words each differently from 3.12's.
TRAILING_COMMAS = [
    '{"predictions": [], }',
    '{"config": {}, "predictions": [{"law": "LGPD", "ranking": []}],}',
    '{"predictions": [{"law": "LGPD", "ranking": []}, ]}',
    '{"predictions": [{"law": "LGPD", "ranking": ["1", ]}]}',
    '{"predictions": [{"law": "LGPD", "ranking": [], }]}',
    '{"config": {"a": 1, }, "predictions": []}',
    '{"config": {"a": [1, 2, ]}, "predictions": []}',
]

# Reads the JSON list of texts on stdin and compares, for each text as a
# prediction file, `_decode_entries` with the oracle, which reads the file
# whole with `json.loads`. Run with `src` on the path and the tests directory
# as its argument; it needs no pytest.
READER_PARITY = """
import json, sys, tempfile
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from oracles import oracle_prediction_entries
from regeval import ingest
from regeval.errors import MalformedPrediction


def outcome(read, path):
    try:
        return "rows", read(path, lambda entry: (entry["law"], tuple(entry["ranking"])))
    except (json.JSONDecodeError, MalformedPrediction) as exc:
        return type(exc).__name__, str(exc)


texts = json.loads(sys.stdin.read())
differ = 0
with tempfile.TemporaryDirectory() as work:
    path = Path(work) / "p.json"
    for text in texts:
        path.write_text(text, encoding="utf-8")
        got, want = outcome(ingest._decode_entries, path), outcome(oracle_prediction_entries, path)
        if got != want:
            differ += 1
            print(repr(text), got, want)
sys.exit(1 if differ else 0)
"""


def test_the_reader_reads_as_json_loads_under_other_interpreters(tmp_path):
    """`_decode_entries` gives the rows and errors of `json.loads` under each
    other CPython 3.10-3.13 on PATH, whose error messages differ."""
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10-3.13 on PATH")
    valid = json.dumps(
        {"config": {"n": 12e5, "x": [1.5, True, None]}, "predictions": [{"law": "LGPD", "ranking": ["1"]}]}
    )
    written = written_documents(tmp_path)
    texts = TRAILING_COMMAS + [text[:cut] for text in (valid, *written) for cut in range(len(text) + 1)]
    texts += [edit for text in written for edit in line_edits(text)]
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    for exe in interpreters:
        done = subprocess.run(
            [exe, "-c", READER_PARITY, str(HERE)],
            input=json.dumps(texts), capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, (exe, done.stdout, done.stderr)


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
        cache = DecodeCache()
        ranked, _ = load_prediction_files(t1, t2, registry, cache)
        ranked_again, _ = load_prediction_files(t1, t2, registry, cache)

        expected = {
            law: {raw: original(registry, raw, law) for raw in forms}
            for law, forms in self.FORMS.items()
        }
        assert cache.ids == expected
        assert sorted(calls) == sorted((law, raw) for law, forms in self.FORMS.items() for raw in forms)
        for (anchor, ids, _model) in ranked + ranked_again:
            assert ids == tuple(dict.fromkeys(expected[anchor[0]][raw] for raw in self.FORMS[anchor[0]]))


def test_an_id_list_longer_than_the_universe_decodes_to_distinct_universe_ids(registry, tmp_path):
    """Scoring reads rankings as they are decoded, with no cut at the
    universe's size: a stored list of every surface form of every id, each
    twice, decodes through `load_prediction_files` and through `parse` to
    each universe id once, in first-occurrence order."""
    key = {"repo_url": "r", "app_name": "a", "commit_id": "a" * 40, "file_path": "app/A.kt"}
    pointer = {"file_path": "app/A.kt", "span": [1, 2], "commit_id": "a" * 40}
    forms, ranked, sets, records = {}, [], [], []
    for law in registry.codes:
        jur = registry.get(law)
        padded = [".".join(part.zfill(3) for part in article.split(".")) for article in jur.universe]
        forms[law] = [*jur.universe, *map(jur.render, jur.universe), *padded] * 2
        ranked.append({"law": law, **key, "granularity": "file", "ranking": forms[law]})
        sets.append({"law": law, **pointer, "labels": forms[law]})
        text = ", ".join([jur.render(jur.universe[0]), *forms[law]])
        records += [
            {"model": "m", "task": "task1", "law": law, "key": {**key, "granularity": "file"}, "text": text},
            {"model": "m", "task": "task2", "law": law, "key": pointer, "text": text},
        ]
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    t1.write_text(json.dumps({"predictions": ranked}))
    t2.write_text(json.dumps({"predictions": sets}))
    responses = tmp_path / "raw_responses.jsonl"
    responses.write_text("".join(json.dumps(record) + "\n" for record in records))
    loaded_ranked, loaded_sets = load_prediction_files(t1, t2, registry)
    parsed_ranked, parsed_sets, _summary = parse_responses(responses, registry)
    decoded = [(row[0][0], row[1]) for row in loaded_ranked] + [(row[0], row[2]) for row in loaded_sets]
    decoded += [(pred.key[0], pred.ranking) for pred in parsed_ranked]
    decoded += [(pred.law, pred.labels) for pred in parsed_sets]
    assert len(decoded) == 4 * len(registry.codes)
    for law, ids in decoded:
        universe = registry.get(law).universe
        assert len(forms[law]) > len(universe) >= len(ids)
        assert ids == universe


class TestSharedDecodedObjects:
    """Loaded with a gold index's cache, a prediction's key or pointer is the
    index's own plain tuple, and each law and model name is one string."""

    def test_rows_hold_the_gold_index_objects(self, registry, tmp_path):
        views = shape_views(generate_corpus(CorpusSpec(seed=5, files_per_law={"LGPD": 4, "PDPA": 4}), registry))
        scripted = scripted_model("RANDOM", views, registry, seed=5)
        ranked = [pred._replace(model="m") for pred in scripted.ranked]
        sets = [pred._replace(model="m") for pred in scripted.sets]
        t1, t2 = write_prediction_files(tmp_path, ranked, sets)
        gold = GoldIndex.from_views(views)
        table = dict(gold.cache.anchors)
        assert len(table) == sum(len(s.keys) for s in gold.task1.values()) + sum(
            len(p.slot) for p in gold.task2.values()
        )

        loaded_ranked, loaded_sets = load_prediction_files(t1, t2, registry, gold.cache)
        assert loaded_ranked == ranked and loaded_sets == sets
        anchors = [row[0] for row in loaded_ranked] + [row[1] for row in loaded_sets]
        assert all(anchor is table[anchor] and type(anchor) is tuple for anchor in anchors)
        # A collection untracks an exact tuple whose items it has already
        # untracked or that are atoms: the first one the keys, pointers and
        # id tuples, the second the rows. A named tuple is never untracked.
        gc.collect()
        gc.collect()
        assert not any(gc.is_tracked(row) for row in loaded_ranked + loaded_sets)
        assert len({id(row[2]) for row in loaded_ranked} | {id(row[3]) for row in loaded_sets}) == 1
        for law in views:
            assert len({id(row[0]) for row in loaded_sets if row[0] == law}) == 1

    def test_gold_index_holds_the_views_own_untracked_tuples(self, registry, tmp_path):
        corpus = generate_corpus(CorpusSpec(seed=5, files_per_law={"LGPD": 4, "PDPA": 4}), registry)
        dump_views(shape_views(corpus), tmp_path, registry)
        views = _load_views(str(tmp_path), registry=registry)
        keys = [
            key for view in views.values() for rec in view.task1
            for key in (rec.file, rec.module, *(key for key, _gold in rec.lines))
        ]
        pointers = [rec.pointer for view in views.values() for rec in view.task2]
        gold = GoldIndex.from_views(views)
        indexed = [key for s in gold.task1.values() for key in s.keys] + [p for g in gold.task2.values() for p in g.slot]
        gc.collect()
        assert keys and pointers and len(indexed) == len(gold.cache.anchors)
        for anchor in keys + pointers + indexed:
            assert type(anchor) is tuple and not gc.is_tracked(anchor)
        # The cache holds the views' own objects, not copies.
        own = {id(anchor) for anchor in keys + pointers}
        assert all(key is value and id(value) in own for key, value in gold.cache.anchors.items())

    def test_parse_gives_every_model_one_object_per_key_and_name(self, registry, tmp_path):
        records = [
            {"task": "task1", "law": "LGPD", "text": "Art. 7",
             "key": {"repo_url": "r", "app_name": "a", "commit_id": "a" * 40, "file_path": "app/A.kt",
                     "granularity": "line", "span": [300, 310]}},
            {"task": "task2", "law": "PDPA", "text": "s. 24",
             "key": {"file_path": "app/B.kt", "span": [500, 600], "commit_id": "a" * 40}},
        ]
        path = tmp_path / "raw_responses.jsonl"
        path.write_text("".join(json.dumps(dict(record, model=model)) + "\n"
                                for model in ("model-a", "model-b") for record in records))
        ranked, sets, _summary = parse_responses(path, registry)
        assert [row.model for row in ranked] == [row.model for row in sets] == ["model-a", "model-b"]
        assert type(ranked[0].key) is type(sets[0].pointer) is tuple
        assert ranked[0].key is ranked[1].key == decode_anchor("LGPD", records[0]["key"])
        assert sets[0].pointer is sets[1].pointer == decode_pointer(records[1]["key"])
        assert sets[0].law is sets[1].law
        assert ranked[0].model is sets[0].model and ranked[1].model is sets[1].model

    def test_a_repeated_stray_key_is_stored_once(self, registry, tmp_path):
        entry = {"law": "LGPD", "repo_url": "r", "app_name": "a", "commit_id": "a" * 40,
                 "file_path": "app/Stray.kt", "granularity": "file", "ranking": ["7"]}
        t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
        t1.write_text(json.dumps({"predictions": [entry, dict(entry, model="m")]}))
        t2.write_text(json.dumps({"predictions": []}))
        cache = DecodeCache()
        first, second = load_prediction_files(t1, t2, registry, cache)[0]
        assert first[0] is second[0] is cache.anchors[first[0]]


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
            pointer=SnippetPointer("app/Nope.kt", 1, 1, "a" * 40),
            labels=("7",),
            model="m",
        )
        result = bind_predictions(GoldIndex.from_views(views), [good], [orphan_t2], "strict")
        assert result.task2["LGPD"].report.orphans
        data = result.to_dict()
        assert data["label_cardinality"]["LGPD"]["task1"] == {1: 1}

    def test_coverage_ratio(self, registry):
        views = self._views()
        gold = gold_keys_for_records(views["LGPD"].task1)
        keys = sorted(gold, key=RetrievalKey.sort_key)
        preds = [RankedPrediction(key=k, ranking=("7",), model="m") for k in keys[:3]]
        result = bind_predictions(GoldIndex.from_views(views), preds, [], "strict")
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
        bound = bind_predictions(self._gold, ranked, sets, "strict")
        return score_task1(bound.task1), score_task2(bound.task2, self._registry), bound.to_dict()

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
    end = draw(st.none() | st.integers(start, start + 5))
    key = RetrievalKey(
        law=draw(_TEXT), repo_url=draw(_TEXT), app_name=draw(_TEXT), commit_id=draw(_TEXT),
        file_path=draw(_TEXT), granularity=draw(st.sampled_from(["file", "module", "line"])),
        module=draw(st.none() | _TEXT), start=None if end is None else start, end=end,
    )
    return RankedPrediction(key=key, ranking=tuple(draw(st.lists(_TEXT, max_size=3))), model=draw(st.just("") | _TEXT))


@st.composite
def _set_prediction(draw) -> SetPrediction:
    start = draw(st.integers(min_value=1, max_value=40))
    pointer = SnippetPointer(draw(_TEXT), start, draw(st.integers(start, start + 5)), draw(_TEXT))
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
    """Entries are written a line of entries at a time (two here, so most
    files span several lines): `json.loads` reads the payload back, the bytes
    are one compact key-sorted dump of it with newlines after the head and
    between lines, and `_decode_entries` streams the file without reading it
    whole. No entries, entries without a model, and any text included."""
    with (
        tempfile.TemporaryDirectory() as out,
        mock.patch.object(ingest, "_WRITE_CHUNK", 2),
        mock.patch.object(ingest, "read_json", side_effect=AssertionError("read whole")),
    ):
        t1, t2 = write_prediction_files(out, ranked, sets, config)
        for path, entries in ((t1, map(ranked_prediction_to_dict, ranked)), (t2, map(set_prediction_to_dict, sets))):
            payload = {"config": dict(config or {}), "predictions": list(entries)}
            text = path.read_text(encoding="utf-8")
            # A NaN in the config is not equal to itself, so the values are
            # compared by their encodings.
            assert encode_sorted(json.loads(text)) == encode_sorted(payload)
            # Encoded strings hold no raw newline: each one is layout.
            dump = json.dumps(payload, indent=None, sort_keys=True)
            assert text.replace(",\n", ", ").replace("\n", "") == dump and text.endswith("]}\n")
            assert text.count("\n") == 2 + (len(payload["predictions"]) + 1) // 2
            assert ingest._decode_entries(path, lambda entry: entry) == payload["predictions"]
