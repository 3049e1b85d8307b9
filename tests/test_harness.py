from __future__ import annotations

import json
import sys
import threading
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regeval import harness
from regeval.errors import LawMismatch, MalformedResponse, TransportConfigError
from regeval.harness import (
    FailingTransport,
    JudgmentPromptItem,
    LocalizationPromptItem,
    MockTransport,
    ReplayTransport,
    RunConfig,
    build_prompt_items,
    default_template,
    execute_run,
    load_responses,
    render_prompt,
)
from regeval.retrieval import RetrievalKey
from regeval.shaping import shape_views
from regeval.synthetic import CorpusSpec, generate_corpus, profile_reply_fn
from test_corpus import make_instance


def small_corpus(registry, seed=13, files=4):
    spec = CorpusSpec(seed=seed, files_per_law={"LGPD": files, "PDPA": files})
    return generate_corpus(spec, registry)


def strip_timestamps(records):
    return [{k: v for k, v in rec.items() if k != "timestamps"} for rec in records]


class TestRunConfig:
    def test_reference_defaults(self):
        config = RunConfig(models=("a", "b"))
        assert config.temperature == 0.0
        assert config.max_tokens == 2048
        assert config.timeout_seconds == 180.0
        assert config.retries == 3
        assert config.effective_concurrency == 2
        assert config.overrides() == {}

    def test_duplicate_model_names_rejected(self):
        with pytest.raises(TransportConfigError, match="'a'"):
            RunConfig(models=("a", "b", "a"))

    def test_overrides_reported(self):
        config = RunConfig(models=("a",), backoff_seconds=0.0, timeout_seconds=10.0)
        assert config.overrides() == {"backoff_seconds": 0.0, "timeout_seconds": 10.0}

    @pytest.mark.parametrize(
        "setting",
        [
            {"retries": -1},
            {"max_tokens": 0},
            {"timeout_seconds": 0.0},
            {"timeout_seconds": -1.0},
            {"backoff_seconds": -0.5},
        ],
    )
    def test_out_of_range_settings_rejected(self, setting):
        (name,) = setting
        with pytest.raises(TransportConfigError, match=name):
            RunConfig(models=("a",), **setting)

    def test_boundary_settings_accepted(self):
        config = RunConfig(models=("a",), retries=0, max_tokens=1, backoff_seconds=0.0)
        assert config.overrides() == {"retries": 0, "max_tokens": 1, "backoff_seconds": 0.0}


class TestRenderPrompt:
    def _template(self, registry, law="LGPD"):
        return default_template(registry.get(law))

    def _t1_item(self, law="LGPD"):
        key = RetrievalKey(
            law=law,
            repo_url="r",
            app_name="a",
            commit_id="a" * 40,
            file_path="app/A.kt",
            granularity="file",
        )
        return LocalizationPromptItem(law=law, key=key, context="fun a() {}")

    def test_deterministic(self, registry):
        template = self._template(registry)
        item = self._t1_item()
        assert render_prompt(template, item) == render_prompt(template, item)

    def test_task2_embeds_snippet_verbatim(self, registry):
        template = self._template(registry)
        corpus = [make_instance(snippet="val xyz = secretSink(42)")]
        views = shape_views(corpus)
        [item] = [i for i in build_prompt_items(views, corpus) if isinstance(i, JudgmentPromptItem)]
        prompt = render_prompt(template, item)
        assert "val xyz = secretSink(42)" in prompt

    def test_law_mismatch(self, registry):
        template = self._template(registry, law="PDPA")
        with pytest.raises(LawMismatch):
            render_prompt(template, self._t1_item(law="LGPD"))

    def test_constraint_demands_identifiers_only(self, registry):
        prompt = render_prompt(self._template(registry), self._t1_item())
        assert "identifiers only" in prompt

    def test_note_never_in_prompt(self, registry):
        corpus = [make_instance(note="EXPERT-RATIONALE-XYZZY")]
        views = shape_views(corpus)
        template = self._template(registry)
        for item in build_prompt_items(views, corpus):
            assert "EXPERT-RATIONALE-XYZZY" not in render_prompt(template, item)

    def test_no_gold_citation_in_prompt(self, registry):
        corpus = [make_instance(articles=("7", "12"))]
        views = shape_views(corpus)
        template = self._template(registry)
        jur = registry.get("LGPD")
        for item in build_prompt_items(views, corpus):
            prompt = render_prompt(template, item)
            for article in ("7", "12"):
                assert jur.render(article) not in prompt


class TestExecuteRun:
    def _run(self, registry, tmp_path, out="run", **kw):
        corpus = small_corpus(registry)
        views = shape_views(corpus)
        defaults = dict(
            config=RunConfig(models=("model-x", "model-y"), backoff_seconds=0.0),
            views=views,
            transport=MockTransport(profile_reply_fn(views, registry, "PERFECT")),
            out_dir=tmp_path / out,
            registry=registry,
            corpus=corpus,
        )
        defaults.update(kw)
        return execute_run(**defaults)

    def test_deterministic_modulo_timestamps(self, registry, tmp_path):
        result_a = self._run(registry, tmp_path, out="a")
        result_b = self._run(registry, tmp_path, out="b")
        records_a = strip_timestamps(load_responses(result_a.responses_path))
        records_b = strip_timestamps(load_responses(result_b.responses_path))
        assert records_a == records_b
        assert (tmp_path / "a" / "run_config.json").read_bytes() == (
            tmp_path / "b" / "run_config.json"
        ).read_bytes()

    def test_every_pair_attempted(self, registry, tmp_path):
        corpus = small_corpus(registry)
        views = shape_views(corpus)
        result = self._run(registry, tmp_path, views=views, corpus=corpus)
        from regeval.retrieval import gold_keys_for_records

        anchors = sum(len(gold_keys_for_records(v.task1)) for v in views.values())
        snippets = sum(len(v.task2) for v in views.values())
        assert len(result.records) == 2 * (anchors + snippets)

    def test_retry_then_success(self, registry, tmp_path):
        corpus = small_corpus(registry, files=2)
        views = shape_views(corpus)
        transport = MockTransport(profile_reply_fn(views, registry, "PERFECT"), fail_times=2)
        result = self._run(
            registry,
            tmp_path,
            views=views,
            corpus=corpus,
            transport=transport,
            config=RunConfig(models=("model-x",), backoff_seconds=0.0),
        )
        assert all(rec["status"] == "ok" for rec in result.records)
        assert all(rec["attempts"] == 3 for rec in result.records)

    def test_exhausted_retries_scores_empty(self, registry, tmp_path):
        corpus = small_corpus(registry, files=2)
        views = shape_views(corpus)
        result = self._run(
            registry,
            tmp_path,
            views=views,
            corpus=corpus,
            transport=FailingTransport(),
            config=RunConfig(models=("model-x",), backoff_seconds=0.0),
        )
        assert all(rec["status"] == "exhausted_retries" for rec in result.records)
        assert all(rec["text"] == "" for rec in result.records)
        assert all(rec["attempts"] == 4 for rec in result.records)  # initial + 3 retries

    def test_no_models_aborts_before_any_call(self, registry, tmp_path):
        corpus = small_corpus(registry, files=2)
        views = shape_views(corpus)
        transport = FailingTransport()
        with pytest.raises(TransportConfigError):
            execute_run(
                RunConfig(models=()), views, transport, tmp_path / "x", registry, corpus=corpus
            )
        assert transport.attempts == 0

    def test_lane_discipline(self, registry, tmp_path):
        corpus = small_corpus(registry, files=3)
        views = shape_views(corpus)
        state = {"in_flight": {}, "max_total": 0, "per_model_violation": False}
        lock = threading.Lock()
        inner = profile_reply_fn(views, registry, "PERFECT")

        class ProbeTransport:
            def send(self, request):
                with lock:
                    model_count = state["in_flight"].get(request.model, 0) + 1
                    state["in_flight"][request.model] = model_count
                    if model_count > 1:
                        state["per_model_violation"] = True
                    state["max_total"] = max(state["max_total"], sum(state["in_flight"].values()))
                try:
                    return inner(request)
                finally:
                    with lock:
                        state["in_flight"][request.model] -= 1

        models = ("m1", "m2", "m3")
        execute_run(
            RunConfig(models=models, backoff_seconds=0.0),
            views,
            ProbeTransport(),
            tmp_path / "lanes",
            registry,
            corpus=corpus,
        )
        assert not state["per_model_violation"]
        assert state["max_total"] <= len(models)

    def test_models_share_each_items_key_json(self, registry, tmp_path):
        corpus = small_corpus(registry, files=2)
        views = shape_views(corpus)
        inner = profile_reply_fn(views, registry, "PERFECT")
        sent = []

        class Recording:
            def send(self, request):
                sent.append(request)
                return inner(request)

        self._run(registry, tmp_path, views=views, corpus=corpus, transport=Recording())
        by_item = {}
        for request in sent:
            by_item.setdefault(request.identity[1:], []).append(request)
        assert sent and all(len(pair) == 2 for pair in by_item.values())
        for x, y in by_item.values():
            assert {x.model, y.model} == {"model-x", "model-y"}
            assert x.key_json is y.key_json
            assert x.identity[3] is y.identity[3]
            assert x.key_json == json.dumps(x.key, sort_keys=True)

    def test_response_lines_are_the_sorted_key_dumps_of_the_records(self, registry, tmp_path):
        result = self._run(registry, tmp_path, out="lines")
        lines = result.responses_path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines == [json.dumps(r, sort_keys=True) + "\n" for r in result.records]

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.text(),
        names=st.lists(st.text(max_size=8), min_size=5, max_size=5),
        attempts=st.integers(min_value=0, max_value=10**6),
        key=st.dictionaries(
            st.text(max_size=6), st.text(max_size=6) | st.lists(st.integers(), max_size=2), max_size=4
        ),
    )
    def test_record_line_equals_sorted_key_dump(self, text, names, attempts, key):
        """Non-ASCII text, escapes and control characters included."""
        model, task, law, started, finished = names
        record = {
            "model": model, "task": task, "law": law, "key": key, "text": text, "status": "ok",
            "attempts": attempts, "timestamps": {"started": started, "finished": finished},
        }
        line = harness._record_line(record, json.dumps(key, sort_keys=True))
        assert line == json.dumps(record, sort_keys=True) + "\n"

    def test_run_log_has_per_model_counters(self, registry, tmp_path):
        result = self._run(registry, tmp_path, out="logged")
        log_text = result.log_path.read_text()
        assert "model-x" in log_text and "model-y" in log_text
        assert "run complete" in log_text

    def test_run_log_merges_lanes_in_time_order(self, registry, tmp_path):
        corpus = small_corpus(registry, files=2)
        views = shape_views(corpus)
        transport = MockTransport(profile_reply_fn(views, registry, "PERFECT"), fail_times=2)
        result = self._run(registry, tmp_path, views=views, corpus=corpus, transport=transport)
        lines = result.log_path.read_text().splitlines()
        stamps = [datetime.fromisoformat(line.split(" ", 1)[0]) for line in lines]
        assert stamps == sorted(stamps)
        assert lines[0].split(" ", 1)[1].startswith("run start ")
        assert lines[-1].split(" ", 1)[1].startswith("run complete (")
        per_request = len(result.records) // 2
        for model in ("model-x", "model-y"):
            events = [
                line.split(" ", 1)[1] for line in lines if line.split(" ", 2)[1] == model
            ]
            # each request: exactly two failed attempts, then its progress line
            expected = []
            for n in range(1, per_request + 1):
                expected += [
                    f"{model} attempt 1/4 failed: TransportFailure: scripted failure 1/2",
                    f"{model} attempt 2/4 failed: TransportFailure: scripted failure 2/2",
                    f"{model} progress {n}/{per_request} ok={n} failed=0",
                ]
            assert events == expected

    def test_many_lanes_keep_exact_retry_counts(self, registry, tmp_path):
        corpus = small_corpus(registry, files=2)
        views = shape_views(corpus)
        transport = MockTransport(profile_reply_fn(views, registry, "PERFECT"), fail_times=2)
        models = tuple(f"m{i}" for i in range(6))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = self._run(
                registry,
                tmp_path,
                views=views,
                corpus=corpus,
                transport=transport,
                config=RunConfig(models=models, backoff_seconds=0.0),
            )
        finally:
            sys.setswitchinterval(interval)
        assert {r["model"] for r in result.records} == set(models)
        assert all(r["status"] == "ok" and r["attempts"] == 3 for r in result.records)
        assert len(transport.attempts) == len(result.records)
        assert set(transport.attempts.values()) == {3}

    def test_unexpected_send_exception_is_a_failed_attempt(self, registry, tmp_path):
        corpus = small_corpus(registry, files=2)
        views = shape_views(corpus)
        inner = profile_reply_fn(views, registry, "PERFECT")
        sent = []

        class TimeoutOnSeventh:
            def send(self, request):
                sent.append(request)
                if len(sent) == 7:
                    raise TimeoutError("read timed out")
                return inner(request)

        result = self._run(
            registry,
            tmp_path,
            out="timeout",
            views=views,
            corpus=corpus,
            transport=TimeoutOnSeventh(),
            config=RunConfig(models=("model-x",), backoff_seconds=0.0),
        )
        for name in ("raw_responses.jsonl", "run_config.json", "run.log"):
            assert (tmp_path / "timeout" / name).is_file()
        timed_out = sent[6]
        [record] = [
            r for r in result.records
            if (r["task"], r["law"], r["key"]) == (timed_out.task, timed_out.law, timed_out.key)
        ]
        assert record["status"] == "ok" and record["attempts"] == 2
        assert record["text"] == inner(timed_out)
        assert all(r["attempts"] == 1 for r in result.records if r is not record)
        assert "model-x attempt 1/4 failed: TimeoutError: read timed out" in result.log_path.read_text()

    def test_always_raising_transport_exhausts_retries(self, registry, tmp_path):
        class Broken:
            def send(self, request):
                raise ConnectionResetError("peer went away")

        result = self._run(
            registry,
            tmp_path,
            transport=Broken(),
            config=RunConfig(models=("model-x",), retries=1, backoff_seconds=0.0),
        )
        assert result.records
        assert all(r["status"] == "exhausted_retries" for r in result.records)
        assert all(r["attempts"] == 2 and r["text"] == "" for r in result.records)


class TestReplayTransport:
    def test_round_trip(self, registry, tmp_path):
        corpus = small_corpus(registry, files=2)
        views = shape_views(corpus)
        config = RunConfig(models=("model-y", "model-x"), backoff_seconds=0.0)
        first = execute_run(
            config,
            views,
            MockTransport(profile_reply_fn(views, registry, "RANDOM"), fail_times=2),
            tmp_path / "orig",
            registry,
            corpus=corpus,
        )
        assert all(r["status"] == "ok" and r["attempts"] == 3 for r in first.records)
        second = execute_run(
            config,
            views,
            ReplayTransport(first.responses_path),
            tmp_path / "replayed",
            registry,
            corpus=corpus,
        )
        assert len(second.records) == len(first.records)
        for old, new in zip(first.records, second.records):
            assert new["status"] == "ok" and new["attempts"] == 1
            assert {k: new[k] for k in ("model", "task", "law", "key", "text")} == {
                k: old[k] for k in ("model", "task", "law", "key", "text")
            }
        order = [
            (r["model"], r["task"], r["law"], json.dumps(r["key"], sort_keys=True))
            for r in load_responses(second.responses_path)
        ]
        assert order == sorted(order)
        assert {r["model"] for r in second.records} == {"model-x", "model-y"}

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(TransportConfigError):
            ReplayTransport(tmp_path / "missing.jsonl")

    def test_incomplete_replay_aborts(self, registry, tmp_path):
        corpus = small_corpus(registry, files=2)
        views = shape_views(corpus)
        first = execute_run(
            RunConfig(models=("model-x",), backoff_seconds=0.0),
            views,
            MockTransport(profile_reply_fn(views, registry, "PERFECT")),
            tmp_path / "orig",
            registry,
            corpus=corpus,
        )
        replay = ReplayTransport(first.responses_path)
        with pytest.raises(TransportConfigError):
            execute_run(
                RunConfig(models=("model-x", "model-unknown"), backoff_seconds=0.0),
                views,
                replay,
                tmp_path / "replayed",
                registry,
                corpus=corpus,
            )


class TestLoadResponses:
    RECORD = {"model": "m", "task": "task1", "law": "LGPD", "key": {"file_path": "a"}, "text": "Art. 7"}

    def _write(self, tmp_path, *lines):
        path = tmp_path / "raw_responses.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_lazy_first_record_before_a_malformed_line(self, tmp_path):
        path = self._write(tmp_path, json.dumps(self.RECORD), "", "[1, 2]")
        records = load_responses(path)
        assert next(records) == self.RECORD
        with pytest.raises(MalformedResponse, match=r"raw_responses\.jsonl: line 3: not a JSON object"):
            next(records)

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("{not json", "line 2: not JSON"),
            ('"text"', "line 2: not a JSON object"),
            (json.dumps({k: v for k, v in RECORD.items() if k != "law"}), "line 2: missing field 'law'"),
            (json.dumps({**RECORD, "task": 1}), "line 2: field 'task' must be a string"),
            (json.dumps({**RECORD, "key": ["a"]}), "line 2: field 'key' must be an object"),
            (json.dumps({**RECORD, "model": None}), "line 2: field 'model' must be a string"),
            (json.dumps({**RECORD, "text": 5}), "line 2: field 'text' must be a string, got 5"),
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, line, problem):
        path = self._write(tmp_path, json.dumps(self.RECORD), line)
        with pytest.raises(MalformedResponse) as info:
            list(load_responses(path))
        assert str(info.value).startswith(f"{path}: {problem}")

    def test_non_utf8_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "raw_responses.jsonl"
        path.write_bytes(json.dumps(self.RECORD).encode() + b'\n{"law": "\xe9"}\n')
        with pytest.raises(MalformedResponse, match=r"line 2: not UTF-8 \(byte 10\)"):
            list(load_responses(path))

    def test_model_and_text_optional_unless_required(self, tmp_path):
        bare = {k: v for k, v in self.RECORD.items() if k not in ("model", "text")}
        path = self._write(tmp_path, json.dumps(bare))
        assert list(load_responses(path)) == [bare]
        with pytest.raises(MalformedResponse, match="line 1: missing field 'model'"):
            list(load_responses(path, require=("model", "text")))

    def test_task2_record_may_carry_pointer_instead_of_key(self, tmp_path):
        pointer = {"file_path": "a.kt", "span": [1, 2], "commit_id": "c"}
        record = {"task": "task2", "law": "LGPD", "pointer": pointer, "text": "Art. 7"}
        path = self._write(tmp_path, json.dumps(record), json.dumps({**record, "task": "task1"}))
        records = load_responses(path)
        assert next(records) == record
        with pytest.raises(MalformedResponse, match="line 2: missing field 'key'"):
            next(records)

    def test_replay_requires_model_and_text(self, tmp_path):
        bare = {k: v for k, v in self.RECORD.items() if k != "text"}
        path = self._write(tmp_path, json.dumps(self.RECORD), json.dumps(bare))
        with pytest.raises(MalformedResponse, match="line 2: missing field 'text'"):
            ReplayTransport(path)
