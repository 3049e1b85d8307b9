"""Contracts of the validated records.

Each of `LineSpan`, `RawInstance`, `RunConfig`, `CompositeConfig` and
`CorpusSpec` is a named tuple that checks its fields: a bad value raises the
same error whether the record comes from its constructor, `_make` or
`_replace`.
"""

from __future__ import annotations

import pytest

from regeval.composites import CompositeConfig
from regeval.corpus import LineSpan, RawInstance
from regeval.errors import InvalidPath, InvalidSpec, RegevalError, TransportConfigError
from regeval.harness import RunConfig, TransportRequest
from regeval.synthetic import CorpusSpec
from test_corpus import make_instance

GOOD = {
    "LineSpan": lambda: LineSpan(3, 7),
    "RawInstance": make_instance,
    "RunConfig": lambda: RunConfig(models=("a", "b")),
    "CompositeConfig": CompositeConfig,
    "CorpusSpec": lambda: CorpusSpec(seed=1, files_per_law={"LGPD": 2}),
}

# (record, field, bad value, error raised)
BAD_VALUES = [
    ("LineSpan", "start", 0, RegevalError),
    ("LineSpan", "end", 2, RegevalError),
    ("RawInstance", "articles", frozenset(), RegevalError),
    ("RawInstance", "commit_id", "not-hex", RegevalError),
    ("RawInstance", "file_path", "./app/src/A.kt", InvalidPath),
    ("RunConfig", "models", ("a", "a"), TransportConfigError),
    ("RunConfig", "retries", -1, TransportConfigError),
    ("RunConfig", "max_tokens", 0, TransportConfigError),
    ("RunConfig", "timeout_seconds", 0.0, TransportConfigError),
    ("RunConfig", "backoff_seconds", -0.5, TransportConfigError),
    ("RunConfig", "context_window", -1, TransportConfigError),
    ("CompositeConfig", "alpha", -1.0, RegevalError),
    ("CompositeConfig", "gamma", float("nan"), RegevalError),
    ("CompositeConfig", "ridge", 0.0, RegevalError),
    ("CompositeConfig", "epsilon", float("inf"), RegevalError),
    ("CorpusSpec", "files_per_law", {}, InvalidSpec),
    ("CorpusSpec", "files_per_law", {"LGPD": 0}, InvalidSpec),
    ("CorpusSpec", "instances_per_file", (2, 1), InvalidSpec),
    ("CorpusSpec", "max_labels_per_instance", 5, InvalidSpec),
    ("CorpusSpec", "skew", 1.0, InvalidSpec),
    ("CorpusSpec", "repos", 0, InvalidSpec),
]


@pytest.mark.parametrize(("record", "name", "value", "error"), BAD_VALUES)
def test_a_bad_value_raises_the_same_error_however_the_record_is_built(record, name, value, error):
    good = GOOD[record]()
    fields = good._asdict()
    fields[name] = value
    builds = {
        "constructor": lambda: type(good)(**fields),
        "_make": lambda: type(good)._make(fields.values()),
        "_replace": lambda: good._replace(**{name: value}),
    }
    messages = {}
    for how, build in builds.items():
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error, how
        messages[how] = str(caught.value)
    assert len(set(messages.values())) == 1, messages


@pytest.mark.parametrize("record", sorted(GOOD))
def test_a_good_record_rebuilds_equal(record):
    good = GOOD[record]()
    assert type(good)._make(good) == good
    assert good._replace() == good
    assert type(good)(**good._asdict()) == good


class TestLineSpan:
    def test_orders_hashes_and_compares_as_start_end(self):
        pairs = [(4, 9), (1, 3), (4, 4), (1, 2), (2, 8)]
        spans = [LineSpan(*pair) for pair in pairs]
        assert [tuple(span) for span in sorted(spans)] == sorted(pairs)
        assert LineSpan(1, 3) < LineSpan(1, 4) < LineSpan(2, 2)
        assert LineSpan(4, 9) > LineSpan(4, 4)
        assert LineSpan(2, 5) == LineSpan(2, 5) and LineSpan(2, 5) != LineSpan(2, 6)
        assert hash(LineSpan(2, 5)) == hash(LineSpan(2, 5)) == hash((2, 5))
        assert {LineSpan(2, 5): "x"}[LineSpan(2, 5)] == "x"

    def test_fields_and_helpers(self):
        span = LineSpan(start=3, end=7)
        assert (span.start, span.end) == (3, 7)
        assert span.as_list() == [3, 7]
        assert span.render() == "3-7"
        with pytest.raises(AttributeError):
            span.start = 1


def test_run_config_overrides_name_every_changed_setting():
    config = RunConfig(
        models=("a", "b"),
        temperature=0.7,
        max_tokens=64,
        timeout_seconds=5.0,
        retries=1,
        backoff_seconds=0.0,
        context_window=0,
    )
    assert config.overrides() == {
        "temperature": 0.7,
        "max_tokens": 64,
        "timeout_seconds": 5.0,
        "retries": 1,
        "backoff_seconds": 0.0,
        "context_window": 0,
    }
    assert RunConfig(models=("a",)).overrides() == {}


def test_to_dict_of_a_non_default_record():
    run = RunConfig(
        models=("b", "a"),
        temperature=0.7,
        max_tokens=64,
        timeout_seconds=5.0,
        retries=1,
        backoff_seconds=0.0,
        context_window=0,
    )
    assert run.to_dict() == {
        "models": ["b", "a"],
        "temperature": 0.7,
        "max_tokens": 64,
        "timeout_seconds": 5.0,
        "retries": 1,
        "backoff_seconds": 0.0,
        "concurrency": 2,
        "context_window": 0,
    }
    spec = CorpusSpec(
        seed=7,
        files_per_law={"PDPA": 3, "LGPD": 2},
        instances_per_file=(2, 4),
        max_labels_per_file=5,
        max_labels_per_instance=3,
        skew=0.25,
        repos=2,
    )
    assert spec.to_dict() == {
        "seed": 7,
        "files_per_law": {"PDPA": 3, "LGPD": 2},
        "instances_per_file": [2, 4],
        "max_labels_per_file": 5,
        "max_labels_per_instance": 3,
        "skew": 0.25,
        "repos": 2,
    }
    composite = CompositeConfig(alpha=0.5, beta=1.0, gamma=3.0, delta=0.0, ridge=0.2, epsilon=1e-5)
    assert composite.to_dict() == {
        "alpha": 0.5,
        "beta": 1.0,
        "gamma": 3.0,
        "delta": 0.0,
        "ridge": 0.2,
        "epsilon": 1e-5,
        "pool_covariance_across_laws": False,
    }


def test_transport_request_identity_follows_its_fields():
    request = TransportRequest(
        model="m",
        task="task1",
        law="LGPD",
        key={"file_path": "a.kt"},
        prompt="p",
        temperature=0.0,
        max_tokens=8,
        timeout_seconds=1.0,
        key_json='{"file_path": "a.kt"}',
    )
    assert request.identity == ("m", "task1", "LGPD", '{"file_path": "a.kt"}')
    assert request._replace(model="n").identity == ("n", "task1", "LGPD", '{"file_path": "a.kt"}')
    assert TransportRequest._make(request) == request
