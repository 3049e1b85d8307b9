"""Provider-agnostic inference harness.

One serial request lane per model, lanes running concurrently; uniform
decoding controls; bounded retries with fixed backoff; and a response log
whose content is independent of completion interleaving. Every lane sends its
requests in one canonical order, builds each request just before sending it,
and appends each record and log line to its own partial files in the out
dir. On close the record partials are concatenated in model order (which is
identity order), the log partials are merged by timestamp, and the partials
are removed. Real provider adapters live out of tree; the package ships a
scripted mock and a replay transport.

A run holds each request once: `execute_run` takes the prompt items, not the
views or the corpus they were built from, and keeps one (task, law, key
JSON, item) row per item, shared by every lane. The `run` command builds the
prompt items and lets go of the corpus, picks the transport (the mock's
answers come from the views), and lets go of the views before the rows
exist. A replay transport builds its index in `prepare`, which
`execute_run` calls with the run's own request identities before it writes
anything: the index holds one text per identity the run requests, keyed by
the rows' own key JSON strings.
"""

from __future__ import annotations

import heapq
import json
import shutil
import threading
import time
from collections import Counter
from contextlib import ExitStack
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Protocol, Sequence

from .corpus import Checked, RawInstance, atomic_write, encode_sorted, write_json
from .errors import LawMismatch, MalformedResponse, RegevalError, TransportConfigError
from .jurisdiction import THEMES, Jurisdiction, JurisdictionRegistry
from .retrieval import gold_keys_for_records
from .shaping import RetrievalKey, ShapedViews, SnippetPointer


class _RunConfig(NamedTuple):
    models: tuple[str, ...] = ()
    temperature: float = 0.0
    max_tokens: int = 2048
    timeout_seconds: float = 180.0
    retries: int = 3
    backoff_seconds: float = 2.0
    context_window: int = 3


class RunConfig(Checked, _RunConfig):
    """Uniform inference settings; defaults are the reference decoding setup."""

    __slots__ = ()

    def _check(self) -> None:
        repeated = sorted(name for name, count in Counter(self.models).items() if count > 1)
        if repeated:
            raise TransportConfigError(f"model names repeat: {repeated}")
        if self.retries < 0:
            raise TransportConfigError(f"retries must be >= 0, got {self.retries}")
        if self.max_tokens < 1:
            raise TransportConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.timeout_seconds <= 0:
            raise TransportConfigError(f"timeout_seconds must be > 0, got {self.timeout_seconds}")
        if self.backoff_seconds < 0:
            raise TransportConfigError(f"backoff_seconds must be >= 0, got {self.backoff_seconds}")
        if self.context_window < 0:
            raise TransportConfigError(f"context_window must be >= 0, got {self.context_window}")

    @property
    def effective_concurrency(self) -> int:
        """One lane per model."""
        return max(len(self.models), 1)

    def overrides(self) -> dict:
        """Settings that differ from the reference defaults."""
        defaults = self._field_defaults
        return {name: value for name, value in self._asdict().items() if name != "models" and value != defaults[name]}

    def to_dict(self) -> dict:
        return {**self._asdict(), "models": list(self.models), "concurrency": self.effective_concurrency}


class PromptTemplate(NamedTuple):
    """Fixed per-law instruction template; never carries expert notes."""

    law: str
    scope_summary: str
    decision_cues: tuple[str, ...]
    exceptions: tuple[str, ...]
    output_constraint: str


_SCOPE_SUMMARIES = {
    "LGPD": "Brazil's general data protection law governing the processing of personal data.",
    "PDPA": "Singapore's personal data protection act governing collection, use, and disclosure.",
    "PIPEDA": "Canada's federal privacy law for personal information in commercial activity.",
}

_EXCEPTIONS = (
    "processing required to comply with a legal or regulatory obligation",
    "data made manifestly public by the data subject",
    "processing strictly necessary to protect life or physical safety",
    "aggregated or fully anonymized data outside the scope of the statute",
)


def default_template(jur: Jurisdiction) -> PromptTemplate:
    example = jur.render("<n>")
    return PromptTemplate(
        law=jur.code,
        scope_summary=_SCOPE_SUMMARIES.get(jur.code, f"Data protection regime {jur.code}."),
        decision_cues=THEMES,
        exceptions=_EXCEPTIONS,
        output_constraint=(
            f"Answer with the implicated {jur.code} article identifiers only, "
            f'written as "{example}" and separated by commas. '
            "Do not add explanations or any other text."
        ),
    )


class LocalizationPromptItem(NamedTuple):
    """Task-1 request: one gold anchor, a key tuple in `RetrievalKey` layout,
    plus compact code context."""

    law: str
    key: tuple
    context: str = ""


class JudgmentPromptItem(NamedTuple):
    """Task-2 request: one snippet window at a pointer tuple in
    `SnippetPointer` layout."""

    law: str
    pointer: tuple
    snippet: str


PromptItem = LocalizationPromptItem | JudgmentPromptItem


def _preamble(template: PromptTemplate) -> str:
    """The fixed head of every prompt of `template`'s law, through the blank
    line after its exceptions."""
    return (
        f"You are auditing an Android application for {template.law} compliance.\n"
        f"Law scope: {template.scope_summary}\n"
        "Decision cues: " + ", ".join(template.decision_cues) + ".\n"
        "Legitimate exceptions: " + "; ".join(template.exceptions) + ".\n\n"
    )


def render_prompt(template: PromptTemplate, item: PromptItem) -> str:
    """Deterministic prompt text for one request."""
    if template.law != item.law:
        raise LawMismatch(f"template law {template.law} != item law {item.law}")
    return _render(_preamble(template), template, item)


def _render(preamble: str, template: PromptTemplate, item: PromptItem) -> str:
    """`render_prompt`'s text, after a preamble of `template` already joined."""
    if isinstance(item, LocalizationPromptItem):
        file_path, granularity, module, start, end = item.key[4:]
        lines = [f"Anchor granularity: {granularity}", f"File path: {file_path}"]
        if module is not None:
            lines.append(f"Module: {module}")
        if start is not None:
            lines.append(f"Lines: {start}-{end}")
        if item.context:
            lines.append("Context:")
            lines.append(item.context)
        lines.append("")
        lines.append(
            "Rank the provisions this anchor implicates, most likely first."
        )
    else:
        file_path, start, end, _commit_id = item.pointer
        lines = [
            f"File path: {file_path}",
            f"Lines: {start}-{end}",
            "Code window:",
            item.snippet,
            "",
            "List every provision this code window implicates.",
        ]
    lines.append(template.output_constraint)
    return preamble + "\n".join(lines)


def _trim_context(snippet: str, window: int) -> str:
    lines = snippet.splitlines()
    limit = 2 * window + 1
    if len(lines) <= limit:
        return snippet
    center = len(lines) // 2
    start = max(0, center - window)
    return "\n".join(lines[start : start + limit])


def build_prompt_items(
    views: Mapping[str, ShapedViews],
    corpus: Sequence[RawInstance] | None = None,
    context_window: int = 3,
    tasks: Sequence[str] = ("task1", "task2"),
) -> list[PromptItem]:
    """Expand gold views into one prompt item per anchor and per snippet.

    Compact task-1 context comes from stored snippets of the contributing
    instances when the raw corpus is supplied; repositories are never fetched.
    """
    context_by_pointer: dict[tuple, str] = {}
    context_by_file: dict[tuple, str] = {}
    ordered_corpus = sorted(
        corpus or (),
        key=lambda i: (i.law, i.repo_url, i.app_name, i.commit_id, i.file_path, i.span),
    )
    for inst in ordered_corpus:
        trimmed = _trim_context(inst.snippet, context_window)
        context_by_pointer.setdefault(
            (inst.law, inst.repo_url, inst.app_name, inst.commit_id, inst.file_path, *inst.span),
            trimmed,
        )
        context_by_file.setdefault(
            (inst.law, inst.repo_url, inst.app_name, inst.commit_id, inst.file_path), trimmed
        )

    items: list[PromptItem] = []
    for law, view in sorted(views.items()):
        if "task1" in tasks:
            for key in sorted(gold_keys_for_records(view.task1), key=RetrievalKey.sort_key):
                file_id = key[:5]  # (law, repo_url, app_name, commit_id, file_path)
                if key[5] == "line" and key[7] is not None:
                    context = context_by_pointer.get(file_id + key[7:], "")
                    context = context or context_by_file.get(file_id, "")
                else:
                    context = context_by_file.get(file_id, "")
                items.append(LocalizationPromptItem(law=law, key=key, context=context))
        if "task2" in tasks:
            for rec in view.task2:
                items.append(JudgmentPromptItem(law=law, pointer=rec.pointer, snippet=rec.snippet))
    return items


# --- transports ----------------------------------------------------------------


def request_key(item: PromptItem) -> dict:
    """The key fields of a prompt item's request: a task-1 anchor without its
    law, or a task-2 snippet pointer."""
    if isinstance(item, LocalizationPromptItem):
        key = RetrievalKey.to_dict(item.key)
        del key["law"]
        return key
    return SnippetPointer.to_dict(item.pointer)


class _TransportRequest(NamedTuple):
    model: str
    task: str
    law: str
    key: Mapping
    prompt: str
    temperature: float
    max_tokens: int
    timeout_seconds: float
    key_json: str
    identity: tuple[str, str, str, str]


class TransportRequest(_TransportRequest):
    """One attempt-independent request; adapters may ignore the key fields.

    `key_json` is `encode_sorted(key)`, the key's text in the identity; the
    requests of one prompt item share one string. `identity`, (model, task,
    law, key_json), is made once at construction and is not an argument:
    `_make` and `_replace` make it again from the other fields.
    """

    __slots__ = ()

    def __new__(cls, model, task, law, key, prompt, temperature, max_tokens, timeout_seconds, key_json):
        fields = (model, task, law, key, prompt, temperature, max_tokens, timeout_seconds, key_json)
        return tuple.__new__(cls, (*fields, (model, task, law, key_json)))

    @classmethod
    def _make(cls, iterable):
        return cls(*tuple(iterable)[:9])


class TransportFailure(RegevalError):
    """Transient send failure; the harness may retry."""


class Transport(Protocol):
    def send(self, request: TransportRequest) -> str: ...


class MockTransport:
    """Scripted transport for tests and synthetic runs.

    `reply` maps a request to response text. `fail_times` makes every request
    fail that many times before succeeding; failures are counted per request
    identity in `in_flight`, which holds only the requests that have failed
    and not yet been answered (each record's `attempts` holds the final
    count).
    """

    def __init__(self, reply: Callable[[TransportRequest], str], fail_times: int = 0):
        if fail_times < 0:
            raise TransportConfigError(f"fail_times must be >= 0, got {fail_times}")
        self.reply = reply
        self.fail_times = fail_times
        self.in_flight: dict[tuple, int] = {}
        self._lock = threading.Lock()

    def send(self, request: TransportRequest) -> str:
        if not self.fail_times:
            return self.reply(request)
        identity = request.identity
        with self._lock:
            count = self.in_flight.pop(identity, 0) + 1
            if count <= self.fail_times:
                self.in_flight[identity] = count
        if count <= self.fail_times:
            raise TransportFailure(f"scripted failure {count}/{self.fail_times}")
        return self.reply(request)


class FailingTransport:
    """Transport whose every attempt fails."""

    def send(self, request: TransportRequest) -> str:
        raise TransportFailure("permanent scripted failure")


class ReplayTransport:
    """Re-serves the text of a previous run's raw_responses.jsonl.

    The index is built by `prepare` from the run's own request identities,
    as {(model, task, law): {key JSON: text}}: one text per identity the
    run requests, keyed by the request rows' own key JSON strings. Records
    for other models or keys are read, checked and dropped; of records with
    one identity, the last wins. `send` answers only what `prepare`
    indexed."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        if not self.path.exists():
            raise TransportConfigError(f"replay file not found: {self.path}")
        self._index: dict[tuple[str, str, str], dict[str, str]] = {}

    def prepare(self, identities: Iterable[tuple[str, str, str, str]]) -> None:
        """Index the file's text for each of `identities`, or refuse, before
        anything is sent, a run whose requests the file does not all answer.
        The message names the first missing identity; `identities` come
        grouped by (model, task, law), as `execute_run` gives them."""
        # Until a record answers it, a key's value is how often it is requested.
        wanted: dict[tuple[str, str, str], dict[str, str | int]] = {}
        total = 0
        for identity in identities:
            total += 1
            group = identity[:3]
            keys = wanted.get(group)
            if keys is None:
                keys = wanted[group] = {}
            keys[identity[3]] = keys.get(identity[3], 0) + 1
        for record in load_responses(self.path, require=("model", "text", "key")):
            keys = wanted.get((record["model"], record["task"], record["law"]))
            if keys is not None:
                key_json = encode_sorted(record["key"])
                if key_json in keys:
                    keys[key_json] = record["text"]
        lacking = 0
        first = None
        for group, keys in wanted.items():
            for key_json, value in keys.items():
                if type(value) is int:
                    lacking += value
                    first = first or (*group, key_json)
        if lacking:
            raise TransportConfigError(f"replay file lacks {lacking} of {total} requests, first: {' '.join(first)}")
        self._index = wanted

    def send(self, request: TransportRequest) -> str:
        try:
            return self._index[request.identity[:3]][request.key_json]
        except KeyError:
            raise TransportFailure(f"no replayed response for {request.identity}") from None


# --- run execution ---------------------------------------------------------------


@lru_cache(maxsize=1)
def _second_text(seconds: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))


def _timestamp() -> str:
    """The UTC time as `YYYY-MM-DDTHH:MM:SS.ffffff+00:00`, fixed width; the
    text of the second is made once per second."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    return f"{_second_text(seconds)}.{micros:06d}+00:00"


class RunResult(NamedTuple):
    """Where a run wrote its artifacts, and how many records it wrote."""

    record_count: int
    responses_path: Path
    config_path: Path
    log_path: Path


def _prompt_rows(items: Iterable[PromptItem]) -> list[tuple[str, str, str, PromptItem]]:
    """One (task, law, key JSON, item) row per prompt item, sorted by (task,
    law, key JSON): the request identity without the model, so every lane
    sends in identity order. Each item's key JSON is made once and shared by
    every lane; a lane makes the key itself (`request_key`) as it sends."""
    rows = [
        (
            "task1" if isinstance(item, LocalizationPromptItem) else "task2",
            item.law,
            encode_sorted(request_key(item)),
            item,
        )
        for item in items
    ]
    rows.sort(key=itemgetter(0, 1, 2))
    return rows


def execute_run(
    config: RunConfig,
    items: Iterable[PromptItem],
    transport: Transport,
    out_dir: str | Path,
    registry: JurisdictionRegistry,
) -> RunResult:
    """Attempt every (model, prompt item) pair and write the run artifacts.

    Each model gets one serial request lane; lanes run concurrently. Any
    exception from `send` is a failed attempt, retried up to `retries` times
    after the initial attempt; an instance that exhausts its retries is
    recorded with empty text and scored downstream as an empty prediction.

    Every lane sends in (task, law, key JSON) order, renders each prompt just
    before sending it, and appends each record line and log line to its own
    hidden partial files in `out_dir` (`.raw_responses.<lane>.partial`,
    `.run.log.<lane>.partial`), without a lock. On close,
    `raw_responses.jsonl` is the record partials concatenated in sorted model
    order, which is canonical identity order, and `run.log` is the start
    lines, the lanes' log lines merged in timestamp order and the closing
    `run complete` line. The partials are removed whether the run finishes
    or not; a `BaseException` that is not an `Exception` (from `send`, or an
    interrupt) stops every lane at its next request and is re-raised, and
    no artifact is written.
    """
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait  # loaded by `run` alone

    if not config.models:
        raise TransportConfigError("run config lists no models")
    rows = _prompt_rows(items)
    # Each law's template and its prompts' preamble, joined once.
    templates = {}
    for law in {row[1] for row in rows}:
        template = default_template(registry.get(law))
        templates[law] = (_preamble(template), template)
    prepare = getattr(transport, "prepare", None)
    if callable(prepare):
        prepare((model, *row[:3]) for model in sorted(config.models) for row in rows)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    head = [
        f"{_timestamp()} run start models={list(config.models)} "
        f"requests={len(rows) * len(config.models)}\n"
    ]
    overrides = config.overrides()
    if overrides:
        head.append(f"{_timestamp()} non-default settings: {encode_sorted(overrides)}\n")
    # (model, records partial, log partial) of each lane, in config order.
    lanes = [
        (model, out / f".raw_responses.{n}.partial", out / f".run.log.{n}.partial")
        for n, model in enumerate(config.models)
    ]
    stop = threading.Event()

    def run_lane(model: str, records_path: Path, log_path: Path) -> int:
        """Send one model's requests in turn, appending each record and log
        line to the lane's partial files; return the lane's ok count."""
        done = 0
        failed = 0
        total = len(rows)
        max_attempts = config.retries + 1
        with open(records_path, "w", encoding="utf-8") as records, open(log_path, "w", encoding="utf-8") as log:
            for task, law, key_json, item in rows:
                if stop.is_set():
                    break
                request = TransportRequest(
                    model=model,
                    task=task,
                    law=law,
                    key=request_key(item),
                    prompt=_render(*templates[law], item),
                    temperature=config.temperature,
                    max_tokens=config.max_tokens,
                    timeout_seconds=config.timeout_seconds,
                    key_json=key_json,
                )
                started = _timestamp()
                attempts = 0
                text = ""
                status = "exhausted_retries"
                while attempts < max_attempts:
                    attempts += 1
                    try:
                        text = transport.send(request)
                        status = "ok"
                        break
                    except Exception as exc:  # whatever a send raises is one failed attempt
                        log.write(
                            f"{_timestamp()} {model} attempt {attempts}/{max_attempts} "
                            f"failed: {type(exc).__name__}: {exc}\n"
                        )
                        if attempts < max_attempts and config.backoff_seconds > 0:
                            time.sleep(config.backoff_seconds)
                if status == "ok":
                    done += 1
                else:
                    failed += 1
                finished = _timestamp()
                records.write(_record_line(model, task, law, key_json, text, status, attempts, started, finished))
                log.write(f"{finished} {model} progress {done + failed}/{total} ok={done} failed={failed}\n")
        return done

    try:
        with ThreadPoolExecutor(max_workers=config.effective_concurrency) as pool:
            futures = [pool.submit(run_lane, *lane) for lane in lanes]
            try:
                wait(futures, return_when=FIRST_EXCEPTION)
            finally:
                stop.set()  # a failed lane, or an interrupt, ends the others
        ok_counts = [future.result() for future in futures]

        responses_path = out / "raw_responses.jsonl"
        with atomic_write(responses_path) as fh:
            for _model, records_path, _log_path in sorted(lanes):
                with open(records_path, encoding="utf-8") as part:
                    shutil.copyfileobj(part, fh)

        config_payload = {"run": config.to_dict(), "overrides": config.overrides()}
        config_path = write_json(out / "run_config.json", config_payload)

        log_path = out / "run.log"
        summary = ", ".join(f"{model}: {ok}/{len(rows)} ok" for model, ok in zip(config.models, ok_counts))
        with atomic_write(log_path) as fh, ExitStack() as stack:
            fh.writelines(head)
            parts = [stack.enter_context(open(path, encoding="utf-8")) for _, _, path in lanes]
            # Timestamps are fixed-width ISO strings, so merging lines merges by time.
            fh.writelines(heapq.merge(*parts))
            fh.write(f"{_timestamp()} run complete ({summary})\n")
    finally:
        for _model, records_path, lane_log_path in lanes:
            records_path.unlink(missing_ok=True)
            lane_log_path.unlink(missing_ok=True)
    return RunResult(
        record_count=len(rows) * len(config.models),
        responses_path=responses_path,
        config_path=config_path,
        log_path=log_path,
    )


def _record_line(
    model: str, task: str, law: str, key_json: str, text: str, status: str, attempts: int, started: str, finished: str
) -> str:
    """`encode_sorted(record) + "\n"` for the response record of these fields,
    whose key encodes to `key_json`: the fields in sorted order, each string
    escaped as the encoder escapes it, so the key is not encoded again."""
    quote = encode_basestring_ascii
    return (
        f'{{"attempts": {attempts}, "key": {key_json}, "law": {quote(law)}, '
        f'"model": {quote(model)}, "status": {quote(status)}, '
        f'"task": {quote(task)}, "text": {quote(text)}, '
        f'"timestamps": {{"finished": {quote(finished)}, "started": {quote(started)}}}}}\n'
    )


# Field of a response record -> the type of its value. `law`, `task` and
# `key` are required, though a task-2 record may carry `pointer` instead of
# `key`; `model` and `text` only where a reader requires them.
_RECORD_FIELDS = {"law": str, "task": str, "key": dict, "pointer": dict, "model": str, "text": str}
_TYPE_NAMES = {str: "a string", dict: "an object"}


def load_responses(path: str | Path, require: Sequence[str] = ()) -> Iterator[dict]:
    """Yield the records of a raw_responses.jsonl one at a time, in file
    order, checked as `numbered_responses` checks them."""
    for _number, record in numbered_responses(path, require):
        yield record


def numbered_responses(path: str | Path, require: Sequence[str] = ()) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for the records of a raw_responses.jsonl
    one at a time, in file order; blank lines are skipped.

    Each record is checked as it is read: a line that is not UTF-8 JSON (an
    integer over the interpreter's digit limit included), not an object,
    lacks `law`, `task`, `key` (or, in task 2, `pointer`) or a field named in
    `require`, holds a field of the wrong type (see `_RECORD_FIELDS`)
    or a task other than task1 and task2 raises MalformedResponse naming the
    file and the line number. Records before that line have been yielded by
    then.
    """
    required = ("law", "task", *require)
    # Binary lines, decoded one at a time, so that bytes that are not UTF-8
    # are reported with their line number too.
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise MalformedResponse(f"{path}: line {number}: not UTF-8 (byte {exc.start + 1})") from None
            except json.JSONDecodeError as exc:
                raise MalformedResponse(f"{path}: line {number}: not JSON ({exc.msg} at column {exc.colno})") from None
            except ValueError as exc:
                raise MalformedResponse(f"{path}: line {number}: {exc}") from None
            problem = _record_problem(record, required)
            if problem:
                raise MalformedResponse(f"{path}: line {number}: {problem}")
            yield number, record


def _record_problem(record, required: Sequence[str]) -> str:
    """Why a decoded line is not a response record; empty if it is one."""
    if type(record) is not dict:
        return f"not a JSON object: {record!r:.60}"
    for name in required:
        if name not in record:
            return f"missing field {name!r}"
    for name, kind in _RECORD_FIELDS.items():
        if name in record and type(record[name]) is not kind:
            return f"field {name!r} must be {_TYPE_NAMES[kind]}, got {record[name]!r:.60}"
    if record["task"] not in ("task1", "task2"):
        return f"unknown task {record['task']!r:.60}"
    if "key" not in record and not (record["task"] == "task2" and "pointer" in record):
        return "missing field 'key'"
    return ""
