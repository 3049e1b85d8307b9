"""Provider-agnostic inference harness.

One serial request lane per model, lanes running concurrently; uniform
decoding controls; bounded retries with fixed backoff; and a response log
whose content is independent of completion interleaving (records are
canonically ordered on close). Real provider adapters live out of tree; the
package ships a scripted mock and a replay transport.
"""

from __future__ import annotations

import heapq
import json
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, Mapping, Protocol, Sequence

from .corpus import RawInstance, atomic_write, encode_sorted, write_json
from .errors import LawMismatch, MalformedResponse, RegevalError, TransportConfigError
from .jurisdiction import THEMES, Jurisdiction, JurisdictionRegistry
from .retrieval import RetrievalKey, gold_keys_for_records
from .shaping import ShapedViews, SnippetPointer


@dataclass(frozen=True)
class RunConfig:
    """Uniform inference settings; defaults are the reference decoding setup."""

    models: tuple[str, ...] = ()
    temperature: float = 0.0
    max_tokens: int = 2048
    timeout_seconds: float = 180.0
    retries: int = 3
    backoff_seconds: float = 2.0
    context_window: int = 3

    def __post_init__(self) -> None:
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

    @property
    def effective_concurrency(self) -> int:
        """One lane per model."""
        return max(len(self.models), 1)

    def overrides(self) -> dict:
        """Settings that differ from the reference defaults."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "models" and getattr(self, f.name) != f.default
        }

    def to_dict(self) -> dict:
        return {
            "models": list(self.models),
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "timeout_seconds": self.timeout_seconds,
            "retries": self.retries,
            "backoff_seconds": self.backoff_seconds,
            "concurrency": self.effective_concurrency,
            "context_window": self.context_window,
        }


@dataclass(frozen=True)
class PromptTemplate:
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


@dataclass(frozen=True)
class LocalizationPromptItem:
    """Task-1 request: one gold anchor plus compact code context."""

    law: str
    key: RetrievalKey
    context: str = ""


@dataclass(frozen=True)
class JudgmentPromptItem:
    """Task-2 request: one snippet window."""

    law: str
    pointer: SnippetPointer
    snippet: str


PromptItem = LocalizationPromptItem | JudgmentPromptItem


def render_prompt(template: PromptTemplate, item: PromptItem) -> str:
    """Deterministic prompt text for one request."""
    if template.law != item.law:
        raise LawMismatch(f"template law {template.law} != item law {item.law}")
    lines = [
        f"You are auditing an Android application for {template.law} compliance.",
        f"Law scope: {template.scope_summary}",
        "Decision cues: " + ", ".join(template.decision_cues) + ".",
        "Legitimate exceptions: " + "; ".join(template.exceptions) + ".",
        "",
    ]
    if isinstance(item, LocalizationPromptItem):
        key = item.key
        lines.append(f"Anchor granularity: {key.granularity}")
        lines.append(f"File path: {key.file_path}")
        if key.module is not None:
            lines.append(f"Module: {key.module}")
        if key.span is not None:
            lines.append(f"Lines: {key.span.render()}")
        if item.context:
            lines.append("Context:")
            lines.append(item.context)
        lines.append("")
        lines.append(
            "Rank the provisions this anchor implicates, most likely first."
        )
    else:
        lines.append(f"File path: {item.pointer.file_path}")
        lines.append(f"Lines: {item.pointer.span.render()}")
        lines.append("Code window:")
        lines.append(item.snippet)
        lines.append("")
        lines.append("List every provision this code window implicates.")
    lines.append(template.output_constraint)
    return "\n".join(lines)


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
            (inst.law, inst.repo_url, inst.app_name, inst.commit_id, inst.file_path, inst.span),
            trimmed,
        )
        context_by_file.setdefault(
            (inst.law, inst.repo_url, inst.app_name, inst.commit_id, inst.file_path), trimmed
        )

    items: list[PromptItem] = []
    for law, view in sorted(views.items()):
        if "task1" in tasks:
            for key in sorted(gold_keys_for_records(view.task1), key=lambda k: k.sort_key()):
                file_id = (law, key.repo_url, key.app_name, key.commit_id, key.file_path)
                if key.granularity == "line" and key.span is not None:
                    context = context_by_pointer.get(file_id + (key.span,), "")
                    context = context or context_by_file.get(file_id, "")
                else:
                    context = context_by_file.get(file_id, "")
                items.append(LocalizationPromptItem(law=law, key=key, context=context))
        if "task2" in tasks:
            for rec in view.task2:
                items.append(JudgmentPromptItem(law=law, pointer=rec.pointer, snippet=rec.snippet))
    return items


# --- transports ----------------------------------------------------------------


def request_key(target: RetrievalKey | SnippetPointer) -> dict:
    """The key fields of a task-1 anchor or a task-2 snippet request."""
    if isinstance(target, RetrievalKey):
        key = target.to_dict()
        key.pop("law", None)
        return key
    return target.to_dict()


def request_identity(model: str, task: str, law: str, key: Mapping) -> tuple[str, str, str, str]:
    """Hashable identity of one request; its order is the canonical record order."""
    return (model, task, law, encode_sorted(dict(key)))


@dataclass(frozen=True)
class TransportRequest:
    """One attempt-independent request; adapters may ignore the key fields.

    `key_json` is `encode_sorted(key)`, the key's text in the identity; the
    requests of one prompt item share one string.
    """

    model: str
    task: str
    law: str
    key: Mapping
    prompt: str
    temperature: float
    max_tokens: int
    timeout_seconds: float
    key_json: str = field(repr=False, compare=False)
    identity: tuple[str, str, str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "identity", (self.model, self.task, self.law, self.key_json))


class TransportFailure(RegevalError):
    """Transient send failure; the harness may retry."""


class Transport(Protocol):
    def send(self, request: TransportRequest) -> str: ...


class MockTransport:
    """Scripted transport for tests and synthetic runs.

    `reply` maps a request to response text. `fail_times` makes every request
    fail that many times before succeeding; failures are counted per request
    identity so retries are observable.
    """

    def __init__(self, reply: Callable[[TransportRequest], str], fail_times: int = 0):
        self.reply = reply
        self.fail_times = fail_times
        self.attempts: dict[tuple, int] = {}
        self._lock = threading.Lock()

    def send(self, request: TransportRequest) -> str:
        identity = request.identity
        with self._lock:
            count = self.attempts.get(identity, 0) + 1
            self.attempts[identity] = count
        if count <= self.fail_times:
            raise TransportFailure(f"scripted failure {count}/{self.fail_times}")
        return self.reply(request)


class FailingTransport:
    """Transport whose every attempt fails."""

    def __init__(self) -> None:
        self.attempts = 0
        self._lock = threading.Lock()

    def send(self, request: TransportRequest) -> str:
        with self._lock:
            self.attempts += 1
        raise TransportFailure("permanent scripted failure")


class ReplayTransport:
    """Re-serves the text of a previous run's raw_responses.jsonl."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        if not self.path.exists():
            raise TransportConfigError(f"replay file not found: {self.path}")
        self._responses: dict[tuple, str] = {
            request_identity(record["model"], record["task"], record["law"], record["key"]): record["text"]
            for record in load_responses(self.path, require=("model", "text", "key"))
        }

    def prepare(self, requests: Sequence[TransportRequest]) -> None:
        missing = [r for r in requests if r.identity not in self._responses]
        if missing:
            raise TransportConfigError(
                f"replay file lacks {len(missing)} of {len(requests)} requests"
            )

    def send(self, request: TransportRequest) -> str:
        try:
            return self._responses[request.identity]
        except KeyError:
            raise TransportFailure(f"no replayed response for {request.identity}") from None


# --- run execution ---------------------------------------------------------------


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


@dataclass
class RunResult:
    records: list[dict]
    responses_path: Path
    config_path: Path
    log_path: Path


def _requests_by_model(
    items: Sequence[PromptItem], templates: Mapping[str, PromptTemplate], config: RunConfig
) -> dict[str, list[TransportRequest]]:
    """Every model's requests, in item order. Each item's prompt, key and key
    JSON are made once and shared by the models' requests."""
    requests_by_model: dict[str, list[TransportRequest]] = {model: [] for model in config.models}
    for item in items:
        if isinstance(item, LocalizationPromptItem):
            task, key = "task1", request_key(item.key)
        else:
            task, key = "task2", request_key(item.pointer)
        prompt = render_prompt(templates[item.law], item)
        key_json = encode_sorted(key)
        for model, requests in requests_by_model.items():
            requests.append(
                TransportRequest(
                    model=model,
                    task=task,
                    law=item.law,
                    key=key,
                    prompt=prompt,
                    temperature=config.temperature,
                    max_tokens=config.max_tokens,
                    timeout_seconds=config.timeout_seconds,
                    key_json=key_json,
                )
            )
    return requests_by_model


def execute_run(
    config: RunConfig,
    views: Mapping[str, ShapedViews],
    transport: Transport,
    out_dir: str | Path,
    registry: JurisdictionRegistry,
    corpus: Sequence[RawInstance] | None = None,
    tasks: Sequence[str] = ("task1", "task2"),
) -> RunResult:
    """Attempt every (model, instance) pair and write the run artifacts.

    Each model gets one serial request lane; lanes run concurrently. Any
    exception from `send` is a failed attempt, retried up to `retries` times
    after the initial attempt; an instance that exhausts its retries is
    recorded with empty text and scored downstream as an empty prediction.
    Records are written in canonical identity order and the lanes' log lines
    are merged in timestamp order.
    """
    if not config.models:
        raise TransportConfigError("run config lists no models")
    templates = {law: default_template(registry.get(law)) for law in views}

    items = build_prompt_items(views, corpus, config.context_window, tasks)
    requests_by_model = _requests_by_model(items, templates, config)
    prepare = getattr(transport, "prepare", None)
    if callable(prepare):
        prepare([req for reqs in requests_by_model.values() for req in reqs])

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_lines = [
        f"{_timestamp()} run start models={list(config.models)} "
        f"requests={len(items) * len(config.models)}"
    ]
    overrides = config.overrides()
    if overrides:
        log_lines.append(f"{_timestamp()} non-default settings: {encode_sorted(overrides)}")

    def run_lane(model: str) -> tuple[list[tuple[tuple, dict]], list[str]]:
        """Send one model's requests in turn; return its (identity, record)
        pairs and its timestamped log lines."""
        entries: list[tuple[tuple, dict]] = []
        log: list[str] = []
        done = 0
        failed = 0
        total = len(requests_by_model[model])
        max_attempts = config.retries + 1
        for request in requests_by_model[model]:
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
                    log.append(
                        f"{_timestamp()} {model} attempt {attempts}/{max_attempts} "
                        f"failed: {type(exc).__name__}: {exc}"
                    )
                    if attempts < max_attempts and config.backoff_seconds > 0:
                        time.sleep(config.backoff_seconds)
            if status == "ok":
                done += 1
            else:
                failed += 1
            finished = _timestamp()
            record = {
                "model": model,
                "task": request.task,
                "law": request.law,
                "key": request.key,
                "text": text if status == "ok" else "",
                "status": status,
                "attempts": attempts,
                "timestamps": {"started": started, "finished": finished},
            }
            entries.append((request.identity, record))
            log.append(f"{finished} {model} progress {done + failed}/{total} ok={done} failed={failed}")
        return entries, log

    with ThreadPoolExecutor(max_workers=config.effective_concurrency) as pool:
        lanes = list(pool.map(run_lane, config.models))

    entries = sorted((entry for lane_entries, _ in lanes for entry in lane_entries), key=itemgetter(0))
    records = [record for _, record in entries]
    # Timestamps are fixed-width ISO strings, so merging lines merges by time.
    log_lines.extend(heapq.merge(*(log for _, log in lanes)))

    responses_path = out / "raw_responses.jsonl"
    with atomic_write(responses_path) as fh:
        fh.writelines(_record_line(record, identity[3]) for identity, record in entries)

    config_payload = {"run": config.to_dict(), "overrides": config.overrides()}
    config_path = write_json(out / "run_config.json", config_payload)

    log_path = out / "run.log"
    ok_counts = Counter(record["model"] for record in records if record["status"] == "ok")
    summary = ", ".join(f"{model}: {ok_counts[model]}/{len(items)} ok" for model in config.models)
    log_lines.append(f"{_timestamp()} run complete ({summary})")
    with atomic_write(log_path) as fh:
        fh.writelines(line + "\n" for line in log_lines)
    return RunResult(records=records, responses_path=responses_path, config_path=config_path, log_path=log_path)


def _record_line(record: dict, key_json: str) -> str:
    """`encode_sorted(record) + "\n"` for a record whose key encodes to
    `key_json`: the fields in sorted order, each string escaped as the encoder
    escapes it, so the key is not encoded again."""
    quote = encode_basestring_ascii
    stamps = record["timestamps"]
    return (
        f'{{"attempts": {record["attempts"]}, "key": {key_json}, "law": {quote(record["law"])}, '
        f'"model": {quote(record["model"])}, "status": {quote(record["status"])}, '
        f'"task": {quote(record["task"])}, "text": {quote(record["text"])}, '
        f'"timestamps": {{"finished": {quote(stamps["finished"])}, "started": {quote(stamps["started"])}}}}}\n'
    )


# Field of a response record -> the type of its value. `law`, `task` and
# `key` are required, though a task-2 record may carry `pointer` instead of
# `key`; `model` and `text` only where a reader requires them.
_RECORD_FIELDS = {"law": str, "task": str, "key": dict, "pointer": dict, "model": str, "text": str}
_TYPE_NAMES = {str: "a string", dict: "an object"}


def load_responses(path: str | Path, require: Sequence[str] = ()) -> Iterator[dict]:
    """Yield the records of a raw_responses.jsonl one at a time, in file
    order; blank lines are skipped.

    Each record is checked as it is read: a line that is not UTF-8 JSON, not an
    object, lacks `law`, `task`, `key` (or, in task 2, `pointer`) or a field
    named in `require`, or holds a field of the wrong type (see `_RECORD_FIELDS`) raises
    MalformedResponse naming the file and the line number. Records before
    that line have been yielded by then.
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
            problem = _record_problem(record, required)
            if problem:
                raise MalformedResponse(f"{path}: line {number}: {problem}")
            yield record


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
    if "key" not in record and not (record["task"] == "task2" and "pointer" in record):
        return "missing field 'key'"
    return ""
