"""Raw corpus schema: evidence records, path normalization, and corpus statistics.

A raw instance binds one code pointer (project-relative path plus a closed line
span at a pinned commit) to a non-empty set of native article ids from exactly
one law. Expert notes ride along for audit but are structurally excluded from
anything that assembles model inputs.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from contextlib import contextmanager
from pathlib import Path, PurePosixPath
from typing import Iterator, Mapping, NamedTuple, Sequence, TextIO

from .errors import InvalidPath, MalformedDataset, MalformedPrediction, RegevalError
from .jurisdiction import THEME_ANCHORS, THEMES, JurisdictionRegistry

_WINDOWS_DRIVE = re.compile(r"^[A-Za-z]:")
_COMMIT_HEX = re.compile(r"^[0-9a-fA-F]{7,64}$")
_SPAN_SUFFIX = re.compile(r":(\d+)(?:-(\d+))?$")


def normalize_path(raw_path: str) -> str:
    """Normalize to a project-relative POSIX path.

    Backslashes become "/", "." segments and empty segments are dropped, and
    the result never starts with "/". Absolute paths and any ".." segment are
    rejected: without a project root there is nothing to relativize against.
    """
    if raw_path is None or not raw_path.strip():
        raise InvalidPath("empty path")
    text = raw_path.strip().replace("\\", "/")
    if text.startswith("/") or _WINDOWS_DRIVE.match(text):
        raise InvalidPath(f"absolute path cannot be relativized: {raw_path!r}")
    parts = [seg for seg in text.split("/") if seg not in ("", ".")]
    if any(seg == ".." for seg in parts):
        raise InvalidPath(f"path escapes project root: {raw_path!r}")
    if not parts:
        raise InvalidPath(f"path normalizes to nothing: {raw_path!r}")
    return "/".join(parts)


def derive_module_name(file_path: str) -> str:
    """Module key for a file: the basename with its final extension stripped."""
    return PurePosixPath(file_path).stem


class Checked:
    """Mixin for a `NamedTuple` record whose fields must pass its `_check`.

    List it before the record's `NamedTuple` base. The constructor, `_make`
    and `_replace` (which calls `_make`) all run `_check`, so a bad value
    raises the same error however the record is built.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _LineSpan(NamedTuple):
    start: int
    end: int


class LineSpan(Checked, _LineSpan):
    """Closed 1-based line range; it orders, hashes and compares as
    (start, end)."""

    __slots__ = ()

    def _check(self) -> None:
        if self.start < 1:
            raise RegevalError(f"span start must be >= 1, got {self.start}")
        if self.end < self.start:
            raise RegevalError(f"span end {self.end} precedes start {self.start}")

    def overlaps(self, other: "LineSpan") -> bool:
        return self.start <= other.end and other.start <= self.end

    def cover(self, other: "LineSpan") -> "LineSpan":
        return LineSpan(min(self.start, other.start), max(self.end, other.end))

    def render(self) -> str:
        return f"{self.start}-{self.end}"

    def as_list(self) -> list[int]:
        return [self.start, self.end]


def decode_span(value) -> tuple[int, int]:
    """(start, end) of a stored `[start, end]` span, checked by `LineSpan`'s
    rules without building one: two integers with 1 <= start <= end."""
    try:
        start, end = value
    except (TypeError, ValueError):
        start = end = None
    if type(start) is not int or type(end) is not int or not 1 <= start <= end:
        raise MalformedPrediction(f"span must be two integers with 1 <= start <= end, got {value!r}")
    return start, end


def decode_each(path: str | Path, items: list, decode, noun: str, error: type[RegevalError]) -> list:
    """`decode` of each item of a list read from `path`. An item that lacks a
    field, or that `decode` finds malformed or rejects with any RegevalError,
    raises `error` naming the file, the `noun` and the item's index."""
    decoded = []
    for index, item in enumerate(items):
        try:
            decoded.append(decode(item))
        except DECODE_ERRORS as exc:
            problem = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
            raise error(f"{path}: {noun} {index}: {problem}") from None
    return decoded


# What a decoder raises on an item it finds malformed.
DECODE_ERRORS = (KeyError, RegevalError, TypeError)


def check_object(error: type[RegevalError], value, path: str) -> dict:
    """`value`, which must be an object, else `error` naming the field by its
    `path` in the file."""
    if type(value) is not dict:
        raise error(f"{path} must be an object, got {type(value).__name__}")
    return value


def check_member(error: type[RegevalError], block: dict, name: str, path: str):
    """`block[name]`, else `error` naming the object by its `path`."""
    if name not in block:
        raise error(f"{path}: missing field {name!r}")
    return block[name]


def check_field(error: type[RegevalError], ok: bool, value, path: str, what: str):
    """`value` if `ok`, else `error` saying that the field at `path` must be
    `what`."""
    if not ok:
        raise error(f"{path} must be {what}, got {value!r:.60}")
    return value


def split_pointer_path(raw: str) -> tuple[str, LineSpan]:
    """Split a "path:start-end" pointer into (normalized path, span)."""
    match = _SPAN_SUFFIX.search(raw)
    if match is None:
        raise RegevalError(f"pointer lacks a :start-end span suffix: {raw!r}")
    start = int(match.group(1))
    end = int(match.group(2)) if match.group(2) else start
    return normalize_path(raw[: match.start()]), LineSpan(start, end)


class _RawInstance(NamedTuple):
    app_name: str
    repo_url: str
    commit_id: str
    law: str
    articles: frozenset[str]
    file_path: str
    span: LineSpan
    snippet: str
    note: str = ""


class RawInstance(Checked, _RawInstance):
    """One expert-validated evidence record, scoped to a single law."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.articles:
            raise RegevalError("instance has no article ids")
        if not _COMMIT_HEX.match(self.commit_id):
            raise RegevalError(f"commit_id is not a hex string: {self.commit_id!r}")
        normalized = normalize_path(self.file_path)
        if normalized != self.file_path:
            raise InvalidPath(f"file_path not normalized: {self.file_path!r}")

    @property
    def pointer(self) -> tuple[str, LineSpan, str]:
        return (self.file_path, self.span, self.commit_id)

    @property
    def module_name(self) -> str:
        return derive_module_name(self.file_path)


def _articles_from_field(value, law: str, registry: JurisdictionRegistry) -> frozenset[str]:
    items: Sequence = value if isinstance(value, (list, tuple)) else [value]
    return frozenset(registry.canonicalize_article(str(item), law) for item in items)


def instance_from_record(record: Mapping, registry: JurisdictionRegistry, law: str | None = None) -> RawInstance:
    """Build a RawInstance from a raw dataset.json record.

    The released schema carries no jurisdiction field; records either embed a
    "law" key or the caller supplies one for the whole file.
    """
    if not isinstance(record, Mapping):
        raise MalformedDataset(f"not a JSON object: {record!r:.60}")
    record_law = record.get("law", law)
    if record_law is None:
        raise RegevalError("record has no 'law' field and no law was supplied")
    file_path, span = split_pointer_path(record["file_path"])
    return RawInstance(
        app_name=str(record["app_name"]),
        repo_url=str(record["repo_url"]),
        commit_id=str(record["commit_id"]),
        law=str(record_law),
        articles=_articles_from_field(record["article_id"], str(record_law), registry),
        file_path=file_path,
        span=span,
        snippet=str(record.get("snippet", "")),
        note=str(record.get("note", "")),
    )


def instance_to_record(instance: RawInstance, registry: JurisdictionRegistry) -> dict:
    """Render an instance back into the raw dataset.json shape."""
    jur = registry.get(instance.law)
    articles = jur.sort_articles(instance.articles)
    return {
        "app_name": instance.app_name,
        "repo_url": instance.repo_url,
        "commit_id": instance.commit_id,
        "law": instance.law,
        "article_id": articles if len(articles) > 1 else articles[0],
        "file_path": f"{instance.file_path}:{instance.span.render()}",
        "snippet": instance.snippet,
        "note": instance.note,
    }


def load_dataset(path: str | Path, registry: JurisdictionRegistry, law: str | None = None) -> list[RawInstance]:
    """The instances of the dataset.json at `path`; a malformed record raises
    MalformedDataset naming the file and the record's index."""
    records = read_json(path)
    if not isinstance(records, list):
        raise MalformedDataset(f"{path}: must hold an array of records")
    return decode_each(
        path, records, lambda rec: instance_from_record(rec, registry, law), "record", MalformedDataset
    )


def save_dataset(path: str | Path, corpus: Sequence[RawInstance], registry: JurisdictionRegistry) -> None:
    write_compact_json(path, [instance_to_record(inst, registry) for inst in corpus])


@contextmanager
def atomic_write(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open `path` for streamed UTF-8 text writing, atomically.

    The text goes to `.<name>.tmp` in the same directory, which replaces
    `path` only when the block exits cleanly; on an exception the old file (if
    any) stays and the temporary file is removed, so a reader never sees a
    partly written file. `newline` is passed to `open` (CSV writers need "").
    There is no fsync: this guards against an interrupted process, not power
    loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# Compact key-sorted JSON text: the bytes of `json.dumps(value, sort_keys=True)`,
# from one encoder built once (json.dumps builds a new one per call when given
# any option). Request keys, the replay index, prediction entries, the dataset
# and the views use it.
encode_sorted = json.JSONEncoder(sort_keys=True).encode


def read_json(path: str | Path):
    """The JSON value in the file at `path`: the read twin of `write_json`.
    Bytes that are not UTF-8 raise RegevalError naming the first bad byte;
    text that is not JSON raises json.JSONDecodeError whose message starts
    with the path and ends with the line and column; any other value
    `json.loads` rejects (an integer over the interpreter's digit limit)
    raises RegevalError naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise RegevalError(f"{path}: not UTF-8 (byte {exc.start + 1})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
    except ValueError as exc:
        raise RegevalError(f"{path}: {exc}") from None


def write_json(path: str | Path, payload) -> Path:
    """Write `payload` as key-sorted JSON indented by 2 plus a newline,
    atomically."""
    path = Path(path)
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_compact_json(path: str | Path, payload) -> Path:
    """Write `payload` as compact key-sorted JSON (`encode_sorted`) plus a
    newline, atomically. For files only programs read: unlike `write_json`'s
    indent, it keeps to json's C encoder."""
    path = Path(path)
    with atomic_write(path) as fh:
        fh.write(encode_sorted(payload) + "\n")
    return path


def corpus_stats(
    corpus: Sequence[RawInstance],
    registry: JurisdictionRegistry,
    top_k: int = 10,
) -> dict:
    """The `stats` block of stats.json: distinct-anchor counts, repository
    coverage, label ranking and theme overlap per law.

    All counts are permutation-invariant. The theme overlap entry for a law
    pair counts themes whose anchor article appears in both laws' instances.
    `top_k` bounds each law's label ranking, a list of [article, count]
    pairs; 0 keeps every label.
    """
    if top_k < 0:
        raise RegevalError(f"top_k must be >= 0, got {top_k}")
    files: dict[str, set] = {law: set() for law in registry.codes}
    modules: dict[str, set] = {law: set() for law in registry.codes}
    lines: dict[str, set] = {law: set() for law in registry.codes}
    snippets: dict[str, set] = {law: set() for law in registry.codes}
    instances: Counter = Counter()
    coverage: dict[str, Counter] = {law: Counter() for law in registry.codes}
    label_counts: dict[str, Counter] = {law: Counter() for law in registry.codes}

    for inst in corpus:
        law = inst.law
        scope = (inst.repo_url, inst.app_name, inst.commit_id)
        files[law].add(scope + (inst.file_path,))
        modules[law].add(scope + (inst.module_name,))
        lines[law].add(scope + (inst.file_path, inst.span))
        snippets[law].add(inst.pointer)
        instances[law] += 1
        coverage[law][inst.repo_url] += 1
        for article in inst.articles:
            label_counts[law][article] += 1

    stats: dict = {"total_instances": len(corpus), "per_law": {}, "coverage": {}, "label_frequencies": {}}
    for law in registry.codes:
        stats["per_law"][law] = {
            "files": len(files[law]),
            "modules": len(modules[law]),
            "lines": len(lines[law]),
            "snippets": len(snippets[law]),
            "instances": instances[law],
        }
        stats["coverage"][law] = dict(sorted(coverage[law].items()))
        jur = registry.get(law)
        ranked = sorted(
            label_counts[law].items(),
            key=lambda item: (-item[1], jur.universe_index(item[0])),
        )
        stats["label_frequencies"][law] = [list(item) for item in (ranked[:top_k] if top_k else ranked)]

    codes = list(registry.codes)
    stats["theme_overlap"] = {}
    for i, law_a in enumerate(codes):
        for law_b in codes[i + 1 :]:
            shared = 0
            for theme in THEMES:
                anchors = THEME_ANCHORS[theme]
                if law_a not in anchors or law_b not in anchors:
                    continue
                if label_counts[law_a][anchors[law_a]] and label_counts[law_b][anchors[law_b]]:
                    shared += 1
            stats["theme_overlap"][f"{law_a}|{law_b}"] = shared
    return stats
