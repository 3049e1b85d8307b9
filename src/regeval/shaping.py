"""Deterministic reshaping of the raw corpus into the two gold evaluation views.

The localization view groups evidence by (repo, app, commit, file) and exposes
file, module, and line sections; the judgment view keeps one code window per
snippet pointer. Both views union repeated evidence and order records
canonically so regeneration is byte-stable.
"""

from __future__ import annotations

import fnmatch
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import (
    LineSpan, RawInstance, check_field, decode_each, decode_span, derive_module_name, read_json, write_compact_json,
)
from .errors import ConflictingSnippet, EmptyCorpus, MalformedPrediction, MalformedView, RegevalError
from .jurisdiction import JurisdictionRegistry

GRANULARITIES = ("file", "module", "line")

# Paths with unstable anchors are dropped before shaping; a pattern containing
# "/" matches anywhere in the path, otherwise it must match the basename.
DEFAULT_EXCLUDE_PATTERNS = ("build/", "generated/", "R.java")


def path_is_excluded(file_path: str, patterns: Sequence[str] = DEFAULT_EXCLUDE_PATTERNS) -> bool:
    basename = file_path.rsplit("/", 1)[-1]
    for pattern in patterns:
        if "/" in pattern:
            if pattern in file_path + "/":
                return True
        elif fnmatch.fnmatch(basename, pattern):
            return True
    return False


def filter_corpus(
    corpus: Iterable[RawInstance], patterns: Sequence[str] = DEFAULT_EXCLUDE_PATTERNS
) -> tuple[list[RawInstance], list[RawInstance]]:
    kept, excluded = [], []
    for inst in corpus:
        (excluded if path_is_excluded(inst.file_path, patterns) else kept).append(inst)
    return kept, excluded


class RetrievalKey(NamedTuple):
    """The field layout of a task-1 gold anchor key and its codec. A key is
    stored as the plain tuple of these fields, as `decode_anchor` returns it,
    from view decode to report; `sort_key` and `to_dict` read it by position,
    so `RetrievalKey.to_dict(key)` takes a plain tuple. Only
    `synthetic.scripted_model` wraps its rows' keys in the class."""

    law: str
    repo_url: str
    app_name: str
    commit_id: str
    file_path: str
    granularity: str
    module: str | None = None
    start: int | None = None
    end: int | None = None

    def sort_key(self) -> tuple:
        law, repo_url, app_name, commit_id, file_path, granularity, module, start, end = self
        return (law, repo_url, file_path, granularity, module or "", start or 0, end or 0, app_name, commit_id)

    def to_dict(self) -> dict:
        law, repo_url, app_name, commit_id, file_path, granularity, module, start, end = self
        payload = {
            "law": law,
            "repo_url": repo_url,
            "app_name": app_name,
            "commit_id": commit_id,
            "file_path": file_path,
            "granularity": granularity,
        }
        if module is not None:
            payload["module"] = module
        if start is not None:
            payload["span"] = [start, end]
        return payload


def decode_anchor(law: str, data: Mapping) -> tuple:
    """The fields of the key a dict encodes, as a plain tuple in
    `RetrievalKey` order: the one reader of task-1 key fields from a dict."""
    try:
        granularity = data["granularity"]
        repo_url = data["repo_url"]
        app_name = data["app_name"]
        commit_id = data["commit_id"]
        file_path = data["file_path"]
    except KeyError as exc:
        raise MalformedPrediction(f"missing key field {exc.args[0]!r}") from None
    module = data.get("module")
    if (
        type(granularity) is not str
        or type(repo_url) is not str
        or type(app_name) is not str
        or type(commit_id) is not str
        or type(file_path) is not str
        or (module is not None and type(module) is not str)
    ):
        raise MalformedPrediction("key fields must be strings")
    span = data.get("span")
    start, end = (None, None) if span is None else decode_span(span)
    return (law, repo_url, app_name, commit_id, file_path, granularity, module, start, end)


class Task1Record(NamedTuple):
    """One localization record: the file, module and line anchors of one
    (repo, app, commit, file), each a key tuple in `RetrievalKey` layout
    with its gold set. Law, key fields, module name and spans are read off
    the keys."""

    file: tuple
    file_gold: frozenset[str]
    module: tuple
    module_gold: frozenset[str]
    lines: tuple[tuple[tuple, frozenset[str]], ...]


class SnippetPointer(NamedTuple):
    """The field layout of a task-2 snippet pointer, a closed line span of a
    file at a commit, and its codec. A pointer is stored as the plain tuple
    of these fields, as `decode_pointer` returns it; `to_dict` reads it by
    position, so `SnippetPointer.to_dict(pointer)` takes a plain tuple. Only
    `synthetic.scripted_model` wraps its rows' pointers in the class, whose
    `span` is read off them."""

    file_path: str
    start: int
    end: int
    commit_id: str

    @property
    def span(self) -> LineSpan:
        return LineSpan(self.start, self.end)

    def to_dict(self) -> dict:
        file_path, start, end, commit_id = self
        return {"file_path": file_path, "span": [start, end], "commit_id": commit_id}


def decode_pointer(data: Mapping) -> tuple:
    """The fields of a `{file_path, span, commit_id}` dict, as a plain tuple
    in `SnippetPointer` order: the one reader of those fields."""
    try:
        file_path, span, commit_id = data["file_path"], data["span"], data["commit_id"]
    except KeyError as exc:
        raise MalformedPrediction(f"missing pointer field {exc.args[0]!r}") from None
    if type(file_path) is not str or type(commit_id) is not str:
        raise MalformedPrediction("pointer fields must be strings")
    start, end = decode_span(span)
    return (file_path, start, end, commit_id)


class Task2Record(NamedTuple):
    """One judgment record; `pointer` is a tuple in `SnippetPointer`
    layout."""

    law: str
    pointer: tuple
    snippet: str
    gold: frozenset[str]
    repo_url: str
    app_name: str


def merge_line_evidence(entries: Sequence[tuple[LineSpan, frozenset[str]]]) -> list[tuple[LineSpan, frozenset[str]]]:
    """Collapse raw (span, articles) evidence into line-section (span, gold)
    pairs.

    Evidence at an identical span is unioned first; after that, overlapping
    spans merge to their covering span only when their article sets are
    identical, and otherwise stay distinct.
    """
    by_span: dict[LineSpan, set[str]] = {}
    for span, articles in entries:
        by_span.setdefault(span, set()).update(articles)

    by_labels: dict[frozenset[str], list[LineSpan]] = {}
    for span, articles in by_span.items():
        by_labels.setdefault(frozenset(articles), []).append(span)

    merged: list[tuple[LineSpan, frozenset[str]]] = []
    for labels in sorted(by_labels, key=lambda s: tuple(sorted(s))):
        spans = sorted(by_labels[labels])
        current = spans[0]
        for nxt in spans[1:]:
            if current.overlaps(nxt):
                current = current.cover(nxt)
            else:
                merged.append((current, labels))
                current = nxt
        merged.append((current, labels))
    merged.sort(key=lambda e: (e[0].start, e[0].end, tuple(sorted(e[1]))))
    return merged


def _require_single_law(corpus: Sequence[RawInstance]) -> str:
    if not corpus:
        raise EmptyCorpus("no instances to shape")
    laws = {inst.law for inst in corpus}
    if len(laws) != 1:
        raise RegevalError(f"shaping expects a single law per invocation, got {sorted(laws)}")
    return next(iter(laws))


def shape_task1(corpus: Sequence[RawInstance]) -> list[Task1Record]:
    """Group one law's instances into localization records, one per file key."""
    law = _require_single_law(corpus)
    groups: dict[tuple[str, str, str, str, str], list[RawInstance]] = {}
    for inst in corpus:
        groups.setdefault((law, inst.repo_url, inst.app_name, inst.commit_id, inst.file_path), []).append(inst)

    records = []
    for base, members in groups.items():
        union = frozenset().union(*(inst.articles for inst in members))
        lines = merge_line_evidence([(inst.span, inst.articles) for inst in members])
        records.append(
            Task1Record(
                file=(*base, "file", None, None, None),
                file_gold=union,
                module=(*base, "module", derive_module_name(base[4]), None, None),
                module_gold=union,
                lines=tuple(((*base, "line", None, span.start, span.end), gold) for span, gold in lines),
            )
        )
    records.sort(key=lambda r: RetrievalKey.sort_key(r.file))
    return records


def shape_task2(corpus: Sequence[RawInstance]) -> list[Task2Record]:
    """Group one law's instances into judgment records, one per snippet pointer."""
    law = _require_single_law(corpus)
    groups: dict[tuple, list[RawInstance]] = {}
    for inst in corpus:
        groups.setdefault((inst.file_path, inst.span.start, inst.span.end, inst.commit_id), []).append(inst)

    records = []
    for pointer, members in groups.items():
        snippets = {inst.snippet for inst in members}
        if len(snippets) != 1:
            raise ConflictingSnippet(
                f"pointer {pointer[0]}:{members[0].span.render()} maps to "
                f"{len(snippets)} different snippet texts"
            )
        first = min(members, key=lambda i: (i.repo_url, i.app_name))
        records.append(
            Task2Record(
                law=law,
                pointer=pointer,
                snippet=first.snippet,
                gold=frozenset().union(*(inst.articles for inst in members)),
                repo_url=first.repo_url,
                app_name=first.app_name,
            )
        )
    records.sort(key=lambda r: (r.repo_url, *r.pointer))
    return records


class ShapedViews:
    __slots__ = ("law", "task1", "task2")

    def __init__(self, law: str, task1: list[Task1Record] | None = None, task2: list[Task2Record] | None = None):
        self.law = law
        self.task1 = [] if task1 is None else task1
        self.task2 = [] if task2 is None else task2


def shape_views(
    corpus: Sequence[RawInstance],
    exclude_patterns: Sequence[str] = DEFAULT_EXCLUDE_PATTERNS,
) -> dict[str, ShapedViews]:
    """Filter the corpus and shape both views for every law present."""
    kept, _ = filter_corpus(corpus, exclude_patterns)
    if not kept:
        raise EmptyCorpus("no instances left after path filtering")
    grouped: dict[str, list[RawInstance]] = {}
    for inst in kept:
        grouped.setdefault(inst.law, []).append(inst)
    return {
        law: ShapedViews(law=law, task1=shape_task1(members), task2=shape_task2(members))
        for law, members in sorted(grouped.items())
    }


# --- JSON views ---------------------------------------------------------------


def task1_record_to_dict(record: Task1Record, registry: JurisdictionRegistry) -> dict:
    law, repo_url, app_name, commit_id, file_path = record.file[:5]
    jur = registry.get(law)
    return {
        "key": {"repo_url": repo_url, "app_name": app_name, "commit_id": commit_id, "file_path": file_path},
        "sections": {
            "file": {"gold": jur.sort_articles(record.file_gold)},
            "module": {"name": record.module[6], "gold": jur.sort_articles(record.module_gold)},
            "line": [{"span": [line[7], line[8]], "gold": jur.sort_articles(gold)} for line, gold in record.lines],
        },
    }


def task2_record_to_dict(record: Task2Record, registry: JurisdictionRegistry) -> dict:
    jur = registry.get(record.law)
    return {
        "pointer": SnippetPointer.to_dict(record.pointer),
        "snippet": record.snippet,
        "gold": jur.sort_articles(record.gold),
        "provenance": {"repo_url": record.repo_url, "app_name": record.app_name},
    }


def _decode_gold(value, held: dict) -> frozenset[str]:
    if type(value) is not list or not all(type(label) is str for label in value):
        raise MalformedPrediction(f"gold must be a list of strings, got {value!r:.60}")
    gold = frozenset(value)
    return held.setdefault(gold, gold)


def task1_record_from_dict(law: str, data: Mapping, held: dict) -> Task1Record:
    """A view record decoded straight to its keys, gold sets and key fields
    type-checked. A key string or gold set equal to one in `held` is
    `held`'s object, and a new one is added to it, so the records decoded
    with one `held` hold each distinct value once."""
    sections = data["sections"]
    name = sections["module"]["name"]
    if name is None:
        raise MalformedPrediction("key fields must be strings")
    fields = decode_anchor(law, {**data["key"], "granularity": "module", "module": name})
    base = tuple(held.setdefault(field, field) for field in fields[:5])
    return Task1Record(
        file=(*base, "file", None, None, None),
        file_gold=_decode_gold(sections["file"]["gold"], held),
        module=(*base, *fields[5:]),
        module_gold=_decode_gold(sections["module"]["gold"], held),
        lines=tuple(
            ((*base, "line", None, *decode_span(entry["span"])), _decode_gold(entry["gold"], held))
            for entry in sections["line"]
        ),
    )


def _decode_text(value, path: str) -> str:
    return check_field(MalformedPrediction, type(value) is str, value, path, "a string")


def task2_record_from_dict(law: str, data: Mapping, held: dict) -> Task2Record:
    """A view record decoded, its pointer, gold, snippet and provenance
    type-checked. Its pointer's path and commit, its gold set and its
    provenance strings are `held`'s objects, as in `task1_record_from_dict`."""
    provenance = data["provenance"]
    file_path, start, end, commit_id = decode_pointer(data["pointer"])
    snippet = _decode_text(data["snippet"], "snippet")
    gold = _decode_gold(data["gold"], held)
    repo_url = _decode_text(provenance["repo_url"], "provenance/repo_url")
    app_name = _decode_text(provenance["app_name"], "provenance/app_name")
    file_path, commit_id, repo_url, app_name = (
        held.setdefault(text, text) for text in (file_path, commit_id, repo_url, app_name)
    )
    return Task2Record(law, (file_path, start, end, commit_id), snippet, gold, repo_url, app_name)


def dump_views(
    views: Mapping[str, ShapedViews],
    out_dir: str | Path,
    registry: JurisdictionRegistry,
    config_echo: Mapping | None = None,
) -> list[Path]:
    """Write task1_<LAW>.json / task2_<LAW>.json with canonical ordering, as
    compact key-sorted JSON."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for law, view in sorted(views.items()):
        for task, records, render in (
            ("task1", view.task1, task1_record_to_dict),
            ("task2", view.task2, task2_record_to_dict),
        ):
            payload = {
                "law": law,
                "config": dict(config_echo or {}),
                "records": [render(rec, registry) for rec in records],
            }
            written.append(write_compact_json(out / f"{task}_{law}.json", payload))
    return written


def _load_view(path: str | Path, record_from_dict, held: dict | None) -> tuple[str, list]:
    """The law and the decoded records of a view file, sharing the values in
    `held`, or else in a table of this file's own (see
    `task1_record_from_dict`); a malformed record raises MalformedView naming
    the file and the record's index."""
    data = read_json(path)
    law, records = (data.get("law"), data.get("records")) if isinstance(data, dict) else (None, None)
    if type(law) is not str or type(records) is not list:
        raise MalformedView(f"{path}: needs a 'law' string and a 'records' list")
    held = {} if held is None else held
    return law, decode_each(path, records, lambda rec: record_from_dict(law, rec, held), "record", MalformedView)


def load_task1_view(path: str | Path, held: dict | None = None) -> tuple[str, list[Task1Record]]:
    return _load_view(path, task1_record_from_dict, held)


def load_task2_view(path: str | Path, held: dict | None = None) -> tuple[str, list[Task2Record]]:
    return _load_view(path, task2_record_from_dict, held)
