"""Deterministic reshaping of the raw corpus into the two gold evaluation views.

The localization view groups evidence by (repo, app, commit, file) and exposes
file, module, and line sections; the judgment view keeps one code window per
snippet pointer. Both views union repeated evidence and order records
canonically so regeneration is byte-stable.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import LineSpan, RawInstance, decode_span, derive_module_name, write_json
from .errors import ConflictingSnippet, EmptyCorpus, MalformedPrediction, RegevalError
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


@dataclass(frozen=True, order=True)
class Task1Key:
    repo_url: str
    app_name: str
    commit_id: str
    file_path: str


@dataclass(frozen=True)
class LineEntry:
    span: LineSpan
    gold: frozenset[str]


@dataclass(frozen=True)
class Task1Record:
    law: str
    key: Task1Key
    file_gold: frozenset[str]
    module_name: str
    module_gold: frozenset[str]
    line_entries: tuple[LineEntry, ...]


@dataclass(frozen=True, order=True)
class SnippetPointer:
    file_path: str
    span: LineSpan
    commit_id: str

    def anchor(self) -> tuple:
        """The pointer as a plain tuple: (file_path, span_start, span_end, commit_id)."""
        return (self.file_path, self.span.start, self.span.end, self.commit_id)

    @classmethod
    def from_anchor(cls, anchor: tuple) -> "SnippetPointer":
        file_path, start, end, commit_id = anchor
        return cls(file_path=file_path, span=LineSpan(start, end), commit_id=commit_id)

    def to_dict(self) -> dict:
        return {"file_path": self.file_path, "span": self.span.as_list(), "commit_id": self.commit_id}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SnippetPointer":
        return cls.from_anchor(decode_pointer(data))


def decode_pointer(data: Mapping) -> tuple:
    """The anchor of a `{file_path, span, commit_id}` dict, read without
    building a `SnippetPointer`: the one reader of those fields."""
    try:
        file_path, span, commit_id = data["file_path"], data["span"], data["commit_id"]
    except KeyError as exc:
        raise MalformedPrediction(f"missing pointer field {exc.args[0]!r}") from None
    if type(file_path) is not str or type(commit_id) is not str:
        raise MalformedPrediction("pointer fields must be strings")
    start, end = decode_span(span)
    return (file_path, start, end, commit_id)


@dataclass(frozen=True)
class Task2Record:
    law: str
    pointer: SnippetPointer
    snippet: str
    gold: frozenset[str]
    repo_url: str
    app_name: str


def merge_line_evidence(entries: Sequence[tuple[LineSpan, frozenset[str]]]) -> list[LineEntry]:
    """Collapse raw (span, articles) evidence into line-section entries.

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

    merged: list[LineEntry] = []
    for labels in sorted(by_labels, key=lambda s: tuple(sorted(s))):
        spans = sorted(by_labels[labels])
        current = spans[0]
        for nxt in spans[1:]:
            if current.overlaps(nxt):
                current = current.cover(nxt)
            else:
                merged.append(LineEntry(current, labels))
                current = nxt
        merged.append(LineEntry(current, labels))
    merged.sort(key=lambda e: (e.span.start, e.span.end, tuple(sorted(e.gold))))
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
    groups: dict[Task1Key, list[RawInstance]] = {}
    for inst in corpus:
        key = Task1Key(inst.repo_url, inst.app_name, inst.commit_id, inst.file_path)
        groups.setdefault(key, []).append(inst)

    records = []
    for key, members in groups.items():
        union = frozenset().union(*(inst.articles for inst in members))
        lines = merge_line_evidence([(inst.span, inst.articles) for inst in members])
        records.append(
            Task1Record(
                law=law,
                key=key,
                file_gold=union,
                module_name=derive_module_name(key.file_path),
                module_gold=union,
                line_entries=tuple(lines),
            )
        )
    records.sort(key=lambda r: (r.key.repo_url, r.key.file_path, r.key.app_name, r.key.commit_id))
    return records


def shape_task2(corpus: Sequence[RawInstance]) -> list[Task2Record]:
    """Group one law's instances into judgment records, one per snippet pointer."""
    law = _require_single_law(corpus)
    groups: dict[SnippetPointer, list[RawInstance]] = {}
    for inst in corpus:
        pointer = SnippetPointer(inst.file_path, inst.span, inst.commit_id)
        groups.setdefault(pointer, []).append(inst)

    records = []
    for pointer, members in groups.items():
        snippets = {inst.snippet for inst in members}
        if len(snippets) != 1:
            raise ConflictingSnippet(
                f"pointer {pointer.file_path}:{pointer.span.render()} maps to "
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
    records.sort(
        key=lambda r: (r.repo_url, r.pointer.file_path, r.pointer.span, r.pointer.commit_id)
    )
    return records


@dataclass
class ShapedViews:
    law: str
    task1: list[Task1Record] = field(default_factory=list)
    task2: list[Task2Record] = field(default_factory=list)


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


def task2_as_instances(records: Sequence[Task2Record]) -> list[RawInstance]:
    """Re-read judgment records as raw instances (provenance round trip)."""
    return [
        RawInstance(
            app_name=rec.app_name,
            repo_url=rec.repo_url,
            commit_id=rec.pointer.commit_id,
            law=rec.law,
            articles=rec.gold,
            file_path=rec.pointer.file_path,
            span=rec.pointer.span,
            snippet=rec.snippet,
        )
        for rec in records
    ]


# --- JSON views ---------------------------------------------------------------


def task1_record_to_dict(record: Task1Record, registry: JurisdictionRegistry) -> dict:
    jur = registry.get(record.law)
    return {
        "key": {
            "repo_url": record.key.repo_url,
            "app_name": record.key.app_name,
            "commit_id": record.key.commit_id,
            "file_path": record.key.file_path,
        },
        "sections": {
            "file": {"gold": jur.sort_articles(record.file_gold)},
            "module": {"name": record.module_name, "gold": jur.sort_articles(record.module_gold)},
            "line": [
                {"span": entry.span.as_list(), "gold": jur.sort_articles(entry.gold)}
                for entry in record.line_entries
            ],
        },
    }


def task2_record_to_dict(record: Task2Record, registry: JurisdictionRegistry) -> dict:
    jur = registry.get(record.law)
    return {
        "pointer": record.pointer.to_dict(),
        "snippet": record.snippet,
        "gold": jur.sort_articles(record.gold),
        "provenance": {"repo_url": record.repo_url, "app_name": record.app_name},
    }


def task1_record_from_dict(law: str, data: Mapping) -> Task1Record:
    key = Task1Key(
        repo_url=data["key"]["repo_url"],
        app_name=data["key"]["app_name"],
        commit_id=data["key"]["commit_id"],
        file_path=data["key"]["file_path"],
    )
    sections = data["sections"]
    return Task1Record(
        law=law,
        key=key,
        file_gold=frozenset(sections["file"]["gold"]),
        module_name=sections["module"]["name"],
        module_gold=frozenset(sections["module"]["gold"]),
        line_entries=tuple(
            LineEntry(LineSpan(*entry["span"]), frozenset(entry["gold"]))
            for entry in sections["line"]
        ),
    )


def task2_record_from_dict(law: str, data: Mapping) -> Task2Record:
    return Task2Record(
        law=law,
        pointer=SnippetPointer.from_dict(data["pointer"]),
        snippet=data["snippet"],
        gold=frozenset(data["gold"]),
        repo_url=data["provenance"]["repo_url"],
        app_name=data["provenance"]["app_name"],
    )


def dump_views(
    views: Mapping[str, ShapedViews],
    out_dir: str | Path,
    registry: JurisdictionRegistry,
    config_echo: Mapping | None = None,
) -> list[Path]:
    """Write task1_<LAW>.json / task2_<LAW>.json with canonical ordering."""
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
            written.append(write_json(out / f"{task}_{law}.json", payload))
    return written


def load_task1_view(path: str | Path) -> tuple[str, list[Task1Record]]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    law = data["law"]
    return law, [task1_record_from_dict(law, rec) for rec in data["records"]]


def load_task2_view(path: str | Path) -> tuple[str, list[Task2Record]]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    law = data["law"]
    return law, [task2_record_from_dict(law, rec) for rec in data["records"]]
