"""Seed-deterministic synthetic corpora and scripted model behaviors.

The generator never emits real statute text or real code; snippets are labeled
placeholders. Label frequencies follow a configurable geometric long tail over
the universe order, and every per-file gold union is capped so breadth-style
profiles can place all gold items inside the top five ranks.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

from .corpus import Checked, LineSpan, RawInstance, check_field, check_member, check_object, read_json, write_json
from .errors import InvalidSpec, RegevalError
from .jurisdiction import JurisdictionRegistry
from .multilabel import SetPrediction
from .retrieval import RankedPrediction, gold_keys_for_records
from .shaping import RetrievalKey, ShapedViews, SnippetPointer, decode_anchor, decode_pointer

PROFILES = ("PERFECT", "BREADTH_ONLY", "RANKING_ONLY", "MAJORITY_LABEL", "RANDOM")

# The lines a synthetic instance may start at: a file has at most this many
# instances.
_START_LINES = range(1, 400)


class _CorpusSpec(NamedTuple):
    seed: int
    files_per_law: Mapping[str, int]
    instances_per_file: tuple[int, int] = (1, 3)
    max_labels_per_file: int = 4
    max_labels_per_instance: int = 2
    skew: float = 0.5
    repos: int = 3


class CorpusSpec(Checked, _CorpusSpec):
    """Shape of a synthetic corpus: per-law file counts and label skew."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.files_per_law:
            raise InvalidSpec("files_per_law is empty")
        for law, count in self.files_per_law.items():
            if count < 1:
                raise InvalidSpec(f"{law}: file count must be >= 1, got {count}")
        lo, hi = self.instances_per_file
        if lo < 1 or hi < lo or hi > len(_START_LINES):
            raise InvalidSpec(f"bad instances_per_file range: {self.instances_per_file}")
        if not (1 <= self.max_labels_per_instance <= self.max_labels_per_file):
            raise InvalidSpec("label caps must satisfy 1 <= per-instance <= per-file")
        if not (0.0 < self.skew < 1.0):
            raise InvalidSpec(f"skew must be in (0, 1), got {self.skew}")
        if self.repos < 1:
            raise InvalidSpec("need at least one repository")

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "files_per_law": dict(self.files_per_law),
            "instances_per_file": list(self.instances_per_file),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CorpusSpec":
        """The spec a synthetic_spec.json holds. `seed` and `files_per_law`
        are required; a field of the wrong type raises InvalidSpec naming it,
        and a boolean is not an integer."""
        obj, member, require = (partial(check, InvalidSpec) for check in (check_object, check_member, check_field))

        def integer(path: str, value) -> int:
            return require(type(value) is int, value, path, "an integer")

        data = obj(data, "top level")
        files = obj(member(data, "files_per_law", "top level"), "files_per_law")
        for law, count in files.items():
            integer(f"files_per_law/{law}", count)
        span = data.get("instances_per_file", [1, 3])
        two_ints = type(span) is list and len(span) == 2 and all(type(n) is int for n in span)
        skew = data.get("skew", 0.5)
        return cls(
            seed=integer("seed", member(data, "seed", "top level")),
            files_per_law=files,
            instances_per_file=tuple(require(two_ints, span, "instances_per_file", "two integers")),
            max_labels_per_file=integer("max_labels_per_file", data.get("max_labels_per_file", 4)),
            max_labels_per_instance=integer("max_labels_per_instance", data.get("max_labels_per_instance", 2)),
            skew=require(type(skew) in (int, float), skew, "skew", "a number"),
            repos=integer("repos", data.get("repos", 3)),
        )


def _stable_hex(*parts: object) -> str:
    import hashlib  # loaded by `synth` alone

    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).hexdigest()
    return digest[:40]


def _weighted_sample(rng: random.Random, universe: Sequence[str], weights: Sequence[float], k: int) -> list[str]:
    chosen: list[str] = []
    pool = list(universe)
    pool_weights = list(weights)
    for _ in range(min(k, len(pool))):
        pick = rng.choices(range(len(pool)), weights=pool_weights, k=1)[0]
        chosen.append(pool.pop(pick))
        pool_weights.pop(pick)
    return chosen


def generate_corpus(spec: CorpusSpec, registry: JurisdictionRegistry) -> list[RawInstance]:
    """Deterministic pseudo-random corpus honoring every raw-instance invariant."""
    for law in spec.files_per_law:
        if law not in registry:
            raise InvalidSpec(f"unknown law in spec: {law}")
    rng = random.Random(spec.seed)
    repos = [
        (f"https://repos.example/project{r}", f"app{r}", _stable_hex(spec.seed, "commit", r))
        for r in range(spec.repos)
    ]
    corpus: list[RawInstance] = []
    for law in sorted(spec.files_per_law):
        jur = registry.get(law)
        weights = [(1.0 - spec.skew) ** idx for idx in range(len(jur.universe))]
        for file_idx in range(spec.files_per_law[law]):
            repo_url, app_name, commit_id = repos[rng.randrange(len(repos))]
            file_path = f"app/src/{law.lower()}/pkg{file_idx % 5}/{law.capitalize()}Handler{file_idx:03d}.kt"
            pool_size = rng.randint(1, spec.max_labels_per_file)
            pool = _weighted_sample(rng, jur.universe, weights, pool_size)
            n_instances = rng.randint(*spec.instances_per_file)
            starts = sorted(rng.sample(_START_LINES, n_instances))
            for inst_idx, start in enumerate(starts):
                span = LineSpan(start, start + rng.randint(0, 4))
                n_labels = rng.randint(1, min(spec.max_labels_per_instance, len(pool)))
                labels = frozenset(rng.sample(pool, n_labels))
                snippet_lines = [
                    f"// synthetic evidence {law} f{file_idx} i{inst_idx}",
                    f"fun handle_{file_idx}_{inst_idx}() {{",
                    f'    sink.emit("record-{file_idx}-{inst_idx}")',
                    "}",
                ]
                corpus.append(
                    RawInstance(
                        app_name=app_name,
                        repo_url=repo_url,
                        commit_id=commit_id,
                        law=law,
                        articles=labels,
                        file_path=file_path,
                        span=span,
                        snippet="\n".join(snippet_lines),
                        note=f"synthetic rationale {law}-{file_idx}-{inst_idx}",
                    )
                )
    return corpus


def write_spec(spec: CorpusSpec, path: str | Path) -> None:
    write_json(path, spec.to_dict())


def load_spec(path: str | Path) -> CorpusSpec:
    """The spec in the file at `path`; a malformed one raises InvalidSpec
    naming the file."""
    data = read_json(path)
    try:
        return CorpusSpec.from_dict(data)
    except InvalidSpec as exc:
        raise InvalidSpec(f"{path}: {exc}") from None


# --- scripted model behaviors -----------------------------------------------------


class ScriptedPredictions:
    __slots__ = ("ranked", "sets")

    def __init__(self):
        self.ranked: list[RankedPrediction] = []
        self.sets: list[SetPrediction] = []


def _law_label_frequencies(view: ShapedViews) -> Counter:
    counts: Counter = Counter()
    for rec in view.task2:
        for label in rec.gold:
            counts[label] += 1
    return counts


def _distractor(universe: Sequence[str], gold: frozenset[str]) -> str:
    for label in universe:
        if label not in gold:
            return label
    return universe[0]


def _scripted_answers(
    profile: str,
    views: Mapping[str, ShapedViews],
    registry: JurisdictionRegistry,
    seed: int,
) -> Iterator[tuple[str, str, tuple, tuple[str, ...]]]:
    """(task, law, view key or pointer, ids) of a profile's answer to every
    task-1 gold key (in `RetrievalKey.sort_key` order) and then every task-2
    record of each law, laws in sorted order; the key or pointer is the
    view's own tuple. See `scripted_model` for the profiles."""
    if profile not in PROFILES:
        raise RegevalError(f"unknown profile: {profile!r} (choose from {PROFILES})")
    for law, view in sorted(views.items()):
        jur = registry.get(law)
        frequencies = _law_label_frequencies(view)
        majority = max(jur.universe, key=lambda lab: (frequencies[lab], -jur.universe_index(lab)))
        rng = random.Random(f"{profile}:{seed}:{law}")

        def answer(gold: frozenset[str], random_size) -> tuple[str, ...]:
            """The profile's ids for one gold set; RANDOM draws
            `random_size()` of them."""
            if profile == "PERFECT":
                return tuple(jur.sort_articles(gold))
            if profile == "BREADTH_ONLY":
                return (_distractor(jur.universe, gold),) + tuple(jur.sort_articles(gold))
            if profile == "RANKING_ONLY":
                return (max(gold, key=lambda lab: (frequencies[lab], -jur.universe_index(lab))),)
            if profile == "MAJORITY_LABEL":
                return (majority,)
            return tuple(rng.sample(list(jur.universe), random_size()))

        ranking_size = partial(min, 5, len(jur.universe))
        for key, gold in sorted(
            gold_keys_for_records(view.task1).items(), key=lambda kv: RetrievalKey.sort_key(kv[0])
        ):
            yield "task1", law, key, answer(gold, ranking_size)
        label_count = partial(rng.randint, 1, min(3, len(jur.universe)))
        for rec in view.task2:
            yield "task2", law, rec.pointer, answer(rec.gold, label_count)


def scripted_model(
    profile: str,
    views: Mapping[str, ShapedViews],
    registry: JurisdictionRegistry,
    seed: int = 0,
) -> ScriptedPredictions:
    """Oracle-adversary prediction generator for one behavior profile.

    PERFECT emits the gold exactly; BREADTH_ONLY keeps all gold inside the top
    five but never at rank 1; RANKING_ONLY answers with the single most
    frequent gold item; MAJORITY_LABEL always predicts the law's most frequent
    label; RANDOM samples uniformly from the universe. Each row's key is a
    `RetrievalKey` and each pointer a `SnippetPointer`, read by field name.
    """
    result = ScriptedPredictions()
    for task, law, target, ids in _scripted_answers(profile, views, registry, seed):
        if task == "task1":
            result.ranked.append(RankedPrediction(RetrievalKey._make(target), ids, profile))
        else:
            result.sets.append(SetPrediction(law, SnippetPointer._make(target), ids, profile))
    return result


def render_response_text(labels: Sequence[str], jur) -> str:
    """Identifier-list response text in the law's citation style."""
    if not labels:
        return "no violations found"
    return ", ".join(jur.render(label) for label in labels)


def profile_reply_fn(
    views: Mapping[str, ShapedViews],
    registry: JurisdictionRegistry,
    profile: str,
    seed: int = 0,
):
    """Build a MockTransport reply function that answers like a profile.

    Each answer's text is rendered once, indexed by the views' own task-1
    keys and (law, task-2 pointer) pairs; a request's key decodes to one of
    them."""
    answers: dict[tuple, str] = {
        target if task == "task1" else (law, target): render_response_text(ids, registry.get(law))
        for task, law, target, ids in _scripted_answers(profile, views, registry, seed)
    }

    def reply(request) -> str:
        if request.task == "task1":
            target = decode_anchor(request.law, request.key)
        else:
            target = (request.law, decode_pointer(request.key))
        return answers.get(target, "no violations found")

    return reply
