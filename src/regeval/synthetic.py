"""Seed-deterministic synthetic corpora and scripted model behaviors.

The generator never emits real statute text or real code; snippets are labeled
placeholders. Label frequencies follow a configurable geometric long tail over
the universe order, and every per-file gold union is capped so breadth-style
profiles can place all gold items inside the top five ranks.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import LineSpan, RawInstance, write_json
from .errors import InvalidSpec, RegevalError
from .harness import request_identity, request_key
from .jurisdiction import JurisdictionRegistry
from .multilabel import SetPrediction
from .retrieval import RankedPrediction, gold_keys_for_records
from .shaping import ShapedViews

PROFILES = ("PERFECT", "BREADTH_ONLY", "RANKING_ONLY", "MAJORITY_LABEL", "RANDOM")


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a synthetic corpus: per-law file counts and label skew."""

    seed: int
    files_per_law: Mapping[str, int]
    instances_per_file: tuple[int, int] = (1, 3)
    max_labels_per_file: int = 4
    max_labels_per_instance: int = 2
    skew: float = 0.5
    repos: int = 3

    def __post_init__(self) -> None:
        if not self.files_per_law:
            raise InvalidSpec("files_per_law is empty")
        for law, count in self.files_per_law.items():
            if count < 1:
                raise InvalidSpec(f"{law}: file count must be >= 1, got {count}")
        lo, hi = self.instances_per_file
        if lo < 1 or hi < lo:
            raise InvalidSpec(f"bad instances_per_file range: {self.instances_per_file}")
        if not (1 <= self.max_labels_per_instance <= self.max_labels_per_file):
            raise InvalidSpec("label caps must satisfy 1 <= per-instance <= per-file")
        if not (0.0 < self.skew < 1.0):
            raise InvalidSpec(f"skew must be in (0, 1), got {self.skew}")
        if self.repos < 1:
            raise InvalidSpec("need at least one repository")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "files_per_law": dict(self.files_per_law),
            "instances_per_file": list(self.instances_per_file),
            "max_labels_per_file": self.max_labels_per_file,
            "max_labels_per_instance": self.max_labels_per_instance,
            "skew": self.skew,
            "repos": self.repos,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CorpusSpec":
        return cls(
            seed=int(data["seed"]),
            files_per_law={str(k): int(v) for k, v in data["files_per_law"].items()},
            instances_per_file=tuple(data.get("instances_per_file", (1, 3))),
            max_labels_per_file=int(data.get("max_labels_per_file", 4)),
            max_labels_per_instance=int(data.get("max_labels_per_instance", 2)),
            skew=float(data.get("skew", 0.5)),
            repos=int(data.get("repos", 3)),
        )


def _stable_hex(*parts: object) -> str:
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
            starts = sorted(rng.sample(range(1, 400), n_instances))
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
    return CorpusSpec.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# --- scripted model behaviors -----------------------------------------------------


@dataclass
class ScriptedPredictions:
    profile: str
    ranked: list[RankedPrediction] = field(default_factory=list)
    sets: list[SetPrediction] = field(default_factory=list)


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
    label; RANDOM samples uniformly from the universe.
    """
    if profile not in PROFILES:
        raise RegevalError(f"unknown profile: {profile!r} (choose from {PROFILES})")
    result = ScriptedPredictions(profile=profile)
    for law, view in sorted(views.items()):
        jur = registry.get(law)
        frequencies = _law_label_frequencies(view)
        majority = max(jur.universe, key=lambda lab: (frequencies[lab], -jur.universe_index(lab)))
        rng = random.Random(f"{profile}:{seed}:{law}")

        def ranking_for(gold: frozenset[str]) -> tuple[str, ...]:
            ordered = tuple(jur.sort_articles(gold))
            if profile == "PERFECT":
                return ordered
            if profile == "BREADTH_ONLY":
                return (_distractor(jur.universe, gold),) + ordered
            if profile == "RANKING_ONLY":
                top = max(gold, key=lambda lab: (frequencies[lab], -jur.universe_index(lab)))
                return (top,)
            if profile == "MAJORITY_LABEL":
                return (majority,)
            k = min(5, len(jur.universe))
            return tuple(rng.sample(list(jur.universe), k))

        for key, gold in sorted(
            gold_keys_for_records(view.task1).items(), key=lambda kv: kv[0].sort_key()
        ):
            result.ranked.append(
                RankedPrediction(key=key, ranking=ranking_for(gold), model=profile)
            )
        for rec in view.task2:
            if profile == "RANDOM":
                k = rng.randint(1, min(3, len(jur.universe)))
                labels = tuple(rng.sample(list(jur.universe), k))
            elif profile == "MAJORITY_LABEL":
                labels = (majority,)
            elif profile == "RANKING_ONLY":
                top = max(rec.gold, key=lambda lab: (frequencies[lab], -jur.universe_index(lab)))
                labels = (top,)
            elif profile == "BREADTH_ONLY":
                labels = (_distractor(jur.universe, rec.gold),) + tuple(jur.sort_articles(rec.gold))
            else:
                labels = tuple(jur.sort_articles(rec.gold))
            result.sets.append(
                SetPrediction(law=law, pointer=rec.pointer, labels=labels, model=profile)
            )
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
    """Build a MockTransport reply function that answers like a profile."""
    scripted = scripted_model(profile, views, registry, seed)
    # Answers are indexed by request identity without its leading model name.
    answers = {
        request_identity("", "task1", p.key.law, request_key(p.key))[1:]: p.ranking
        for p in scripted.ranked
    }
    answers.update(
        (request_identity("", "task2", p.law, request_key(p.pointer))[1:], p.labels)
        for p in scripted.sets
    )

    def reply(request) -> str:
        labels = answers.get(request.identity[1:])
        if labels is None:
            return "no violations found"
        return render_response_text(labels, registry.get(request.law))

    return reply
