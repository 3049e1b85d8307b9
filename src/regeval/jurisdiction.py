"""Jurisdiction registry: label universes, citation styles, and article canonicalization.

Each supported law keeps its native article numbering. Canonical ids are plain
strings ("7", "4.3"); equality across laws is never implied even when the digit
strings match, so cross-law comparisons always go through ArticleRef.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping

from .errors import OutOfUniverse, RegevalError, UnrecognizedIdentifier

LAWS = ("LGPD", "PDPA", "PIPEDA")

THEMES = ("consent", "notice", "collection", "retention", "security", "transfer")

# Per-law anchor article for each shared compliance theme.
THEME_ANCHORS: dict[str, dict[str, str]] = {
    "consent": {"LGPD": "7", "PDPA": "13", "PIPEDA": "4.3"},
    "notice": {"LGPD": "6", "PDPA": "20", "PIPEDA": "4.2"},
    "collection": {"LGPD": "6", "PDPA": "18", "PIPEDA": "4.4"},
    "retention": {"LGPD": "15", "PDPA": "25", "PIPEDA": "4.5"},
    "security": {"LGPD": "46", "PDPA": "24", "PIPEDA": "4.7"},
    "transfer": {"LGPD": "33", "PDPA": "26", "PIPEDA": "4.1"},
}


@dataclass(frozen=True, order=True)
class ArticleRef:
    """A native article identifier scoped to one law."""

    law: str
    article: str

    def __str__(self) -> str:
        return f"{self.law}:{self.article}"


# Separators that continue an identifier list: "Art. 7, 12 and 15".
_CONNECTIVE = r"(?:\s*(?:,|;|/|&|\+|\band\b|\bor\b|\be\b)\s*)+"
# A trailing sentence dot is fine; a letter or a further numeric component
# (".3", "x") means the digits are part of something else.
_TAIL_GUARD = r"(?![A-Za-z])(?!\.?\d)"


@dataclass(frozen=True)
class Jurisdiction:
    """One law's label universe plus the lexical rules for its identifiers.

    The identifier grammar is compiled once per law: `head` and
    `continuation` scan free text, `surface_form` matches one whole token.
    Construction also builds a dict index over the universe and the map from
    each universe member the surface form resolves to itself onto its shared
    `ArticleRef`, so canonical ids skip the regex.
    """

    code: str
    universe: tuple[str, ...]
    citation_style: str
    prefixes: tuple[str, ...]
    id_pattern: str
    allow_bare_ids: bool
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _canonical: dict[str, ArticleRef] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.universe:
            raise RegevalError(f"{self.code}: label universe must be non-empty")
        index = {article: i for i, article in enumerate(self.universe)}
        if len(index) != len(self.universe):
            raise RegevalError(f"{self.code}: label universe contains duplicates")
        object.__setattr__(self, "_index", index)
        canonical = {}
        for article in self.universe:
            try:
                ref = self.resolve(article)
            except (UnrecognizedIdentifier, OutOfUniverse):
                continue
            if ref.article == article:
                canonical[article] = ref
        object.__setattr__(self, "_canonical", canonical)

    def universe_index(self, article: str) -> int:
        """Position of an article in the stable universe order."""
        try:
            return self._index[article]
        except KeyError:
            raise OutOfUniverse(f"{self.code}: article {article!r} not in universe") from None

    def contains(self, article: str) -> bool:
        return article in self._index

    def render(self, article: str) -> str:
        """Render a canonical id in this law's citation style."""
        return self.citation_style.format(id=article)

    def sort_articles(self, articles: Iterable[str]) -> list[str]:
        return sorted(articles, key=self.universe_index)

    # --- identifier grammar ------------------------------------------------------

    @cached_property
    def _prefix(self) -> str:
        """A citation prefix: "§", or a prefix word not glued to a preceding
        letter, then an optional abbreviation dot."""
        words = sorted((p for p in self.prefixes if p != "§"), key=len, reverse=True)
        return rf"(?:§|(?<![A-Za-z])(?:{'|'.join(map(re.escape, words))}))\s*\.?"

    @cached_property
    def _bare_token(self) -> str:
        return rf"(?<![A-Za-z\d.])({self.id_pattern}){_TAIL_GUARD}"

    @cached_property
    def head(self) -> re.Pattern[str]:
        """First identifier of a list: prefixed, or bare where the law allows it."""
        if self.allow_bare_ids:
            return re.compile(rf"(?:{self._prefix}\s*)?{self._bare_token}", re.IGNORECASE)
        return re.compile(rf"{self._prefix}\s*({self.id_pattern}){_TAIL_GUARD}", re.IGNORECASE)

    @cached_property
    def continuation(self) -> re.Pattern[str]:
        """A further identifier joined to the previous one by a connective."""
        return re.compile(rf"{_CONNECTIVE}(?:{self._prefix}\s*)?{self._bare_token}", re.IGNORECASE)

    @cached_property
    def surface_form(self) -> re.Pattern[str]:
        """One whole token: optional brackets, quotes, prefix and trailing punctuation."""
        return re.compile(
            rf"^[\s\(\[\"']*(?:{self._prefix})?\s*({self.id_pattern})[\s\)\]\"'.,;:!?]*$",
            re.IGNORECASE,
        )

    def scan(self, text: str) -> list[str]:
        """Identifier tokens of free text, in order: each list starts at a
        `head` match and runs on through `continuation` matches."""
        tokens: list[str] = []
        pos = 0
        while True:
            head = self.head.search(text, pos)
            if head is None:
                break
            tokens.append(head.group(1))
            pos = head.end()
            while True:
                cont = self.continuation.match(text, pos)
                if cont is None:
                    break
                tokens.append(cont.group(1))
                pos = cont.end()
        return tokens

    def resolve(self, raw: str) -> ArticleRef:
        """Resolve one surface form through the grammar (the regex path)."""
        if not raw or not raw.strip():
            raise UnrecognizedIdentifier(f"{self.code}: empty identifier text")
        match = self.surface_form.match(raw)
        if match is None:
            raise UnrecognizedIdentifier(f"{self.code}: no identifier in {raw!r}")
        canonical = _canonical_token(match.group(1))
        if not self.contains(canonical):
            raise OutOfUniverse(f"{self.code}: article {canonical!r} not in universe")
        return ArticleRef(self.code, canonical)


def _canonical_token(token: str) -> str:
    """Strip leading zeros from the numeric components of an id token."""
    if re.fullmatch(r"\d+", token):
        return str(int(token))
    if re.fullmatch(r"\d+\.\d+", token):
        major, minor = token.split(".")
        return f"{int(major)}.{int(minor)}"
    return token


class JurisdictionRegistry:
    """All configured jurisdictions, loaded from a config file or bundled defaults."""

    def __init__(self, jurisdictions: Mapping[str, Jurisdiction]):
        self._by_code = dict(jurisdictions)

    @classmethod
    def from_config(cls, config: Mapping[str, Mapping]) -> "JurisdictionRegistry":
        laws = {}
        for code, entry in config.items():
            universe_cfg = entry["universe"]
            if "ids" in universe_cfg:
                universe = tuple(str(i) for i in universe_cfg["ids"])
            elif "range" in universe_cfg:
                lo, hi = universe_cfg["range"]
                universe = tuple(str(i) for i in range(int(lo), int(hi) + 1))
            else:
                raise RegevalError(f"{code}: universe needs 'ids' or 'range'")
            laws[code] = Jurisdiction(
                code=code,
                universe=universe,
                citation_style=entry["citation_style"],
                prefixes=tuple(entry.get("prefixes", ())),
                id_pattern=entry["id_pattern"],
                allow_bare_ids=bool(entry.get("allow_bare_ids", False)),
            )
        return cls(laws)

    @classmethod
    def from_file(cls, path: str | Path) -> "JurisdictionRegistry":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_config(json.load(fh))

    @classmethod
    def default(cls) -> "JurisdictionRegistry":
        data = resources.files("regeval.data").joinpath("jurisdictions.json").read_text("utf-8")
        return cls.from_config(json.loads(data))

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(self._by_code)

    def get(self, code: str) -> Jurisdiction:
        try:
            return self._by_code[code]
        except KeyError:
            raise RegevalError(f"unknown jurisdiction: {code!r}") from None

    def __contains__(self, code: str) -> bool:
        return code in self._by_code

    def to_config(self) -> dict:
        return {
            code: {
                "citation_style": jur.citation_style,
                "universe": {"ids": list(jur.universe)},
                "prefixes": list(jur.prefixes),
                "id_pattern": jur.id_pattern,
                "allow_bare_ids": jur.allow_bare_ids,
            }
            for code, jur in self._by_code.items()
        }

    def canonicalize_article(self, raw: str, law: str) -> ArticleRef:
        """Resolve one identifier surface form to its canonical ArticleRef.

        A universe member already in canonical form is one dict lookup; any
        other text goes through the law's surface-form grammar. Raises
        UnrecognizedIdentifier when the text is not an identifier at all and
        OutOfUniverse when it parses but names an unknown provision.
        """
        jur = self.get(law)
        ref = jur._canonical.get(raw)
        return ref if ref is not None else jur.resolve(raw)


def theme_anchor(theme: str, law: str, registry: JurisdictionRegistry | None = None) -> ArticleRef:
    """Fixed anchor article for a compliance theme under one law."""
    key = theme.lower()
    if key not in THEME_ANCHORS:
        raise RegevalError(f"unknown theme: {theme!r}")
    anchors = THEME_ANCHORS[key]
    if law not in anchors:
        raise RegevalError(f"unknown jurisdiction: {law!r}")
    if registry is not None and not registry.get(law).contains(anchors[law]):
        raise OutOfUniverse(f"{law}: anchor {anchors[law]!r} missing from configured universe")
    return ArticleRef(law, anchors[law])
