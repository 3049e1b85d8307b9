"""Jurisdiction registry: label universes, citation styles, and article canonicalization.

Each supported law keeps its native article numbering. Canonical ids are plain
strings ("7", "4.3"), always read together with their law: equality across
laws is never implied even when the digit strings match.
"""

from __future__ import annotations

import json
import re
from functools import cached_property, partial
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping

from .errors import MalformedConfig, OutOfUniverse, RegevalError, UnrecognizedIdentifier

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


# Separators that continue an identifier list: "Art. 7, 12 and 15".
_CONNECTIVE = r"(?:\s*(?:,|;|/|&|\+|\band\b|\bor\b|\be\b)\s*)+"
# A trailing sentence dot is fine; a letter or a further numeric component
# (".3", "x") means the digits are part of something else.
_TAIL_GUARD = r"(?![A-Za-z])(?!\.?\d)"


class Jurisdiction:
    """One law's label universe plus the lexical rules for its identifiers.

    The identifier grammar is compiled once per law: `head` and
    `continuation` scan free text, `surface_form` matches one whole token.
    Construction also builds a dict index over the universe and the map from
    each universe member the surface form resolves to itself onto the
    universe's own string, so canonical ids skip the regex.
    """

    def __init__(
        self,
        code: str,
        universe: tuple[str, ...],
        citation_style: str,
        prefixes: tuple[str, ...],
        id_pattern: str,
        allow_bare_ids: bool,
    ):
        if not universe:
            raise RegevalError(f"{code}: label universe must be non-empty")
        self._index = {article: i for i, article in enumerate(universe)}
        if len(self._index) != len(universe):
            raise RegevalError(f"{code}: label universe contains duplicates")
        self.code = code
        self.universe = universe
        self.citation_style = citation_style
        self.prefixes = prefixes
        self.id_pattern = id_pattern
        self.allow_bare_ids = allow_bare_ids
        self._canonical = {}
        for article in universe:
            try:
                if self.resolve(article) == article:
                    self._canonical[article] = article
            except (UnrecognizedIdentifier, OutOfUniverse):
                pass

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

    def resolve(self, raw: str) -> str:
        """The canonical id of one surface form, resolved through the grammar
        (the regex path)."""
        if not raw or not raw.strip():
            raise UnrecognizedIdentifier(f"{self.code}: empty identifier text")
        match = self.surface_form.match(raw)
        if match is None:
            raise UnrecognizedIdentifier(f"{self.code}: no identifier in {raw!r}")
        canonical = _canonical_token(match.group(1))
        if not self.contains(canonical):
            raise OutOfUniverse(f"{self.code}: article {canonical!r} not in universe")
        return canonical


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
        """The registry of a jurisdictions config. Each law needs `universe`
        (`ids`, a list, or `range`, two integers), `citation_style` and
        `id_pattern`; a field that is missing or that does not work raises
        MalformedConfig naming it by its path."""
        from .corpus import check_field, check_member, check_object  # corpus imports this module

        obj, member, require = (partial(check, MalformedConfig) for check in (check_object, check_member, check_field))
        laws = {}
        for code, entry in obj(config, "top level").items():
            entry = obj(entry, code)
            universe_cfg = obj(member(entry, "universe", code), f"{code}/universe")
            if "ids" in universe_cfg:
                ids = universe_cfg["ids"]
                universe = tuple(str(i) for i in require(type(ids) is list, ids, f"{code}/universe/ids", "a list"))
            elif "range" in universe_cfg:
                bounds = universe_cfg["range"]
                two_ints = type(bounds) is list and len(bounds) == 2 and all(type(b) is int for b in bounds)
                lo, hi = require(two_ints, bounds, f"{code}/universe/range", "two integers")
                universe = tuple(str(i) for i in range(lo, hi + 1))
            else:
                raise MalformedConfig(f"{code}/universe: needs 'ids' or 'range'")
            style, pattern = member(entry, "citation_style", code), member(entry, "id_pattern", code)
            prefixes = entry.get("prefixes", [])
            allow_bare = entry.get("allow_bare_ids", False)
            require(type(style) is str, style, f"{code}/citation_style", "a string")
            require(type(pattern) is str, pattern, f"{code}/id_pattern", "a string")
            strings = type(prefixes) is list and all(type(prefix) is str for prefix in prefixes)
            require(strings, prefixes, f"{code}/prefixes", "a list of strings")
            require(type(allow_bare) is bool, allow_bare, f"{code}/allow_bare_ids", "true or false")
            try:
                style.format(id="1")
            except (AttributeError, IndexError, KeyError, ValueError) as exc:
                raise MalformedConfig(f"{code}/citation_style cannot render an id: {exc!r}") from None
            # Construction resolves the universe through the identifier
            # grammar, which compiles the pattern inside larger ones.
            try:
                laws[code] = Jurisdiction(code, universe, style, tuple(prefixes), pattern, allow_bare)
                matches_empty = re.fullmatch(pattern, "") is not None
            except re.error as exc:
                raise MalformedConfig(f"{code}/id_pattern does not compile: {exc}") from None
            # An identifier that may be empty would never end a text scan.
            require(not matches_empty, pattern, f"{code}/id_pattern", "a pattern no empty text matches")
        return cls(laws)

    @classmethod
    def from_file(cls, path: str | Path) -> "JurisdictionRegistry":
        """The registry of the jurisdictions config at `path`; any error of
        the config raises MalformedConfig naming the file."""
        from .corpus import read_json  # corpus imports this module

        config = read_json(path)
        try:
            return cls.from_config(config)
        except RegevalError as exc:
            raise MalformedConfig(f"{path}: {exc}") from None

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

    def canonicalize_article(self, raw: str, law: str) -> str:
        """Resolve one identifier surface form of `law` to its canonical id.

        A universe member already in canonical form is one dict lookup that
        returns the universe's own string; any other text goes through the
        law's surface-form grammar. Raises
        UnrecognizedIdentifier when the text is not an identifier at all and
        OutOfUniverse when it parses but names an unknown provision.
        """
        jur = self.get(law)
        article = jur._canonical.get(raw)
        return article if article is not None else jur.resolve(raw)
