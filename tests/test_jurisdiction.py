from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from regeval.errors import OutOfUniverse, RegevalError, UnrecognizedIdentifier
from regeval.jurisdiction import (
    LAWS,
    THEME_ANCHORS,
    THEMES,
    ArticleRef,
    JurisdictionRegistry,
    theme_anchor,
)


def test_canonicalize_basic_forms(registry):
    assert registry.canonicalize_article("Art. 7", "LGPD") == ArticleRef("LGPD", "7")
    assert registry.canonicalize_article("4.3", "PIPEDA") == ArticleRef("PIPEDA", "4.3")
    assert registry.canonicalize_article("s. 24", "PDPA") == ArticleRef("PDPA", "24")


def test_canonicalize_rejects_non_identifiers(registry):
    with pytest.raises(UnrecognizedIdentifier):
        registry.canonicalize_article("banana", "PDPA")
    with pytest.raises(UnrecognizedIdentifier):
        registry.canonicalize_article("", "LGPD")
    with pytest.raises(UnrecognizedIdentifier):
        registry.canonicalize_article("   ", "LGPD")


def test_canonicalize_out_of_universe(registry):
    with pytest.raises(OutOfUniverse):
        registry.canonicalize_article("Art. 999", "LGPD")
    with pytest.raises(OutOfUniverse):
        registry.canonicalize_article("9.9", "PIPEDA")


@pytest.mark.parametrize(
    "raw,law,expected",
    [
        ("Article 7", "LGPD", "7"),
        ("ART. 7", "LGPD", "7"),
        ("art 7.", "LGPD", "7"),
        ("  Artigo 12,", "LGPD", "12"),
        ("(Art. 07)", "LGPD", "7"),
        ("Section 24", "PDPA", "24"),
        ("sec. 13", "PDPA", "13"),
        ("§ 4.3", "PIPEDA", "4.3"),
        ("Principle 4.10", "PIPEDA", "4.10"),
        ("§4.7", "PIPEDA", "4.7"),
        ("'4.3'", "PIPEDA", "4.3"),
    ],
)
def test_canonicalize_surface_variants(registry, raw, law, expected):
    assert registry.canonicalize_article(raw, law).article == expected


def test_canonicalize_idempotent_over_all_universes(registry):
    for law in registry.codes:
        jur = registry.get(law)
        for article in jur.universe:
            rendered = jur.render(article)
            assert registry.canonicalize_article(rendered, law).article == article
            assert registry.canonicalize_article(article, law).article == article


def test_cross_law_ids_never_equal():
    assert ArticleRef("LGPD", "15") != ArticleRef("PDPA", "15")
    assert ArticleRef("LGPD", "15") == ArticleRef("LGPD", "15")


def test_leading_zero_and_decimal_normalization(registry):
    assert registry.canonicalize_article("Art. 007", "LGPD").article == "7"
    assert registry.canonicalize_article("04.3", "PIPEDA").article == "4.3"
    assert registry.canonicalize_article("4.10", "PIPEDA").article == "4.10"
    assert registry.canonicalize_article("4.1", "PIPEDA").article == "4.1"


def test_universe_order_is_stable(registry):
    pipeda = registry.get("PIPEDA")
    assert pipeda.universe.index("4.2") < pipeda.universe.index("4.10")
    assert pipeda.sort_articles({"4.10", "4.2"}) == ["4.2", "4.10"]


@pytest.mark.parametrize(
    "theme,law,expected",
    [
        ("consent", "LGPD", "7"),
        ("consent", "PDPA", "13"),
        ("consent", "PIPEDA", "4.3"),
        ("notice", "LGPD", "6"),
        ("notice", "PDPA", "20"),
        ("notice", "PIPEDA", "4.2"),
        ("collection", "LGPD", "6"),
        ("collection", "PDPA", "18"),
        ("collection", "PIPEDA", "4.4"),
        ("retention", "LGPD", "15"),
        ("retention", "PDPA", "25"),
        ("retention", "PIPEDA", "4.5"),
        ("security", "LGPD", "46"),
        ("security", "PDPA", "24"),
        ("security", "PIPEDA", "4.7"),
        ("transfer", "LGPD", "33"),
        ("transfer", "PDPA", "26"),
        ("transfer", "PIPEDA", "4.1"),
    ],
)
def test_theme_anchor_table(theme, law, expected):
    assert theme_anchor(theme, law) == ArticleRef(law, expected)


def test_theme_anchor_complete_and_in_universe(registry):
    for theme in THEMES:
        for law in LAWS:
            anchor = theme_anchor(theme, law, registry)
            assert registry.get(law).contains(anchor.article)
    assert set(THEME_ANCHORS) == set(THEMES)


def test_theme_anchor_rejects_unknowns():
    with pytest.raises(RegevalError):
        theme_anchor("weather", "LGPD")
    with pytest.raises(RegevalError):
        theme_anchor("consent", "GDPR")


def test_registry_from_range_config():
    registry = JurisdictionRegistry.from_config(
        {
            "LGPD": {
                "citation_style": "Art. {id}",
                "universe": {"range": [1, 65]},
                "prefixes": ["art"],
                "id_pattern": "\\d+",
            }
        }
    )
    jur = registry.get("LGPD")
    assert len(jur.universe) == 65
    assert registry.canonicalize_article("Art. 65", "LGPD").article == "65"


def test_registry_rejects_duplicate_universe():
    with pytest.raises(RegevalError):
        JurisdictionRegistry.from_config(
            {
                "X": {
                    "citation_style": "{id}",
                    "universe": {"ids": ["1", "1"]},
                    "prefixes": [],
                    "id_pattern": "\\d+",
                }
            }
        )


def test_unknown_jurisdiction(registry):
    with pytest.raises(RegevalError):
        registry.get("GDPR")


# --- the canonical fast path keeps every result and exception type -------------

# Universe members that are not their own canonical form: "05" resolves to the
# unknown "5" (ZP) or to the member "5" (ZQ); "010" resolves to the unknown "10".
_ODD_REGISTRY = JurisdictionRegistry.from_config(
    {
        "ZP": {
            "citation_style": "Art. {id}",
            "universe": {"ids": ["05", "7", "010"]},
            "prefixes": ["art", "s"],
            "id_pattern": "\\d+",
        },
        "ZQ": {
            "citation_style": "{id}",
            "universe": {"ids": ["05", "5"]},
            "prefixes": [],
            "id_pattern": "\\d+",
        },
    }
)
_DEFAULT_REGISTRY = JurisdictionRegistry.default()
_CASES = [(_DEFAULT_REGISTRY, law) for law in _DEFAULT_REGISTRY.codes] + [
    (_ODD_REGISTRY, law) for law in _ODD_REGISTRY.codes
]


@st.composite
def surface_forms(draw, jur):
    """Identifier text as models and files write it: universe members, zero
    padded, prefixed, bracketed, out of universe, or not an identifier."""
    member = st.sampled_from(jur.universe)
    core = draw(
        st.one_of(
            member,
            st.tuples(st.sampled_from(["0", "00"]), member).map("".join),
            member.map(lambda a: ".".join(p.zfill(2) for p in a.split("."))),
            st.integers(0, 999).map(str),
            st.tuples(st.integers(0, 12), st.integers(0, 12)).map(lambda t: f"{t[0]}.{t[1]}"),
            st.text(alphabet="aS§.,;()[]'\" 0123456789x", max_size=8),
        )
    )
    prefix = draw(
        st.sampled_from(["", "§", "§ ", "§.", "Art. ", "ART", "article ", "s.", "Section ",
                         "principle ", "smart ", "x"])
    )
    opening = draw(st.sampled_from(["", " ", "(", "[", '"', "'", " ("]))
    closing = draw(st.sampled_from(["", " ", ")", "]", ".", ",", ";", "'", "):", "x"]))
    return opening + prefix + core + closing


def _outcome(registry, raw, law):
    try:
        ref = registry.canonicalize_article(raw, law)
    except (UnrecognizedIdentifier, OutOfUniverse) as exc:
        return type(exc)
    assert ref == ArticleRef(law, ref.article)
    return ref.article


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonicalize_matches_surface_form_oracle(data):
    registry, law = data.draw(st.sampled_from(_CASES))
    jur = registry.get(law)
    raw = data.draw(st.one_of(surface_forms(jur), st.text(max_size=12)))
    assert _outcome(registry, raw, law) == oracles.oracle_canonicalize(jur, raw)
    # The fast path and the grammar alone agree too.
    try:
        resolved = jur.resolve(raw).article
    except (UnrecognizedIdentifier, OutOfUniverse) as exc:
        resolved = type(exc)
    assert _outcome(registry, raw, law) == resolved


def test_non_canonical_universe_ids_keep_their_outcome():
    with pytest.raises(OutOfUniverse):
        _ODD_REGISTRY.canonicalize_article("05", "ZP")
    with pytest.raises(OutOfUniverse):
        _ODD_REGISTRY.canonicalize_article("010", "ZP")
    assert _ODD_REGISTRY.canonicalize_article("05", "ZQ") == ArticleRef("ZQ", "5")
    assert _ODD_REGISTRY.canonicalize_article("Art. 007", "ZP") == ArticleRef("ZP", "7")


def test_canonical_ids_share_one_ref(registry):
    for law in registry.codes:
        for article in registry.get(law).universe:
            ref = registry.canonicalize_article(article, law)
            assert ref is registry.canonicalize_article(article, law)
            assert ref == ArticleRef(law, article)


def test_universe_index_and_contains(registry):
    pipeda = registry.get("PIPEDA")
    for i, article in enumerate(pipeda.universe):
        assert pipeda.universe_index(article) == i
        assert pipeda.contains(article)
    assert not pipeda.contains("4.11")
    with pytest.raises(OutOfUniverse):
        pipeda.universe_index("04.3")
