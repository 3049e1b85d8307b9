"""`eval` joins predictions to gold on plain-tuple anchors; this checks the
whole `base.json` it writes (metrics and diagnostics) against the earlier
dataclass-keyed join, kept in `oracles.py`, on generated prediction files.

The gold views hold LGPD and PDPA, and PDPA keeps no line sections, so its
line slice has no gold. Predictions include gold keys and pointers as they
are, shifted spans, renamed modules, stray files, line keys for PDPA, entries
for PIPEDA (a law without views), repeated entries, entries without a model
or named like their directory, empty id lists and id lists longer than the universe in mixed surface forms.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from regeval.cli import main
from regeval.jurisdiction import JurisdictionRegistry
from regeval.retrieval import gold_keys_for_records
from regeval.shaping import ShapedViews, dump_views, load_task1_view, load_task2_view, shape_views
from regeval.synthetic import CorpusSpec, generate_corpus

REGISTRY = JurisdictionRegistry.default()
VIEW_LAWS = ("LGPD", "PDPA")
OTHER_LAW = "PIPEDA"


def _surface_forms(law: str) -> list[str]:
    """Each universe id as stored, in the citation style, and zero-padded."""
    jur = REGISTRY.get(law)
    forms = []
    for article in jur.universe:
        padded = ".".join(part.zfill(3) for part in article.split("."))
        forms += [article, jur.render(article), padded]
    return forms


SURFACES = {law: _surface_forms(law) for law in (*VIEW_LAWS, OTHER_LAW)}


def _gold_views() -> dict[str, ShapedViews]:
    """LGPD and PDPA views; PDPA keeps no line sections."""
    corpus = generate_corpus(CorpusSpec(seed=11, files_per_law={law: 3 for law in VIEW_LAWS}), REGISTRY)
    views = shape_views(corpus)
    views["PDPA"].task1 = [replace(rec, line_entries=()) for rec in views["PDPA"].task1]
    return views


GOLD_VIEWS = _gold_views()
KEYS = [key.to_dict() for key in gold_keys_for_records([r for v in GOLD_VIEWS.values() for r in v.task1])]
POINTERS = [{"law": rec.law, **rec.pointer.to_dict()} for v in GOLD_VIEWS.values() for rec in v.task2]


@pytest.fixture(scope="module")
def views_dir(tmp_path_factory) -> Path:
    views_dir = tmp_path_factory.mktemp("anchor_join") / "views"
    dump_views(GOLD_VIEWS, views_dir, REGISTRY)
    return views_dir


def _load_views(views_dir: Path, laws: list[str] | None) -> dict[str, ShapedViews]:
    views = {}
    for law in VIEW_LAWS:
        if laws is None or law in laws:
            _, task1 = load_task1_view(views_dir / f"task1_{law}.json")
            _, task2 = load_task2_view(views_dir / f"task2_{law}.json")
            views[law] = ShapedViews(law=law, task1=task1, task2=task2)
    return views


def _ids(draw, law: str, max_size: int) -> list[str]:
    return draw(st.lists(st.sampled_from(SURFACES[law]), max_size=max_size))


def _model(draw, entry: dict) -> dict:
    # An entry without a model is scored under its directory's name, so
    # "predictions_0" mixes "" and a named model in one group.
    model = draw(st.sampled_from([None, "", "m1", "m2", "predictions_0"]))
    if model is not None:
        entry["model"] = model
    return entry


@st.composite
def task1_entries(draw, keys: list[dict]) -> dict:
    entry = dict(draw(st.sampled_from(keys)))
    change = draw(st.sampled_from(["none", "none", "span", "module", "file", "pdpa_line", "law"]))
    if change == "span" and "span" in entry:
        entry["span"] = [entry["span"][0] + 1, entry["span"][1] + 1]
    elif change == "module" and "module" in entry:
        entry["module"] = "Elsewhere"
    elif change == "file":
        entry["file_path"] = "app/Stray.kt"
    elif change == "pdpa_line":
        entry.update(law="PDPA", granularity="line", span=[1, 2])
        entry.pop("module", None)
    elif change == "law":
        entry["law"] = OTHER_LAW
    entry["ranking"] = _ids(draw, entry["law"], 14)
    return _model(draw, entry)


@st.composite
def task2_entries(draw, pointers: list[dict]) -> dict:
    entry = dict(draw(st.sampled_from(pointers)))
    change = draw(st.sampled_from(["none", "none", "span", "file", "law"]))
    if change == "span":
        entry["span"] = [entry["span"][0] + 1, entry["span"][1] + 1]
    elif change == "file":
        entry["file_path"] = "app/Stray.kt"
    elif change == "law":
        entry["law"] = OTHER_LAW
    entry["labels"] = _ids(draw, entry["law"], 5)
    return _model(draw, entry)


@st.composite
def prediction_dirs(draw, keys: list[dict], pointers: list[dict]) -> list[tuple[list, list]]:
    dirs = []
    for _ in range(draw(st.integers(1, 2))):
        ranked = draw(st.lists(task1_entries(keys), max_size=30))
        sets = draw(st.lists(task2_entries(pointers), max_size=20))
        # Repeat some entries, some under another model, so keys and pointers collide.
        for entries in (ranked, sets):
            if entries:
                entries += [_model(draw, dict(entry)) for entry in draw(st.lists(st.sampled_from(entries), max_size=4))]
        dirs.append((ranked, sets))
    return dirs


@settings(max_examples=300, deadline=None)
@given(
    dirs=prediction_dirs(KEYS, POINTERS),
    policy=st.sampled_from(["strict", "relaxed"]),
    laws=st.sampled_from([None, "LGPD", "PDPA", "LGPD,PDPA"]),
    task=st.sampled_from(["both", "task1", "task2"]),
)
def test_anchor_join_matches_dataclass_join(views_dir, dirs, policy, laws, task):
    root = views_dir.parent
    pred_dirs = []
    for i, (ranked, sets) in enumerate(dirs):
        pred_dir = root / f"predictions_{i}"
        pred_dir.mkdir(exist_ok=True)
        (pred_dir / "predictions_task1.json").write_text(json.dumps({"predictions": ranked}))
        (pred_dir / "predictions_task2.json").write_text(json.dumps({"predictions": sets}))
        pred_dirs.append(pred_dir)
    out = root / "base.json"
    argv = ["eval", "--views-dir", str(views_dir), "--policy", policy, "--task", task, "--out", str(out)]
    argv += ["--law", laws] if laws else []
    for pred_dir in pred_dirs:
        argv += ["--predictions", str(pred_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0

    config_echo = {
        "policy": policy,
        "task": task,
        "views_dir": str(views_dir),
        "predictions": [str(p) for p in pred_dirs],
    }
    views = _load_views(views_dir, laws.split(",") if laws else None)
    expected = oracles.oracle_eval_base(views, pred_dirs, REGISTRY, policy, task, config_echo)
    assert json.loads(out.read_text()) == json.loads(json.dumps(expected, sort_keys=True))
