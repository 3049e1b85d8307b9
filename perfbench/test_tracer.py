"""Tests of the span tracer: wrappers record spans and counts and are removed
again, and self time subtracts the union of overlapping child spans.

    python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import json
import sys

import pytest

import run
from tracer import Tracer

sys.path.insert(0, str(run.SRC))

import regeval.cli  # noqa: E402
from regeval import harness, ingest, jurisdiction  # noqa: E402


def test_install_wraps_and_uninstall_restores(tmp_path):
    original = (harness.execute_run, regeval.cli.execute_run, json.dumps,
                jurisdiction.JurisdictionRegistry.__dict__["canonicalize_article"])
    tracer = Tracer()
    tracer.install()
    try:
        assert regeval.cli.execute_run is not original[1]
        registry = jurisdiction.JurisdictionRegistry.default()
        with tracer.span("outer"):
            parsed = ingest.parse_prediction_text("Art. 7 and 11", "LGPD", ingest.RANKED, registry)
            json.dumps({"a": 1})
    finally:
        tracer.uninstall()
    assert parsed.ids == ("7", "11")
    assert (harness.execute_run, regeval.cli.execute_run, json.dumps,
            jurisdiction.JurisdictionRegistry.__dict__["canonicalize_article"]) == original
    totals = tracer.totals()
    assert totals["jurisdiction.canonicalize_article"][0] == 2
    assert totals["ingest.parse_prediction_text"][0] == 1
    assert totals["json.dumps"][0] == 1
    assert totals["outer"][0] == 1
    aggregates = tracer.aggregates()
    assert aggregates[("jurisdiction.canonicalize_article", "outer")][0] == 2
    tracer.write(tmp_path / "trace.json")
    assert json.loads((tmp_path / "trace.json").read_text())["spans"][0]["name"] == "outer"


def test_self_seconds_subtracts_union_of_children():
    tracer = Tracer()
    # parent 0..10; children 1..4 and 3..6 overlap (union 5), child 8..9, and
    # one span of the same name outside the parent.
    tracer.spans = [
        (2, "send", 1.0, 4.0, 1, 0),
        (3, "send", 3.0, 6.0, 1, 0),
        (4, "send", 8.0, 9.0, 1, 0),
        (1, "execute_run", 0.0, 10.0, None, 0),
        (5, "send", 11.0, 12.0, None, 0),
    ]
    assert tracer.self_seconds("execute_run", "send") == pytest.approx(4.0)
