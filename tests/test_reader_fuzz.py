"""Mutation fuzz of every input reader.

Each probe takes one small valid input, sets one value in it to null, [], {},
"x", -1, 0, 10**400, true, 1.5 or NaN, or deletes one key or list item, and
runs a command that reads it through `cli.main`. The command must succeed
(exit 0) or reject the input (exit 2 with one JSON line on stderr); a
traceback or any other exit fails the probe.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regeval.cli import main
from regeval.ingest import _write_predictions
from regeval.jurisdiction import JurisdictionRegistry

MUTATIONS = (None, [], {}, "x", -1, 0, 10**400, True, 1.5, float("nan"))
DELETE = "<delete>"

# Spec fields that size the corpus: a huge value is a valid request for a
# corpus too large to build in a test, not a malformed spec.
SPEC_SIZES = {"files_per_law", "instances_per_file", "repos"}

RUN = ["run", "--views-dir", "{in}/views", "--models", "m", "--backoff", "0", "--out-dir", "{out}"]
EVAL = ["eval", "--views-dir", "{in}/views", "--predictions", "{in}/corpus/predictions_PERFECT",
        "--out", "{out}/base.json"]
REPLAY = ["run", "--views-dir", "{in}/views", "--models", "m", "--transport", "replay",
          "--replay", "{in}/run/raw_responses.jsonl", "--out-dir", "{out}"]

# Reader: (the input it reads, relative to the inputs directory; the command).
READERS = {
    "dataset": ("corpus/dataset.json", ["shape", "--dataset", "{in}/corpus/dataset.json", "--out-dir", "{out}"]),
    "responses-parse": ("run/raw_responses.jsonl",
                        ["parse", "--responses", "{in}/run/raw_responses.jsonl", "--out-dir", "{out}"]),
    "responses-replay": ("run/raw_responses.jsonl", REPLAY),
    "predictions-task1": ("corpus/predictions_PERFECT/predictions_task1.json", EVAL),
    "predictions-task2": ("corpus/predictions_PERFECT/predictions_task2.json", EVAL),
    "view-task1-run": ("views/task1_LGPD.json", RUN),
    "view-task1-eval": ("views/task1_LGPD.json", EVAL),
    "view-task2-run": ("views/task2_LGPD.json", RUN),
    "view-task2-eval": ("views/task2_LGPD.json", EVAL),
    "base": ("base.json", ["compose", "--base", "{in}/base.json", "--out-dir", "{out}"]),
    "spec": ("corpus/synthetic_spec.json", ["synth", "--spec", "{in}/corpus/synthetic_spec.json", "--out-dir", "{out}"]),
    "config": ("jurisdictions.json", ["--config", "{in}/jurisdictions.json", *EVAL]),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """One small valid input of each kind, every command above exiting 0."""
    root = tmp_path_factory.mktemp("inputs")
    steps = [
        ["synth", "--seed", "3", "--files", "1", "--laws", "LGPD", "--profiles", "PERFECT",
         "--out-dir", f"{root}/corpus"],
        ["shape", "--dataset", f"{root}/corpus/dataset.json", "--out-dir", f"{root}/views"],
        [arg.format(**{"in": root, "out": root / "run"}) for arg in RUN],
        [arg.format(**{"in": root, "out": root}) for arg in EVAL],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in steps:
            assert main(argv) == 0, argv
    (root / "jurisdictions.json").write_text(json.dumps(JurisdictionRegistry.default().to_config()))
    return root


def _paths(value, path=()):
    """The path of `value` and of every value inside it."""
    yield path
    if type(value) is dict:
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif type(value) is list:
        for index, item in enumerate(value):
            yield from _paths(item, (*path, index))


def _mutant(data, reader: str):
    """A strategy for `data` with one value replaced or one key or item
    deleted. The field is drawn first, a path with its list indices left
    out, so that each field is as likely as any other however many records
    hold it; then one of its places."""
    fields: dict[tuple, list[tuple]] = {}
    for path in _paths(data):
        fields.setdefault(tuple("*" if type(step) is int else step for step in path), []).append(path)

    @st.composite
    def mutant(draw):
        path = draw(st.sampled_from(fields[draw(st.sampled_from(sorted(fields)), label="field")]), label="path")
        huge_size = reader == "spec" and path and path[0] in SPEC_SIZES
        changes = [value for value in MUTATIONS if not (huge_size and value == 10**400)]
        change = draw(st.sampled_from(changes + [DELETE] if path else changes), label="change")
        if not path:
            return copy.deepcopy(change)
        result = copy.deepcopy(data)
        *steps, last = path
        parent = result
        for step in steps:
            parent = parent[step]
        if change == DELETE:
            del parent[last]
        else:
            parent[last] = copy.deepcopy(change)
        return result

    return mutant()


def _write_mutant(draw, reader: str, source: Path, target: Path) -> None:
    """Write a mutant of `source` to `target`: one line of a JSON-lines file,
    and a prediction file also in the layout `_write_predictions` writes."""
    text = source.read_text(encoding="utf-8")
    if source.suffix == ".jsonl":
        lines = text.splitlines()
        at = draw(st.integers(0, len(lines) - 1), label="line")
        lines[at] = json.dumps(draw(_mutant(json.loads(lines[at]), reader)))
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    data = draw(_mutant(json.loads(text), reader))
    written = (
        reader.startswith("predictions")
        and type(data) is dict
        and set(data) == {"config", "predictions"}
        and type(data["predictions"]) is list
        and draw(st.booleans(), label="written")
    )
    if written:
        _write_predictions(target, data["config"], data["predictions"])
    else:
        target.write_text(json.dumps(data), encoding="utf-8")


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_mutated_input_is_read_or_rejected_in_one_json_line(inputs, reader, data):
    relative, command = READERS[reader]
    with tempfile.TemporaryDirectory() as work:
        copy_dir, out = Path(work) / "in", Path(work) / "out"
        shutil.copytree(inputs, copy_dir)
        _write_mutant(data.draw, reader, inputs / relative, copy_dir / relative)
        argv = [arg.format(**{"in": copy_dir, "out": out}) for arg in command]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 2), (code, stderr.getvalue())
    if code == 2:
        [line] = stderr.getvalue().splitlines()
        assert set(json.loads(line)) == {"error", "message"}
