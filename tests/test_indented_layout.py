"""`dataset.json` and the task views are written as compact key-sorted JSON.
Files in the earlier indented layout (`write_json`) still load to the same
records and score to the same `base.json`, because every reader decodes with
`json.loads`."""

from __future__ import annotations

from pathlib import Path

from regeval.cli import main
from regeval.corpus import load_dataset, read_json, save_dataset, write_json
from regeval.shaping import dump_views, load_task1_view, load_task2_view, shape_views
from regeval.synthetic import CorpusSpec, generate_corpus


def _indent(path: Path, out: Path) -> Path:
    """`path`'s payload rewritten at `out`, which may be `path`, in the
    indented layout."""
    compact = path.read_bytes()
    write_json(out, read_json(path))
    assert out.read_bytes() != compact
    return out


def test_indented_dataset_and_views_load_to_the_same_records(registry, tmp_path):
    corpus = generate_corpus(CorpusSpec(seed=6, files_per_law={"LGPD": 4, "PDPA": 3}), registry)
    compact, indented = tmp_path / "compact", tmp_path / "indented"
    save_dataset(compact / "dataset.json", corpus, registry)
    old = _indent(compact / "dataset.json", indented / "dataset.json")
    assert load_dataset(old, registry) == load_dataset(compact / "dataset.json", registry) == corpus

    views = shape_views(corpus)
    dump_views(views, compact, registry)
    for law in views:
        for name, load in ((f"task1_{law}.json", load_task1_view), (f"task2_{law}.json", load_task2_view)):
            assert load(_indent(compact / name, indented / name)) == load(compact / name)


def test_indented_inputs_score_to_the_same_base_bytes(tmp_path):
    """synth -> shape -> run -> parse -> eval with `dataset.json` and the
    views rewritten indented before they are read; `eval` of the same
    predictions over the views shaped compact again gives the same bytes."""
    dataset, views = tmp_path / "corpus" / "dataset.json", tmp_path / "views"
    shape = ["shape", "--dataset", str(dataset), "--out-dir", str(views)]
    evaluate = ["eval", "--views-dir", str(views), "--predictions", str(tmp_path / "parsed"), "--out"]
    assert main(["synth", "--seed", "4", "--files", "3", "--out-dir", str(dataset.parent)]) == 0
    _indent(dataset, dataset)
    assert main(shape) == 0
    for path in sorted(views.glob("task*.json")):
        _indent(path, path)
    assert main(["run", "--views-dir", str(views), "--models", "m1,m2", "--transport", "mock", "--profile", "RANDOM",
                 "--backoff", "0", "--dataset", str(dataset), "--out-dir", str(tmp_path / "run")]) == 0
    assert main(["parse", "--responses", str(tmp_path / "run" / "raw_responses.jsonl"),
                 "--out-dir", str(tmp_path / "parsed")]) == 0
    assert main(evaluate + [str(tmp_path / "indented.json")]) == 0
    assert main(shape) == 0
    assert main(evaluate + [str(tmp_path / "compact.json")]) == 0
    assert (tmp_path / "indented.json").read_bytes() == (tmp_path / "compact.json").read_bytes()
