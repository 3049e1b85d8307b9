from __future__ import annotations

import csv
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import regeval.cli
import regeval.retrieval
from regeval.cli import _load_views, main
from regeval.composites import CompositeConfig
from regeval.harness import MockTransport, ReplayTransport
from regeval.ingest import GoldIndex, load_prediction_files
from regeval.jurisdiction import JurisdictionRegistry
from regeval.multilabel import T2_METRIC_NAMES
from regeval.report import compose_results
from regeval.synthetic import PROFILES, CorpusSpec

REFERENCE_FIXTURE = Path(__file__).parent / "data" / "reference_scores.json"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full pipeline run shared by the CLI assertions below."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus_dir = root / "corpus"
    views_dir = root / "views"
    run_dir = root / "run"
    parsed_dir = root / "parsed"
    final_dir = root / "final"
    assert main(["synth", "--seed", "5", "--files", "6", "--out-dir", str(corpus_dir)]) == 0
    assert (
        main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)])
        == 0
    )
    assert (
        main(
            [
                "run",
                "--views-dir", str(views_dir),
                "--models", "probe-a,probe-b",
                "--transport", "mock",
                "--profile", "PERFECT",
                "--backoff", "0",
                "--dataset", str(corpus_dir / "dataset.json"),
                "--out-dir", str(run_dir),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "parse",
                "--responses", str(run_dir / "raw_responses.jsonl"),
                "--out-dir", str(parsed_dir),
            ]
        )
        == 0
    )
    base_path = root / "base.json"
    assert (
        main(
            [
                "eval",
                "--views-dir", str(views_dir),
                "--predictions", str(parsed_dir),
                "--out", str(base_path),
            ]
        )
        == 0
    )
    assert main(["compose", "--base", str(base_path), "--out-dir", str(final_dir)]) == 0
    return root


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        for rel in (
            "corpus/dataset.json",
            "corpus/synthetic_spec.json",
            "views/task1_LGPD.json",
            "run/raw_responses.jsonl",
            "run/run_config.json",
            "run/run.log",
            "parsed/predictions_task1.json",
            "base.json",
            "final/results.json",
            "final/report.txt",
            "final/plot_data.csv",
        ):
            assert (pipeline / rel).exists(), rel

    def test_config_echoed_everywhere(self, pipeline):
        base = json.loads((pipeline / "base.json").read_text())
        assert base["config"]["policy"] == "strict"
        results = json.loads((pipeline / "final" / "results.json").read_text())
        assert results["composites"]["config"]["ridge"] == 0.1
        run_config = json.loads((pipeline / "run" / "run_config.json").read_text())
        assert run_config["run"]["temperature"] == 0.0
        assert run_config["overrides"] == {"backoff_seconds": 0.0}
        views = json.loads((pipeline / "views" / "task1_LGPD.json").read_text())
        assert "exclude_patterns" in views["config"]

    def test_both_models_scored(self, pipeline):
        results = json.loads((pipeline / "final" / "results.json").read_text())
        assert sorted(results["models"]) == ["probe-a", "probe-b"]
        assert sorted(results["composites"]["models"]) == ["probe-a", "probe-b"]

    def test_report_numbers_match_results_at_4dp(self, pipeline):
        results = json.loads((pipeline / "final" / "results.json").read_text())
        report = (pipeline / "final" / "report.txt").read_text()
        for model, comp in results["composites"]["models"].items():
            assert f"ocs: {comp['ocs']:.4f}" in report
            for task in ("task1", "task2"):
                assert f"crgs={comp['crgs'][task]:.4f}" in report
        for model, block in results["models"].items():
            for law, by_gran in block["task1"].items():
                for gran, row in by_gran.items():
                    assert f"mrr={row['mrr']:.4f}" in report
            for law, row in block["task2"].items():
                assert f"micro_f1={row['micro_f1']:.4f}" in report

    def test_plot_csv_task2_axes_match_oriented_vector(self, pipeline):
        results = json.loads((pipeline / "final" / "results.json").read_text())
        with open(pipeline / "final" / "plot_data.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "plot_data.csv is empty"
        snippet_rows = [row for row in rows if row["level"] == "snippet"]
        assert snippet_rows
        for row in snippet_rows:
            stored = results["models"][row["model"]]["task2"][row["law"]]
            for axis, name in enumerate(T2_METRIC_NAMES, start=1):
                assert float(row[f"axis_{axis}"]) == pytest.approx(stored[name], abs=1e-12)

    def test_round_trip_recomposition(self, pipeline):
        results = json.loads((pipeline / "final" / "results.json").read_text())
        recomposed = compose_results(results, CompositeConfig())
        assert recomposed["composites"] == results["composites"]

    def test_strict_vs_relaxed_coverage_dominance(self, pipeline):
        views_dir = pipeline / "views"
        parsed_dir = pipeline / "parsed"
        strict_out = pipeline / "strict.json"
        relaxed_out = pipeline / "relaxed.json"
        main(["eval", "--views-dir", str(views_dir), "--predictions", str(parsed_dir),
              "--policy", "strict", "--out", str(strict_out)])
        main(["eval", "--views-dir", str(views_dir), "--predictions", str(parsed_dir),
              "--policy", "relaxed", "--out", str(relaxed_out)])
        strict = json.loads(strict_out.read_text())
        relaxed = json.loads(relaxed_out.read_text())
        for model in strict["models"]:
            s_cov = strict["models"][model]["coverage"]["task1"]
            r_cov = relaxed["models"][model]["coverage"]["task1"]
            for law in s_cov:
                for gran in s_cov[law]:
                    assert (
                        r_cov[law][gran]["matched_keys"] >= s_cov[law][gran]["matched_keys"]
                    )


class TestSingleJoin:
    """`eval` joins each model's predictions to gold once; scores and
    diagnostics are read from that one join."""

    @pytest.fixture()
    def cohort(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        views_dir = tmp_path / "views"
        assert main(["synth", "--seed", "4", "--files", "4", "--laws", "LGPD,PDPA",
                     "--profiles", "PERFECT,RANDOM", "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"),
                     "--out-dir", str(views_dir)]) == 0
        # Two predictions on one pointer that no gold record has.
        t2_path = corpus_dir / "predictions_RANDOM" / "predictions_task2.json"
        t2 = json.loads(t2_path.read_text())
        stray = dict(t2["predictions"][0], file_path="app/Stray.kt")
        t2["predictions"] += [stray, dict(stray, labels=[])]
        t2_path.write_text(json.dumps(t2))
        return views_dir, [corpus_dir / "predictions_PERFECT", corpus_dir / "predictions_RANDOM"]

    def _eval(self, views_dir, pred_dirs, out):
        argv = ["eval", "--views-dir", str(views_dir), "--out", str(out)]
        for pred_dir in pred_dirs:
            argv += ["--predictions", str(pred_dir)]
        assert main(argv) == 0
        return json.loads(out.read_text())

    def test_diagnostics_equal_coverage(self, cohort, tmp_path):
        base = self._eval(*cohort, tmp_path / "base.json")
        assert sorted(base["diagnostics"]) == ["PERFECT", "RANDOM"]
        for model, block in base["models"].items():
            diagnostics = base["diagnostics"][model]
            assert diagnostics["task1"] == {
                f"{law}/{gran}": report
                for law, by_gran in block["coverage"]["task1"].items()
                for gran, report in by_gran.items()
            }
            assert diagnostics["task2"] == block["coverage"]["task2"]

    def test_duplicate_orphan_pointer_listed_once(self, cohort, tmp_path):
        base = self._eval(*cohort, tmp_path / "base.json")
        orphans = base["models"]["RANDOM"]["coverage"]["task2"]["LGPD"]["orphan_predictions"]
        assert [o["file_path"] for o in orphans] == ["app/Stray.kt"]
        assert base["diagnostics"]["RANDOM"]["task2"]["LGPD"]["orphan_predictions"] == orphans

    def test_match_keys_called_once_per_slice(self, cohort, tmp_path, monkeypatch):
        calls = []
        original = regeval.retrieval.match_keys

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("regeval") and getattr(module, "match_keys", None) is original:
                monkeypatch.setattr(module, "match_keys", counting)
        self._eval(*cohort, tmp_path / "base.json")
        assert len(calls) == 2 * 2 * 3  # models x laws x granularities


class TestEvalLawFilter:
    """`eval --law` scores the selected laws only: predictions of other laws
    are out of scope, not orphans, and not counted."""

    def test_other_laws_are_neither_orphans_nor_counted(self, tmp_path):
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        assert main(["synth", "--seed", "3", "--files", "3", "--profiles", "PERFECT",
                     "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"),
                     "--out-dir", str(views_dir)]) == 0
        argv = ["eval", "--views-dir", str(views_dir),
                "--predictions", str(corpus_dir / "predictions_PERFECT")]
        assert main(argv + ["--out", str(tmp_path / "all.json")]) == 0
        assert main(argv + ["--law", "LGPD", "--out", str(tmp_path / "lgpd.json")]) == 0
        full = json.loads((tmp_path / "all.json").read_text())
        lgpd = json.loads((tmp_path / "lgpd.json").read_text())

        diagnostics = lgpd["diagnostics"]["PERFECT"]
        assert diagnostics["orphan_task1_predictions"] == []
        assert sorted(diagnostics["label_cardinality"]) == ["LGPD"]
        assert sorted(diagnostics["task2"]) == ["LGPD"]
        assert {key.split("/")[0] for key in diagnostics["task1"]} == {"LGPD"}
        full_diagnostics = full["diagnostics"]["PERFECT"]
        assert diagnostics["label_cardinality"]["LGPD"] == full_diagnostics["label_cardinality"]["LGPD"]
        # The selected law scores as it does in an unfiltered eval.
        for task in ("task1", "task2"):
            assert lgpd["models"]["PERFECT"][task] == {"LGPD": full["models"]["PERFECT"][task]["LGPD"]}

    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_a_law_without_views_exits_2(self, tmp_path, capsys, command):
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        assert main(["synth", "--seed", "3", "--files", "2", "--laws", "LGPD,PDPA", "--profiles", "PERFECT",
                     "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)]) == 0
        out = tmp_path / "out"
        argv = {
            "run": ["run", "--models", "m", "--backoff", "0", "--out-dir", str(out)],
            "eval": ["eval", "--predictions", str(corpus_dir / "predictions_PERFECT"), "--out", str(out / "base.json")],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--views-dir", str(views_dir), "--law", "LGPD,PIPEDA"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "RegevalError", "message": f"no task views for PIPEDA under {views_dir}"
        }
        assert not out.exists()

    def test_law_reads_only_its_own_views(self, tmp_path, monkeypatch):
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        assert main(["synth", "--seed", "3", "--files", "2", "--profiles", "PERFECT",
                     "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)]) == 0
        read = []
        for name in ("load_task1_view", "load_task2_view"):
            load = getattr(regeval.cli, name)
            monkeypatch.setattr(regeval.cli, name, lambda path, held, load=load: read.append(path) or load(path, held))
        assert main(["eval", "--views-dir", str(views_dir), "--predictions", str(corpus_dir / "predictions_PERFECT"),
                     "--law", "LGPD", "--out", str(tmp_path / "base.json")]) == 0
        assert read == [views_dir / "task1_LGPD.json", views_dir / "task2_LGPD.json"]

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize("task", ["task1", "task2"])
    @pytest.mark.parametrize("law_option", [[], ["--law", "PDPA"]])
    def test_a_view_holding_another_law_than_its_name_exits_2(self, tmp_path, capsys, command, task, law_option):
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        assert main(["synth", "--seed", "3", "--files", "2", "--laws", "LGPD,PDPA", "--profiles", "PERFECT",
                     "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)]) == 0
        path = views_dir / f"{task}_PDPA.json"
        path.write_bytes((views_dir / f"{task}_LGPD.json").read_bytes())
        out = tmp_path / "out"
        argv = {
            "run": ["run", "--models", "m", "--backoff", "0", "--out-dir", str(out)],
            "eval": ["eval", "--predictions", str(corpus_dir / "predictions_PERFECT"), "--out", str(out / "base.json")],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--views-dir", str(views_dir)] + law_option) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "MalformedView", "message": f"{path}: holds law 'LGPD', but its file name names 'PDPA'"
        }
        assert not out.exists()


class TestUnmatchedPredictions:
    """A model whose rows of a law match no gold key (relaxed fallbacks
    count) and no gold pointer of that law was scored against other views
    than its own: `eval` exits 2 naming the model, the law and the views,
    and writes no `base.json`. Rows that match but say nothing still score."""

    def _corpus(self, tmp_path, seed, files, profiles="PERFECT"):
        corpus_dir, views_dir = tmp_path / f"corpus{seed}", tmp_path / f"views{seed}"
        assert main(["synth", "--seed", str(seed), "--files", str(files), "--laws", "LGPD,PDPA",
                     "--profiles", profiles, "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)]) == 0
        return corpus_dir, views_dir

    def _eval(self, views_dir, pred_dir, out, *options):
        return main(["eval", "--views-dir", str(views_dir), "--predictions", str(pred_dir),
                     "--out", str(out), *options])

    def test_predictions_of_another_corpus_exit_2(self, tmp_path, capsys):
        theirs, _ = self._corpus(tmp_path, 9, 60)
        _, views_dir = self._corpus(tmp_path, 7, 80, profiles="")
        capsys.readouterr()
        out = tmp_path / "base.json"
        assert self._eval(views_dir, theirs / "predictions_PERFECT", out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "UnmatchedPredictions",
            "message": f"model 'PERFECT': no LGPD prediction matches a gold key or pointer in {views_dir}",
        }
        assert not out.exists()

    def test_a_model_whose_every_request_failed_scores_zero(self, tmp_path):
        _, views_dir = self._corpus(tmp_path, 2, 3, profiles="")
        assert main(["run", "--views-dir", str(views_dir), "--models", "m", "--transport", "failing",
                     "--retries", "0", "--backoff", "0", "--out-dir", str(tmp_path / "run")]) == 0
        assert main(["parse", "--responses", str(tmp_path / "run" / "raw_responses.jsonl"),
                     "--out-dir", str(tmp_path / "parsed")]) == 0
        assert self._eval(views_dir, tmp_path / "parsed", tmp_path / "base.json") == 0
        block = json.loads((tmp_path / "base.json").read_text())["models"]["m"]
        values = [v for by_gran in block["task1"].values() for row in by_gran.values() for v in row.values()]
        # An empty label set still ranks some gold label and misses few.
        names = ("micro_f1", "macro_f1", "weighted_f1", "jaccard")
        values += [row[name] for row in block["task2"].values() for name in names]
        assert values and set(values) == {0.0}
        assert all(rep["matched_pointers"] == rep["gold_pointers"] for rep in block["coverage"]["task2"].values())

    def _stray(self, pred_dir, keep):
        """Move every entry of `pred_dir` for which `keep` is false to a file
        no gold record has."""
        for name in ("predictions_task1.json", "predictions_task2.json"):
            data = json.loads((pred_dir / name).read_text())
            for entry in data["predictions"]:
                if not keep(entry):
                    entry["file_path"] = "app/Stray.kt"
            (pred_dir / name).write_text(json.dumps(data))

    def test_a_law_with_some_orphans_still_scores(self, tmp_path):
        corpus_dir, views_dir = self._corpus(tmp_path, 4, 4)
        pred_dir = corpus_dir / "predictions_PERFECT"
        self._stray(pred_dir, lambda entry: entry["file_path"].endswith(("0.kt", "1.kt", "2.kt")))
        assert self._eval(views_dir, pred_dir, tmp_path / "base.json") == 0
        diagnostics = json.loads((tmp_path / "base.json").read_text())["diagnostics"]["PERFECT"]
        assert diagnostics["orphan_task1_predictions"]
        for law in ("LGPD", "PDPA"):
            assert 0 < diagnostics["task2"][law]["matched_pointers"] < diagnostics["task2"][law]["gold_pointers"]

    def test_one_law_that_matches_nothing_exits_2(self, tmp_path, capsys):
        corpus_dir, views_dir = self._corpus(tmp_path, 4, 4)
        pred_dir = corpus_dir / "predictions_PERFECT"
        self._stray(pred_dir, lambda entry: entry["law"] == "LGPD")
        capsys.readouterr()
        assert self._eval(views_dir, pred_dir, tmp_path / "base.json") == 2
        assert json.loads(capsys.readouterr().err)["message"] == (
            f"model 'PERFECT': no PDPA prediction matches a gold key or pointer in {views_dir}"
        )
        # Out of scope under --law, the unmatched law fails nothing.
        assert self._eval(views_dir, pred_dir, tmp_path / "base.json", "--law", "LGPD") == 0

    def test_relaxed_fallbacks_count_as_matches(self, tmp_path, capsys):
        corpus_dir, views_dir = self._corpus(tmp_path, 4, 4)
        pred_dir = corpus_dir / "predictions_PERFECT"
        t1 = json.loads((pred_dir / "predictions_task1.json").read_text())
        # Only line keys, each shifted off its gold span but in its gold file.
        t1["predictions"] = [
            {**entry, "span": [entry["span"][0] + 1, entry["span"][1] + 1]}
            for entry in t1["predictions"]
            if entry["granularity"] == "line"
        ]
        (pred_dir / "predictions_task1.json").write_text(json.dumps(t1))
        (pred_dir / "predictions_task2.json").write_text(json.dumps({"predictions": []}))
        capsys.readouterr()
        assert self._eval(views_dir, pred_dir, tmp_path / "strict.json") == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UnmatchedPredictions"
        assert self._eval(views_dir, pred_dir, tmp_path / "relaxed.json", "--policy", "relaxed") == 0


class TestModelSpanningDirectories:
    """A model spread over several `--predictions` directories is joined
    once, over its rows in the order the directories are given: its scores
    and diagnostics equal those of one directory holding the concatenated
    entries. Duplicates across the directories, relaxed fallbacks and
    orphans make the result depend on that order."""

    @pytest.fixture(scope="class")
    def cohort(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("spanning")
        corpus_dir, views_dir = root / "corpus", root / "views"
        assert main(["synth", "--seed", "6", "--files", "4", "--laws", "LGPD,PDPA",
                     "--profiles", "PERFECT,RANDOM", "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"),
                     "--out-dir", str(views_dir)]) == 0
        return root, views_dir, corpus_dir / "predictions_PERFECT", corpus_dir / "predictions_RANDOM"

    @staticmethod
    def _halves(entries: list[dict], labels: str) -> tuple[list[dict], list[dict]]:
        """Two halves of `entries` whose join depends on row order: the second
        half repeats some keys of the first with other ids (first kept), each
        half has its own stray copy of one key (an orphan, or a relaxed
        fallback once its exact entry is gone), and one exact entry is gone."""
        dropped = next(entry for entry in entries if "span" in entry)
        entries = [entry for entry in entries if entry is not dropped]
        half = len(entries) // 2
        first, second = entries[:half], entries[half:]
        second += [dict(entry, **{labels: entry[labels][::-1] or ["1"]}) for entry in first[:3]]
        first.append(dict(dropped, span=[dropped["span"][0] + 40, dropped["span"][1] + 40]))
        second.append(dict(dropped, span=[dropped["span"][0] + 80, dropped["span"][1] + 80]))
        first.append(dict(first[0], file_path="app/Stray.kt"))
        second.append(dict(second[0], file_path="app/Stray.kt"))
        return first, second

    @staticmethod
    def _write(pred_dir: Path, entries_by_task: dict[str, list[dict]]) -> Path:
        pred_dir.mkdir(parents=True)
        for task, entries in entries_by_task.items():
            (pred_dir / f"predictions_{task}.json").write_text(json.dumps({"config": {}, "predictions": entries}))
        return pred_dir

    def _eval(self, views_dir, pred_dirs, out, policy) -> dict:
        argv = ["eval", "--views-dir", str(views_dir), "--policy", policy, "--out", str(out)]
        for pred_dir in pred_dirs:
            argv += ["--predictions", str(pred_dir)]
        assert main(argv) == 0
        base = json.loads(out.read_text())
        del base["config"]["predictions"]
        return base

    @pytest.mark.parametrize("policy", ["strict", "relaxed"])
    @pytest.mark.parametrize("model", [None, "m"], ids=["no-model-field", "model-field"])
    def test_spread_model_scores_like_concatenated_entries(self, cohort, tmp_path, policy, model):
        root, views_dir, perfect_dir, random_dir = cohort
        split: tuple[dict, dict] = ({}, {})
        whole: dict[str, list[dict]] = {}
        for task, labels in (("task1", "ranking"), ("task2", "labels")):
            entries = json.loads((random_dir / f"predictions_{task}.json").read_text())["predictions"]
            for entry in entries:
                entry.pop("model")
                if model:
                    entry["model"] = model
            split[0][task], split[1][task] = self._halves(entries, labels)
            whole[task] = split[0][task] + split[1][task]
        # Without a `model` field the directory's name is the model, so both
        # halves sit in directories named `parsed`.
        name = "parsed" if model is None else "half"
        first = self._write(tmp_path / "a" / name, split[0])
        second = self._write(tmp_path / "b" / (name if model is None else "other"), split[1])
        joined = self._write(tmp_path / "whole" / name, whole)
        # Another model's directory between the two halves.
        spread = self._eval(views_dir, [first, perfect_dir, second], tmp_path / "spread.json", policy)
        concatenated = self._eval(views_dir, [joined, perfect_dir], tmp_path / "whole.json", policy)
        assert sorted(spread["models"]) == sorted(["PERFECT", model or "parsed"])
        diagnostics = spread["diagnostics"][model or "parsed"]
        assert diagnostics["orphan_task1_predictions"]
        assert any(report["duplicate_prediction_keys"] for report in diagnostics["task1"].values())
        assert spread == concatenated


class TestEvalMemory:
    """`eval` holds one `--predictions` directory's rows at a time, so its
    peak follows the largest directory, not the cohort."""

    @staticmethod
    def _traced_peak(argv) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_extra_directories_cost_less_than_half_a_directory(self, tmp_path):
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        # Each model's scores and diagnostics stay until `base.json` is
        # written, so the directories must be large enough for their rows to
        # outweigh that (at 120 files per law they weigh about the same).
        assert main(["synth", "--seed", "8", "--files", "300", "--profiles", ",".join(PROFILES),
                     "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)]) == 0
        pred_dirs = [corpus_dir / f"predictions_{profile}" for profile in PROFILES]
        largest = max(pred_dirs, key=lambda d: sum(path.stat().st_size for path in d.iterdir()))
        argv = ["eval", "--views-dir", str(views_dir), "--out", str(tmp_path / "base.json")]
        assert main([*argv, "--predictions", str(largest)]) == 0  # warms every cache

        one = self._traced_peak([*argv, "--predictions", str(largest)])
        five = self._traced_peak([*argv, *(arg for d in pred_dirs for arg in ("--predictions", str(d)))])
        # What the decoded rows of one directory hold, sharing the gold
        # index's keys and pointers as in `eval`.
        gold = GoldIndex.from_views(_load_views(str(views_dir)))
        gc.collect()
        tracemalloc.start()
        try:
            rows = load_prediction_files(largest / "predictions_task1.json", largest / "predictions_task2.json",
                                         JurisdictionRegistry.default(), gold.cache)
            loaded = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(rows[0]) > 3000
        assert five - one < loaded / 2, (one, five, loaded)


# Runs `eval` on the views and predictions named in argv, and checks at the
# first prediction file read that no view record is left.
EVAL_KEEPS_NO_VIEW_RECORD = """
import gc
import sys
import regeval.cli
from regeval.shaping import Task1Record, Task2Record

load_prediction_files = regeval.cli.load_prediction_files
checked = []

def checked_load(*args, **kwargs):
    if not checked:
        gc.collect()
        kept = sum(isinstance(obj, (Task1Record, Task2Record)) for obj in gc.get_objects())
        assert kept == 0, f"{kept} view records alive"
        checked.append(True)
    return load_prediction_files(*args, **kwargs)

regeval.cli.load_prediction_files = checked_load
assert regeval.cli.main(["eval", "--views-dir", sys.argv[1], "--predictions", sys.argv[2], "--out", sys.argv[3]]) == 0
assert checked
print("ok")
"""


class TestEvalDropsViews:
    """`eval` keeps the gold index of the views, not their records, snippets
    and provenance, once the index exists. Checked in a fresh interpreter,
    because other tests' modules hold view records of their own."""

    def test_no_view_record_is_alive_when_predictions_are_read(self, tmp_path):
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        assert main(["synth", "--seed", "3", "--files", "4", "--profiles", "RANDOM",
                     "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)]) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(regeval.cli.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", EVAL_KEEPS_NO_VIEW_RECORD, str(views_dir), str(corpus_dir / "predictions_RANDOM"),
             str(tmp_path / "base.json")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0 and done.stdout.endswith("\nok\n"), done.stderr


class TestRunMemory:
    """`run` lets go of the views and the dataset records once the prompt
    items exist, before the replay index and the request rows are built; a
    replay loads no dataset at all."""

    @pytest.mark.parametrize("transport", ["mock", "replay"])
    def test_views_and_dataset_are_gone_before_the_first_send(self, tmp_path, monkeypatch, transport):
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        dataset = str(corpus_dir / "dataset.json")
        assert main(["synth", "--seed", "3", "--files", "4", "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", dataset, "--out-dir", str(views_dir)]) == 0
        argv = ["run", "--views-dir", str(views_dir), "--models", "a,b", "--backoff", "0", "--dataset", dataset]
        assert main([*argv, "--out-dir", str(tmp_path / "first")]) == 0
        if transport == "replay":
            argv += ["--transport", "replay", "--replay", str(tmp_path / "first" / "raw_responses.jsonl")]

        # Plain dicts and lists take no weak reference; these subclasses do.
        class Views(dict):
            pass

        class Records(list):
            pass

        loaded, alive = [], []
        load_dataset = regeval.cli.load_dataset

        def load_views(*args, **kwargs):
            views = Views(_load_views(*args, **kwargs))
            loaded.append(weakref.ref(views))
            return views

        def load_records(*args, **kwargs):
            records = Records(load_dataset(*args, **kwargs))
            loaded.append(weakref.ref(records))
            return records

        def check():
            alive.append([ref() is not None for ref in loaded])

        class Mock(MockTransport):
            def send(self, request):
                if not alive:
                    check()
                return super().send(request)

        class Replay(ReplayTransport):
            def prepare(self, identities):
                check()  # before the index is built
                super().prepare(identities)

            def send(self, request):
                if len(alive) < 2:
                    check()
                return super().send(request)

        monkeypatch.setattr(regeval.cli, "_load_views", load_views)
        monkeypatch.setattr(regeval.cli, "load_dataset", load_records)
        monkeypatch.setattr(regeval.cli, "MockTransport", Mock)
        monkeypatch.setattr(regeval.cli, "ReplayTransport", Replay)
        assert main([*argv, "--out-dir", str(tmp_path / "second")]) == 0
        if transport == "replay":
            assert len(loaded) == 1  # the views; --dataset is not opened
            assert alive == [[False]] * 2
        else:
            assert len(loaded) == 2
            assert alive == [[False, False]]

    def test_replay_ignores_dataset(self, tmp_path, monkeypatch, capsys):
        """`--dataset` is accepted under replay, never opened, and changes no
        replayed output; a one-line note on stderr says it is ignored."""
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        dataset = str(corpus_dir / "dataset.json")
        assert main(["synth", "--seed", "3", "--files", "4", "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", dataset, "--out-dir", str(views_dir)]) == 0
        argv = ["run", "--views-dir", str(views_dir), "--models", "a,b", "--backoff", "0"]
        assert main([*argv, "--dataset", dataset, "--out-dir", str(tmp_path / "first")]) == 0
        argv += ["--transport", "replay", "--replay", str(tmp_path / "first" / "raw_responses.jsonl")]

        def load_dataset(*args, **kwargs):
            raise AssertionError("replay opened --dataset")

        monkeypatch.setattr(regeval.cli, "load_dataset", load_dataset)
        capsys.readouterr()
        assert main([*argv, "--dataset", dataset, "--out-dir", str(tmp_path / "with")]) == 0
        assert capsys.readouterr().err == "note: --dataset is ignored with --transport replay\n"
        assert main([*argv, "--out-dir", str(tmp_path / "without")]) == 0
        assert capsys.readouterr().err == ""

        def untimed(path):
            lines = path.read_text().splitlines()
            if path.suffix == ".jsonl":
                return [{k: v for k, v in json.loads(line).items() if k != "timestamps"} for line in lines]
            # The lanes' log lines interleave by time; each lane's own order is fixed.
            return sorted((line.split(" ", 1)[1] for line in lines), key=lambda line: line.split(" ", 1)[0])

        for name in ("raw_responses.jsonl", "run.log"):
            assert untimed(tmp_path / "with" / name) == untimed(tmp_path / "without" / name)
        config = (tmp_path / "with" / "run_config.json").read_bytes()
        assert config == (tmp_path / "without" / "run_config.json").read_bytes()


class TestComposeFromFixture:
    def test_reference_fixture_recomputation(self, tmp_path):
        out_dir = tmp_path / "composed"
        assert (
            main(["compose", "--from-rcs", str(REFERENCE_FIXTURE), "--out-dir", str(out_dir)]) == 0
        )
        results = json.loads((out_dir / "results.json").read_text())
        expected = json.loads(REFERENCE_FIXTURE.read_text())["expected"]
        for model, block in results["composites"]["models"].items():
            assert block["crgs"]["task1"] == pytest.approx(expected["crgs_task1"][model], abs=5e-4)
            assert block["crgs"]["task2"] == pytest.approx(expected["crgs_task2"][model], abs=5e-4)
            assert block["ocs"] == pytest.approx(expected["ocs"][model], abs=1.5e-3)


class TestCliErrors:
    def test_unknown_subcommand_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code != 0

    def test_module_error_is_machine_parsable(self, tmp_path, capsys):
        bad = tmp_path / "dataset.json"
        bad.write_text(json.dumps([{"app_name": "x"}]))
        code = main(["stats", "--dataset", str(bad), "--out", str(tmp_path / "out.json")])
        assert code != 0
        line = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(line)
        assert "error" in payload and "message" in payload

    def test_compose_requires_input(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["compose", "--out-dir", str(tmp_path / "final")])
        assert excinfo.value.code == 2

    def test_compose_takes_one_source(self, pipeline, tmp_path):
        out_dir = tmp_path / "final"
        with pytest.raises(SystemExit) as excinfo:
            main(["compose", "--base", str(pipeline / "base.json"), "--from-rcs", str(REFERENCE_FIXTURE),
                  "--out-dir", str(out_dir)])
        assert excinfo.value.code == 2
        assert not out_dir.exists()

    def test_task_filter_limits_run_and_eval(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        views_dir = tmp_path / "views"
        main(["synth", "--seed", "3", "--files", "3", "--laws", "LGPD", "--out-dir", str(corpus_dir)])
        main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)])
        main(
            [
                "run",
                "--views-dir", str(views_dir),
                "--task", "task2",
                "--models", "m",
                "--backoff", "0",
                "--out-dir", str(tmp_path / "run"),
            ]
        )
        records = [
            json.loads(line)
            for line in (tmp_path / "run" / "raw_responses.jsonl").read_text().splitlines()
        ]
        assert records and all(rec["task"] == "task2" for rec in records)
        main(["parse", "--responses", str(tmp_path / "run" / "raw_responses.jsonl"),
              "--out-dir", str(tmp_path / "parsed")])
        out = tmp_path / "base.json"
        main(["eval", "--views-dir", str(views_dir), "--task", "task2",
              "--predictions", str(tmp_path / "parsed"), "--out", str(out)])
        base = json.loads(out.read_text())
        assert base["models"]["m"]["task1"] == {}
        assert base["models"]["m"]["task2"]["LGPD"]["micro_f1"] == 1.0

    def test_duplicate_model_names_rejected(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        views_dir = tmp_path / "views"
        main(["synth", "--seed", "3", "--files", "2", "--laws", "LGPD", "--out-dir", str(corpus_dir)])
        main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)])
        capsys.readouterr()
        code = main(["run", "--views-dir", str(views_dir), "--models", "a,a", "--backoff", "0",
                     "--out-dir", str(tmp_path / "run")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "TransportConfigError"
        assert "a" in payload["message"]
        assert not (tmp_path / "run").exists()

    @staticmethod
    def _perfect_cohort(tmp_path, laws="LGPD"):
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        assert main(["synth", "--seed", "3", "--files", "2", "--laws", laws, "--profiles", "PERFECT",
                     "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"),
                     "--out-dir", str(views_dir)]) == 0
        return views_dir, corpus_dir / "predictions_PERFECT"

    @pytest.mark.parametrize(
        "task, field, value",
        [
            ("task1", "span", [5]),
            ("task1", "span", [0, 3]),
            ("task1", "span", [6, 5]),
            ("task1", "span", ["5", "6"]),
            ("task1", "span", [True, 2]),
            ("task1", "ranking", None),
            ("task1", "file_path", None),
            ("task1", "granularity", None),
            ("task1", "file_path", ["app/A.kt"]),
            ("task1", "model", 7),
            ("task1", "ranking", ["999"]),
            ("task1", "ranking", ["not an id"]),
            ("task2", "span", [3]),
            ("task2", "labels", None),
            ("task2", "commit_id", None),
            ("task2", "commit_id", 7),
            ("task2", "labels", ["999"]),
        ],
    )
    def test_malformed_prediction_entry_exits_2(self, tmp_path, capsys, task, field, value):
        # None removes the field.
        views_dir, pred_dir = self._perfect_cohort(tmp_path)
        path = pred_dir / f"predictions_{task}.json"
        data = json.loads(path.read_text())
        entry = data["predictions"][1]
        if value is None:
            del entry[field]
        else:
            entry[field] = value
        path.write_text(json.dumps(data))
        capsys.readouterr()
        out = tmp_path / "base.json"
        code = main(["eval", "--views-dir", str(views_dir), "--predictions", str(pred_dir),
                     "--out", str(out)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "MalformedPrediction"
        assert payload["message"].startswith(f"{path}: prediction 1: ")
        assert not out.exists()

    def test_predictions_directory_given_twice_exits_2(self, tmp_path, capsys):
        views_dir, pred_dir = self._perfect_cohort(tmp_path)
        capsys.readouterr()
        out = tmp_path / "base.json"
        code = main(["eval", "--views-dir", str(views_dir), "--predictions", str(pred_dir),
                     "--predictions", str(pred_dir / ".." / pred_dir.name), "--out", str(out)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "RegevalError"
        assert str(pred_dir.resolve()) in payload["message"]
        assert not out.exists()

    def test_id_memoized_for_one_law_is_out_of_universe_for_another(self, tmp_path, capsys):
        # LGPD entries come first, so "7" is memoized for LGPD before a PDPA
        # entry, whose universe lacks it, names it.
        views_dir, pred_dir = self._perfect_cohort(tmp_path, laws="LGPD,PDPA")
        path = pred_dir / "predictions_task1.json"
        data = json.loads(path.read_text())
        laws = [entry["law"] for entry in data["predictions"]]
        assert laws == sorted(laws) and "7" in {i for e in data["predictions"] for i in e["ranking"]}
        pdpa = next(entry for entry in data["predictions"] if entry["law"] == "PDPA")
        pdpa["ranking"] = ["7"]
        path.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["eval", "--views-dir", str(views_dir), "--predictions", str(pred_dir),
                     "--out", str(tmp_path / "base.json")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "MalformedPrediction"
        index = data["predictions"].index(pdpa)
        assert payload["message"] == f"{path}: prediction {index}: PDPA: article '7' not in universe"

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--retries", "-1"), ("--max-tokens", "0"), ("--timeout", "0"), ("--backoff", "-1"),
            ("--context-window", "-1"), ("--fail-times", "-2"),
        ],
    )
    def test_out_of_range_run_settings_exit_2_before_any_request(self, tmp_path, capsys, flag, value):
        corpus_dir = tmp_path / "corpus"
        views_dir = tmp_path / "views"
        main(["synth", "--seed", "3", "--files", "2", "--out-dir", str(corpus_dir)])
        main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)])
        capsys.readouterr()
        code = main(["run", "--views-dir", str(views_dir), "--models", "m", "--backoff", "0",
                     flag, value, "--out-dir", str(tmp_path / "run")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "TransportConfigError"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "transport, flag, value",
        [
            *(
                pytest.param(transport, "--fail-times", value, id=f"{value}-{transport}")
                for value in ("5", "-2") for transport in ("failing", "replay")
            ),
            # An explicit default is refused too.
            *(
                pytest.param(transport, flag, value, id=f"{flag[2:]}-{value}-{transport}")
                for transport in ("failing", "replay")
                for flag, value in (("--profile", "RANDOM"), ("--profile", "PERFECT"), ("--seed", "9"), ("--seed", "0"))
            ),
            pytest.param("mock", "--replay", None, id="replay-mock"),
            pytest.param("failing", "--replay", None, id="replay-failing"),
        ],
    )
    def test_fail_times_with_another_transport_exits_2_before_any_request(
        self, tmp_path, capsys, transport, flag, value
    ):
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        assert main(["synth", "--seed", "3", "--files", "2", "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)]) == 0
        argv = ["run", "--views-dir", str(views_dir), "--models", "m", "--backoff", "0", "--transport", transport]
        replay = str(tmp_path / "first" / "raw_responses.jsonl")
        if "replay" in (transport, flag):
            assert main([*argv[:-2], "--out-dir", str(tmp_path / "first")]) == 0
        if transport == "replay":
            argv += ["--replay", replay]
        capsys.readouterr()
        assert main([*argv, flag, value or replay, "--out-dir", str(tmp_path / "run")]) == 2
        owner = "replay" if flag == "--replay" else "mock"
        assert json.loads(capsys.readouterr().err) == {
            "error": "TransportConfigError",
            "message": f"{flag} applies to --transport {owner} only, not {transport}",
        }
        assert not (tmp_path / "run").exists()

    def test_negative_stats_top_k_exits_2(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        main(["synth", "--seed", "3", "--files", "2", "--laws", "LGPD", "--out-dir", str(corpus_dir)])
        capsys.readouterr()
        out = tmp_path / "stats.json"
        code = main(["stats", "--dataset", str(corpus_dir / "dataset.json"), "--top-k", "-1",
                     "--out", str(out)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "RegevalError"
        assert "top_k" in payload["message"]
        assert not out.exists()

    def test_compose_after_task1_eval_names_missing_task(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        views_dir = tmp_path / "views"
        run_dir = tmp_path / "run"
        steps = [
            ["synth", "--seed", "3", "--files", "3", "--out-dir", str(corpus_dir)],
            ["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)],
            ["run", "--views-dir", str(views_dir), "--models", "a,b", "--backoff", "0",
             "--out-dir", str(run_dir)],
            ["parse", "--responses", str(run_dir / "raw_responses.jsonl"),
             "--out-dir", str(tmp_path / "parsed")],
            ["eval", "--views-dir", str(views_dir), "--task", "task1",
             "--predictions", str(tmp_path / "parsed"), "--out", str(tmp_path / "base.json")],
        ]
        for argv in steps:
            assert main(argv) == 0, argv
        capsys.readouterr()
        code = main(["compose", "--base", str(tmp_path / "base.json"),
                     "--out-dir", str(tmp_path / "final")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["message"] == (
            "no task2 metrics in base (eval --task task1); compose needs both tasks"
        )

    def _perfect_base(self, tmp_path):
        views_dir, pred_dir = self._perfect_cohort(tmp_path)
        base = tmp_path / "base.json"
        assert main(["eval", "--views-dir", str(views_dir), "--predictions", str(pred_dir),
                     "--out", str(base)]) == 0
        return views_dir, pred_dir, base

    @pytest.mark.parametrize(
        "source, change, problem",
        [
            ("--base", lambda base: {}, "top level: missing field 'models'"),
            ("--base", lambda base: {"models": []}, "models must be an object, got list"),
            ("--base", lambda base: {"models": {"m": {}}}, "models/m: missing field 'task1'"),
            ("--base", lambda base: {"models": {"m": {"task1": {}, "task2": []}}},
             "models/m/task2 must be an object, got list"),
            ("--base", lambda base: (base["models"]["PERFECT"]["task1"]["LGPD"]["file"].pop("mrr"), base)[1],
             "models/PERFECT/task1/LGPD/file: missing field 'mrr'"),
            ("--base", lambda base: base["models"]["PERFECT"]["task2"]["LGPD"].update(jaccard="1") or base,
             "models/PERFECT/task2/LGPD/jaccard must be a number, got '1'"),
            ("--base", lambda base: base["models"]["PERFECT"].update(coverage={"task1": {"LGPD": {"file": {}}}}) or base,
             "models/PERFECT/coverage/task1/LGPD/file: missing field 'gold_keys'"),
            ("--base", lambda base: base["models"]["PERFECT"]["coverage"]["task2"].update(LGPD=[]) or base,
             "models/PERFECT/coverage/task2/LGPD must be an object, got list"),
            ("--from-rcs", lambda base: {}, "top level: missing field 'models'"),
            ("--from-rcs", lambda base: {"models": {"m": {"task1": {"LGPD": None}, "task2": {}}}},
             "models/m/task1/LGPD must be a number, got None"),
            ("--base", lambda base: base["models"]["PERFECT"]["task1"]["LGPD"]["file"].update(acc_at_1=float("nan")) or base,
             "models/PERFECT/task1/LGPD/file/acc_at_1 must be a finite number, got nan"),
            ("--from-rcs", lambda base: {"models": {"m": {"task1": {"LGPD": float("inf")}, "task2": {"LGPD": 0.5}}}},
             "models/m/task1/LGPD must be a finite number, got inf"),
            ("--base", lambda base: base["models"]["PERFECT"]["task2"]["LGPD"].update(jaccard=10**400) or base,
             f"models/PERFECT/task2/LGPD/jaccard must be a finite number, got {10**400}"),
        ],
    )
    def test_malformed_base_exits_2_naming_file_and_field(self, tmp_path, capsys, source, change, problem):
        path = tmp_path / "malformed.json"
        *_, base = self._perfect_base(tmp_path)
        path.write_text(json.dumps(change(json.loads(base.read_text()))))
        capsys.readouterr()
        assert main(["compose", source, str(path), "--out-dir", str(tmp_path / "final")]) == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line) == {"error": "MalformedBase", "message": f"{path}: {problem}"}
        assert not (tmp_path / "final").exists()

    @pytest.mark.parametrize("option, value", [
        ("--ridge", "nan"), ("--alpha", "nan"), ("--ridge", "inf"), ("--beta", "inf"), ("--epsilon", "inf"),
    ])
    def test_non_finite_composite_parameter_exits_2(self, tmp_path, capsys, option, value):
        *_, base = self._perfect_base(tmp_path)
        capsys.readouterr()
        assert main(["compose", "--base", str(base), option, value, "--out-dir", str(tmp_path / "final")]) == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line) == {"error": "RegevalError", "message": f"{option[2:]} must be finite, got {value}"}
        assert not (tmp_path / "final").exists()

    @pytest.mark.parametrize(
        "change, problem",
        [
            (lambda rec: {k: v for k, v in rec.items() if k != "app_name"}, "missing field 'app_name'"),
            (lambda rec: "not a record", "not a JSON object: 'not a record'"),
            (lambda rec: {**rec, "article_id": "999"}, "LGPD: article '999' not in universe"),
            (lambda rec: {**rec, "file_path": "app/Main.kt"},
             "pointer lacks a :start-end span suffix: 'app/Main.kt'"),
        ],
        ids=["missing_field", "not_an_object", "out_of_universe", "no_span"],
    )
    def test_malformed_dataset_record_exits_2_naming_file_and_record(self, tmp_path, capsys, change, problem):
        corpus_dir = tmp_path / "corpus"
        views_dir = tmp_path / "views"
        main(["synth", "--seed", "3", "--files", "3", "--out-dir", str(corpus_dir)])
        main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)])
        records = json.loads((corpus_dir / "dataset.json").read_text())
        assert records[4]["law"] == "LGPD"
        records[4] = change(records[4])
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(records))
        capsys.readouterr()
        for argv in (
            ["shape", "--dataset", str(path), "--out-dir", str(tmp_path / "out")],
            ["stats", "--dataset", str(path), "--out", str(tmp_path / "out" / "stats.json")],
            ["run", "--views-dir", str(views_dir), "--dataset", str(path), "--models", "m",
             "--backoff", "0", "--out-dir", str(tmp_path / "out")],
        ):
            assert main(argv) == 2, argv
            [line] = capsys.readouterr().err.strip().splitlines()
            assert json.loads(line) == {"error": "MalformedDataset", "message": f"{path}: record 4: {problem}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "target, cut",
        [
            pytest.param("predictions", lambda text: text[:300], id="predictions"),
            pytest.param("predictions", lambda text: text[: text.index("}, {") + 1], id="predictions-entry-boundary"),
            pytest.param("predictions", lambda text: text[: text.index("}, {") - 5], id="predictions-inside-entry"),
            pytest.param("predictions", lambda text: text.rstrip()[:-1], id="predictions-inside-object"),
            pytest.param("predictions", lambda text: text + "{}", id="predictions-trailing-data"),
            pytest.param("view", lambda text: text[:300], id="view"),
            pytest.param("base", lambda text: text[:300], id="base"),
        ],
    )
    def test_truncated_json_file_exits_2_naming_file_line_and_column(self, tmp_path, capsys, target, cut):
        views_dir, pred_dir, base = self._perfect_base(tmp_path)
        path = {"predictions": pred_dir / "predictions_task1.json",
                "view": views_dir / "task2_LGPD.json", "base": base}[target]
        text = path.read_text()
        path.write_text(cut(text))
        capsys.readouterr()
        if target == "base":
            out = tmp_path / "final"
            code = main(["compose", "--base", str(base), "--out-dir", str(out)])
        else:
            out = tmp_path / "again.json"
            code = main(["eval", "--views-dir", str(views_dir), "--predictions", str(pred_dir),
                         "--out", str(out)])
        assert code == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        payload = json.loads(line)
        assert payload["error"] == "JSONDecodeError"
        assert re.fullmatch(rf"{re.escape(str(path))}: .+: line \d+ column \d+ \(char \d+\)", payload["message"])
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(path.read_text())
        assert payload["message"] == f"{path}: {expected.value}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(lambda data: data["predictions"], id="top-level-array"),
            pytest.param(lambda data: {"config": data["config"], "predictions": {}}, id="object"),
            pytest.param(lambda data: {"predictions": None}, id="null"),
            pytest.param(lambda data: {"entries": data["predictions"]}, id="missing"),
        ],
    )
    def test_prediction_file_without_a_predictions_list_exits_2(self, tmp_path, capsys, change):
        views_dir, pred_dir = self._perfect_cohort(tmp_path)
        path = pred_dir / "predictions_task2.json"
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
        capsys.readouterr()
        out = tmp_path / "base.json"
        assert main(["eval", "--views-dir", str(views_dir), "--predictions", str(pred_dir),
                     "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "MalformedPrediction", "message": f"{path}: no 'predictions' list"
        }
        assert not out.exists()

    def test_failing_transport_still_produces_artifacts(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        views_dir = tmp_path / "views"
        main(["synth", "--seed", "2", "--files", "2", "--laws", "LGPD", "--out-dir", str(corpus_dir)])
        main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)])
        code = main(
            [
                "run",
                "--views-dir", str(views_dir),
                "--models", "m",
                "--transport", "failing",
                "--backoff", "0",
                "--out-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "run" / "raw_responses.jsonl").read_text().splitlines()
        ]
        assert records and all(r["status"] == "exhausted_retries" for r in records)

    @pytest.mark.parametrize(
        "change, problem",
        [
            (lambda r: {k: v for k, v in r.items() if k != "law"}, "missing field 'law'"),
            (lambda r: {**r, "text": 5}, "field 'text' must be a string, got 5"),
            (lambda r: [1, 2], "not a JSON object: [1, 2]"),
            (None, "not JSON (Expecting value at column 1)"),
            (lambda r: {**r, "task": "task3"}, "unknown task 'task3'"),
        ],
    )
    def test_malformed_response_record_exits_2_naming_file_and_line(self, tmp_path, capsys, change, problem):
        """`parse` and a replay `run` both read records through one loader."""
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        assert main(["synth", "--seed", "2", "--files", "2", "--laws", "LGPD", "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)]) == 0
        assert main(["run", "--views-dir", str(views_dir), "--models", "m", "--backoff", "0",
                     "--out-dir", str(tmp_path / "run")]) == 0
        path = tmp_path / "run" / "raw_responses.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = "not json" if change is None else json.dumps(change(json.loads(lines[1])))
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for argv in (
            ["parse", "--responses", str(path), "--out-dir", str(tmp_path / "parsed")],
            ["run", "--views-dir", str(views_dir), "--models", "m", "--transport", "replay",
             "--replay", str(path), "--out-dir", str(tmp_path / "replayed")],
        ):
            assert main(argv) == 2
            [line] = capsys.readouterr().err.strip().splitlines()
            assert json.loads(line) == {"error": "MalformedResponse", "message": f"{path}: line 2: {problem}"}
        assert not (tmp_path / "parsed").exists() and not (tmp_path / "replayed").exists()

    @pytest.mark.parametrize(
        "task, field, problem",
        [
            ("task1", "file_path", "missing key field 'file_path'"),
            ("task1", "span", "span must be two integers with 1 <= start <= end, got [3]"),
            ("task2", "commit_id", "missing pointer field 'commit_id'"),
            ("task1", "law", "unknown jurisdiction: 'XX'"),
        ],
    )
    def test_malformed_response_key_exits_2_naming_file_and_line(self, tmp_path, capsys, task, field, problem):
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        assert main(["synth", "--seed", "2", "--files", "2", "--laws", "LGPD", "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)]) == 0
        assert main(["run", "--views-dir", str(views_dir), "--models", "m", "--backoff", "0", "--task", task,
                     "--out-dir", str(tmp_path / "run")]) == 0
        path = tmp_path / "run" / "raw_responses.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        if field == "span":
            record["key"]["span"] = [3]
        elif field == "law":
            record["law"] = "XX"
        else:
            del record["key"][field]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["parse", "--responses", str(path), "--out-dir", str(tmp_path / "parsed")]) == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line) == {"error": "MalformedResponse", "message": f"{path}: line 2: {problem}"}
        assert not (tmp_path / "parsed").exists()

    @pytest.mark.parametrize(
        "view, change, problem",
        [
            ("task1", lambda rec: rec["sections"]["line"][0].update(span=[3]),
             "span must be two integers with 1 <= start <= end, got [3]"),
            ("task1", lambda rec: rec["sections"].pop("module"), "missing field 'module'"),
            ("task2", lambda rec: rec["pointer"].pop("commit_id"), "missing pointer field 'commit_id'"),
            ("task2", lambda rec: rec["pointer"].update(span="3-5"),
             "span must be two integers with 1 <= start <= end, got '3-5'"),
            ("task1", lambda rec: rec["sections"]["file"].update(gold="12"),
             "gold must be a list of strings, got '12'"),
            ("task1", lambda rec: rec["sections"]["module"].update(gold=[12]),
             "gold must be a list of strings, got [12]"),
            ("task1", lambda rec: rec["sections"]["line"][0].update(gold=None),
             "gold must be a list of strings, got None"),
            ("task2", lambda rec: rec.update(gold="7"), "gold must be a list of strings, got '7'"),
            ("task1", lambda rec: rec["key"].update(commit_id=7), "key fields must be strings"),
            ("task1", lambda rec: rec["sections"]["module"].update(name=None), "key fields must be strings"),
            ("task1", lambda rec: rec["sections"]["module"].update(name=["A"]), "key fields must be strings"),
        ],
    )
    def test_malformed_view_record_exits_2_naming_file_and_record(self, tmp_path, capsys, view, change, problem):
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        assert main(["synth", "--seed", "2", "--files", "2", "--laws", "LGPD", "--profiles", "PERFECT",
                     "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)]) == 0
        path = views_dir / f"{view}_LGPD.json"
        data = json.loads(path.read_text())
        change(data["records"][1])
        path.write_text(json.dumps(data))
        capsys.readouterr()
        argv = ["eval", "--views-dir", str(views_dir), "--predictions", str(corpus_dir / "predictions_PERFECT"),
                "--out", str(tmp_path / "base.json")]
        assert main(argv) == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line) == {"error": "MalformedView", "message": f"{path}: record 1: {problem}"}
        assert not (tmp_path / "base.json").exists()

    def test_parse_reads_task2_records_that_carry_pointer_instead_of_key(self, tmp_path):
        corpus_dir, views_dir = tmp_path / "corpus", tmp_path / "views"
        assert main(["synth", "--seed", "2", "--files", "2", "--laws", "LGPD", "--out-dir", str(corpus_dir)]) == 0
        assert main(["shape", "--dataset", str(corpus_dir / "dataset.json"), "--out-dir", str(views_dir)]) == 0
        assert main(["run", "--views-dir", str(views_dir), "--models", "m", "--backoff", "0",
                     "--out-dir", str(tmp_path / "run")]) == 0
        path = tmp_path / "run" / "raw_responses.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(r["task"] == "task2" for r in records)
        renamed = tmp_path / "pointer_responses.jsonl"
        renamed.write_text("".join(
            json.dumps({("pointer" if k == "key" and r["task"] == "task2" else k): v for k, v in r.items()}) + "\n"
            for r in records
        ))
        assert main(["parse", "--responses", str(path), "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["parse", "--responses", str(renamed), "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("predictions_task1.json", "predictions_task2.json"):
            a, b = (json.loads((tmp_path / side / name).read_text()) for side in ("a", "b"))
            assert a["predictions"] and a["predictions"] == b["predictions"]


class TestCheckedInputs:
    """Every input a command reads is checked as it is read: a malformed one
    exits 2 with one JSON line naming the file and what is wrong, and the
    command writes nothing."""

    @staticmethod
    def _error(capsys) -> dict:
        [line] = capsys.readouterr().err.strip().splitlines()
        return json.loads(line)

    @pytest.mark.parametrize("target", ["dataset", "view", "predictions", "base"])
    def test_non_utf8_input_exits_2_naming_file_and_byte(self, tmp_path, capsys, target):
        views_dir, pred_dir = TestCliErrors._perfect_cohort(tmp_path)
        base = tmp_path / "base.json"
        assert main(["eval", "--views-dir", str(views_dir), "--predictions", str(pred_dir), "--out", str(base)]) == 0
        path = {"dataset": tmp_path / "corpus" / "dataset.json", "view": views_dir / "task1_LGPD.json",
                "predictions": pred_dir / "predictions_task1.json", "base": base}[target]
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        out = tmp_path / "out"
        argv = {
            "dataset": ["stats", "--dataset", str(path), "--out", str(out / "stats.json")],
            "base": ["compose", "--base", str(base), "--out-dir", str(out)],
        }.get(target, ["eval", "--views-dir", str(views_dir), "--predictions", str(pred_dir),
                       "--out", str(out / "base.json")])
        capsys.readouterr()
        assert main(argv) == 2
        assert self._error(capsys) == {"error": "RegevalError", "message": f"{path}: not UTF-8 (byte {size + 1})"}
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, problem",
        [
            (lambda cfg: [], "top level must be an object, got list"),
            (lambda cfg: cfg.update(LGPD="x") or cfg, "LGPD must be an object, got str"),
            (lambda cfg: (cfg["LGPD"].pop("universe"), cfg)[1], "LGPD: missing field 'universe'"),
            (lambda cfg: cfg["LGPD"].update(universe=[]) or cfg, "LGPD/universe must be an object, got list"),
            (lambda cfg: cfg["LGPD"].update(universe={}) or cfg, "LGPD/universe: needs 'ids' or 'range'"),
            (lambda cfg: cfg["LGPD"]["universe"].update(ids="5") or cfg,
             "LGPD/universe/ids must be a list, got '5'"),
            (lambda cfg: cfg["LGPD"]["universe"].update(ids=[]) or cfg, "LGPD: label universe must be non-empty"),
            (lambda cfg: cfg["LGPD"].update(universe={"range": [1, True]}) or cfg,
             "LGPD/universe/range must be two integers, got [1, True]"),
            (lambda cfg: (cfg["LGPD"].pop("citation_style"), cfg)[1], "LGPD: missing field 'citation_style'"),
            (lambda cfg: cfg["LGPD"].update(citation_style=None) or cfg,
             "LGPD/citation_style must be a string, got None"),
            (lambda cfg: cfg["LGPD"].update(citation_style="Art. {x}") or cfg,
             "LGPD/citation_style cannot render an id: KeyError('x')"),
            (lambda cfg: cfg["LGPD"].update(prefixes=["art", 7]) or cfg,
             "LGPD/prefixes must be a list of strings, got ['art', 7]"),
            (lambda cfg: cfg["LGPD"].update(prefixes="art") or cfg,
             "LGPD/prefixes must be a list of strings, got 'art'"),
            (lambda cfg: (cfg["LGPD"].pop("id_pattern"), cfg)[1], "LGPD: missing field 'id_pattern'"),
            (lambda cfg: cfg["LGPD"].update(id_pattern=7) or cfg, "LGPD/id_pattern must be a string, got 7"),
            (lambda cfg: cfg["LGPD"].update(id_pattern="(\\d+") or cfg, "LGPD/id_pattern does not compile: "),
            (lambda cfg: cfg["LGPD"].update(id_pattern="\\d*") or cfg,
             "LGPD/id_pattern must be a pattern no empty text matches, got '\\\\d*'"),
            (lambda cfg: cfg["LGPD"].update(allow_bare_ids="no") or cfg,
             "LGPD/allow_bare_ids must be true or false, got 'no'"),
        ],
    )
    def test_malformed_config_exits_2_naming_file_and_field(self, tmp_path, capsys, change, problem):
        config = JurisdictionRegistry.default().to_config()
        path, dataset, out = tmp_path / "jurisdictions.json", tmp_path / "dataset.json", tmp_path / "stats.json"
        path.write_text(json.dumps(change(config)))
        dataset.write_text("[]")
        capsys.readouterr()
        assert main(["--config", str(path), "stats", "--dataset", str(dataset), "--out", str(out)]) == 2
        error = self._error(capsys)
        assert error["error"] == "MalformedConfig"
        assert error["message"].startswith(f"{path}: {problem}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, problem",
        [
            (lambda spec: [], "top level must be an object, got list"),
            (lambda spec: (spec.pop("seed"), spec)[1], "top level: missing field 'seed'"),
            (lambda spec: spec.update(seed=True) or spec, "seed must be an integer, got True"),
            (lambda spec: (spec.pop("files_per_law"), spec)[1], "top level: missing field 'files_per_law'"),
            (lambda spec: spec.update(files_per_law=["LGPD"]) or spec, "files_per_law must be an object, got list"),
            (lambda spec: spec["files_per_law"].update(LGPD=1.5) or spec,
             "files_per_law/LGPD must be an integer, got 1.5"),
            (lambda spec: spec.update(instances_per_file=[1]) or spec,
             "instances_per_file must be two integers, got [1]"),
            (lambda spec: spec.update(instances_per_file=[1, 400]) or spec, "bad instances_per_file range: (1, 400)"),
            (lambda spec: spec.update(max_labels_per_file="4") or spec,
             "max_labels_per_file must be an integer, got '4'"),
            (lambda spec: spec.update(max_labels_per_instance=1.5) or spec,
             "max_labels_per_instance must be an integer, got 1.5"),
            (lambda spec: spec.update(skew="x") or spec, "skew must be a number, got 'x'"),
            (lambda spec: spec.update(repos=True) or spec, "repos must be an integer, got True"),
        ],
    )
    def test_malformed_spec_exits_2_naming_file_and_field(self, tmp_path, capsys, change, problem):
        spec = CorpusSpec(seed=3, files_per_law={"LGPD": 2}).to_dict()
        path, out = tmp_path / "spec.json", tmp_path / "out"
        path.write_text(json.dumps(change(spec)))
        capsys.readouterr()
        assert main(["synth", "--spec", str(path), "--out-dir", str(out)]) == 2
        assert self._error(capsys) == {"error": "InvalidSpec", "message": f"{path}: {problem}"}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize(
        "view, change",
        [
            ("task1", lambda rec: rec["sections"]["file"].update(gold=["7", "x"])),
            ("task1", lambda rec: rec["sections"]["line"][0].update(gold=["x"])),
            ("task2", lambda rec: rec.update(gold=["x"])),
        ],
    )
    def test_view_gold_label_outside_the_universe_exits_2(self, tmp_path, capsys, command, view, change):
        views_dir, pred_dir = TestCliErrors._perfect_cohort(tmp_path)
        path = views_dir / f"{view}_LGPD.json"
        data = json.loads(path.read_text())
        change(data["records"][1])
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = {
            "run": ["run", "--views-dir", str(views_dir), "--models", "m", "--backoff", "0", "--out-dir", str(out)],
            "eval": ["eval", "--views-dir", str(views_dir), "--predictions", str(pred_dir),
                     "--out", str(out / "base.json")],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert self._error(capsys) == {
            "error": "MalformedView", "message": f"{path}: record 1: gold labels not in the LGPD universe: ['x']"
        }
        assert not out.exists()

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
    @pytest.mark.parametrize("stage", ["eval", "parse", "replay"])
    def test_integer_over_the_digit_limit_exits_2(self, tmp_path, capsys, stage):
        """`json.loads` rejects such an integer with a ValueError that is not
        a JSONDecodeError; each reader names the file (and line) for it."""
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ValueError) as limit:
            json.loads(digits)
        views_dir, pred_dir = TestCliErrors._perfect_cohort(tmp_path)
        out = tmp_path / "out"
        if stage == "eval":
            path = pred_dir / "predictions_task1.json"
            text = path.read_text()
            path.write_text(text.replace('{"config": {', f'{{"config": {{"n": {digits}, ', 1))
            argv = ["eval", "--views-dir", str(views_dir), "--predictions", str(pred_dir), "--out", str(out / "b.json")]
            expected = {"error": "RegevalError", "message": f"{path}: {limit.value}"}
        else:
            assert main(["run", "--views-dir", str(views_dir), "--models", "m", "--backoff", "0",
                         "--out-dir", str(tmp_path / "run")]) == 0
            path = tmp_path / "run" / "raw_responses.jsonl"
            lines = path.read_text().splitlines()
            lines[1] = f'{lines[1][:-1]}, "n": {digits}}}'
            path.write_text("\n".join(lines) + "\n")
            argv = {
                "parse": ["parse", "--responses", str(path), "--out-dir", str(out)],
                "replay": ["run", "--views-dir", str(views_dir), "--models", "m", "--transport", "replay",
                           "--replay", str(path), "--out-dir", str(out)],
            }[stage]
            expected = {"error": "MalformedResponse", "message": f"{path}: line 2: {limit.value}"}
        capsys.readouterr()
        assert main(argv) == 2
        assert self._error(capsys) == expected
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize(
        "change, problem",
        [
            (lambda rec: rec.update(snippet=5), "snippet must be a string, got 5"),
            (lambda rec: rec.update(snippet=None), "snippet must be a string, got None"),
            (lambda rec: rec.update(snippet=1.5), "snippet must be a string, got 1.5"),
            (lambda rec: rec["provenance"].update(repo_url=7), "provenance/repo_url must be a string, got 7"),
            (lambda rec: rec["provenance"].update(app_name=None), "provenance/app_name must be a string, got None"),
        ],
        ids=["snippet-int", "snippet-null", "snippet-float", "repo_url-int", "app_name-null"],
    )
    def test_task2_view_snippet_and_provenance_must_be_strings(self, tmp_path, capsys, command, change, problem):
        views_dir, pred_dir = TestCliErrors._perfect_cohort(tmp_path)
        path = views_dir / "task2_LGPD.json"
        data = json.loads(path.read_text())
        change(data["records"][1])
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = {
            "run": ["run", "--views-dir", str(views_dir), "--models", "m", "--backoff", "0", "--out-dir", str(out)],
            "eval": ["eval", "--views-dir", str(views_dir), "--predictions", str(pred_dir),
                     "--out", str(out / "base.json")],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert self._error(capsys) == {"error": "MalformedView", "message": f"{path}: record 1: {problem}"}
        assert not out.exists()
