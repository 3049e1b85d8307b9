from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import pytest

import regeval.retrieval
from regeval.cli import main
from regeval.composites import CompositeConfig
from regeval.multilabel import T2_METRIC_NAMES
from regeval.report import compose_results

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

    def test_compose_requires_input(self):
        with pytest.raises(SystemExit):
            main(["compose", "--out-dir", "x"])

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
            ("task2", "span", [3]),
            ("task2", "labels", None),
            ("task2", "commit_id", None),
            ("task2", "commit_id", 7),
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
        assert payload["error"] == "OutOfUniverse"
        assert payload["message"] == "PDPA: article '7' not in universe"

    @pytest.mark.parametrize(
        "flag, value",
        [("--retries", "-1"), ("--max-tokens", "0"), ("--timeout", "0"), ("--backoff", "-1")],
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
