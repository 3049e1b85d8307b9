"""Tests of the benchmark's output checks: each passes on a real small run of
its workload and fails when one claimed property is broken on purpose.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

import check_round
import run
from check_round import read_json, read_jsonl
from checks import (
    CheckFailed,
    check_cohort,
    check_identical_scores,
    check_parsed_equals_scripted,
    check_records,
    check_replay,
    check_same_predictions,
    load_gold,
    load_universe_sizes,
)

sys.path.insert(0, str(run.SRC))

SEED = 3
FILES = 12


def build(workload: str, d: Path) -> Path:
    setup, stages = run.plan(workload, SEED, d, files=FILES)
    run._call_stages(setup + stages)
    return d


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    return build("cohort_eval", tmp_path_factory.mktemp("cohort"))


@pytest.fixture(scope="module")
def mock(tmp_path_factory):
    return build("mock_pipeline", tmp_path_factory.mktemp("mock"))


@pytest.fixture(scope="module")
def retry(tmp_path_factory):
    return build("retry_replay", tmp_path_factory.mktemp("retry"))


@pytest.mark.parametrize("workload", ["cohort_eval", "mock_pipeline", "retry_replay"])
def test_round_check_accepts_real_outputs(workload, request, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(run.SRC))
    d = request.getfixturevalue({"cohort_eval": "cohort", "mock_pipeline": "mock",
                                 "retry_replay": "retry"}[workload])
    result = check_round.check(workload, SEED, d, full=True)
    assert result["failed"] == 0
    runs = len(check_round.RUN_DIRS[workload])
    assert result["requests"] == runs * len(run.MODELS) * len(load_gold(d / "views").identities())
    assert check_round.check(workload, SEED, d, full=False)["digest"] == result["digest"]


def test_round_digest_changes_with_outputs(mock):
    before = check_round.check("mock_pipeline", SEED, mock, full=False)["digest"]
    path = mock / "final" / "report.txt"
    original = path.read_text()
    try:
        path.write_text(original + " ")
        assert check_round.check("mock_pipeline", SEED, mock, full=False)["digest"] != before
    finally:
        path.write_text(original)


# --- cohort_eval ----------------------------------------------------------------------

COHORT_BREAKS = {
    "perfect_acc5": lambda r: r["models"]["PERFECT"]["task1"]["LGPD"]["line"].update(acc_at_5=0.99),
    "perfect_ndcg": lambda r: r["models"]["PERFECT"]["task1"]["PDPA"]["file"].update(ndcg_at_5=0.9),
    "perfect_acc1": lambda r: r["models"]["PERFECT"]["task1"]["PIPEDA"]["module"].update(acc_at_1=1.0),
    "perfect_f1": lambda r: r["models"]["PERFECT"]["task2"]["LGPD"].update(macro_f1=0.98),
    "perfect_hamming": lambda r: r["models"]["PERFECT"]["task2"]["PDPA"].update(one_minus_hamming=0.97),
    "perfect_nce": lambda r: r["models"]["PERFECT"]["task2"]["PIPEDA"].update(one_minus_coverage_error=1.0),
    "breadth_acc1": lambda r: r["models"]["BREADTH_ONLY"]["task1"]["LGPD"]["file"].update(acc_at_1=0.1),
    "breadth_acc5": lambda r: r["models"]["BREADTH_ONLY"]["task1"]["LGPD"]["line"].update(acc_at_5=0.9),
    "breadth_mrr": lambda r: r["models"]["BREADTH_ONLY"]["task1"]["PDPA"]["module"].update(mrr=0.55),
    "ocs_order": lambda r: r["composites"]["models"]["RANDOM"].update(ocs=1.0),
    "rcs_range": lambda r: r["composites"]["models"]["RANDOM"]["rcs"]["task2"].update(LGPD=-0.01),
    "crgs_range": lambda r: r["composites"]["models"]["MAJORITY_LABEL"]["crgs"].update(task1=1.2),
    "sgs_range": lambda r: r["composites"]["models"]["PERFECT"]["sgs"]["LGPD"].update(mrr=1.01),
    "coverage": lambda r: r["models"]["RANDOM"]["coverage"]["task2"]["PDPA"].update(coverage=0.5),
    "missing_model": lambda r: r["models"].pop("RANKING_ONLY"),
}


def cohort_inputs(d: Path):
    return (load_gold(d / "views"),
            load_universe_sizes(run.SRC / "regeval" / "data" / "jurisdictions.json"),
            read_json(d / "final" / "results.json"))


def test_cohort_check_passes(cohort):
    check_cohort(*cohort_inputs(cohort))


@pytest.mark.parametrize("name", sorted(COHORT_BREAKS))
def test_cohort_check_fails_on_wrong_result(cohort, name):
    gold, universe, results = cohort_inputs(cohort)
    COHORT_BREAKS[name](results)
    with pytest.raises(CheckFailed):
        check_cohort(gold, universe, results)


# --- mock_pipeline --------------------------------------------------------------------


def test_mock_record_check_fails_on_wrong_records(mock):
    gold = load_gold(mock / "views")
    records = read_jsonl(mock / "run" / "raw_responses.jsonl")
    check_records(gold, run.MODELS, records, 1, "run")
    for breaks in (
        lambda rs: rs[0].update(status="exhausted_retries"),
        lambda rs: rs[1].update(attempts=2),
        lambda rs: rs.pop(),
        lambda rs: rs.append(copy.deepcopy(rs[0])),
        lambda rs: rs[2]["key"].update(file_path="elsewhere.kt"),
    ):
        broken = copy.deepcopy(records)
        breaks(broken)
        with pytest.raises(CheckFailed):
            check_records(gold, run.MODELS, broken, 1, "run")


def test_mock_parse_check_fails_on_wrong_prediction(mock):
    gold = load_gold(mock / "views")
    t1 = read_json(mock / "parsed" / "predictions_task1.json")
    t2 = read_json(mock / "parsed" / "predictions_task2.json")
    s1, s2 = check_round.scripted_random(mock / "views", SEED)
    check_parsed_equals_scripted(gold, run.MODELS, t1, t2, s1, s2)
    for payload, field in ((t1, "ranking"), (t2, "labels")):
        entry = payload["predictions"][5]
        kept = list(entry[field])
        entry[field] = kept[::-1] if len(kept) > 1 else kept + kept
        with pytest.raises(CheckFailed):
            check_parsed_equals_scripted(gold, run.MODELS, t1, t2, s1, s2)
        entry[field] = kept
    t1["predictions"].pop()
    with pytest.raises(CheckFailed):
        check_parsed_equals_scripted(gold, run.MODELS, t1, t2, s1, s2)


def test_identical_scores_check_fails_when_models_differ(mock):
    results = read_json(mock / "final" / "results.json")
    check_identical_scores(results, list(run.MODELS))
    broken = copy.deepcopy(results)
    broken["models"][run.MODELS[1]]["task2"]["LGPD"]["jaccard"] += 1e-3
    with pytest.raises(CheckFailed):
        check_identical_scores(broken, list(run.MODELS))
    broken = copy.deepcopy(results)
    broken["composites"]["models"][run.MODELS[1]]["ocs"] *= 0.5
    with pytest.raises(CheckFailed):
        check_identical_scores(broken, list(run.MODELS))


# --- retry_replay ---------------------------------------------------------------------


def test_retry_checks_fail_on_wrong_results(retry):
    gold = load_gold(retry / "views")
    first_records = read_jsonl(retry / "run" / "raw_responses.jsonl")
    replay_records = read_jsonl(retry / "replay" / "raw_responses.jsonl")
    first = check_records(gold, run.MODELS, first_records, 3, "run")
    replayed = check_records(gold, run.MODELS, replay_records, 1, "replay")
    check_replay(first, replayed)
    with pytest.raises(CheckFailed):
        check_records(gold, run.MODELS, first_records, 1, "run")
    with pytest.raises(CheckFailed):
        check_records(gold, run.MODELS, replay_records, 3, "replay")
    ident = next(iter(replayed))
    with pytest.raises(CheckFailed):
        check_replay(first, {**replayed, ident: replayed[ident] + ", Art. 5"})

    parsed = read_json(retry / "parsed" / "predictions_task1.json")
    check_same_predictions(parsed, copy.deepcopy(parsed), "parse")
    broken = copy.deepcopy(parsed)
    broken["predictions"][0]["ranking"] = broken["predictions"][0]["ranking"][1:]
    with pytest.raises(CheckFailed):
        check_same_predictions(parsed, broken, "parse")
