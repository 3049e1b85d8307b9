"""Machine- and human-readable result emission.

results.json keeps full float precision for independent recomputation;
report.txt renders the same numbers at four decimals; plot_data.csv carries
one radar-axis row per (model, law, level) for external plotting.
"""

from __future__ import annotations

import csv
import sys
from functools import partial
from pathlib import Path
from typing import Mapping

from .composites import CompositeConfig, compose
from .corpus import atomic_write, check_member, check_object, write_json
from .errors import MalformedBase
from .multilabel import T2_METRIC_NAMES, JudgmentMetrics
from .retrieval import T1_METRIC_NAMES, RetrievalMetrics
from .shaping import GRANULARITIES

SCHEMA_VERSION = 1

_MAX_FLOAT = sys.float_info.max


def build_base_results(
    scored: Mapping[str, tuple[Mapping[tuple[str, str], RetrievalMetrics], Mapping[str, JudgmentMetrics], dict]],
    config_echo: Mapping,
) -> dict:
    """The base.json payload of `eval` from each model's task-1 metrics per
    (law, granularity), task-2 metrics per law (either empty when its task was
    not scored) and bind report (`BindResult.to_dict()`). A model block holds
    the metrics and, for each scored slice, its coverage report from the bind
    report, which is the model's `diagnostics` entry in full."""
    base: dict = {"schema_version": SCHEMA_VERSION, "config": dict(config_echo), "models": {}, "diagnostics": {}}
    for model, (task1, task2, bind) in sorted(scored.items()):
        block: dict = {"task1": {}, "task2": {}, "coverage": {"task1": {}, "task2": {}}}
        for (law, gran), metrics in task1.items():
            block["task1"].setdefault(law, {})[gran] = metrics._asdict()
            block["coverage"]["task1"].setdefault(law, {})[gran] = bind["task1"][f"{law}/{gran}"]
        for law, metrics in task2.items():
            block["task2"][law] = metrics._asdict()
            block["coverage"]["task2"][law] = bind["task2"][law]
        base["models"][model] = block
        base["diagnostics"][model] = bind
    return base


_object = partial(check_object, MalformedBase)
_member = partial(check_member, MalformedBase)


def _numbers(value, names, path: str) -> dict:
    """`value`, checked to be an object holding each of `names` as a finite
    number: `json.loads` reads `NaN` and `Infinity` as floats, and an integer
    beyond the float range as an int."""
    block = _object(value, path)
    for name in names:
        number = _member(block, name, path)
        if type(number) not in (int, float):
            raise MalformedBase(f"{path}/{name} must be a number, got {number!r}")
        if not -_MAX_FLOAT <= number <= _MAX_FLOAT:
            raise MalformedBase(f"{path}/{name} must be a finite number, got {number!r}")
    return block


def _model_blocks(data):
    """(model, path, task1 block, task2 block) of each model of
    `data["models"]`, which must be an object of objects that each hold
    "task1" and "task2" as objects; a failed check raises MalformedBase
    naming the field by its path."""
    models = _object(_member(_object(data, "top level"), "models", "top level"), "models")
    for model, block in models.items():
        path = f"models/{model}"
        block = _object(block, path)
        t1, t2 = (_object(_member(block, task, path), f"{path}/{task}") for task in ("task1", "task2"))
        yield model, path, t1, t2


def _check_coverage(block: dict, path: str) -> None:
    """Check a model's optional `coverage` block as `render_report_txt` reads
    it: each task-1 report holds `policy` and the key counts, each task-2
    report the pointer counts."""
    if "coverage" not in block:
        return
    path = f"{path}/coverage"
    coverage = _object(block["coverage"], path)
    for law, by_gran in _object(coverage.get("task1", {}), f"{path}/task1").items():
        for gran, report in _object(by_gran, f"{path}/task1/{law}").items():
            report = _numbers(report, ("gold_keys", "matched_keys"), f"{path}/task1/{law}/{gran}")
            _member(report, "policy", f"{path}/task1/{law}/{gran}")
    for law, report in _object(coverage.get("task2", {}), f"{path}/task2").items():
        _numbers(report, ("gold_pointers", "matched_pointers"), f"{path}/task2/{law}")


def metrics_from_base(base: Mapping) -> tuple[dict, dict]:
    """Rebuild typed metric tables from a results.json base block, whose
    metric blocks must each hold every metric name as a number, and whose
    coverage blocks must hold what the report renders."""
    task1: dict = {}
    task2: dict = {}
    for model, path, t1, t2 in _model_blocks(base):
        _check_coverage(base["models"][model], path)
        task1[model] = {
            law: {
                gran: RetrievalMetrics.from_dict(_numbers(values, T1_METRIC_NAMES, f"{path}/task1/{law}/{gran}"))
                for gran, values in _object(by_gran, f"{path}/task1/{law}").items()
            }
            for law, by_gran in t1.items()
        }
        task2[model] = {
            law: JudgmentMetrics.from_dict(_numbers(values, T2_METRIC_NAMES, f"{path}/task2/{law}"))
            for law, values in t2.items()
        }
    return task1, task2


def rcs_from_fixture(fixture: Mapping) -> dict:
    """The per-law RCS values of a `compose --from-rcs` fixture, checked:
    each model's task1 and task2 map each law to a number."""
    rcs = {}
    for model, path, t1, t2 in _model_blocks(fixture):
        rcs[model] = {"task1": _numbers(t1, t1, f"{path}/task1"), "task2": _numbers(t2, t2, f"{path}/task2")}
    return rcs


def compose_results(base: Mapping, config: CompositeConfig | None = None) -> dict:
    """Full results payload: base metrics plus the composite report."""
    config = config or CompositeConfig()
    task1, task2 = metrics_from_base(base)
    report = compose(task1, task2, config)
    payload = dict(base)
    payload["composites"] = report.to_dict()
    return payload


def _fmt(value) -> str:
    return f"{value:.4f}" if isinstance(value, (int, float)) else str(value)


def _metric_rows(block: Mapping):
    """(task, law, level, metric names, metric block) of each base-metric row
    of one model block: task-1 laws sorted with their levels in GRANULARITIES
    order, then task-2 laws sorted at level "snippet"."""
    for law, by_gran in sorted(block.get("task1", {}).items()):
        for gran in GRANULARITIES:
            if gran in by_gran:
                yield "task1", law, gran, T1_METRIC_NAMES, by_gran[gran]
    for law, row in sorted(block.get("task2", {}).items()):
        yield "task2", law, "snippet", T2_METRIC_NAMES, row


def render_report_txt(payload: Mapping) -> str:
    """Human summary; every number rendered at four decimals."""
    lines: list[str] = ["== evaluation report =="]
    composites = payload.get("composites", {})
    for model, block in sorted(payload.get("models", {}).items()):
        lines.append("")
        lines.append(f"model: {model}")
        for task, law, level, names, row in _metric_rows(block):
            cells = "  ".join(f"{name}={_fmt(row[name])}" for name in names)
            lines.append(f"  {task} {law:<8} {level:<7} {cells}")
        coverage = block.get("coverage", {})
        for law, by_gran in sorted(coverage.get("task1", {}).items()):
            for gran, rep in sorted(by_gran.items()):
                lines.append(
                    f"  coverage task1 {law} {gran}: {rep['matched_keys']}/{rep['gold_keys']}"
                    f" matched ({rep['policy']})"
                )
        for law, rep in sorted(coverage.get("task2", {}).items()):
            lines.append(
                f"  coverage task2 {law}: {rep['matched_pointers']}/{rep['gold_pointers']} matched"
            )
        comp = composites.get("models", {}).get(model)
        if comp:
            for law, table in sorted(comp.get("sgs", {}).items()):
                cells = "  ".join(f"{name}={_fmt(table[name])}" for name in T1_METRIC_NAMES)
                lines.append(f"  sgs   {law:<8} {cells}")
            for task in ("task1", "task2"):
                rcs_map = comp.get("rcs", {}).get(task, {})
                if rcs_map:
                    cells = "  ".join(f"{law}={_fmt(v)}" for law, v in sorted(rcs_map.items()))
                    lines.append(f"  rcs   {task}: {cells}  crgs={_fmt(comp['crgs'][task])}")
            coupled = comp.get("coupled", {})
            if coupled:
                cells = "  ".join(f"{law}={_fmt(v)}" for law, v in sorted(coupled.items()))
                lines.append(f"  coupled: {cells}")
            lines.append(f"  ocs: {_fmt(comp['ocs'])}")
    return "\n".join(lines) + "\n"


def write_report_txt(path: str | Path, payload: Mapping) -> Path:
    path = Path(path)
    with atomic_write(path) as fh:
        fh.write(render_report_txt(payload))
    return path


def write_plot_data_csv(path: str | Path, payload: Mapping) -> Path:
    """Radar-axis rows: task-1 levels use the retrieval metric order, the
    snippet row uses the oriented judgment order (axis_1..axis_6)."""
    path = Path(path)
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "law", "level"] + [f"axis_{i}" for i in range(1, 7)])
        for model, block in sorted(payload.get("models", {}).items()):
            for _task, law, level, names, row in _metric_rows(block):
                writer.writerow([model, law, level] + [repr(float(row[name])) for name in names])
    return path


def emit_results(
    out_dir: str | Path,
    base: Mapping,
    config: CompositeConfig | None = None,
) -> dict[str, Path]:
    """Write results.json, report.txt, and plot_data.csv for one run."""
    out = Path(out_dir)
    payload = compose_results(base, config)
    return {
        "results": write_json(out / "results.json", payload),
        "report": write_report_txt(out / "report.txt", payload),
        "plot_data": write_plot_data_csv(out / "plot_data.csv", payload),
    }
