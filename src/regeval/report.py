"""Machine- and human-readable result emission.

results.json keeps full float precision for independent recomputation;
report.txt renders the same numbers at four decimals; plot_data.csv carries
one radar-axis row per (model, law, level) for external plotting.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping

from .composites import CompositeConfig, compose
from .corpus import atomic_write, write_json
from .multilabel import T2_METRIC_NAMES, JudgmentMetrics, Task2Evaluation
from .retrieval import T1_METRIC_NAMES, RetrievalMetrics, Task1Evaluation
from .shaping import GRANULARITIES

SCHEMA_VERSION = 1


def build_base_results(
    per_model_task1: Mapping[str, Mapping[tuple[str, str], Task1Evaluation]],
    per_model_task2: Mapping[str, Mapping[str, Task2Evaluation]],
    config_echo: Mapping,
) -> dict:
    """Assemble the base-metric block of results.json from evaluation outputs."""
    base: dict = {"schema_version": SCHEMA_VERSION, "config": dict(config_echo), "models": {}}
    for model in sorted(per_model_task1):
        t1 = per_model_task1[model]
        t2 = per_model_task2.get(model, {})
        laws = sorted({law for (law, _gran) in t1})
        model_block: dict = {"task1": {}, "task2": {}, "coverage": {"task1": {}, "task2": {}}}
        for law in laws:
            model_block["task1"][law] = {}
            for gran in GRANULARITIES:
                evaluation = t1.get((law, gran))
                if evaluation is None:
                    continue
                model_block["task1"][law][gran] = evaluation.metrics.to_dict()
                model_block["coverage"]["task1"].setdefault(law, {})[gran] = evaluation.report.to_dict()
        for law, evaluation in sorted(t2.items()):
            model_block["task2"][law] = evaluation.metrics.to_dict()
            model_block["coverage"]["task2"][law] = evaluation.report.to_dict()
        base["models"][model] = model_block
    return base


def metrics_from_base(base: Mapping) -> tuple[dict, dict]:
    """Rebuild typed metric tables from a results.json base block."""
    task1: dict = {}
    task2: dict = {}
    for model, block in base["models"].items():
        task1[model] = {
            law: {gran: RetrievalMetrics.from_dict(values) for gran, values in by_gran.items()}
            for law, by_gran in block["task1"].items()
        }
        task2[model] = {
            law: JudgmentMetrics.from_dict(values) for law, values in block["task2"].items()
        }
    return task1, task2


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


def render_report_txt(payload: Mapping) -> str:
    """Human summary; every number rendered at four decimals."""
    lines: list[str] = ["== evaluation report =="]
    composites = payload.get("composites", {})
    for model, block in sorted(payload.get("models", {}).items()):
        lines.append("")
        lines.append(f"model: {model}")
        for law, by_gran in sorted(block.get("task1", {}).items()):
            for gran in GRANULARITIES:
                if gran not in by_gran:
                    continue
                row = by_gran[gran]
                cells = "  ".join(f"{name}={_fmt(row[name])}" for name in T1_METRIC_NAMES)
                lines.append(f"  task1 {law:<8} {gran:<7} {cells}")
        for law, row in sorted(block.get("task2", {}).items()):
            cells = "  ".join(f"{name}={_fmt(row[name])}" for name in T2_METRIC_NAMES)
            lines.append(f"  task2 {law:<8} snippet {cells}")
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
            for law, by_gran in sorted(block.get("task1", {}).items()):
                for gran in GRANULARITIES:
                    if gran not in by_gran:
                        continue
                    row = by_gran[gran]
                    writer.writerow(
                        [model, law, gran] + [repr(float(row[name])) for name in T1_METRIC_NAMES]
                    )
            for law, row in sorted(block.get("task2", {}).items()):
                writer.writerow(
                    [model, law, "snippet"] + [repr(float(row[name])) for name in T2_METRIC_NAMES]
                )
    return path


def emit_results(
    out_dir: str | Path,
    base: Mapping,
    config: CompositeConfig | None = None,
) -> dict[str, Path]:
    """Write results.json, report.txt, and plot_data.csv for one run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = compose_results(base, config)
    return {
        "results": write_json(out / "results.json", payload),
        "report": write_report_txt(out / "report.txt", payload),
        "plot_data": write_plot_data_csv(out / "plot_data.csv", payload),
    }
