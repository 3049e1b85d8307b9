"""Command-line entry point tying the pipeline together.

Subcommands mirror the pipeline stages: synth -> shape -> run -> parse ->
eval -> compose, plus stats. Every command echoes its effective configuration
into its outputs, and module errors exit non-zero with one machine-parsable
JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import report as report_mod
from .composites import CompositeConfig, compose_from_rcs
from .corpus import corpus_stats, load_dataset, save_dataset, write_json
from .errors import RegevalError
from .harness import (
    FailingTransport,
    MockTransport,
    ReplayTransport,
    RunConfig,
    execute_run,
    load_responses,
)
from .ingest import (
    GoldIndex,
    bind_predictions,
    load_prediction_files,
    parse_responses,
    write_prediction_files,
)
from .jurisdiction import JurisdictionRegistry
from .multilabel import score_task2
from .retrieval import score_task1
from .shaping import (
    DEFAULT_EXCLUDE_PATTERNS,
    ShapedViews,
    dump_views,
    load_task1_view,
    load_task2_view,
    shape_views,
)
from .synthetic import (
    PROFILES,
    CorpusSpec,
    generate_corpus,
    load_spec,
    profile_reply_fn,
    scripted_model,
    write_spec,
)


def _registry(args) -> JurisdictionRegistry:
    if getattr(args, "config", None):
        return JurisdictionRegistry.from_file(args.config)
    return JurisdictionRegistry.default()


def _composite_config(args) -> CompositeConfig:
    return CompositeConfig(
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        delta=args.delta,
        ridge=args.ridge,
        epsilon=args.epsilon,
    )


def _load_views(views_dir: str, laws: list[str] | None = None) -> dict[str, ShapedViews]:
    views: dict[str, ShapedViews] = {}
    for t1_path in sorted(Path(views_dir).glob("task1_*.json")):
        law, records = load_task1_view(t1_path)
        if laws and law not in laws:
            continue
        t2_path = Path(views_dir) / f"task2_{law}.json"
        _, t2_records = load_task2_view(t2_path)
        views[law] = ShapedViews(law=law, task1=records, task2=t2_records)
    if not views:
        raise RegevalError(f"no task views found under {views_dir}")
    return views


def cmd_stats(args) -> int:
    registry = _registry(args)
    corpus = load_dataset(args.dataset, registry, law=args.law)
    stats = corpus_stats(corpus, registry, top_k=args.top_k)
    payload = {
        "config": {
            "dataset": str(args.dataset),
            "top_k": args.top_k,
            "jurisdictions": registry.to_config(),
        },
        "stats": stats.to_dict(),
    }
    write_json(args.out, payload)
    print(f"wrote {args.out}")
    return 0


def cmd_shape(args) -> int:
    registry = _registry(args)
    corpus = load_dataset(args.dataset, registry, law=args.law)
    patterns = args.exclude if args.exclude else list(DEFAULT_EXCLUDE_PATTERNS)
    views = shape_views(corpus, patterns)
    config_echo = {
        "dataset": str(args.dataset),
        "exclude_patterns": list(patterns),
        "laws": sorted(views),
    }
    written = dump_views(views, args.out_dir, registry, config_echo)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_synth(args) -> int:
    registry = _registry(args)
    if args.spec:
        spec = load_spec(args.spec)
    else:
        laws = args.laws.split(",") if args.laws else list(registry.codes)
        spec = CorpusSpec(seed=args.seed, files_per_law={law: args.files for law in laws})
    corpus = generate_corpus(spec, registry)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_spec(spec, out_dir / "synthetic_spec.json")
    save_dataset(out_dir / "dataset.json", corpus, registry)
    print(f"wrote {out_dir / 'dataset.json'} ({len(corpus)} instances)")
    if args.profiles:
        views = shape_views(corpus)
        for profile in args.profiles.split(","):
            scripted = scripted_model(profile.strip(), views, registry, seed=spec.seed)
            profile_dir = out_dir / f"predictions_{profile.strip()}"
            t1, t2 = write_prediction_files(
                profile_dir,
                scripted.ranked,
                scripted.sets,
                config_echo={"profile": profile.strip(), "seed": spec.seed},
            )
            print(f"wrote {t1}")
            print(f"wrote {t2}")
    return 0


def cmd_run(args) -> int:
    registry = _registry(args)
    views = _load_views(args.views_dir, args.law.split(",") if args.law else None)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    config = RunConfig(
        models=tuple(models),
        temperature=args.temperature,
        max_tokens=args.max_tokens,
        timeout_seconds=args.timeout,
        retries=args.retries,
        backoff_seconds=args.backoff,
        context_window=args.context_window,
    )
    corpus = load_dataset(args.dataset, registry) if args.dataset else None
    if args.transport == "mock":
        reply = profile_reply_fn(views, registry, args.profile, seed=args.seed)
        transport = MockTransport(reply, fail_times=args.fail_times)
    elif args.transport == "failing":
        transport = FailingTransport()
    else:
        transport = ReplayTransport(args.replay)
    tasks = ("task1", "task2") if args.task == "both" else (args.task,)
    result = execute_run(
        config, views, transport, args.out_dir, registry, corpus=corpus, tasks=tasks
    )
    print(f"wrote {result.responses_path} ({len(result.records)} records)")
    print(f"wrote {result.config_path}")
    print(f"wrote {result.log_path}")
    return 0


def cmd_parse(args) -> int:
    registry = _registry(args)
    records = load_responses(args.responses)
    ranked, sets, summary = parse_responses(records, registry)
    t1, t2 = write_prediction_files(
        args.out_dir,
        ranked,
        sets,
        config_echo={"responses": str(args.responses), "parse": summary.to_dict()},
    )
    print(f"wrote {t1}")
    print(f"wrote {t2}")
    return 0


def cmd_eval(args) -> int:
    prediction_dirs = [Path(p) for p in args.predictions]
    resolved = [p.resolve() for p in prediction_dirs]
    repeated = sorted({str(p) for p in resolved if resolved.count(p) > 1})
    if repeated:
        raise RegevalError(f"--predictions names a directory more than once: {', '.join(repeated)}")
    registry = _registry(args)
    views = _load_views(args.views_dir, args.law.split(",") if args.law else None)
    gold = GoldIndex.from_views(views)

    # Rows are task-1 (anchor, ranking, model) and task-2 (law, pointer
    # anchor, labels, model), and an anchor starts with its law. Predictions
    # for laws without loaded views (other laws than `--law`) are out of
    # scope: dropped here, so they are neither orphans nor counted.
    ranked_by_model: dict[str, list] = {}
    sets_by_model: dict[str, list] = {}
    memo: dict[str, dict[str, str]] = {}
    for pred_dir in prediction_dirs:
        ranked, sets = load_prediction_files(
            pred_dir / "predictions_task1.json", pred_dir / "predictions_task2.json", registry, memo
        )
        for row in ranked:
            kept = ranked_by_model.setdefault(row[2] or pred_dir.name, [])
            if row[0][0] in views:
                kept.append(row)
        for row in sets:
            kept = sets_by_model.setdefault(row[3] or pred_dir.name, [])
            if row[0] in views:
                kept.append(row)

    per_model_task1 = {}
    per_model_task2 = {}
    diagnostics = {}
    for model in sorted(set(ranked_by_model) | set(sets_by_model)):
        ranked = ranked_by_model.get(model, [])
        sets = sets_by_model.get(model, [])
        bound = bind_predictions(gold, ranked, sets, args.policy)
        diagnostics[model] = bound.to_dict()
        per_model_task1[model] = (
            score_task1(bound.task1, registry) if args.task in ("both", "task1") else {}
        )
        per_model_task2[model] = (
            score_task2(bound.task2, registry) if args.task in ("both", "task2") else {}
        )

    base = report_mod.build_base_results(
        per_model_task1,
        per_model_task2,
        config_echo={
            "policy": args.policy,
            "task": args.task,
            "views_dir": str(args.views_dir),
            "predictions": [str(p) for p in prediction_dirs],
        },
    )
    base["diagnostics"] = diagnostics
    write_json(args.out, base)
    print(f"wrote {args.out}")
    return 0


def cmd_compose(args) -> int:
    config = _composite_config(args)
    out_dir = Path(args.out_dir)
    if args.from_rcs:
        fixture = json.loads(Path(args.from_rcs).read_text(encoding="utf-8"))
        report = compose_from_rcs(fixture["models"], config)
        payload = {
            "schema_version": report_mod.SCHEMA_VERSION,
            "config": {"source": str(args.from_rcs)},
            "models": {},
            "composites": report.to_dict(),
        }
        path = write_json(out_dir / "results.json", payload)
        print(f"wrote {path}")
        return 0
    base = json.loads(Path(args.base).read_text(encoding="utf-8"))
    paths = report_mod.emit_results(out_dir, base, config)
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regeval",
        description="Regulation-aware evaluation engine for compliance localization and judgment.",
    )
    parser.add_argument("--config", help="jurisdictions.json path (defaults to bundled config)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="corpus statistics")
    p_stats.add_argument("--dataset", required=True)
    p_stats.add_argument("--law", default=None, help="law for records lacking a 'law' field")
    p_stats.add_argument("--top-k", type=int, default=10)
    p_stats.add_argument("--out", default="stats.json")
    p_stats.set_defaults(func=cmd_stats)

    p_shape = sub.add_parser("shape", help="reshape the raw corpus into task views")
    p_shape.add_argument("--dataset", required=True)
    p_shape.add_argument("--law", default=None)
    p_shape.add_argument("--exclude", action="append", default=None, help="path pattern to drop")
    p_shape.add_argument("--out-dir", required=True)
    p_shape.set_defaults(func=cmd_shape)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--spec", default=None, help="synthetic_spec.json path")
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--files", type=int, default=20, help="files per law")
    p_synth.add_argument("--laws", default=None, help="comma-separated law codes")
    p_synth.add_argument("--profiles", default=None, help=f"emit predictions for profiles {PROFILES}")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="execute an inference run over the gold views")
    p_run.add_argument("--views-dir", required=True)
    p_run.add_argument("--law", default=None)
    p_run.add_argument("--task", choices=("task1", "task2", "both"), default="both")
    p_run.add_argument("--models", required=True, help="comma-separated model names")
    p_run.add_argument("--transport", choices=("mock", "failing", "replay"), default="mock")
    p_run.add_argument("--profile", default="PERFECT", choices=PROFILES)
    p_run.add_argument("--fail-times", type=int, default=0)
    p_run.add_argument("--replay", default=None, help="raw_responses.jsonl to re-serve")
    p_run.add_argument("--dataset", default=None, help="raw dataset for prompt context")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--temperature", type=float, default=0.0)
    p_run.add_argument("--max-tokens", type=int, default=2048)
    p_run.add_argument("--timeout", type=float, default=180.0)
    p_run.add_argument("--retries", type=int, default=3)
    p_run.add_argument("--backoff", type=float, default=2.0)
    p_run.add_argument("--context-window", type=int, default=3)
    p_run.add_argument("--out-dir", required=True)
    p_run.set_defaults(func=cmd_run)

    p_parse = sub.add_parser("parse", help="parse raw responses into prediction tables")
    p_parse.add_argument("--responses", required=True)
    p_parse.add_argument("--out-dir", required=True)
    p_parse.set_defaults(func=cmd_parse)

    p_eval = sub.add_parser("eval", help="score prediction tables against the gold views")
    p_eval.add_argument("--views-dir", required=True)
    p_eval.add_argument("--law", default=None)
    p_eval.add_argument("--task", choices=("task1", "task2", "both"), default="both")
    p_eval.add_argument("--policy", choices=("strict", "relaxed"), default="strict")
    p_eval.add_argument(
        "--predictions",
        action="append",
        required=True,
        help="directory holding predictions_task{1,2}.json (repeat per model)",
    )
    p_eval.add_argument("--out", default="results_base.json")
    p_eval.set_defaults(func=cmd_eval)

    p_comp = sub.add_parser("compose", help="aggregate base metrics into composite scores")
    p_comp.add_argument("--base", default=None, help="results_base.json from eval")
    p_comp.add_argument("--from-rcs", default=None, help="fixture with per-law RCS values")
    p_comp.add_argument("--alpha", type=float, default=1.0)
    p_comp.add_argument("--beta", type=float, default=2.0)
    p_comp.add_argument("--gamma", type=float, default=2.0)
    p_comp.add_argument("--delta", type=float, default=2.0)
    p_comp.add_argument("--ridge", type=float, default=0.1)
    p_comp.add_argument("--epsilon", type=float, default=1e-6)
    p_comp.add_argument("--out-dir", required=True)
    p_comp.set_defaults(func=cmd_compose)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.transport == "replay" and not args.replay:
        parser.error("--transport replay requires --replay")
    if args.command == "compose" and not (args.base or args.from_rcs):
        parser.error("compose needs --base or --from-rcs")
    try:
        return args.func(args)
    except (RegevalError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
