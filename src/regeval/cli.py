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
from .corpus import corpus_stats, load_dataset, read_json, save_dataset, write_json
from .errors import MalformedBase, MalformedView, RegevalError, TransportConfigError, UnmatchedPredictions
from .harness import (
    FailingTransport,
    MockTransport,
    ReplayTransport,
    RunConfig,
    build_prompt_items,
    execute_run,
)
from .ingest import (
    GoldIndex,
    bind_predictions,
    load_prediction_files,
    parse_responses,
    write_prediction_files,
)
from .jurisdiction import Jurisdiction, JurisdictionRegistry
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


def _check_gold(path: Path, golds, jur: Jurisdiction) -> None:
    """Raise MalformedView naming the file and the record of the first of the
    gold sets `golds` holding a label outside `jur`'s universe."""
    for index, gold in enumerate(golds):
        stray = sorted(label for label in gold if not jur.contains(label))
        if stray:
            raise MalformedView(f"{path}: record {index}: gold labels not in the {jur.code} universe: {stray}")


def _view_records(path: Path, law: str, load, held: dict) -> list:
    """The records of the view at `path`, which must hold `law`, the law its
    file name names, decoded sharing the values in `held`; a view of another
    law raises MalformedView."""
    view_law, records = load(path, held)
    if view_law != law:
        raise MalformedView(f"{path}: holds law {view_law!r}, but its file name names {law!r}")
    return records


def _load_views(
    views_dir: str, laws: list[str] | None = None, registry: JurisdictionRegistry | None = None
) -> dict[str, ShapedViews]:
    """The views under `views_dir`, with every gold label checked against its
    law's universe in `registry` (by default the bundled one). With `laws`,
    only the views whose file names name one of them are opened; a code in
    `laws` without views raises RegevalError. A view holds the law its file
    name names, or MalformedView is raised. The records of all the views
    hold each distinct key string and gold set once."""
    registry = JurisdictionRegistry.default() if registry is None else registry
    root = Path(views_dir)
    t1_paths = [path for path in sorted(root.glob("task1_*.json")) if not laws or path.stem[len("task1_"):] in laws]
    views: dict[str, ShapedViews] = {}
    held: dict = {}
    for t1_path in t1_paths:
        law = t1_path.stem[len("task1_"):]
        t2_path = root / f"task2_{law}.json"
        records = _view_records(t1_path, law, load_task1_view, held)
        t2_records = _view_records(t2_path, law, load_task2_view, held)
        jur = registry.get(law)
        _check_gold(t1_path, (rec.file_gold.union(rec.module_gold, *(g for _, g in rec.lines)) for rec in records), jur)
        _check_gold(t2_path, (rec.gold for rec in t2_records), jur)
        views[law] = ShapedViews(law=law, task1=records, task2=t2_records)
    missing = [law for law in laws or () if law not in views]
    if missing:
        raise RegevalError(f"no task views for {', '.join(missing)} under {views_dir}")
    if not views:
        raise RegevalError(f"no task views found under {views_dir}")
    return views


def cmd_stats(args) -> int:
    registry = _registry(args)
    corpus = load_dataset(args.dataset, registry, law=args.law)
    payload = {
        "config": {
            "dataset": str(args.dataset),
            "top_k": args.top_k,
            "jurisdictions": registry.to_config(),
        },
        "stats": corpus_stats(corpus, registry, top_k=args.top_k),
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
            # The next profile's rows are built without this one's.
            del scripted
            print(f"wrote {t1}")
            print(f"wrote {t2}")
    return 0


def cmd_run(args) -> int:
    for flag, given, owner in (
        ("--profile", args.profile is not None, "mock"),
        ("--seed", args.seed is not None, "mock"),
        ("--fail-times", args.fail_times, "mock"),
        ("--replay", args.replay is not None, "replay"),
    ):
        if given and args.transport != owner:
            raise TransportConfigError(f"{flag} applies to --transport {owner} only, not {args.transport}")
    registry = _registry(args)
    views = _load_views(args.views_dir, args.law.split(",") if args.law else None, registry)
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
    # A replay reads no prompt, and no replayed output depends on the dataset.
    corpus = None
    if args.dataset and args.transport == "replay":
        sys.stderr.write("note: --dataset is ignored with --transport replay\n")
    elif args.dataset:
        corpus = load_dataset(args.dataset, registry)
    tasks = ("task1", "task2") if args.task == "both" else (args.task,)
    items = build_prompt_items(views, corpus, config.context_window, tasks)
    del corpus
    if args.transport == "mock":
        reply = profile_reply_fn(views, registry, args.profile or "PERFECT", seed=args.seed or 0)
        transport = MockTransport(reply, args.fail_times)
    elif args.transport == "failing":
        transport = FailingTransport()
    else:
        transport = ReplayTransport(args.replay)
    # The items and the transport hold what the run needs of the views; let
    # go of them before the request rows and the replay index are built.
    del views
    result = execute_run(config, items, transport, args.out_dir, registry)
    print(f"wrote {result.responses_path} ({result.record_count} records)")
    print(f"wrote {result.config_path}")
    print(f"wrote {result.log_path}")
    return 0


def cmd_parse(args) -> int:
    registry = _registry(args)
    ranked, sets, summary = parse_responses(args.responses, registry)
    t1, t2 = write_prediction_files(
        args.out_dir,
        ranked,
        sets,
        config_echo={"responses": str(args.responses), "parse": summary},
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
    views = _load_views(args.views_dir, args.law.split(",") if args.law else None, registry)
    gold = GoldIndex.from_views(views)
    # The index holds all that scoring reads of the views: let go of the
    # records, snippets and provenance before any prediction is read.
    laws = set(views)
    del views

    def rows_by_model(pred_dir: Path) -> dict[str, tuple[list, list]]:
        """The task-1 and task-2 rows of `pred_dir` per model: an entry's
        `model`, else the directory's name. Rows are plain tuples laid out like
        `RankedPrediction` (key, ranking, model) and `SetPrediction` (law,
        pointer, labels, model), and a key starts with its law. Predictions
        for laws without loaded views (other laws than `--law`) are out of
        scope: dropped here, so they are neither orphans nor counted, though
        their model is still scored."""
        ranked, sets = load_prediction_files(
            pred_dir / "predictions_task1.json", pred_dir / "predictions_task2.json", registry, gold.cache
        )
        grouped: dict[str, tuple[list, list]] = {}
        for row in ranked:
            kept = grouped.setdefault(row[2] or pred_dir.name, ([], []))[0]
            if row[0][0] in laws:
                kept.append(row)
        for row in sets:
            kept = grouped.setdefault(row[3] or pred_dir.name, ([], []))[1]
            if row[0] in laws:
                kept.append(row)
        return grouped

    # A model's scores and bind report, the directories it appeared in, and
    # the laws of which its rows match nothing.
    scored: dict[str, tuple] = {}
    dirs_of: dict[str, list[Path]] = {}
    strays: dict[str, list[str]] = {}

    def score(model: str, pred_dir: Path, ranked: list, sets: list) -> tuple:
        """`model`'s task-1 and task-2 scores and bind report, from its rows in
        `pred_dir` joined after its rows in the directories it appeared in
        before, in the order given."""
        earlier = dirs_of.setdefault(model, [])
        if earlier:
            before = [rows_by_model(d)[model] for d in earlier]
            ranked = [row for rows, _sets in before for row in rows] + ranked
            sets = [row for _ranked, rows in before for row in rows] + sets
        earlier.append(pred_dir)
        bound = bind_predictions(gold, ranked, sets, args.policy)
        strays[model] = bound.stray_laws()
        return (
            score_task1(bound.task1) if args.task in ("both", "task1") else {},
            score_task2(bound.task2, registry) if args.task in ("both", "task2") else {},
            bound.to_dict(),
        )

    # One directory at a time: its rows are decoded, bound, scored and
    # dropped before the next directory is read, so the peak follows the
    # largest directory, not the cohort. A model seen in earlier directories
    # is joined again over its rows from all of them, and that join replaces
    # its earlier result.
    for pred_dir in prediction_dirs:
        grouped = rows_by_model(pred_dir)
        for model in list(grouped):
            scored[model] = score(model, pred_dir, *grouped.pop(model))

    # Rows of a law that match nothing at all were made for other views, and
    # would score as a model that answered nothing.
    for model, laws in sorted(strays.items()):
        if laws:
            raise UnmatchedPredictions(
                f"model {model!r}: no {laws[0]} prediction matches a gold key or pointer in {args.views_dir}"
            )
    base = report_mod.build_base_results(
        scored,
        config_echo={
            "policy": args.policy,
            "task": args.task,
            "views_dir": str(args.views_dir),
            "predictions": [str(p) for p in prediction_dirs],
        },
    )
    write_json(args.out, base)
    print(f"wrote {args.out}")
    return 0


def cmd_compose(args) -> int:
    config = _composite_config(args)
    out_dir = Path(args.out_dir)
    source = args.from_rcs or args.base
    data = read_json(source)
    try:
        if args.from_rcs:
            report = compose_from_rcs(report_mod.rcs_from_fixture(data), config)
            payload = {
                "schema_version": report_mod.SCHEMA_VERSION,
                "config": {"source": str(args.from_rcs)},
                "models": {},
                "composites": report.to_dict(),
            }
            paths = [write_json(out_dir / "results.json", payload)]
        else:
            paths = report_mod.emit_results(out_dir, data, config).values()
    except MalformedBase as exc:
        raise MalformedBase(f"{source}: {exc}") from None
    for path in paths:
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
    p_run.add_argument("--profile", default=None, choices=PROFILES, help="mock answers (default PERFECT)")
    p_run.add_argument("--fail-times", type=int, default=0)
    p_run.add_argument("--replay", default=None, help="raw_responses.jsonl to re-serve")
    p_run.add_argument("--dataset", default=None, help="raw dataset for prompt context")
    p_run.add_argument("--seed", type=int, default=None, help="mock RANDOM seed (default 0)")
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
    source = p_comp.add_mutually_exclusive_group(required=True)
    source.add_argument("--base", default=None, help="results_base.json from eval")
    source.add_argument("--from-rcs", default=None, help="fixture with per-law RCS values")
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
    try:
        return args.func(args)
    except (RegevalError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
