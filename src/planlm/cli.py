"""Command-line pipeline driver.

Every subcommand reads the effective configuration (defaults, then --config
file, then --seed / --set overrides). Unless --force is given, it refuses an
--out-dir pinned to another config and upstream artifacts with no manifest,
another config digest or stale inputs. Only if it succeeds does it publish
its artifacts, each with a manifest of the files it read, and pin the config
in config.txt (inspect-cluster only reads). Only those common flags set the
configuration, the run's identity. The action regime is a flag of the
commands that use it, --regime or evaluate's comma-separated --regimes,
naming one of `lm.REGIMES` (e.g. insert_external_predicted_pa), so one run
directory holds every regime.

Exit codes: 0 success, 1 validation error, 2 missing input file or artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline
from .config import RunConfig, apply_overrides, load_config
from .errors import ValidationError
from .lm import REGIMES, Regime


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", required=True, type=Path,
                        help="run directory holding all artifacts")
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")
    parser.add_argument("--force", action="store_true",
                        help="run despite another config or a stale input")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planlm",
        description="writing-action planning pipeline for a small LM")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load corpus, split, build vocabulary")
    p.add_argument("--input", required=True, type=Path,
                   help="JSON-lines corpus file or directory of .txt files")
    _add_common(p)

    p = sub.add_parser("embed", help="embed every sentence of the corpus")
    p.add_argument("--external-embeddings", type=Path, default=None,
                   help="use a precomputed PLMB matrix instead of the "
                        "built-in encoder")
    _add_common(p)

    p = sub.add_parser("cluster", help="k-means over training embeddings")
    _add_common(p)

    p = sub.add_parser("actions", help="oracle action sequences per article")
    _add_common(p)

    p = sub.add_parser("pretrain-lm", help="pretrain the base language model")
    _add_common(p)

    p = sub.add_parser("train-planner", help="train the next-action planner")
    _add_common(p)

    p = sub.add_parser("finetune", help="condition the LM on actions")
    p.add_argument("--regime", default="predicted_pa", choices=REGIMES)
    _add_common(p)

    p = sub.add_parser("generate", help="sample continuations with re-planning")
    p.add_argument("--regime", default="predicted_pa", choices=REGIMES)
    p.add_argument("--mode", default="conditional",
                   choices=pipeline.GENERATION_MODES)
    p.add_argument("--split", default="test", choices=pipeline.SPLITS)
    _add_common(p)

    p = sub.add_parser("evaluate", help="write the evaluation report")
    p.add_argument("--regimes", default="predicted_pa",
                   help="comma-separated regimes: " + ", ".join(REGIMES))
    p.add_argument("--split", default="test", choices=pipeline.SPLITS)
    _add_common(p)

    p = sub.add_parser("scan-oracle",
                       help="per-step action ranking and noise control")
    p.add_argument("--split", default="test", choices=pipeline.SPLITS)
    _add_common(p)

    p = sub.add_parser("inspect-cluster",
                       help="nearest corpus sentences for one action")
    p.add_argument("--action-id", required=True, type=int)
    p.add_argument("--top-n", type=int, default=10)
    _add_common(p)

    p = sub.add_parser("sweep-k", help="re-run the pipeline over several k")
    p.add_argument("--ks", required=True,
                   help="comma-separated cluster counts, e.g. 16,64,256")
    p.add_argument("--regime", default="predicted_pa", choices=REGIMES)
    _add_common(p)

    return parser


def effective_config(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides: dict[str, str] = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return apply_overrides(config, overrides)


def run_command(args: argparse.Namespace) -> int:
    config = effective_config(args)
    out_dir = args.out_dir
    if args.command == "ingest":
        extra = pipeline.step_ingest(config, out_dir, args.input, args.force)
        print(f"ingested {extra['articles']} articles, "
              f"vocabulary {extra['vocab_size']}")
    elif args.command == "embed":
        extra = pipeline.step_embed(config, out_dir, args.force,
                                    args.external_embeddings)
        print(f"embedded {extra['rows']} sentences (dim {extra['dim']})")
    elif args.command == "cluster":
        extra = pipeline.step_cluster(config, out_dir, args.force)
        print(f"k={extra['k']} inertia={extra['inertia']:.4f} "
              f"({extra['iterations']} iterations)")
    elif args.command == "actions":
        extra = pipeline.step_actions(config, out_dir, args.force)
        print(f"wrote {extra['sequences']} action sequences")
    elif args.command == "pretrain-lm":
        extra = pipeline.step_pretrain_lm(config, out_dir, args.force)
        print(f"pretrained base LM, final loss "
              f"{extra['train_loss'][-1]:.4f}")
    elif args.command == "train-planner":
        extra = pipeline.step_train_planner(config, out_dir, args.force)
        print(f"planner val accuracy {extra['val_accuracy']:.4f}, "
              f"average rank {extra['val_average_rank']:.2f}")
    elif args.command == "finetune":
        regime = Regime.named(args.regime)
        pipeline.step_finetune(config, out_dir, regime, args.force)
        print(f"finetuned {pipeline.checkpoint_name(regime)}")
    elif args.command == "generate":
        regime = Regime.named(args.regime)
        extra = pipeline.step_generate(config, out_dir, regime, args.force,
                                       mode=args.mode, split=args.split)
        print(f"wrote {extra['records']} generations "
              f"({pipeline.generations_name(regime)})")
    elif args.command == "evaluate":
        regimes = [Regime.named(name.strip())
                   for name in args.regimes.split(",") if name.strip()]
        report = pipeline.step_evaluate(config, out_dir, regimes, args.force,
                                        split=args.split)
        for name in sorted(report["regimes"]):
            print(f"{name}: ppl={report['regimes'][name]['ppl']:.4f}")
    elif args.command == "scan-oracle":
        summary = pipeline.step_scan_oracle(config, out_dir, args.force,
                                            split=args.split)
        print(f"oracle ppl {summary['oracle_ppl']:.4f}, mean oracle rank "
              f"{summary['mean_oracle_rank']:.2f}, nearest rank "
              f"{summary['nearest_rank']}")
    elif args.command == "inspect-cluster":
        result = pipeline.step_inspect_cluster(config, out_dir, args.action_id,
                                               args.top_n, args.force)
        print(json.dumps(result, indent=2, sort_keys=True))
    elif args.command == "sweep-k":
        ks = [int(v) for v in args.ks.split(",") if v.strip()]
        regime = Regime.named(args.regime)
        rows = pipeline.step_sweep_k(config, out_dir, ks, regime, args.force)
        for row in rows:
            print(f"k={row['k']}: ppl={row['ppl']:.4f} "
                  f"acc={row['planner_accuracy']:.4f} "
                  f"rank={row['planner_average_rank']:.2f}")
    else:  # pragma: no cover - argparse enforces choices
        raise ValidationError(f"unknown command {args.command!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_command(args)
    except FileNotFoundError as exc:  # MissingArtifactError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
