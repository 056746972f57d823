"""Command-line entry point.

Verbs: run, ablate-alpha, emit-plots, validate-config. `run` writes one
run report and `ablate-alpha` one per alpha. Exit code 0 only if every
(strategy, seed) cell succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness
from .exceptions import ValidationError


def _add_common(p):
    p.add_argument("--config", required=True, help="experiment config (YAML)")
    p.add_argument("--output-dir", default=None, help="override config output_dir")
    p.add_argument("--seeds", type=int, nargs="+", default=None,
                   help="override config seed list")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel seed pipelines (each cell stays deterministic)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hadcl")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="pretrain, fine-tune all strategies, evaluate")
    _add_common(p)

    p = sub.add_parser("ablate-alpha", help="sweep the hard-sample fraction")
    _add_common(p)
    p.add_argument("--grid", type=float, nargs="+",
                   default=[0.05, 0.10, 0.15, 0.20])

    p = sub.add_parser("emit-plots", help="export curves and ROC points as TSV")
    p.add_argument("--report", required=True, help="run report JSON")
    p.add_argument("--output-dir", required=True)

    p = sub.add_parser("validate-config", help="check a config file and exit")
    p.add_argument("--config", required=True)
    return parser


def _load(args) -> harness.ExperimentConfig:
    harness.check_workers(args.workers)
    config = harness.load_config(args.config)
    if args.output_dir is not None:
        config = harness.replace(config, output_dir=args.output_dir)
    if args.seeds is not None:
        config = harness.replace(config, seeds=tuple(args.seeds))
    return config


def _output_file(config: harness.ExperimentConfig, name: str) -> str:
    """The path of output file `name` in the output directory, which is made
    if missing; checked before any training so that a bad path does not
    lose a finished run."""
    harness.make_output_dir(config.output_dir)
    path = os.path.join(config.output_dir, name)
    if os.path.isdir(path):
        raise ValidationError(f"cannot write {path}: it is a directory")
    return path


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "validate-config":
            harness.load_config(args.config)
            print(f"ok: {args.config}")
            return 0

        if args.verb == "emit-plots":
            report = harness.RunReport.from_json(args.report)
            paths = harness.emit_plot_data(report, args.output_dir)
            print(json.dumps(paths))
            return 0

        config = _load(args)
        if args.verb == "run":
            out = _output_file(config, "report.json")
            report = harness.run_experiment(config, workers=args.workers)
            report.to_json(out)
            print(json.dumps({"report": out, "summary": report.summary()}, indent=1))
            return 0 if report.all_ok else 1

        # ablate-alpha: a bad grid fails before the output directory is made
        harness.alpha_stages(config, args.grid)
        outs = [_output_file(config, f"alpha_{a!r}.json") for a in args.grid]
        reports = harness.run_ablation_alpha(config, args.grid, workers=args.workers)
        table = {}
        for alpha, out, report in zip(args.grid, outs, reports):
            report.to_json(out)
            medians = report.summary().get("curriculum1", {})
            table[alpha] = {"val_auc": medians.get("median_auc_val"),
                            "val_accuracy": medians.get("median_accuracy_val")}
        print(json.dumps({"reports": outs, "table": table}, indent=1))
        return 0 if all(r.all_ok for r in reports) else 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
