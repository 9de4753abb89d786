"""Command-line entry point: one subcommand per experiment kind."""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import EXPERIMENT_KINDS, ConfigError, load_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conewave",
        description="Run cone-restriction, ledger, and wave-solver experiments "
                    "from a config file; results are written as CSV tables with "
                    "a JSON manifest.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run a '{kind}' experiment")
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes, >= 1 (default: the CPUs this "
                            "process may run on)")
        p.add_argument("--out", default=None,
                       help="output directory (default: results)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if config.kind != args.command:
            raise ConfigError(
                f"config kind {config.kind!r} does not match subcommand "
                f"{args.command!r}", section="experiment", key="kind")
        manifest = run_experiment(config, workers=args.workers,
                                  out_dir=args.out,
                                  seed=args.seed)
    except ConfigError as exc:
        record = {"error": "config", "message": str(exc),
                  "section": exc.section, "key": exc.key, "line": exc.line}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2
    if not manifest["complete"]:
        record = {"error": "incomplete", "errors": manifest["errors"]}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    for entry in manifest["files"]:
        print(f"wrote {entry['name']}  sha256={entry['sha256'][:12]}  "
              f"{entry['bytes']} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
