"""Command-line front end: one subcommand per experiment kind.

Exit codes: 0 on success, 2 on configuration errors (bad config file,
unknown keys, invalid values, unresolvable target), 3 on numerical
failures during a run.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError, SpingateError
from .harness import (DEFAULT_MASTER_SEED, ExperimentConfig, _parse_int_list,
                      load_config, run_experiment)

_SUBCOMMAND_KIND = {
    "compile": "compile",
    "trotter-sweep": "trotter-sweep",
    "noise-sweep": "coherent-noise-sweep",
    "damping-sweep": "damping-sweep",
    "grad-stats": "grad-stats",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spingate",
        description="Variational compilation of three-qubit gates from a "
                    "parameterized spin-chain Hamiltonian.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_KIND:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", help="INI config file (flags override it)")
        p.add_argument("--seed", type=int, help="master seed "
                       f"(default {DEFAULT_MASTER_SEED})")
        p.add_argument("--out", help="output directory (default runs)")
        p.add_argument("--target", help="target gate name or matrix file")
        p.add_argument("--m", help="depth, or comma-separated depth list")
        p.add_argument("--restarts", type=int, help="optimizer restarts")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace,
                     kind: str) -> ExperimentConfig:
    updates: dict = {}
    if cfg.kind != kind:
        updates["kind"] = kind
    if args.seed is not None:
        updates["master_seed"] = args.seed
    if args.out is not None:
        updates["output_dir"] = args.out
    if args.target is not None:
        updates["target"] = args.target
    if args.m is not None:
        updates["m"] = _parse_int_list(args.m)
    if args.restarts is not None:
        updates["optimizer"] = dataclasses.replace(cfg.optimizer,
                                                   restarts=args.restarts)
    return dataclasses.replace(cfg, **updates) if updates else cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    kind = _SUBCOMMAND_KIND[args.command]
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig(kind=kind)
        cfg = _apply_overrides(cfg, args, kind)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        record = run_experiment(cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpingateError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"run directory: {record.run_dir}")
    for name in record.csv_files:
        print(f"  wrote {name}")
    print("  wrote run_record.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
