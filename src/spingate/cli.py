"""Command-line front end: one subcommand per experiment kind.

The subcommand sets `[experiment] kind` and each flag one INI key
(`_FLAGS`); their text replaces the `--config` file's before anything is
parsed, so every value goes through the INI schema.

Exit codes: 0 on success, 2 on configuration errors (bad config file,
unknown keys, invalid values, unresolvable target), 3 on numerical
failures during a run.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, SpingateError
from .harness import _SCHEMA, EXPERIMENT_KINDS, load_config, run_experiment

# each subcommand is its experiment kind, coherent-noise-sweep shortened
_SUBCOMMAND_KIND = {kind.removeprefix("coherent-"): kind for kind in EXPERIMENT_KINDS}

# flag -> (help, INI section, INI key)
_FLAGS = {
    "seed": ("master seed", "experiment", "master_seed"),
    "out": ("output directory", "experiment", "output_dir"),
    "target": ("target gate name or matrix file", "experiment", "target"),
    "m": ("depth, or comma-separated depth list", "experiment", "m"),
    "restarts": ("optimizer restarts", "optimizer", "restarts"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spingate",
        description="Variational compilation of three-qubit gates from a "
                    "parameterized spin-chain Hamiltonian.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_KIND:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", help="INI config file (flags replace its keys)")
        for flag, (what, section, key) in _FLAGS.items():
            cls, attr, _ = _SCHEMA[section, key]
            default = getattr(cls(), attr)
            if isinstance(default, tuple):
                default = ",".join(map(str, default))
            p.add_argument(f"--{flag}", help=f"{what} ([{section}] {key}, default {default})")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    settings = {("experiment", "kind"): _SUBCOMMAND_KIND[args.command]}
    for flag, (_, section, key) in _FLAGS.items():
        if getattr(args, flag) is not None:
            settings[section, key] = getattr(args, flag)
    try:
        record = run_experiment(load_config(args.config, settings))
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
