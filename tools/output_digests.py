"""Digest the outputs of a fixed matrix of runs, to compare two trees byte for byte.

    PYTHONPATH=<tree>/src python3 tools/output_digests.py

Runs 24 experiments, 12 configurations at master seeds 10 and 7, through
`harness.run_experiment` in a temporary directory, and prints one
`name sha256` line per run.  A run's digest covers the name and bytes of
every file it writes, with the wall-clock fields masked: the `elapsed_ms`
column of a CSV, and the `created_utc`, `run_dir` and `config.output_dir`
values of `run_record.json`.  So two trees print the same lines exactly
when every output is byte-identical apart from those fields:

    diff <(PYTHONPATH=parent/src python3 tools/output_digests.py) \\
         <(PYTHONPATH=src python3 tools/output_digests.py)

The script reads only config fields and `run_experiment`, so it runs on
older trees too.  It takes about half a minute on a 2-core host.
"""

from __future__ import annotations

import hashlib
import os
import re
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from spingate.harness import ExperimentConfig, run_experiment  # noqa: E402
from spingate.optimize import OptimizerConfig  # noqa: E402
from spingate.simulator import PLACEMENTS  # noqa: E402

MASTER_SEEDS = (10, 7)
MASKED_RECORD_KEYS = ("created_utc", "run_dir", "output_dir")
MASKED_CSV_COLUMN = "elapsed_ms"


def configs() -> dict[str, dict]:
    """Name -> ExperimentConfig fields of each run, master seed aside; default [optimizer]."""
    noise = dict(kind="coherent-noise-sweep", target="fredkin", m=(5,))
    runs = {
        "compile-toffoli-m6": dict(kind="compile", target="toffoli", m=(6,)),
        "compile-fredkin-m3-nelder-mead": dict(
            kind="compile", target="fredkin", m=(3,),
            optimizer=OptimizerConfig(algorithm="nelder-mead", restarts=3, max_iters=300)),
        "trotter-toffoli-m4": dict(kind="trotter-sweep", target="toffoli", m=(4,)),
        "noise-fredkin-m5-deterministic": noise,
        "noise-fredkin-m5-sampled": dict(noise, noise_mode="uniform-sample", noise_samples=300),
        "grad-stats-m6": dict(kind="grad-stats", target="toffoli", m=(6,)),
    }
    for placement in PLACEMENTS:
        for warm in (True, False):
            runs[f"damping-toffoli-m3-{placement}-{'warm' if warm else 'cold'}"] = dict(
                kind="damping-sweep", target="toffoli", m=(3,), damping_placement=placement,
                warm_start=warm, damping_restarts=2)
    return runs


def masked(path: Path) -> str:
    """The file's text with its wall-clock values replaced by *."""
    text = path.read_text()
    if path.name == "run_record.json":
        keys = "|".join(MASKED_RECORD_KEYS)
        return re.sub(rf'("(?:{keys})": )"[^"]*"', r'\1"*"', text)
    rows = [line.split(",") for line in text.split("\n")]
    if path.suffix != ".csv" or MASKED_CSV_COLUMN not in rows[0]:
        return text
    col = rows[0].index(MASKED_CSV_COLUMN)
    for row in rows[1:]:
        if len(row) > col:
            row[col] = "*"
    return "\n".join(",".join(row) for row in rows)


def digest(run_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(run_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + masked(path).encode() + b"\0")
    return h.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        for seed in MASTER_SEEDS:
            for name, fields in configs().items():
                cfg = ExperimentConfig(master_seed=seed, output_dir=str(Path(out) / name),
                                       **fields)
                record = run_experiment(cfg)
                print(f"s{seed}/{name} {digest(Path(record.run_dir))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
