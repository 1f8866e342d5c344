"""The output-digest tool still builds every run it digests.

`tools/output_digests.py` compares two trees byte for byte by running a
fixed matrix of experiments; a renamed config field would otherwise
surface only when someone runs it.  Building its configs takes
milliseconds; running them is left to the tool.
"""

import importlib.util
import sys
from pathlib import Path

from spingate.cost import COST_CHUNK_ROWS
from spingate.harness import EXPERIMENT_KINDS, ExperimentConfig
from spingate.noise import NOISE_MODES
from spingate.optimize import STACKED_DIRECTION_ROWS
from spingate.simulator import PLACEMENTS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def test_every_digested_config_builds_at_both_master_seeds(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave tools/ as it is
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the tool sets it on import
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = tool.configs()
    assert len(tool.MASTER_SEEDS) * len(runs) == 24
    built = []
    for seed in tool.MASTER_SEEDS:
        for name, fields in runs.items():
            cfg = ExperimentConfig(master_seed=seed, output_dir=str(tmp_path / name), **fields)
            assert cfg.master_seed == seed
            built.append(cfg)
    # the matrix cannot lose a route: every experiment kind, damping
    # placement and noise mode runs in it
    assert {cfg.kind for cfg in built} == set(EXPERIMENT_KINDS)
    assert ({cfg.damping_placement for cfg in built if cfg.kind == "damping-sweep"}
            == set(PLACEMENTS))
    assert ({cfg.noise_mode for cfg in built if cfg.kind == "coherent-noise-sweep"}
            == set(NOISE_MODES))
    # and a sampled noise stack spans several cost chunks, so the stack's
    # shared `layer_head` is digested too
    assert any(cfg.noise_samples > COST_CHUNK_ROWS for cfg in built
               if cfg.kind == "coherent-noise-sweep" and cfg.noise_mode == "uniform-sample")
    # L-BFGS runs both below STACKED_DIRECTION_ROWS direction requests per
    # round (a damping re-training's polish, one request per start) and at
    # or above it (a compile's restarts), so both `_directions` paths, and
    # the slopes batched with them, are digested
    assert any(cfg.kind == "damping-sweep" and cfg.damping_restarts < STACKED_DIRECTION_ROWS
               for cfg in built)
    assert any(cfg.kind == "compile" and cfg.optimizer.algorithm == "lbfgs"
               and cfg.optimizer.restarts >= STACKED_DIRECTION_ROWS for cfg in built)
