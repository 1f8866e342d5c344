"""End-to-end command-line runs with tiny budgets, plus the error paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spingate import cli
from spingate.cli import main
from spingate.errors import NumericalFailure
from spingate.optimize import MAX_COUNT


def find_record(out_dir):
    records = sorted(out_dir.glob("*/run_record.json"))
    assert len(records) == 1
    return json.loads(records[0].read_text())


def write_tiny_ini(path, extra=""):
    path.write_text(
        "[experiment]\n"
        "kind = compile\n"
        "m = 1\n"
        "master_seed = 3\n"
        "[optimizer]\n"
        "max_iters = 6\n"
        "restarts = 1\n"
        "[noise]\n"
        "grid = 0, 0.05\n"
        + extra)
    return path


def test_compile_subcommand(tmp_path, capsys):
    code = main(["compile", "--m", "1", "--restarts", "1", "--seed", "123",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "run directory:" in out
    assert "training_curve.csv" in out

    record = find_record(tmp_path)
    assert record["experiment"] == "compile"
    assert record["master_seed"] == 123
    assert record["config"]["init"]["seed"] == 123
    assert record["results"]["m"] == 1
    assert record["config"]["optimizer"]["restarts"] == 1


def test_target_override(tmp_path):
    assert main(["compile", "--m", "1", "--restarts", "1",
                 "--target", "fredkin", "--out", str(tmp_path)]) == 0
    assert find_record(tmp_path)["results"]["target"] == "fredkin"


def test_m_list_override(tmp_path):
    assert main(["trotter-sweep", "--m", "1,2", "--restarts", "1",
                 "--out", str(tmp_path)]) == 0
    assert find_record(tmp_path)["results"]["depths"] == [1, 2]


def test_config_file_with_flag_precedence(tmp_path):
    ini = write_tiny_ini(tmp_path / "exp.ini")
    out = tmp_path / "out"
    assert main(["compile", "--config", str(ini), "--seed", "7",
                 "--out", str(out)]) == 0
    record = find_record(out)
    # the flag wins over the file
    assert record["master_seed"] == 7
    assert record["config"]["init"]["seed"] == 7
    # the file still supplies what no flag touched
    assert record["config"]["optimizer"]["max_iters"] == 6


def test_subcommand_beats_config_kind(tmp_path):
    ini = write_tiny_ini(tmp_path / "exp.ini")
    out = tmp_path / "out"
    assert main(["noise-sweep", "--config", str(ini), "--out", str(out)]) == 0
    record = find_record(out)
    assert record["experiment"] == "coherent-noise-sweep"
    assert set(record["results"]["grid_mean_fidelity"]) == {"charge", "nuclear"}


def test_grad_stats_subcommand(tmp_path):
    ini = write_tiny_ini(tmp_path / "exp.ini", extra="[grad-stats]\nsamples = 3\n")
    out = tmp_path / "out"
    assert main(["grad-stats", "--config", str(ini), "--out", str(out)]) == 0
    assert find_record(out)["experiment"] == "grad-stats"


def test_damping_sweep_subcommand(tmp_path):
    ini = write_tiny_ini(
        tmp_path / "exp.ini",
        extra=("[damping]\ngrid = 0.0\nrestarts = 1\n"
               "[optimizer]\ncost_tolerance = 0.5\nspread_tolerance = 1e-2\n"))
    # configparser rejects a duplicate [optimizer] section, keep one copy
    ini.write_text(ini.read_text().replace("[optimizer]\nmax_iters = 6\nrestarts = 1\n", ""))
    out = tmp_path / "out"
    assert main(["damping-sweep", "--config", str(ini), "--out", str(out)]) == 0
    assert find_record(out)["experiment"] == "damping-sweep"


def test_unknown_target_exits_2(tmp_path, capsys):
    assert main(["compile", "--m", "1", "--restarts", "1",
                 "--target", "margolus", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["compile", "--config", str(tmp_path / "absent.ini")]) == 2
    assert "not found" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\ngate = toffoli\n")
    assert main(["compile", "--config", str(ini)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_bad_m_flag_exits_2(tmp_path, capsys):
    assert main(["compile", "--m", "three", "--out", str(tmp_path)]) == 2
    assert main(["compile", "--m", "0", "--out", str(tmp_path)]) == 2
    assert main(["trotter-sweep", "--m", "2,2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--restarts", "0"], ["--restarts", "-3"],
                                   ["--restarts", str(MAX_COUNT + 1)]])
def test_bad_restarts_flag_exits_2(tmp_path, capsys, flags):
    assert main(["compile", "--m", "1", "--out", str(tmp_path), *flags]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("extra", [
    "history_size = 0\n",
    "cost_tolerance = -1e-4\n",
    "gradient_tolerance = -1\n",
    "spread_tolerance = -1\n",
    "simplex_step = 0\n",
    "simplex_step = -0.1\n",
    "simplex_step = nan\n",
    "simplex_step = inf\n",
    "cost_tolerance = inf\n",
    "gradient_tolerance = inf\n",
    "spread_tolerance = nan\n",
])
def test_bad_optimizer_values_exit_2(tmp_path, capsys, extra):
    ini = write_tiny_ini(tmp_path / "exp.ini")
    ini.write_text(ini.read_text().replace("restarts = 1\n", "restarts = 1\n" + extra))
    assert main(["compile", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_zero_max_iters_exits_2(tmp_path, capsys):
    ini = write_tiny_ini(tmp_path / "exp.ini")
    ini.write_text(ini.read_text().replace("max_iters = 6", "max_iters = 0"))
    assert main(["compile", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_inverted_init_clip_exits_2(tmp_path, capsys):
    ini = write_tiny_ini(tmp_path / "exp.ini", extra="[init]\nclip_low = 1\nclip_high = -1\n")
    assert main(["compile", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    "sigma = -1\n",
    "sigma = nan\n",
    "sigma = inf\n",
    "mean = nan\n",
    "mean = -inf\n",
    "clip_low = -inf\n",
    "clip_high = nan\n",
])
def test_bad_init_values_exit_2_before_compiling(tmp_path, capsys, extra):
    ini = write_tiny_ini(tmp_path / "exp.ini", extra="[init]\n" + extra)
    out = tmp_path / "out"
    assert main(["compile", "--config", str(ini), "--out", str(out)]) == 2
    assert "config error: init" in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    def failing_run(cfg):
        raise NumericalFailure("parameter vector holds NaN or infinity")

    monkeypatch.setattr(cli, "run_experiment", failing_run)
    assert main(["compile", "--m", "1", "--restarts", "1", "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0.1, 0.05", "-0.1, 0.0", "0, 0.05, 0.05"])
def test_bad_noise_grid_exits_2_before_compiling(tmp_path, capsys, grid):
    ini = write_tiny_ini(tmp_path / "exp.ini")
    ini.write_text(ini.read_text().replace("grid = 0, 0.05", f"grid = {grid}"))
    out = tmp_path / "out"
    assert main(["noise-sweep", "--config", str(ini), "--out", str(out)]) == 2
    assert "noise grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kinds", [",", "charge, charge"])
def test_bad_noise_kinds_exit_2_before_compiling(tmp_path, capsys, kinds):
    ini = write_tiny_ini(tmp_path / "exp.ini")
    ini.write_text(ini.read_text() + f"kinds = {kinds}\n")
    out = tmp_path / "out"
    assert main(["noise-sweep", "--config", str(ini), "--out", str(out)]) == 2
    assert "noise_kinds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    "[damping]\nwarm_sigma = nan\n",
    "[damping]\ngrid = 0, nan\n",
    "[damping]\ngrid = 0:inf:0.1\n",
    "[damping]\ngrid = 0:0.1:inf\n",
    "[damping]\ngrid = 0:0.02:0.015\n",
    "[damping]\ngrid = ,\n",
    "[damping]\ngrid = 0.01, 0.01\n",
    "[damping]\nplacement = after-each-step\n",
])
def test_bad_damping_values_exit_2_before_compiling(tmp_path, capsys, extra):
    ini = write_tiny_ini(tmp_path / "exp.ini", extra=extra)
    out = tmp_path / "out"
    assert main(["damping-sweep", "--config", str(ini), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_exits_2_before_compiling(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compile", "--m", "1", "--restarts", "1", "--seed", "-1",
                 "--out", str(out)]) == 2
    assert "master_seed" in capsys.readouterr().err
    assert not out.exists()


def test_negative_master_seed_in_ini_exits_2_before_compiling(tmp_path, capsys):
    ini = write_tiny_ini(tmp_path / "exp.ini")
    ini.write_text(ini.read_text().replace("master_seed = 3", "master_seed = -3"))
    out = tmp_path / "out"
    assert main(["compile", "--config", str(ini), "--out", str(out)]) == 2
    assert "master_seed" in capsys.readouterr().err
    assert not out.exists()


def test_too_many_noise_samples_exit_2_before_compiling(tmp_path, capsys):
    ini = write_tiny_ini(tmp_path / "exp.ini",
                         extra=f"mode = uniform-sample\nsamples = {MAX_COUNT + 1}\n")
    out = tmp_path / "out"
    assert main(["noise-sweep", "--config", str(ini), "--out", str(out)]) == 2
    assert "noise samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows", [
    "1,0 1,x\n0,0 1,0\n",                      # an entry that is not a number
    "1,0 1,0\n0,0 1,0\n",                      # 2x2, not unitary
    "1,0 0,0 0,0\n0,0 1,0 0,0\n0,0 0,0 1,0\n",  # 3x3, not a power of 2
    "1,0 0,0\n0,0 1,0\n",                      # unitary, but one qubit: no chain
])
def test_bad_target_file_exits_2_before_compiling(tmp_path, capsys, rows):
    target = tmp_path / "gate.txt"
    target.write_text(rows)
    out = tmp_path / "out"
    assert main(["compile", "--m", "1", "--restarts", "1", "--target", str(target),
                 "--out", str(out)]) == 2
    assert "config error: target" in capsys.readouterr().err
    assert not out.exists()


def test_python_m_spingate_runs_the_cli():
    import spingate

    src = str(Path(spingate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "spingate", "compile", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "--target" in done.stdout
