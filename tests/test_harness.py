"""Config parsing and the experiment runners, on deliberately tiny runs."""

import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spingate.cost import CostEvaluator
from spingate.errors import ConfigError, NumericalFailure
from spingate.hamiltonian import heisenberg_spec, parse_parameters
from spingate.harness import (_SCHEMA, DEFAULT_MASTER_SEED, EXPERIMENT_KINDS,
                              MAX_GRID_POINTS, ExperimentConfig, _damping_inits,
                              _parse_float_list, _parse_int_list, config_to_dict,
                              load_config, run_compile,
                              run_coherent_noise_sweep, run_damping_sweep,
                              run_experiment, run_grad_stats,
                              run_trotter_sweep)
from spingate.noise import NOISE_KINDS, NOISE_MODES
from spingate.optimize import MAX_COUNT, InitScheme, OptimizerConfig
from spingate.simulator import PLACEMENTS


def tiny_optimizer(**kw):
    base = dict(algorithm="lbfgs", max_iters=8, restarts=2)
    base.update(kw)
    return OptimizerConfig(**base)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigValidation:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.kind == "compile"
        assert cfg.target == "toffoli"
        assert cfg.m == (6,)
        assert cfg.master_seed == DEFAULT_MASTER_SEED

    def test_init_seed_follows_master_seed(self):
        # restart draws must come from the master seed, not InitScheme's
        # default, even when the caller never touches init
        cfg = ExperimentConfig(master_seed=4)
        assert cfg.init.seed == 4
        cfg2 = dataclasses.replace(cfg, master_seed=9)
        assert cfg2.init.seed == 9

    def test_negative_master_seed(self):
        with pytest.raises(ConfigError, match="master_seed"):
            ExperimentConfig(master_seed=-3)
        assert ExperimentConfig(master_seed=0).master_seed == 0

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="anneal")

    def test_bad_depths(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(m=(0,))
        with pytest.raises(ConfigError):
            ExperimentConfig(m=())
        with pytest.raises(ConfigError):
            ExperimentConfig(m=(3, -1))
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig(kind="trotter-sweep", m=(1, 1))

    def test_bad_noise_settings(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(noise_mode="bootstrap")
        with pytest.raises(ConfigError):
            ExperimentConfig(noise_kinds=("charge", "thermal"))
        with pytest.raises(ConfigError):
            ExperimentConfig(noise_samples=0)
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig(noise_kinds=("charge", "charge"))
        with pytest.raises(ConfigError, match="non-empty"):
            ExperimentConfig(kind="coherent-noise-sweep", noise_kinds=())

    def test_bad_damping_settings(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(damping_restarts=0)
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                ExperimentConfig(warm_sigma=sigma)
        for grid in ((0.0, 1.5), (-0.01,), (0.0, float("nan")), (0.01, 0.01)):
            with pytest.raises(ConfigError):
                ExperimentConfig(damping_grid=grid)
        with pytest.raises(ConfigError, match="non-empty"):
            ExperimentConfig(kind="damping-sweep", damping_grid=())
        with pytest.raises(ConfigError, match="placement"):
            ExperimentConfig(damping_placement="after-each-step")
        # only the experiment that sweeps a list needs it non-empty
        assert ExperimentConfig(kind="compile", damping_grid=()).damping_grid == ()

    def test_counts_held_at_once_are_capped(self):
        for name in ("noise_samples", "grad_samples", "damping_restarts"):
            with pytest.raises(ConfigError, match="at most"):
                ExperimentConfig(**{name: MAX_COUNT + 1})
            assert getattr(ExperimentConfig(**{name: MAX_COUNT}), name) == MAX_COUNT
        with pytest.raises(ConfigError, match="at most"):
            OptimizerConfig(restarts=MAX_COUNT + 1)
        assert OptimizerConfig(restarts=MAX_COUNT).restarts == MAX_COUNT

    def test_single_m_guard(self):
        cfg = ExperimentConfig(m=(2, 3))
        with pytest.raises(ConfigError):
            cfg.single_m
        assert ExperimentConfig(m=(5,)).single_m == 5

    def test_config_to_dict_nests_sub_configs(self):
        d = config_to_dict(ExperimentConfig())
        assert d["optimizer"]["algorithm"] == "lbfgs"
        assert d["init"]["sigma"] == 0.5
        assert d["m"] == (6,)


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_round_trip(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text(
            "[experiment]\n"
            "kind = trotter-sweep\n"
            "target = fredkin\n"
            "m = 1, 2, 3\n"
            "master_seed = 7\n"
            "[optimizer]\n"
            "algorithm = nelder-mead\n"
            "max_iters = 50\n"
            "restarts = 4\n"
            "[init]\n"
            "sigma = 0.3\n"
            "clip_low = -0.5\n"
            "clip_high = 0.5\n"
            "[noise]\n"
            "kinds = charge\n"
            "mode = uniform-sample\n"
            "samples = 12\n"
            "[damping]\n"
            "warm_start = no\n"
            "warm_sigma = 0.2\n"
            "[grad-stats]\n"
            "samples = 9\n")
        cfg = load_config(p)
        assert cfg.kind == "trotter-sweep"
        assert cfg.target == "fredkin"
        assert cfg.m == (1, 2, 3)
        assert cfg.master_seed == 7
        assert cfg.init.seed == 7
        assert cfg.optimizer.algorithm == "nelder-mead"
        assert cfg.optimizer.max_iters == 50
        assert cfg.optimizer.restarts == 4
        assert cfg.init.sigma == 0.3
        assert cfg.init.clip == (-0.5, 0.5)
        assert cfg.noise_kinds == ("charge",)
        assert cfg.noise_mode == "uniform-sample"
        assert cfg.noise_samples == 12
        assert cfg.warm_start is False
        assert cfg.warm_sigma == 0.2
        assert cfg.grad_samples == 9

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[scheduler]\nworkers = 2\n")
        with pytest.raises(ConfigError, match=r"unknown config section"):
            load_config(p)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\ngate = toffoli\n")
        with pytest.raises(ConfigError, match=r"unknown key"):
            load_config(p)

    def test_unparseable_value(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\nmaster_seed = ten\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(p)

    def test_bad_bool(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[damping]\nwarm_start = maybe\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_grid_shorthand(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text("[noise]\ngrid = 0:0.1:0.05\n")
        cfg = load_config(p)
        assert cfg.noise_grid == (0.0, 0.05, 0.1)

    def test_grid_explicit_list(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text("[damping]\ngrid = 0, 0.01, 0.02\n")
        cfg = load_config(p)
        assert cfg.damping_grid == (0.0, 0.01, 0.02)

    def test_bad_grid_shorthand(self, tmp_path):
        p = tmp_path / "exp.ini"
        for spec in ("0:0.1", "0.2:0.1:0.05", "0:inf:0.1", "0:0.1:inf", "nan:0.1:0.05",
                     "0:0.1:0", "0:1:1e-9", "-1e308:1e308:1", "0:1e-12:1e-13",
                     "0:1:0.6", "0:0.02:0.015"):
            p.write_text(f"[noise]\ngrid = {spec}\n")
            with pytest.raises(ConfigError, match="grid"):
                load_config(p)

    @pytest.mark.parametrize("grid", ["0, nan", "inf", "0, 0.1, -inf"])
    def test_non_finite_float_list(self, tmp_path, grid):
        p = tmp_path / "exp.ini"
        p.write_text(f"[damping]\ngrid = {grid}\n")
        with pytest.raises(ConfigError, match="grid"):
            load_config(p)

    def test_invalid_optimizer_value_becomes_config_error(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text("[optimizer]\nalgorithm = adam\n")
        with pytest.raises(ConfigError):
            load_config(p)


@settings(max_examples=300, deadline=None)
@given(start=st.floats(-1.0, 1.0), step=st.floats(1e-3, 1.0), n=st.integers(0, 100))
def test_grid_spec_points(start, step, n):
    stop = start + n * step
    grid = _parse_float_list(f"{start!r}:{stop!r}:{step!r}")
    assert len(grid) == n + 1
    assert grid[0] == np.round(start, 12) and grid[-1] == np.round(stop, 12)
    assert np.all(np.diff(grid) > 0)


# spec-like characters, so that most draws get past float() to the range checks
GRID_GARBAGE = st.text(alphabet="0123456789.:,-+e nainf", max_size=16) | st.text(max_size=16)


@settings(max_examples=300, deadline=None)
@given(text=GRID_GARBAGE)
def test_float_list_parse_gives_finite_values_or_config_error(text):
    try:
        values = _parse_float_list(text)
    except ConfigError:
        return
    assert np.isfinite(values).all()
    if ":" in text:
        assert 1 <= len(values) <= MAX_GRID_POINTS
        assert np.all(np.diff(values) > 0)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-10**9, 10**9), max_size=12))
def test_int_list_round_trip(values):
    assert _parse_int_list(", ".join(map(str, values))) == tuple(values)


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="0123456789,-+ .x", max_size=16) | st.text(max_size=16))
def test_int_list_parse_gives_ints_or_config_error(text):
    try:
        values = _parse_int_list(text)
    except ConfigError:
        return
    assert all(isinstance(v, int) for v in values)


def _text(values):
    return values.map(lambda v: (str(v), v))


def _joined(values):
    return values.map(lambda vs: (", ".join(map(str, vs)), tuple(vs)))


_NAMES = st.text(alphabet="abcxyz_/.-", min_size=1, max_size=8)
_GRID = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True).map(sorted)
_BOOL_WORDS = {"true": True, "yes": True, "1": True, "on": True,
               "false": False, "no": False, "0": False, "off": False}

# (INI text, parsed value) for every key, each value valid whatever else is set
KEY_VALUES = {
    ("experiment", "kind"): _text(st.sampled_from(EXPERIMENT_KINDS)),
    ("experiment", "target"): _text(_NAMES),
    ("experiment", "m"): _joined(st.lists(st.integers(1, 40), min_size=1, max_size=4,
                                          unique=True)),
    ("experiment", "master_seed"): _text(st.integers(0, 2**32)),
    ("experiment", "output_dir"): _text(_NAMES),
    ("optimizer", "algorithm"): _text(st.sampled_from(("lbfgs", "nelder-mead"))),
    ("optimizer", "max_iters"): _text(st.integers(1, 5000)),
    ("optimizer", "cost_tolerance"): _text(st.floats(0.0, 1.0)),
    ("optimizer", "gradient_tolerance"): _text(st.floats(0.0, 1.0)),
    ("optimizer", "history_size"): _text(st.integers(1, 50)),
    ("optimizer", "simplex_step"): _text(st.floats(1e-6, 3.0)),
    ("optimizer", "spread_tolerance"): _text(st.floats(0.0, 1.0)),
    ("optimizer", "restarts"): _text(st.integers(1, 100)),
    ("init", "sigma"): _text(st.floats(0.0, 2.0)),
    ("init", "mean"): _text(st.floats(-1.0, 1.0)),
    ("init", "clip_low"): _text(st.floats(-3.0, 0.0)),
    ("init", "clip_high"): _text(st.floats(0.0, 3.0)),
    ("noise", "kinds"): _joined(st.permutations(NOISE_KINDS).flatmap(
        lambda ks: st.integers(1, len(ks)).map(lambda n: ks[:n]))),
    ("noise", "mode"): _text(st.sampled_from(NOISE_MODES)),
    ("noise", "samples"): _text(st.integers(1, 1000)),
    ("noise", "grid"): _joined(_GRID),
    ("damping", "grid"): _joined(_GRID),
    ("damping", "placement"): _text(st.sampled_from(PLACEMENTS)),
    ("damping", "restarts"): _text(st.integers(1, 200)),
    ("damping", "warm_start"): st.sampled_from(sorted(_BOOL_WORDS)).flatmap(
        lambda w: st.sampled_from((w, w.upper())).map(lambda t: (t, _BOOL_WORDS[w]))),
    ("damping", "warm_sigma"): _text(st.floats(0.0, 1.0)),
    ("grad-stats", "samples"): _text(st.integers(1, 500)),
}


def _sub_configs(cfg):
    return {ExperimentConfig: cfg, OptimizerConfig: cfg.optimizer, InitScheme: cfg.init}


def test_schema_reaches_every_field_once():
    reached = [(cls, name) for cls, name, _ in _SCHEMA.values()]
    # the two clip keys are the two ends of one field
    assert reached.count((InitScheme, "clip")) == 2
    reached.remove((InitScheme, "clip"))
    assert len(reached) == len(set(reached))
    fields = {(cls, f.name) for cls in (ExperimentConfig, OptimizerConfig, InitScheme)
              for f in dataclasses.fields(cls)}
    # init.seed follows master_seed; optimizer and init hold the sub-configs
    fields -= {(InitScheme, "seed"), (ExperimentConfig, "optimizer"),
               (ExperimentConfig, "init")}
    assert set(reached) == fields
    assert set(KEY_VALUES) == set(_SCHEMA)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ini_file_sets_its_keys_and_defaults_the_rest(data):
    keys = data.draw(st.lists(st.sampled_from(sorted(_SCHEMA)), unique=True))
    sections, expected = {}, {}
    for section, key in keys:
        text, value = data.draw(KEY_VALUES[(section, key)])
        if data.draw(st.booleans(), label=f"leave {key} empty"):
            text = ""
        else:
            expected[(section, key)] = value
        sections.setdefault(section, []).append(f"{key} = {text}\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.ini"
        path.write_text("".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items()))
        cfg = load_config(path)

    default = _sub_configs(ExperimentConfig())
    loaded = _sub_configs(cfg)
    for (section, key), (cls, name, _) in _SCHEMA.items():
        actual = getattr(loaded[cls], name)
        if name == "clip":
            actual = actual[key == "clip_high"]
            fallback = getattr(default[cls], name)[key == "clip_high"]
        else:
            fallback = getattr(default[cls], name)
        assert actual == expected.get((section, key), fallback), (section, key)
    assert cfg.init.seed == cfg.master_seed


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    path = tmp_path / "exp.ini"
    path.write_text(blocks[0])
    cfg = load_config(path)
    assert cfg.target == "fredkin"
    assert cfg.m == (5,)


def test_run_compile_outputs(tmp_path):
    cfg = ExperimentConfig(
        kind="compile", m=(1,), master_seed=2, output_dir=str(tmp_path),
        optimizer=tiny_optimizer())
    record = run_compile(cfg)
    run_dir = tmp_path / record.run_dir.split("/")[-1]
    assert run_dir.is_dir()

    assert record.schema_version == 1
    assert record.experiment == "compile"
    assert record.master_seed == 2
    assert record.results["m"] == 1
    assert record.results["n_restarts"] == 2
    assert record.results["best_fidelity"] == pytest.approx(
        1.0 - record.results["best_cost"])
    assert record.results["restart_seeds"] == [[2, 0], [2, 1]]

    header, rows = read_csv(run_dir / "training_curve.csv")
    assert header == ["restart", "iteration", "cost", "grad_norm_or_spread",
                      "elapsed_ms"]
    assert {r[0] for r in rows} == {"0", "1"}
    # row 0 of each restart is the starting point, so cost column begins
    # at the init cost and the final row matches the record
    by_restart = {}
    for r in rows:
        by_restart.setdefault(r[0], []).append(float(r[2]))
    best = str(record.results["best_restart"])
    assert by_restart[best][-1] == record.results["best_cost"]

    header, rows = read_csv(run_dir / "parameter_trajectory.csv")
    assert header == ["restart", "iteration", "param_index", "label", "value"]
    assert rows[0][3] == "X1"

    spec = heisenberg_spec(3)
    theta = parse_parameters((run_dir / "final_parameters.txt").read_text(), spec)
    # the text file rounds to 10 decimals, so half an ulp of that format
    np.testing.assert_allclose(theta, np.asarray(record.results["final_theta"]),
                               rtol=0, atol=5.1e-11)

    saved = json.loads((run_dir / "run_record.json").read_text())
    assert saved["results"]["best_cost"] == record.results["best_cost"]
    assert saved["config"]["optimizer"]["max_iters"] == 8


def test_run_compile_rejects_multi_depth(tmp_path):
    cfg = ExperimentConfig(kind="compile", m=(1, 2), output_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        run_compile(cfg)


def test_fresh_run_dir_never_overwrites(tmp_path):
    cfg = ExperimentConfig(
        kind="compile", m=(1,), output_dir=str(tmp_path),
        optimizer=tiny_optimizer(max_iters=2, restarts=1))
    a = run_compile(cfg)
    b = run_compile(cfg)
    assert a.run_dir != b.run_dir
    assert (tmp_path / a.run_dir.split("/")[-1] / "run_record.json").is_file()
    assert (tmp_path / b.run_dir.split("/")[-1] / "run_record.json").is_file()


def test_run_trotter_sweep_expands_single_depth(tmp_path):
    cfg = ExperimentConfig(
        kind="trotter-sweep", m=(2,), output_dir=str(tmp_path),
        optimizer=tiny_optimizer(max_iters=3))
    record = run_trotter_sweep(cfg)
    assert record.results["depths"] == [1, 2]
    assert set(record.results["per_m"]) == {"1", "2"}

    header, rows = read_csv(tmp_path / record.run_dir.split("/")[-1]
                            / "trotter_sweep.csv")
    assert header == ["m", "mean_fidelity", "std_fidelity",
                      "mean_fidelity_converged", "std_fidelity_converged",
                      "n_converged", "best_fidelity"]
    assert [r[0] for r in rows] == ["1", "2"]


def test_run_trotter_sweep_explicit_depth_list(tmp_path):
    cfg = ExperimentConfig(
        kind="trotter-sweep", m=(1, 3), output_dir=str(tmp_path),
        optimizer=tiny_optimizer(max_iters=3))
    record = run_trotter_sweep(cfg)
    # an explicit list is taken verbatim, no range expansion
    assert record.results["depths"] == [1, 3]


def test_run_coherent_noise_sweep_outputs(tmp_path):
    cfg = ExperimentConfig(
        kind="coherent-noise-sweep", m=(1,), output_dir=str(tmp_path),
        optimizer=tiny_optimizer(), noise_grid=(0.0, 0.05),
        noise_mode="deterministic-shift")
    record = run_coherent_noise_sweep(cfg)
    header, rows = read_csv(tmp_path / record.run_dir.split("/")[-1]
                            / "noise_sweep.csv")
    assert header == ["noise_kind", "mode", "delta", "mean_fidelity",
                      "std_fidelity", "samples"]
    assert [(r[0], r[2]) for r in rows] == [
        ("charge", "0.0"), ("charge", "0.05"),
        ("nuclear", "0.0"), ("nuclear", "0.05")]

    # the aggregate skips the unperturbed grid point
    by_kind = {}
    for r in rows:
        by_kind.setdefault(r[0], {})[float(r[2])] = float(r[3])
    for kind, agg in record.results["grid_mean_fidelity"].items():
        assert agg == pytest.approx(by_kind[kind][0.05])

    # delta = 0 must reproduce the compiled fidelity exactly
    for kind in ("charge", "nuclear"):
        assert by_kind[kind][0.0] == pytest.approx(
            1.0 - record.results["compiled_cost"], abs=1e-15)


def test_run_damping_sweep_outputs(tmp_path):
    # loose cost tolerance makes both the compile and the per-point
    # re-optimizations stop almost immediately
    cfg = ExperimentConfig(
        kind="damping-sweep", m=(1,), output_dir=str(tmp_path),
        optimizer=tiny_optimizer(cost_tolerance=0.5, spread_tolerance=1e-2),
        damping_grid=(0.0, 0.5), damping_restarts=2)
    record = run_damping_sweep(cfg)
    header, rows = read_csv(tmp_path / record.run_dir.split("/")[-1]
                            / "damping_sweep.csv")
    assert header == ["p", "mean_fidelity", "std_fidelity", "restarts"]
    assert [r[0] for r in rows] == ["0.0", "0.5"]
    assert all(r[3] == "2" for r in rows)
    assert set(record.results["per_point"]) == {"0.0", "0.5"}
    for point in record.results["per_point"].values():
        assert point["min_fidelity"] <= point["mean_fidelity"] <= point["max_fidelity"]
    # heavy damping cannot beat light damping after re-training
    assert float(rows[1][1]) < float(rows[0][1])


def test_run_damping_sweep_cold_start(tmp_path):
    cfg = ExperimentConfig(
        kind="damping-sweep", m=(1,), output_dir=str(tmp_path),
        optimizer=tiny_optimizer(cost_tolerance=0.5, spread_tolerance=1e-2),
        damping_grid=(0.0,), damping_restarts=2, warm_start=False)
    record = run_damping_sweep(cfg)
    assert record.results["warm_start"] is False


def test_run_damping_sweep_names_the_failing_retraining(tmp_path, monkeypatch):
    # a cost goal of 1 stops the compile and re-training 0 at their first point
    cfg = ExperimentConfig(
        kind="damping-sweep", m=(1,), output_dir=str(tmp_path),
        optimizer=tiny_optimizer(cost_tolerance=1.0),
        damping_grid=(0.01,), damping_restarts=2, warm_start=False)
    # cold starts do not depend on the compiled parameters
    start = _damping_inits(cfg, None, 0, 15)[1]
    density_cost = CostEvaluator.cost

    def nan_at_second_start(self, theta):
        if self.mode == "hs-test-density" and np.array_equal(theta, start):
            return float("nan")
        return density_cost(self, theta)

    monkeypatch.setattr(CostEvaluator, "cost", nan_at_second_start)
    with pytest.raises(NumericalFailure,
                       match=r"damping p=0\.01 \(grid point 0\): restart 1: the cost is not finite"):
        run_damping_sweep(cfg)


def test_run_grad_stats_outputs(tmp_path):
    cfg = ExperimentConfig(
        kind="grad-stats", m=(2,), output_dir=str(tmp_path), grad_samples=5)
    record = run_grad_stats(cfg)
    header, rows = read_csv(tmp_path / record.run_dir.split("/")[-1]
                            / "grad_stats.csv")
    assert header == ["m", "param_index", "label", "grad_mean", "grad_variance"]
    assert len(rows) == 2 * 15
    assert set(record.results["per_m"]) == {"1", "2"}
    for stats in record.results["per_m"].values():
        assert stats["min_coordinate_variance"] >= 0.0


def test_run_experiment_dispatch(tmp_path):
    cfg = ExperimentConfig(
        kind="grad-stats", m=(1,), output_dir=str(tmp_path), grad_samples=3)
    record = run_experiment(cfg)
    assert record.experiment == "grad-stats"
    assert (tmp_path / record.run_dir.split("/")[-1] / "grad_stats.csv").is_file()


def test_run_compile_repeat_is_bit_identical(tmp_path):
    cfg = ExperimentConfig(
        kind="compile", m=(1,), master_seed=5, output_dir=str(tmp_path),
        optimizer=tiny_optimizer(max_iters=12, restarts=2))
    a = run_compile(cfg)
    b = run_compile(cfg)

    dir_a = tmp_path / a.run_dir.split("/")[-1]
    dir_b = tmp_path / b.run_dir.split("/")[-1]

    # trajectories and final parameters carry no timing, compare raw
    assert ((dir_a / "parameter_trajectory.csv").read_text()
            == (dir_b / "parameter_trajectory.csv").read_text())
    assert ((dir_a / "final_parameters.txt").read_text()
            == (dir_b / "final_parameters.txt").read_text())

    # training curves match once the wall-clock column is dropped
    def strip_elapsed(path):
        return ["," .join(line.split(",")[:-1])
                for line in path.read_text().strip().split("\n")]
    assert (strip_elapsed(dir_a / "training_curve.csv")
            == strip_elapsed(dir_b / "training_curve.csv"))

    # records match after masking the fields that name the run itself
    def masked(record_path):
        d = json.loads(record_path.read_text())
        d.pop("created_utc")
        d.pop("run_dir")
        return d
    assert masked(dir_a / "run_record.json") == masked(dir_b / "run_record.json")
