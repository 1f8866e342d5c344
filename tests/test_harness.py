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

from spingate import harness
from spingate.cost import CostEvaluator
from spingate.errors import ConfigError, NumericalFailure
from spingate.hamiltonian import heisenberg_spec, parse_parameters
from spingate.harness import (_SCHEMA, DEFAULT_MASTER_SEED, EXPERIMENT_KINDS,
                              MAX_DEPTH, MAX_GRID_POINTS, ExperimentConfig,
                              _damping_inits, _parse_float_list, _parse_int_list,
                              _write_run, config_to_dict,
                              load_config, run_compile,
                              run_coherent_noise_sweep, run_damping_sweep,
                              run_experiment, run_grad_stats,
                              run_trotter_sweep)
from spingate.noise import NOISE_KINDS, NOISE_MODES
from spingate.optimize import (MAX_COUNT, InitScheme, OptimizationTrace, OptimizerConfig,
                               RestartSummary)
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

    def test_depth_is_capped(self):
        for kind in ("compile", "trotter-sweep"):
            with pytest.raises(ConfigError, match="at most"):
                ExperimentConfig(kind=kind, m=(MAX_DEPTH + 1,))
            assert ExperimentConfig(kind=kind, m=(MAX_DEPTH,)).m == (MAX_DEPTH,)
        with pytest.raises(ConfigError, match="at most"):
            ExperimentConfig(kind="trotter-sweep", m=(2, MAX_DEPTH + 1))

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

    def test_zero_grad_samples(self):
        with pytest.raises(ConfigError, match="grad_samples must be at least 1"):
            ExperimentConfig(grad_samples=0)

    def test_counts_held_at_once_are_capped(self):
        for name in ("noise_samples", "grad_samples", "damping_restarts"):
            with pytest.raises(ConfigError, match="at most"):
                ExperimentConfig(**{name: MAX_COUNT + 1})
            assert getattr(ExperimentConfig(**{name: MAX_COUNT}), name) == MAX_COUNT
        with pytest.raises(ConfigError, match="at most"):
            OptimizerConfig(restarts=MAX_COUNT + 1)
        assert OptimizerConfig(restarts=MAX_COUNT).restarts == MAX_COUNT

    def test_integer_fields_take_integers_only(self):
        # a float used to run truncated (master_seed=1.5 ran seed 1) or fail
        # late with a bare TypeError; a bool used to count as 1
        for name in ("master_seed", "noise_samples", "damping_restarts", "grad_samples"):
            for value in (True, 1.5, 2.0):
                with pytest.raises(ConfigError, match=f"{name} must be an integer"):
                    ExperimentConfig(**{name: value})
            assert getattr(ExperimentConfig(**{name: np.int64(3)}), name) == 3
        for m in ((True,), (2.5,), (6, 2.0)):
            with pytest.raises(ConfigError, match="m must be an integer"):
                ExperimentConfig(kind="trotter-sweep", m=m)
        assert ExperimentConfig(m=(np.int64(2),)).single_m == 2

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
        # a value that does not parse, and a key before any section
        for text in ("[experiment]\nmaster_seed = ten\n", "master_seed = 3\n[experiment]\n"):
            p.write_text(text)
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

    def test_settings_replace_file_text(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text("[experiment]\nm = 2,2\nmaster_seed = 4\n[optimizer]\nrestarts = x\n")
        cfg = load_config(p, {("experiment", "m"): "3", ("optimizer", "restarts"): "2"})
        assert (cfg.m, cfg.master_seed, cfg.optimizer.restarts) == ((3,), 4, 2)
        assert load_config(settings={("experiment", "m"): "2"}).m == (2,)
        with pytest.raises(ConfigError, match="unknown setting"):
            load_config(p, {("experiment", "gate"): "toffoli"})
        with pytest.raises(ConfigError, match="empty value"):
            load_config(p, {("experiment", "m"): ""})

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


@pytest.mark.parametrize("results, files", [
    ({"best_cost": float("nan")}, {}),
    ({"per_m": {"1": [1.0, float("-inf")]}}, {}),
    ({}, {"a.csv": "m,mean\n1,0.5\n2,nan\n"}),
    ({}, {"a.csv": "kind,delta\ncharge,-inf\n"}),
    ({}, {"params.txt": "X1 0 inf\n"}),
    ({}, {"params.txt": "X1 0 0.5\nY1 1 -inf"}),  # the last line has no newline
])
def test_write_run_refuses_non_finite_values(tmp_path, results, files):
    cfg = ExperimentConfig(output_dir=str(tmp_path / "out"))
    with pytest.raises(NumericalFailure, match="non-finite"):
        _write_run(cfg, results, files)
    assert not (tmp_path / "out").exists()


def test_write_run_that_cannot_write_its_record_makes_no_directory(tmp_path):
    for where in ("results", "config"):
        cfg = ExperimentConfig(output_dir=str(tmp_path / "out"))
        results = {"best_cost": 0.5}
        if where == "results":
            results["theta"] = object()
        else:
            cfg.target = object()  # set past the config checks
        with pytest.raises(TypeError, match="not JSON serializable"):
            _write_run(cfg, results, {"a.csv": "m,mean\n1,0.5\n"})
        assert not (tmp_path / "out").exists(), where


def test_numpy_scalars_in_the_config_write_the_outputs_of_python_ones(tmp_path):
    outputs = []
    for seed, restarts in ((3, 2), (np.int64(3), np.int64(2))):
        out = tmp_path / type(seed).__name__
        cfg = ExperimentConfig(kind="compile", m=(1,), master_seed=seed, output_dir=str(out),
                               optimizer=tiny_optimizer(restarts=restarts))
        run_dir = out / run_experiment(cfg).run_dir.split("/")[-1]
        record = json.loads((run_dir / "run_record.json").read_text())
        del record["created_utc"], record["run_dir"], record["config"]["output_dir"]
        curve = [line.rsplit(",", 1)[0]  # the wall-clock column aside
                 for line in (run_dir / "training_curve.csv").read_text().splitlines()]
        outputs.append((record, curve, (run_dir / "parameter_trajectory.csv").read_text(),
                        (run_dir / "final_parameters.txt").read_text()))
    assert outputs[0] == outputs[1]
    assert outputs[1][0]["results"]["restart_seeds"] == [[3, 0], [3, 1]]


def _one_vector_call(self, *args, **kwargs):
    raise AssertionError("a run called CostEvaluator.cost or CostEvaluator.gradient")


@pytest.mark.parametrize("kind, fields", [
    ("compile", {}),
    ("trotter-sweep", {"m": (2,)}),
    ("coherent-noise-sweep", {"noise_mode": "uniform-sample", "noise_samples": 3,
                              "noise_grid": (0.0, 0.05)}),
    *[("damping-sweep", {"damping_grid": (0.0, 0.02), "damping_restarts": 2,
                         "damping_placement": placement}) for placement in PLACEMENTS],
    ("grad-stats", {"m": (2,), "grad_samples": 3}),
])
def test_runs_ask_only_for_stacked_costs_and_gradients(tmp_path, monkeypatch, kind, fields):
    """Every run goes through `costs` and `gradients`, never the one-vector methods."""
    monkeypatch.setattr(CostEvaluator, "cost", _one_vector_call)
    monkeypatch.setattr(CostEvaluator, "gradient", _one_vector_call)
    cfg = ExperimentConfig(kind=kind, **{"m": (1,), **fields}, output_dir=str(tmp_path),
                           optimizer=tiny_optimizer(max_iters=4))
    run_experiment(cfg)


def test_write_run_keeps_labels_that_hold_an_n(tmp_path):
    cfg = ExperimentConfig(output_dir=str(tmp_path))
    files = {"a.csv": "noise_kind,mode,delta\nnuclear,uniform-sample,0.05\n"}
    record = _write_run(cfg, {"kind": "nuclear"}, files)
    assert record.csv_files == ["a.csv"]


def _reject_constant(name):
    raise AssertionError(f"run_record.json holds {name}")


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
@settings(max_examples=12, deadline=None)
@given(target=st.sampled_from(["toffoli", "fredkin"]),
       m=st.integers(1, 2),
       restarts=st.integers(1, 2),
       max_iters=st.integers(1, 5),
       samples=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1),
       noise_mode=st.sampled_from(NOISE_MODES),
       delta=st.sampled_from([0.05, 0.5, 3.0]),
       p=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
       placement=st.sampled_from(PLACEMENTS),
       warm_start=st.booleans())
def test_small_runs_write_no_non_finite_value(kind, target, m, restarts, max_iters, samples,
                                              seed, noise_mode, delta, p, placement,
                                              warm_start):
    # every kind, at the smallest budgets, where a mean or spread may rest on
    # one value; only trotter_sweep.csv may leave a cell empty (no restart
    # converged at a depth)
    cfg = ExperimentConfig(
        kind=kind, target=target, m=(m,), master_seed=seed,
        optimizer=OptimizerConfig(max_iters=max_iters, restarts=restarts),
        noise_mode=noise_mode, noise_samples=samples, noise_grid=(0.0, delta),
        damping_grid=(p,), damping_placement=placement, damping_restarts=restarts,
        warm_start=warm_start, grad_samples=samples)
    with tempfile.TemporaryDirectory() as out:
        record = run_experiment(dataclasses.replace(cfg, output_dir=out))
        run_dir = Path(record.run_dir)
        for name in record.csv_files:
            for line in (run_dir / name).read_text().splitlines():
                for cell in re.split(r"[,\s]+", line):
                    if cell == "":
                        assert name == "trotter_sweep.csv", f"{name} has an empty cell: {line!r}"
                        continue
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # a header or a label
                    assert np.isfinite(value), f"{name} holds {cell!r}"
        json.loads((run_dir / "run_record.json").read_text(),
                   parse_constant=_reject_constant)


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


def test_run_damping_sweep_retrains_under_the_run_optimizer(tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        kind="damping-sweep", m=(1,), output_dir=str(tmp_path),
        optimizer=tiny_optimizer(max_iters=2, restarts=1, history_size=3,
                                 gradient_tolerance=1e-3, cost_tolerance=0.5,
                                 simplex_step=0.2, spread_tolerance=1e-2),
        damping_grid=(0.01,), damping_restarts=1)
    seen = []
    retrain = harness.retrain

    def spy(evaluator, starts, optimizer):
        seen.append(optimizer)
        return retrain(evaluator, starts, optimizer)

    monkeypatch.setattr(harness, "retrain", spy)
    run_damping_sweep(cfg)
    assert [(o.history_size, o.gradient_tolerance, o.cost_tolerance, o.simplex_step,
             o.spread_tolerance) for o in seen] == [(3, 1e-3, 0.5, 0.2, 1e-2)]


def test_run_damping_sweep_names_the_failing_retraining(tmp_path, monkeypatch):
    # a cost goal of 1 stops the compile and re-training 0 at their first point
    cfg = ExperimentConfig(
        kind="damping-sweep", m=(1,), output_dir=str(tmp_path),
        optimizer=tiny_optimizer(cost_tolerance=1.0),
        damping_grid=(0.01,), damping_restarts=2, warm_start=False)
    # cold starts do not depend on the compiled parameters
    start = _damping_inits(cfg, None, 0, 15)[1]
    density_cost = CostEvaluator._density_cost

    def nan_at_second_start(self, theta):
        if np.array_equal(theta, start):
            return float("nan")
        return density_cost(self, theta)

    monkeypatch.setattr(CostEvaluator, "_density_cost", nan_at_second_start)
    with pytest.raises(NumericalFailure,
                       match=r"damping p=0\.01 \(grid point 0\): restart 1: the cost is not finite"):
        run_damping_sweep(cfg)


def test_run_damping_sweep_names_a_non_finite_gradient(tmp_path, monkeypatch):
    # a cost goal of 1 ends each simplex phase at once; the polish then asks
    # for its first gradient
    cfg = ExperimentConfig(
        kind="damping-sweep", m=(1,), output_dir=str(tmp_path),
        optimizer=tiny_optimizer(cost_tolerance=1.0),
        damping_grid=(0.0, 0.02), damping_restarts=2)
    density_gradient = CostEvaluator._density_gradient

    def nan_at_second_point(self, theta):
        if self.plan.channel.name == "amplitude-damping(p=0.02)":
            return np.full(theta.shape, np.nan)
        return density_gradient(self, theta)

    monkeypatch.setattr(CostEvaluator, "_density_gradient", nan_at_second_point)
    message = r"damping p=0\.02 \(grid point 1\): restart 0: the grad is not finite"
    with pytest.raises(NumericalFailure, match=message):
        run_damping_sweep(cfg)
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


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


def test_run_grad_stats_follows_the_master_seed(tmp_path):
    def grad_stats_csv(seed, name):
        cfg = ExperimentConfig(kind="grad-stats", m=(2,), master_seed=seed,
                               output_dir=str(tmp_path / name), grad_samples=5)
        return (Path(run_grad_stats(cfg).run_dir) / "grad_stats.csv").read_text()

    first = grad_stats_csv(42, "a")
    assert grad_stats_csv(42, "b") == first
    assert grad_stats_csv(43, "c") != first


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


def _trajectory_line_by_line(summary, labels):
    """The trajectory table one f-string per line: the formatter's oracle."""
    lines = ["restart,iteration,param_index,label,value\n"]
    for trace in summary.traces:
        for it, theta in enumerate(trace.theta_history.tolist()):
            for j, (label, value) in enumerate(zip(labels, theta, strict=True)):
                lines.append(f"{trace.restart_index},{it},{j},{label},{value!r}\n")
    return "".join(lines)


@pytest.mark.parametrize("labels", [
    list(heisenberg_spec(3).labels),
    list(heisenberg_spec(4).labels),
    ["%r", "a%sb", "%%", "50%", "%(x)s"],  # % must not act as a template field
], ids=["3-qubit", "4-qubit", "percent"])
def test_trajectory_csv_equals_line_by_line_formatting(labels):
    """Every row and value of every restart, in order, as the line-by-line formatter writes them."""
    specials = [-0.0, 5e-324, 1e-05, 1.5e16, 0.1 + 0.2]
    rng = np.random.default_rng(0)
    traces = []
    for restart, rows in ((0, 3), (4, 1), (2, 5)):  # restart indices out of order
        history = rng.normal(size=(rows, len(labels)))
        history.flat[:len(specials)] = specials
        history[-1] = np.resize(specials[::-1], len(labels))
        traces.append(OptimizationTrace(
            restart_index=restart, algorithm="lbfgs", costs=np.zeros(rows),
            metric=np.zeros(rows), elapsed_ms=np.zeros(rows), theta_history=history,
            final_theta=history[-1], final_cost=0.0, converged=False,
            stop_reason="stalled", n_evals=rows))
    summary = RestartSummary(traces=traces, best_index=0, seeds=[[0, i] for i in range(3)])
    table = harness._trajectory_csv(summary, labels)
    assert table == _trajectory_line_by_line(summary, labels)
    assert table.count("\n") == 1 + 9 * len(labels)
