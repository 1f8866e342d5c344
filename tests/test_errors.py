"""Every count and amount input fails with its site's typed error, by one rule each."""

import numpy as np
import pytest

from spingate.ansatz import build_hva
from spingate.cost import CostEvaluator
from spingate.errors import (ConfigError, InvalidDepth, InvalidQubitCount, NegativeAmplitude,
                             OutOfRange)
from spingate.hamiltonian import heisenberg_spec
from spingate.harness import MAX_DEPTH, ExperimentConfig
from spingate.noise import CoherentNoise, perturb, robustness_sweep
from spingate.optimize import MAX_COUNT, MAX_ITERS, InitScheme, OptimizerConfig
from spingate.simulator import amplitude_damping
from spingate.targets import toffoli

SPEC = heisenberg_spec(3)
SAMPLED = CoherentNoise(kind="charge", delta=0.1, mode="uniform-sample", seed=1)

# name in the message: (call with the value, its error, a value out of range, the bound it breaks)
COUNTS = {
    "m": (lambda v: ExperimentConfig(m=(v,)), ConfigError, MAX_DEPTH + 1,
          f"at most {MAX_DEPTH}"),
    "master_seed": (lambda v: ExperimentConfig(master_seed=v), ConfigError, -1, "at least 0"),
    "noise_samples": (lambda v: ExperimentConfig(noise_samples=v), ConfigError, MAX_COUNT + 1,
                      f"at most {MAX_COUNT}"),
    "damping_restarts": (lambda v: ExperimentConfig(damping_restarts=v), ConfigError, 0,
                         "at least 1"),
    "grad_samples": (lambda v: ExperimentConfig(grad_samples=v), ConfigError, 0, "at least 1"),
    "restarts": (lambda v: OptimizerConfig(restarts=v), ConfigError, MAX_COUNT + 1,
                 f"at most {MAX_COUNT}"),
    "history_size": (lambda v: OptimizerConfig(history_size=v), ConfigError, 0, "at least 1"),
    "max_iters": (lambda v: OptimizerConfig(max_iters=v), ConfigError, MAX_ITERS + 1,
                  f"at most {MAX_ITERS}"),
    "layer count": (lambda v: build_hva(SPEC, v), InvalidDepth, 0, "at least 1"),
    "chain length": (heisenberg_spec, InvalidQubitCount, 1, "at least 2"),
    "samples": (lambda v: robustness_sweep(CostEvaluator(build_hva(SPEC, 1), toffoli()),
                                           np.zeros(15), "charge", [0.1],
                                           mode="uniform-sample", samples=v),
                ValueError, 0, "at least 1"),
    "realization": (lambda v: perturb(np.zeros(15), SAMPLED, SPEC, realization=v), ValueError,
                    MAX_COUNT, f"at most {MAX_COUNT - 1}"),
    "init seed": (lambda v: InitScheme(seed=v), ConfigError, -1, "at least 0"),
    "noise seed": (lambda v: CoherentNoise(kind="charge", delta=0.1, seed=v), ValueError, -1,
                   "at least 0"),
}

AMOUNTS = {
    "warm_sigma": (lambda v: ExperimentConfig(warm_sigma=v), ConfigError),
    "cost_tolerance": (lambda v: OptimizerConfig(cost_tolerance=v), ConfigError),
    "gradient_tolerance": (lambda v: OptimizerConfig(gradient_tolerance=v), ConfigError),
    "spread_tolerance": (lambda v: OptimizerConfig(spread_tolerance=v), ConfigError),
    "init sigma": (lambda v: InitScheme(sigma=v), ConfigError),
    "noise amplitude": (lambda v: CoherentNoise(kind="charge", delta=v), NegativeAmplitude),
}


@pytest.mark.parametrize("value", [True, 1.5, 2.0, "3"])
@pytest.mark.parametrize("site", COUNTS)
def test_a_count_takes_integers_only(site, value):
    call, error, _, _ = COUNTS[site]
    with pytest.raises(error, match=f"^{site} must be an integer, got {value!r}$") as info:
        call(value)
    assert info.type is error


@pytest.mark.parametrize("site", COUNTS)
def test_a_count_out_of_range_names_its_bound(site):
    call, error, bad, bound = COUNTS[site]
    with pytest.raises(error, match=f"^{site} must be {bound}, got {bad}$") as info:
        call(bad)
    assert info.type is error


@pytest.mark.parametrize("site", COUNTS)
def test_a_count_takes_numpy_integers(site):
    COUNTS[site][0](np.int64(3))


@pytest.mark.parametrize("value", [True, "3", -0.5, float("nan"), float("inf")])
@pytest.mark.parametrize("site", AMOUNTS)
def test_an_amount_is_a_finite_real_at_least_zero(site, value):
    call, error = AMOUNTS[site]
    with pytest.raises(error, match=f"^{site} must be finite and >= 0, got {value!r}$") as info:
        call(value)
    assert info.type is error


@pytest.mark.parametrize("value", [0, np.int64(2), np.float64(0.25), 1e300])
@pytest.mark.parametrize("site", AMOUNTS)
def test_an_amount_takes_any_finite_real_at_least_zero(site, value):
    AMOUNTS[site][0](value)


# a range check that is not a count or an amount rejects a bool too: (call, error, message)
BOOLS_IN_RANGES = [
    (lambda: OptimizerConfig(simplex_step=True), ConfigError,
     "simplex_step must be finite and >= 0, got True"),
    (lambda: ExperimentConfig(damping_grid=(True, 0.5)), ConfigError,
     "damping probability must be finite and >= 0, got True"),
    (lambda: ExperimentConfig(noise_grid=(0.0, True)), ConfigError,
     r"noise grid: delta grid must be a list of numbers, got \(0.0, True\)"),
    (lambda: amplitude_damping(True), OutOfRange,
     "damping probability must be finite and >= 0, got True"),
]


@pytest.mark.parametrize("call, error, message", BOOLS_IN_RANGES)
def test_a_range_check_rejects_a_bool(call, error, message):
    with pytest.raises(error, match=f"^{message}$") as info:
        call()
    assert info.type is error


GRID_RULE = "delta grid must be finite, non-negative and strictly ascending"

# an API input the INI parser cannot yield fails at construction with its
# site's error, before any compile: (call, error, message)
WRONG_INPUTS = {
    "infinite noise grid": (
        lambda: ExperimentConfig(kind="coherent-noise-sweep", m=(1,),
                                 noise_grid=(0.0, float("inf"))),
        ConfigError, f"noise grid: {GRID_RULE}"),
    "infinite sweep grid": (
        lambda: robustness_sweep(CostEvaluator(build_hva(SPEC, 1), toffoli()), np.zeros(15),
                                 "charge", [0.0, float("inf")]),
        ValueError, GRID_RULE),
    "warm_start": (lambda: ExperimentConfig(warm_start="no"), ConfigError,
                   "warm_start must be a bool, got 'no'"),
    "kind": (lambda: ExperimentConfig(kind=["compile"]), ConfigError,
             r"kind must be a string, got \['compile'\]"),
    "target": (lambda: ExperimentConfig(target=3), ConfigError, "target must be a string, got 3"),
    "output_dir": (lambda: ExperimentConfig(output_dir=5), ConfigError,
                   "output_dir must be a string, got 5"),
    "m": (lambda: ExperimentConfig(m=6), ConfigError, "m must be a tuple or list, got 6"),
    "noise_kinds": (lambda: ExperimentConfig(noise_kinds="charge"), ConfigError,
                    "noise_kinds must be a tuple or list, got 'charge'"),
    "noise_grid": (lambda: ExperimentConfig(noise_grid=0.1), ConfigError,
                   "noise_grid must be a tuple or list, got 0.1"),
    "damping_grid": (lambda: ExperimentConfig(damping_grid=0.5), ConfigError,
                     "damping_grid must be a tuple or list, got 0.5"),
    "noise kind": (lambda: ExperimentConfig(noise_kinds=[["charge"]]), ConfigError,
                   r"unknown noise kind \['charge'\]"),
    "damping probability": (lambda: ExperimentConfig(damping_grid=[[0.1]]), ConfigError,
                            r"damping probability must be finite and >= 0, got \[0.1\]"),
    "optimizer": (lambda: ExperimentConfig(optimizer=None), ConfigError,
                  "optimizer must be an OptimizerConfig, got None"),
    "init": (lambda: ExperimentConfig(init=None), ConfigError,
             "init must be an InitScheme, got None"),
    "algorithm": (lambda: OptimizerConfig(algorithm=["lbfgs"]), ConfigError,
                  r"unknown algorithm \['lbfgs'\]"),
    "init mean": (lambda: InitScheme(mean=True), ConfigError,
                  "init mean must be a finite real number, got True"),
    "init clip_low": (lambda: InitScheme(clip=(True, 1.0)), ConfigError,
                      "init clip_low must be a finite real number, got True"),
    "init clip_high": (lambda: InitScheme(clip=(-1.0, "1")), ConfigError,
                       "init clip_high must be a finite real number, got '1'"),
    "init clip scalar": (lambda: InitScheme(clip=0.5), ConfigError,
                         "init clip must be a pair, got 0.5"),
    "init clip triple": (lambda: InitScheme(clip=(0, 1, 2)), ConfigError,
                         r"init clip must be a pair, got \(0, 1, 2\)"),
}


@pytest.mark.parametrize("site", WRONG_INPUTS)
def test_a_wrong_api_input_fails_at_construction(site):
    call, error, message = WRONG_INPUTS[site]
    with pytest.raises(error, match=f"^{message}$") as info:
        call()
    assert info.type is error


def test_lists_stay_accepted():
    cfg = ExperimentConfig(m=[6], noise_kinds=["charge"], noise_grid=[0.0, 0.1],
                           damping_grid=[0.01], warm_start=np.bool_(False))
    assert cfg.m == [6] and not cfg.warm_start
    assert InitScheme(mean=np.float64(0.5), clip=[0, 1]).clip == [0, 1]
