"""Coherent parameter perturbations and robustness sweeps."""

import numpy as np
import pytest

from spingate.ansatz import build_hva
from spingate.cost import CostEvaluator
from spingate.errors import NegativeAmplitude
from spingate.noise import (DEFAULT_DELTA_GRID, CoherentNoise, perturb,
                            robustness_sweep)
from spingate.optimize import MAX_COUNT
from spingate.seeding import derive_rng, derive_subseed
from spingate.targets import fredkin, toffoli


def test_charge_hits_couplings_only(spec3, rng):
    theta = rng.normal(size=15)
    noise = CoherentNoise(kind="charge", delta=0.07)
    out = perturb(theta, noise, spec3)
    assert np.array_equal(out[:9], theta[:9])  # locals untouched, bitwise
    assert np.allclose(out[9:], theta[9:] + 0.07)


def test_nuclear_hits_z_fields_only(spec3, rng):
    theta = rng.normal(size=15)
    noise = CoherentNoise(kind="nuclear", delta=0.03)
    out = perturb(theta, noise, spec3)
    zs = [2, 5, 8]
    others = [i for i in range(15) if i not in zs]
    assert np.array_equal(out[others], theta[others])
    assert np.allclose(out[zs], theta[zs] + 0.03)


def test_zero_delta_is_identity(spec3, rng):
    theta = rng.normal(size=15)
    for kind in ("charge", "nuclear"):
        noise = CoherentNoise(kind=kind, delta=0.0)
        assert np.array_equal(perturb(theta, noise, spec3), theta)


def test_uniform_mode_shared_draw(spec3, rng):
    theta = rng.normal(size=15)
    noise = CoherentNoise(kind="charge", delta=0.2, mode="uniform-sample", seed=5)
    out = perturb(theta, noise, spec3, realization=0)
    shifts = out[9:] - theta[9:]
    # one draw shared across all affected coordinates
    assert np.max(shifts) - np.min(shifts) < 1e-15
    assert 0.0 <= shifts[0] <= 0.2
    # and it is reproducible per (seed, realization)
    again = perturb(theta, noise, spec3, realization=0)
    assert np.array_equal(out, again)
    other = perturb(theta, noise, spec3, realization=1)
    assert not np.array_equal(out, other)


def test_noise_validation():
    with pytest.raises(ValueError):
        CoherentNoise(kind="thermal", delta=0.1)
    with pytest.raises(ValueError):
        CoherentNoise(kind="charge", delta=0.1, mode="gaussian")
    with pytest.raises(NegativeAmplitude):
        CoherentNoise(kind="charge", delta=-0.1)


def test_default_grid_shape():
    assert DEFAULT_DELTA_GRID[0] == 0.0
    assert len(DEFAULT_DELTA_GRID) == 21
    assert np.allclose(np.diff(DEFAULT_DELTA_GRID), 0.025)


@pytest.fixture(scope="module")
def cheap_eval():
    from spingate.hamiltonian import heisenberg_spec
    return CostEvaluator(build_hva(heisenberg_spec(3), 2), toffoli())


def test_robustness_sweep_deterministic_mode(cheap_eval, rng):
    theta = rng.normal(size=15)
    rows = robustness_sweep(cheap_eval, theta, "charge", [0.0, 0.05, 0.1])
    assert len(rows) == 3
    assert rows[0]["delta"] == 0.0
    assert rows[0]["std_fidelity"] == 0.0
    assert rows[0]["samples"] == 1
    # the zero point is just the unperturbed fidelity
    assert rows[0]["mean_fidelity"] == pytest.approx(
        cheap_eval.fidelity(theta), abs=1e-15)


def test_robustness_sweep_sampled_mode(cheap_eval, rng):
    theta = rng.normal(size=15)
    rows = robustness_sweep(cheap_eval, theta, "nuclear", [0.0, 0.1],
                            mode="uniform-sample", samples=25, seed=8)
    assert rows[1]["samples"] == 25
    assert rows[1]["std_fidelity"] > 0.0
    again = robustness_sweep(cheap_eval, theta, "nuclear", [0.0, 0.1],
                             mode="uniform-sample", samples=25, seed=8)
    assert rows[1]["mean_fidelity"] == again[1]["mean_fidelity"]


def test_robustness_sweep_grid_validation(cheap_eval):
    theta = np.zeros(15)
    with pytest.raises(ValueError):
        robustness_sweep(cheap_eval, theta, "charge", [0.1, 0.05])
    with pytest.raises(ValueError):
        robustness_sweep(cheap_eval, theta, "charge", [-0.1, 0.0])
    with pytest.raises(ValueError):
        robustness_sweep(cheap_eval, theta, "charge", [])
    with pytest.raises(ValueError):
        robustness_sweep(cheap_eval, theta, "charge", [0.0, np.nan])
    for mode in ("deterministic-shift", "uniform-sample"):
        with pytest.raises(ValueError, match="samples"):
            robustness_sweep(cheap_eval, theta, "charge", [0.0, 0.1], mode=mode, samples=0)


def per_realization_sweep(evaluator, theta_star, kind, delta_grid, mode, samples, seed):
    """Reference: one cost call per realization.

    Sampled shifts come straight from each grid point's one generator,
    derive_rng(noise.seed), with uniform(0.0, delta) called once per
    realization in order, not through perturb.
    """
    spec = evaluator.circuit.spec
    rows = []
    for gi, delta in enumerate(np.asarray(delta_grid, dtype=float)):
        noise = CoherentNoise(kind=kind, delta=float(delta), mode=mode,
                              seed=derive_subseed(seed, gi))
        if mode == "deterministic-shift" or delta == 0.0:
            f = 1.0 - evaluator.cost(perturb(theta_star, noise, spec))
            rows.append({"delta": float(delta), "mean_fidelity": f,
                         "std_fidelity": 0.0, "samples": 1})
        else:
            stream = derive_rng(noise.seed)
            fids = np.empty(samples)
            for r in range(samples):
                shifted = np.array(theta_star, dtype=float)
                shifted[noise.affected_indices(spec)] += stream.uniform(0.0, delta)
                fids[r] = 1.0 - evaluator.cost(shifted)
            rows.append({"delta": float(delta),
                         "mean_fidelity": float(fids.mean()),
                         "std_fidelity": float(fids.std()),
                         "samples": samples})
    return rows


@pytest.mark.parametrize("mode", ["uniform-sample", "deterministic-shift"])
@pytest.mark.parametrize("kind", ["charge", "nuclear"])
def test_stacked_sweep_equals_per_realization_loop(spec3, rng, kind, mode):
    ev = CostEvaluator(build_hva(spec3, 5), fredkin())
    theta = rng.uniform(-np.pi, np.pi, size=15)
    grid = DEFAULT_DELTA_GRID[::4]
    stacked = robustness_sweep(ev, theta, kind, grid, mode=mode, samples=37, seed=10)
    looped = per_realization_sweep(ev, theta, kind, grid, mode, 37, seed=10)
    assert stacked == looped  # exact float equality in every field


def test_sweep_counts_every_realization(cheap_eval, rng):
    before = cheap_eval.eval_count
    robustness_sweep(cheap_eval, rng.normal(size=15), "charge", [0.0, 0.05, 0.1],
                     mode="uniform-sample", samples=20, seed=2)
    assert cheap_eval.eval_count - before == 1 + 20 + 20


def sweep_stacks(monkeypatch, evaluator, theta, samples):
    """The stacks a sampled nuclear sweep at seed 3 hands to `costs`."""
    stacks = []
    costs = CostEvaluator.costs

    def recording(self, stack):
        stacks.append(stack.copy())
        return costs(self, stack)

    with monkeypatch.context() as patch:
        patch.setattr(CostEvaluator, "costs", recording)
        robustness_sweep(evaluator, theta, "nuclear", [0.0, 0.05, 0.1],
                         mode="uniform-sample", samples=samples, seed=3)
    return stacks


def test_sampled_realizations_are_prefix_stable(cheap_eval, rng, monkeypatch):
    theta = rng.normal(size=15)
    short = sweep_stacks(monkeypatch, cheap_eval, theta, 10)
    long = sweep_stacks(monkeypatch, cheap_eval, theta, 37)
    assert [len(s) for s in short] == [1, 10, 10]
    assert [len(s) for s in long] == [1, 37, 37]
    for a, b in zip(short[1:], long[1:]):
        assert np.array_equal(a, b[:10])


def test_perturb_equals_row_of_sweep_stack(cheap_eval, rng, monkeypatch):
    theta = rng.normal(size=15)
    stacks = sweep_stacks(monkeypatch, cheap_eval, theta, 12)
    spec = cheap_eval.circuit.spec
    for gi, delta in ((1, 0.05), (2, 0.1)):
        noise = CoherentNoise(kind="nuclear", delta=delta, mode="uniform-sample",
                              seed=derive_subseed(3, gi))
        for r in (0, 5, 11):
            assert np.array_equal(perturb(theta, noise, spec, realization=r), stacks[gi][r])


def test_realization_and_sample_bounds(cheap_eval, spec3):
    theta = np.zeros(15)
    noise = CoherentNoise(kind="charge", delta=0.1, mode="uniform-sample", seed=1)
    for r in (-1, MAX_COUNT):
        with pytest.raises(ValueError, match="realization"):
            perturb(theta, noise, spec3, realization=r)
    assert perturb(theta, noise, spec3, realization=MAX_COUNT - 1)[9] > 0.0
    for mode in ("deterministic-shift", "uniform-sample"):
        with pytest.raises(ValueError, match="samples"):
            robustness_sweep(cheap_eval, theta, "charge", [0.0, 0.1], mode=mode,
                             samples=MAX_COUNT + 1)
