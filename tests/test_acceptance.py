"""Release gate: every shipping criterion as one pass/fail test.

Run with `pytest -v tests/test_acceptance.py`; the verbose lines are the
per-criterion verdicts.  Each test prints its measured numbers so a
failure carries the evidence with it.  Heavy fixtures (the two reference
compilations, the depth sweep, the damping sweeps) are module-scoped and
shared.  Everything below runs at master seed 10.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from spingate.ansatz import build_hva, circuit_unitary
from spingate.cost import CostEvaluator
from spingate.hamiltonian import assemble, heisenberg_spec, wrap_angles
from spingate.harness import (_STREAM_NOISE, ExperimentConfig,
                              run_damping_sweep, run_experiment,
                              run_grad_stats)
from spingate.linalg import dagger, hermitian_expm, is_unitary
from spingate.noise import DEFAULT_DELTA_GRID, robustness_sweep
from spingate.optimize import (InitScheme, OptimizerConfig, multi_restart,
                               run_single_restart)
from spingate.seeding import derive_subseed
from spingate.simulator import NoisyCircuitPlan, amplitude_damping
from spingate.targets import elementary, fredkin, resolve_target, toffoli

MASTER_SEED = 10
GATE_DEPTH = {"toffoli": 6, "fredkin": 5}


def _compile_gate(name):
    target = resolve_target(name)
    spec = heisenberg_spec(target.n)
    circuit = build_hva(spec, GATE_DEPTH[name])
    evaluator = CostEvaluator(circuit, target, mode="exact-trace")
    start = time.perf_counter()
    summary = multi_restart(evaluator, InitScheme(seed=MASTER_SEED),
                            OptimizerConfig(algorithm="lbfgs", restarts=10))
    elapsed = time.perf_counter() - start
    return {"spec": spec, "circuit": circuit, "evaluator": evaluator,
            "summary": summary, "elapsed_s": elapsed, "target": target}


@pytest.fixture(scope="module")
def toffoli_run():
    return _compile_gate("toffoli")


@pytest.fixture(scope="module")
def fredkin_run():
    return _compile_gate("fredkin")


@pytest.fixture(scope="module")
def trotter_table():
    """Fidelity statistics per depth for the Toffoli target, m = 1..8."""
    target = toffoli()
    spec = heisenberg_spec(3)
    table = {}
    for m in range(1, 9):
        evaluator = CostEvaluator(build_hva(spec, m), target, mode="exact-trace")
        summary = multi_restart(evaluator, InitScheme(seed=MASTER_SEED),
                                OptimizerConfig(algorithm="lbfgs", restarts=10))
        fid = 1.0 - np.array([t.final_cost for t in summary.traces])
        table[m] = {"mean": float(fid.mean()), "std": float(fid.std()),
                    "best": float(fid.max())}
    return table


def _noise_curves(run):
    theta_star = run["summary"].traces[run["summary"].best_index].final_theta
    seed = derive_subseed(MASTER_SEED, _STREAM_NOISE)
    return {kind: robustness_sweep(run["evaluator"], theta_star, kind,
                                   DEFAULT_DELTA_GRID, seed=seed)
            for kind in ("charge", "nuclear")}


@pytest.fixture(scope="module")
def toffoli_noise(toffoli_run):
    return _noise_curves(toffoli_run)


@pytest.fixture(scope="module")
def fredkin_noise(fredkin_run):
    return _noise_curves(fredkin_run)


def _damping_means(target, tmp_root):
    cfg = ExperimentConfig(
        kind="damping-sweep", target=target, m=(GATE_DEPTH[target],),
        master_seed=MASTER_SEED, damping_restarts=20,
        output_dir=str(tmp_root / f"damping-{target}"))
    record = run_damping_sweep(cfg)
    return [(float(p), record.results["per_point"][repr(float(p))]["mean_fidelity"])
            for p in cfg.damping_grid]


@pytest.fixture(scope="module")
def toffoli_damping(tmp_path_factory):
    return _damping_means("toffoli", tmp_path_factory.mktemp("accept"))


@pytest.fixture(scope="module")
def fredkin_damping(tmp_path_factory):
    return _damping_means("fredkin", tmp_path_factory.mktemp("accept"))


def test_criterion_01_toffoli_compilation(toffoli_run):
    best = toffoli_run["summary"].traces[toffoli_run["summary"].best_index]
    print(f"criterion 1: toffoli m=6 best infidelity {best.final_cost:.3e}, "
          f"{best.iterations} iterations, {toffoli_run['elapsed_s']:.1f} s")
    assert best.final_cost < 1e-4
    assert best.converged
    assert best.iterations <= 200
    assert toffoli_run["elapsed_s"] < 60.0


def test_criterion_02_fredkin_compilation(fredkin_run):
    best = fredkin_run["summary"].traces[fredkin_run["summary"].best_index]
    print(f"criterion 2: fredkin m=5 best infidelity {best.final_cost:.3e}, "
          f"{best.iterations} iterations, {fredkin_run['elapsed_s']:.1f} s")
    assert best.final_cost < 1e-4
    assert fredkin_run["elapsed_s"] < 60.0


def test_criterion_03a_trotter_sweep_midpoint(trotter_table):
    mean3 = trotter_table[3]["mean"]
    print(f"criterion 3a: mean fidelity at m=3 is {mean3:.4f}")
    assert 0.70 <= mean3 <= 0.90


def test_criterion_03b_trotter_sweep_monotone_within_std(trotter_table):
    # adjacent depths may trade places only inside the pooled
    # restart-to-restart scatter
    for m in range(1, 8):
        a, b = trotter_table[m], trotter_table[m + 1]
        pooled = float(np.sqrt((a["std"] ** 2 + b["std"] ** 2) / 2.0))
        drop = a["mean"] - b["mean"]
        print(f"criterion 3b: m={m}->{m + 1} mean {a['mean']:.4f}->{b['mean']:.4f} "
              f"pooled std {pooled:.4f}")
        assert drop <= pooled


def test_criterion_03c_trotter_sweep_high_depth(trotter_table):
    # the best of ten restarts beats fidelity 0.9999 at every depth m = 6, 7, 8
    for m in (6, 7, 8):
        best = trotter_table[m]["best"]
        print(f"criterion 3c: m={m} best fidelity {best:.6f}")
    for m in (6, 7, 8):
        assert trotter_table[m]["best"] > 0.9999


def _random_thetas(count, scale=1.0, seed=99):
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return [np.clip(rng.normal(0.0, scale, 15), -np.pi, np.pi)
            for _ in range(count)]


def test_criterion_04a_statevector_matches_trace(toffoli_run):
    circuit = build_hva(toffoli_run["spec"], 2)
    trace_ev = CostEvaluator(circuit, toffoli_run["target"], mode="exact-trace")
    sv_ev = CostEvaluator(circuit, toffoli_run["target"],
                          mode="hs-test-statevector")
    worst = max(abs(sv_ev.cost(t) - trace_ev.cost(t))
                for t in _random_thetas(100))
    print(f"criterion 4a: statevector vs trace, worst gap {worst:.2e} over 100 draws")
    assert worst < 1e-10


def test_criterion_04b_density_matches_statevector(toffoli_run):
    circuit = build_hva(toffoli_run["spec"], 2)
    plan = NoisyCircuitPlan(circuit=circuit, channel=amplitude_damping(0.0))
    dm_ev = CostEvaluator(circuit, toffoli_run["target"],
                          mode="hs-test-density", plan=plan)
    sv_ev = CostEvaluator(circuit, toffoli_run["target"],
                          mode="hs-test-statevector")
    worst = max(abs(dm_ev.cost(t) - sv_ev.cost(t))
                for t in _random_thetas(100))
    print(f"criterion 4b: noiseless density vs statevector, worst gap {worst:.2e}")
    assert worst < 1e-10


def test_criterion_04c_adjoint_matches_central_differences(toffoli_run):
    circuit = build_hva(toffoli_run["spec"], 2)
    evaluator = CostEvaluator(circuit, toffoli_run["target"], mode="exact-trace")
    worst = 0.0
    for theta in _random_thetas(20, seed=7):
        gap = np.max(np.abs(evaluator.gradient(theta, method="adjoint")
                            - evaluator.gradient(theta, method="central-diff")))
        worst = max(worst, float(gap))
    print(f"criterion 4c: adjoint vs central differences, worst gap {worst:.2e}")
    assert worst < 1e-6


def test_criterion_04d_circuit_matches_dense_oracle(toffoli_run):
    # independent route: eigendecomposition exponentials of the dense
    # generators, multiplied in ansatz order, raised to the layer count
    spec = toffoli_run["spec"]
    circuit = build_hva(spec, 3)
    generators = spec.matrices()
    worst = 0.0
    for theta in _random_thetas(12, seed=41):
        layer = np.eye(8, dtype=complex)
        for j in range(spec.q):
            layer = hermitian_expm(theta[j] * generators[j]) @ layer
        dense = np.linalg.matrix_power(layer, 3)
        gap = np.max(np.abs(circuit_unitary(circuit, theta) - dense))
        worst = max(worst, float(gap))
    print(f"criterion 4d: circuit vs dense oracle, worst gap {worst:.2e}")
    assert worst < 1e-10


def test_criterion_05_structural_invariants():
    rng = np.random.default_rng(np.random.SeedSequence([5]))

    for mat in (toffoli().matrix, fredkin().matrix,
                elementary("H"), elementary("CNOT")):
        assert is_unitary(mat, tol=1e-10)

    for p in (0.0, 0.003, 0.01, 0.2, 1.0):
        comp = sum(dagger(k) @ k for k in amplitude_damping(p).operators)
        assert np.max(np.abs(comp - np.eye(2))) < 1e-10

    spec = heisenberg_spec(3)
    for _ in range(5):
        h = assemble(spec, rng.normal(0.0, 1.0, spec.q))
        assert np.max(np.abs(h - dagger(h))) < 1e-12
        assert abs(np.trace(h)) < 1e-12

    # period of the cost in every coordinate is exactly 2pi: shifted
    # evaluations agree to rounding, and folding an already-wide vector
    # through the canonical wrap changes nothing bit for bit
    evaluator = CostEvaluator(build_hva(spec, 2), toffoli(), mode="exact-trace")
    worst = 0.0
    for theta in _random_thetas(10, seed=3):
        base = evaluator.cost(theta)
        for j in (0, 7, 14):
            shifted = theta.copy()
            shifted[j] += 2.0 * np.pi
            worst = max(worst, abs(evaluator.cost(shifted) - base))
        worst = max(worst, abs(evaluator.cost(theta - 2.0 * np.pi) - base))
        worst = max(worst, abs(evaluator.cost(theta + 4.0 * np.pi) - base))
    for _ in range(10):
        wide = rng.normal(0.0, 30.0, spec.q)
        assert evaluator.cost(wrap_angles(wide)) == evaluator.cost(wide)
    print(f"criterion 5: worst periodicity gap {worst:.2e}")
    assert worst < 1e-12


def _grid_stats(curves):
    out = {}
    for kind, rows in curves.items():
        fid = [r["mean_fidelity"] for r in rows]
        out[kind] = {"f0": fid[0],
                     "auc": float(np.mean(fid[1:])),
                     "fid": fid}
    return out


def test_criterion_06a_toffoli_noise_ordering(toffoli_noise):
    stats = _grid_stats(toffoli_noise)
    nuc, ch = stats["nuclear"], stats["charge"]
    wins = sum(n < c for n, c in zip(nuc["fid"][1:], ch["fid"][1:]))
    print(f"criterion 6a: toffoli grid-mean nuclear {nuc['auc']:.4f} "
          f"< charge {ch['auc']:.4f}; pointwise {wins}/20")
    # nuclear noise hurts the compiled toffoli more than charge noise,
    # both on aggregate and at most matched grid points
    assert nuc["auc"] < ch["auc"]
    assert wins > 10


def test_criterion_06b_fredkin_noise_ordering(fredkin_noise):
    stats = _grid_stats(fredkin_noise)
    nuc, ch = stats["nuclear"], stats["charge"]
    wins = sum(c < n for n, c in zip(nuc["fid"][1:], ch["fid"][1:]))
    print(f"criterion 6b: fredkin grid-mean charge {ch['auc']:.4f} "
          f"< nuclear {nuc['auc']:.4f}; pointwise {wins}/20")
    assert ch["auc"] < nuc["auc"]
    assert wins > 10


def test_criterion_06c_noise_endpoints_and_continuity(toffoli_noise,
                                                      fredkin_noise):
    worst_step = 0.0
    for curves in (toffoli_noise, fredkin_noise):
        for kind, rows in curves.items():
            fid = np.array([r["mean_fidelity"] for r in rows])
            assert fid[0] > 0.9999
            worst_step = max(worst_step, float(np.max(np.abs(np.diff(fid)))))
    print(f"criterion 6c: endpoints above 0.9999, largest grid step {worst_step:.3f}")
    # the curves descend smoothly on the 0.025-spaced grid; a jump would
    # signal a discontinuity in the noise response
    assert worst_step < 0.25


def _check_damping(points, band_001, label):
    means = [f for _, f in points]
    print(f"criterion 7 ({label}): " +
          ", ".join(f"p={p:g}:{f:.4f}" for p, f in points))
    assert all(b < a for a, b in zip(means, means[1:])), "not strictly decreasing"
    by_p = dict(points)
    assert band_001[0] <= by_p[0.01] <= band_001[1]
    assert 0.70 <= by_p[0.02] <= 0.90


def test_criterion_07a_toffoli_damping(toffoli_damping):
    _check_damping(toffoli_damping, (0.87, 0.97), "toffoli")


def test_criterion_07b_fredkin_damping(fredkin_damping):
    _check_damping(fredkin_damping, (0.85, 0.95), "fredkin")


def test_criterion_08_gradient_variance(tmp_path):
    cfg = ExperimentConfig(kind="grad-stats", m=(6,), master_seed=MASTER_SEED,
                           grad_samples=100, output_dir=str(tmp_path))
    record = run_grad_stats(cfg)
    for m in range(1, 7):
        v = record.results["per_m"][str(m)]["min_coordinate_variance"]
        print(f"criterion 8: m={m} smallest coordinate variance {v:.2e}")
        assert v > 1e-6


def _masked_record(path):
    d = json.loads(path.read_text())
    for key in ("created_utc", "run_dir"):
        d.pop(key)
    d["config"].pop("output_dir")
    return d


def _stable_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    if "elapsed_ms" not in header:
        return lines
    keep = [i for i, name in enumerate(header) if name != "elapsed_ms"]
    return [",".join(line.split(",")[i] for i in keep) for line in lines]


def test_criterion_09a_reruns_are_bit_identical(tmp_path):
    fast = OptimizerConfig(algorithm="lbfgs", max_iters=12, restarts=2)
    loose = OptimizerConfig(algorithm="lbfgs", max_iters=8, restarts=2,
                            cost_tolerance=0.5, spread_tolerance=1e-2)
    configs = [
        ExperimentConfig(kind="compile", m=(1,), optimizer=fast),
        ExperimentConfig(kind="trotter-sweep", m=(2,), optimizer=fast),
        ExperimentConfig(kind="coherent-noise-sweep", m=(1,), optimizer=fast,
                         noise_mode="uniform-sample", noise_samples=10,
                         noise_grid=(0.0, 0.05, 0.1)),
        ExperimentConfig(kind="damping-sweep", m=(1,), optimizer=loose,
                         damping_grid=(0.0, 0.5), damping_restarts=2),
        ExperimentConfig(kind="grad-stats", m=(2,), grad_samples=5),
    ]
    for cfg in configs:
        pair = []
        for run in ("a", "b"):
            out = tmp_path / f"{cfg.kind}-{run}"
            record = run_experiment(dataclasses.replace(cfg, output_dir=str(out)))
            pair.append((out / record.run_dir.split("/")[-1], record))
        (dir_a, rec_a), (dir_b, rec_b) = pair
        assert _masked_record(dir_a / "run_record.json") \
            == _masked_record(dir_b / "run_record.json"), cfg.kind
        for name in rec_a.csv_files:
            assert _stable_csv(dir_a / name) == _stable_csv(dir_b / name), \
                f"{cfg.kind}/{name}"
        print(f"criterion 9a: {cfg.kind} re-run bit-identical")


def test_criterion_09b_concurrent_restarts_match_serial(toffoli_run):
    circuit = build_hva(toffoli_run["spec"], 2)
    evaluator = CostEvaluator(circuit, toffoli_run["target"], mode="exact-trace")
    init = InitScheme(seed=MASTER_SEED)
    cfg = OptimizerConfig(algorithm="lbfgs", max_iters=60, restarts=4)
    serial = [run_single_restart(evaluator, init, cfg, i) for i in range(cfg.restarts)]
    lockstep = multi_restart(evaluator, init, cfg)
    for s, t in zip(serial, lockstep.traces, strict=True):
        assert s.final_cost == t.final_cost
        np.testing.assert_array_equal(s.final_theta, t.final_theta)
        np.testing.assert_array_equal(np.asarray(s.costs), np.asarray(t.costs))
    print("criterion 9b: lockstep restarts match single restarts bit for bit")
