"""Cost definition, route agreement, and gradients."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spingate.ansatz import build_hva, circuit_unitary, gate_matrices
from spingate.cost import COST_CHUNK_ROWS, CostEvaluator
from spingate.errors import (DimMismatch, LengthMismatch, NoisyModeUnsupported,
                             NumericalFailure)
from spingate.hamiltonian import heisenberg_spec, wrap_angles
from spingate.linalg import dagger
from spingate.optimize import InitScheme
from spingate.simulator import (KrausChannel, NoisyCircuitPlan,
                                amplitude_damping, bell_prep_state,
                                evolve_density, readout_vector)
from spingate.targets import fredkin, toffoli


def make_eval(spec3, m=2, mode="exact-trace", target=None, plan=None):
    c = build_hva(spec3, m)
    return CostEvaluator(c, target or toffoli(), mode=mode, plan=plan)


def test_cost_at_zero_is_hand_value(spec3):
    # theta = 0 gives U = I; Tr(V^dag I) = 6 for either permutation target,
    # so C = 1 - 36/64 = 0.4375 independent of depth
    for target in (toffoli(), fredkin()):
        for m in (1, 4, 6):
            ev = make_eval(spec3, m=m, target=target)
            assert ev.cost(np.zeros(15)) == pytest.approx(0.4375, abs=1e-14)


def test_cost_range_and_fidelity(spec3, rng):
    ev = make_eval(spec3)
    for _ in range(20):
        theta = rng.normal(size=15)
        cval = ev.cost(theta)
        assert 0.0 <= cval <= 1.0
        assert ev.fidelity(theta) == pytest.approx(1.0 - cval, abs=1e-15)


def test_modes_agree_noiseless(spec3, rng):
    """Exact-trace and the literal overlap-test circuit give one cost."""
    a = make_eval(spec3, mode="exact-trace")
    b = make_eval(spec3, mode="hs-test-statevector")
    for _ in range(10):
        theta = rng.normal(size=15)
        assert abs(a.cost(theta) - b.cost(theta)) < 1e-12


def test_density_mode_p0_matches_noiseless(spec3, rng):
    c = build_hva(spec3, 2)
    target = toffoli()
    plan = NoisyCircuitPlan(c, amplitude_damping(0.0))
    a = CostEvaluator(c, target, mode="exact-trace")
    b = CostEvaluator(c, target, mode="hs-test-density", plan=plan)
    for _ in range(5):
        theta = rng.normal(size=15)
        assert abs(a.cost(theta) - b.cost(theta)) < 1e-10


def depolarizing(p):
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0]))
    return KrausChannel(f"depolarizing(p={p:g})",
                        (np.sqrt(1 - 0.75 * p) * np.eye(2),
                         *(np.sqrt(p / 4) * s for s in paulis)))


def test_density_fastpath_matches_literal_evolution(spec3, rng):
    """The superoperator shortcut must track the straight density route.

    Amplitude damping's superoperator is nearly diagonal and can hide a
    basis or sign error that only shows once steps compose, so a
    depolarizing channel and a partial qubit set are checked as well.
    """
    u = bell_prep_state(3)
    rho0 = np.outer(u, u.conj())
    for target in (toffoli(), fredkin()):
        w = readout_vector(target)
        for m in (1, 2, 5):
            c = build_hva(spec3, m)
            for p in (0.0, 0.08, 0.5):
                for channel in (amplitude_damping(p), depolarizing(p)):
                    for qubits in (None, (1, 3)):
                        for placement in ("after-each-layer", "after-each-gate",
                                          "final-only"):
                            plan = NoisyCircuitPlan(c, channel, placement, qubits)
                            ev = CostEvaluator(c, target, mode="hs-test-density",
                                               plan=plan)
                            theta = rng.normal(size=15)
                            rho = evolve_density(plan, theta, rho0)
                            literal = 1.0 - (w.conj() @ rho @ w).real
                            assert abs(ev.cost(theta) - literal) < 1e-12


def test_cost_periodicity(spec3, rng):
    """Shifting any coordinate by 2*pi moves the cost by at most float
    rounding in the shifted coordinate itself."""
    ev = make_eval(spec3)
    theta = rng.uniform(-np.pi, np.pi, size=15)
    base = ev.cost(theta)
    for j in (0, 4, 9, 14):
        up = theta.copy()
        up[j] += 2.0 * np.pi
        assert abs(ev.cost(up) - base) < 1e-12
        dn = theta.copy()
        dn[j] -= 4.0 * np.pi
        assert abs(ev.cost(dn) - base) < 1e-12


def test_cost_wrap_invariance_bitwise(spec3, rng):
    # wrapping happens on entry and is idempotent, so pre-wrapping a vector
    # (in-window or not) never changes the returned float
    ev = make_eval(spec3)
    for scale in (1.0, 30.0):
        theta = rng.uniform(-scale, scale, size=15)
        assert ev.cost(theta) == ev.cost(wrap_angles(theta))


def test_eval_count_increments(spec3, rng):
    ev = make_eval(spec3)
    assert ev.eval_count == 0
    ev.cost(rng.normal(size=15))
    ev.cost(rng.normal(size=15))
    assert ev.eval_count == 2
    ev.gradient(rng.normal(size=15), method="central-diff")
    assert ev.eval_count == 2 + 30  # 2Q extra cost calls


def test_adjoint_gradient_matches_central_diff(spec3, rng):
    ev = make_eval(spec3, m=3)
    for _ in range(5):
        theta = rng.normal(size=15)
        adj = ev.gradient(theta, method="adjoint")
        fd = ev.gradient(theta, method="central-diff")
        assert np.max(np.abs(adj - fd)) < 1e-6


def test_gradient_zero_at_exact_compilation(spec3):
    """At theta = 0 with target = identity the cost sits at a minimum."""
    from spingate.targets import TargetGate
    ident = TargetGate("ident", np.eye(8))
    ev = make_eval(spec3, target=ident)
    g = ev.gradient(np.zeros(15))
    assert np.max(np.abs(g)) < 1e-12
    assert ev.cost(np.zeros(15)) < 1e-15


def test_gradient_checks(spec3, rng):
    c = build_hva(spec3, 2)
    plan = NoisyCircuitPlan(c, amplitude_damping(0.1))
    noisy = CostEvaluator(c, toffoli(), mode="hs-test-density", plan=plan)
    with pytest.raises(NoisyModeUnsupported):
        noisy.gradient(np.zeros(15))
    with pytest.raises(NoisyModeUnsupported):
        noisy.gradients(np.zeros((2, 15)))
    ev = make_eval(spec3)
    with pytest.raises(ValueError):
        ev.gradient(np.zeros(15), method="forward")
    with pytest.raises(LengthMismatch):
        ev.cost(np.zeros(16))
    for bad in (np.zeros(15), np.zeros((3, 16))):
        with pytest.raises(LengthMismatch):
            ev.gradients(bad)
    stack = np.zeros((3, 15))
    stack[1, 4] = np.nan
    with pytest.raises(NumericalFailure):
        ev.gradients(stack)


def test_evaluator_validation(spec3):
    c = build_hva(spec3, 1)
    with pytest.raises(ValueError):
        CostEvaluator(c, toffoli(), mode="guess")
    with pytest.raises(ValueError):
        CostEvaluator(c, toffoli(), mode="hs-test-density")  # plan required
    two_site = heisenberg_spec(2)
    with pytest.raises(DimMismatch):
        CostEvaluator(build_hva(two_site, 1), toffoli())


def test_gradient_stats_reproducible(spec3):
    ev = make_eval(spec3)
    init = InitScheme(sigma=0.5, seed=3)
    a = ev.gradient_stats(20, init, seed=42)
    b = ev.gradient_stats(20, init, seed=42)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.variance, b.variance)
    assert a.samples == 20
    assert a.variance.shape == (15,)
    c = ev.gradient_stats(20, init, seed=43)
    assert not np.array_equal(a.variance, c.variance)
    with pytest.raises(ValueError):
        ev.gradient_stats(0, init, seed=1)


def test_cost_against_raw_trace(spec3, rng):
    # independent reassembly of the definition from raw matrices
    ev = make_eval(spec3, m=2)
    target = toffoli()
    theta = rng.normal(size=15)
    u = circuit_unitary(ev.circuit, theta)
    t = np.trace(dagger(target.matrix) @ u)
    assert abs(ev.cost(theta) - (1.0 - abs(t) ** 2 / 64.0)) < 1e-14


@functools.lru_cache(maxsize=None)
def _stack_evaluator(target_name, m):
    target = toffoli() if target_name == "toffoli" else fredkin()
    return CostEvaluator(build_hva(heisenberg_spec(3), m), target)


@settings(max_examples=120, deadline=None)
@given(target_name=st.sampled_from(["toffoli", "fredkin"]),
       m=st.sampled_from([1, 5, 6, 12]),
       rows=st.integers(min_value=1, max_value=40),
       scale=st.sampled_from([1.0, np.pi, 30.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       shared=st.integers(min_value=0, max_value=15))
@example(target_name="toffoli", m=6, rows=COST_CHUNK_ROWS, scale=30.0, seed=1, shared=0)
@example(target_name="fredkin", m=6, rows=COST_CHUNK_ROWS + 1, scale=30.0, seed=2, shared=0)
@example(target_name="fredkin", m=5, rows=2 * COST_CHUNK_ROWS + 3, scale=np.pi, seed=1,
         shared=9)
@example(target_name="toffoli", m=12, rows=COST_CHUNK_ROWS + 1, scale=30.0, seed=2, shared=15)
def test_stacked_costs_equal_single_costs_bitwise(target_name, m, rows, scale, seed, shared):
    # rows up to 40 cross the chunk edges; |angles| up to 30 exercise
    # wrapping; every row holds row 0's first `shared` coordinates, as a
    # noise stack does before its first shifted term (15: all rows equal)
    ev = _stack_evaluator(target_name, m)
    stack = np.random.default_rng(seed).uniform(-scale, scale, size=(rows, 15))
    stack[:, :shared] = stack[0, :shared]
    single = np.array([ev.cost(row) for row in stack])
    assert ev.costs(stack).tobytes() == single.tobytes()


@settings(max_examples=60, deadline=None)
@given(target_name=st.sampled_from(["toffoli", "fredkin"]),
       m=st.sampled_from([1, 6, 12]),
       rows=st.integers(min_value=1, max_value=40),
       scale=st.sampled_from([1.0, np.pi, 30.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(target_name="toffoli", m=6, rows=COST_CHUNK_ROWS, scale=30.0, seed=1)
@example(target_name="fredkin", m=6, rows=COST_CHUNK_ROWS + 1, scale=30.0, seed=2)
def test_stacked_gradients_equal_single_gradients_bitwise(target_name, m, rows, scale, seed):
    # rows up to 40 cross the chunk edges; |angles| up to 30 exercise wrapping
    ev = _stack_evaluator(target_name, m)
    stack = np.random.default_rng(seed).uniform(-scale, scale, size=(rows, 15))
    single = np.array([ev.gradient(row) for row in stack])
    assert np.array_equal(ev.gradients(stack), single)
    assert np.array_equal(single[0], _adjoint_gradient_one_vector(ev, stack[0]))


def _adjoint_gradient_one_vector(ev, theta):
    """The shared-layer adjoint sweep for one vector, with unstacked products."""
    circuit, v_dag, d = ev.circuit, ev.target.matrix.conj().T, 8
    gs = gate_matrices(circuit, wrap_angles(theta))
    fwd = np.empty_like(gs)
    fwd[0] = gs[0]
    for j in range(1, len(gs)):
        fwd[j] = gs[j] @ fwd[j - 1]
    powers = [np.eye(d, dtype=complex)]
    for _ in range(circuit.m - 1):
        powers.append(fwd[-1] @ powers[-1])
    t_val = np.trace(v_dag @ fwd[-1] @ powers[-1])
    back = np.empty_like(gs)
    back[-1] = sum(powers[l] @ v_dag @ powers[circuit.m - 1 - l] for l in range(circuit.m))
    for j in range(len(gs) - 2, -1, -1):
        back[j] = back[j + 1] @ gs[j + 1]
    dt = -1j * np.einsum("jab,jbc,jca->j", circuit.spec.matrices(), fwd, back)
    return -(2.0 / (d * d)) * (np.conj(t_val) * dt).real


def test_costs_other_modes_follow_cost(spec3, rng):
    stack = rng.normal(size=(3, 15))
    sv = make_eval(spec3, mode="hs-test-statevector")
    assert np.array_equal(sv.costs(stack), [sv.cost(row) for row in stack])
    plan = NoisyCircuitPlan(build_hva(spec3, 2), amplitude_damping(0.05))
    dens = make_eval(spec3, mode="hs-test-density", plan=plan)
    assert np.array_equal(dens.costs(stack), [dens.cost(row) for row in stack])


def test_costs_eval_count_grows_by_rows(spec3, rng):
    for mode in ("exact-trace", "hs-test-statevector"):
        ev = make_eval(spec3, mode=mode)
        ev.costs(rng.normal(size=(37, 15)))
        assert ev.eval_count == 37
        ev.cost(rng.normal(size=15))
        assert ev.eval_count == 38


def test_costs_rejects_wrong_shapes(spec3):
    ev = make_eval(spec3)
    for bad in (np.zeros(15), np.zeros((4, 14)), np.zeros((2, 3, 15)), np.float64(0.0)):
        with pytest.raises(LengthMismatch):
            ev.costs(bad)
    assert ev.eval_count == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cost_rejects_non_finite_parameters(spec3, bad):
    ev = make_eval(spec3)
    theta = np.zeros(15)
    theta[3] = bad
    with pytest.raises(NumericalFailure):
        ev.cost(theta)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_costs_rejects_non_finite_parameters(spec3, bad):
    ev = make_eval(spec3)
    stack = np.zeros((20, 15))
    stack[17, 3] = bad
    with pytest.raises(NumericalFailure):
        ev.costs(stack)


@pytest.mark.parametrize("method", ["adjoint", "central-diff"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gradient_rejects_non_finite_parameters(spec3, method, bad):
    ev = make_eval(spec3)
    theta = np.zeros(15)
    theta[3] = bad
    with pytest.raises(NumericalFailure):
        ev.gradient(theta, method=method)
