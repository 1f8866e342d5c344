"""Kraus channels and the two-register overlap-test routes."""

import numpy as np
import pytest

from spingate.ansatz import build_hva, circuit_unitary
from spingate.errors import DimMismatch, OutOfRange
from spingate.hamiltonian import heisenberg_spec
from spingate.linalg import dagger, kron
from spingate.simulator import (KrausChannel, NoisyCircuitPlan,
                                _channel_on_qubits, amplitude_damping,
                                bell_prep_state, evolve_density,
                                hs_test_probability, readout_vector)
from spingate.targets import TargetGate, elementary, toffoli


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ dagger(a)
    return rho / np.trace(rho)


def test_amplitude_damping_kraus_algebra():
    for p in (0.0, 0.005, 0.1, 0.5, 1.0):
        ch = amplitude_damping(p)
        comp = sum(dagger(k) @ k for k in ch.operators)
        assert np.max(np.abs(comp - np.eye(2))) < 1e-12


def test_amplitude_damping_action():
    ch = amplitude_damping(0.3)
    rho1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    out = sum(k @ rho1 @ dagger(k) for k in ch.operators)
    # excited population decays by exactly p
    assert abs(out[1, 1] - 0.7) < 1e-14
    assert abs(out[0, 0] - 0.3) < 1e-14
    # ground state is a fixed point
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    out0 = sum(k @ rho0 @ dagger(k) for k in ch.operators)
    assert np.max(np.abs(out0 - rho0)) < 1e-14


def test_amplitude_damping_range():
    for bad in (-0.1, 1.1, np.nan, np.inf):
        with pytest.raises(OutOfRange):
            amplitude_damping(bad)


def test_kraus_channel_validation():
    with pytest.raises(OutOfRange):
        KrausChannel("broken", (np.eye(2) * 0.9,))
    with pytest.raises(DimMismatch):
        KrausChannel("shape", (np.eye(4),))


def test_channel_step_agrees_with_kraus_sums(spec3, rng, random_channel):
    """The oracle's per-qubit channel step is the Kraus sum on one qubit,
    and on three it is the sum over the fast path's register operators."""
    ch = random_channel(2)
    rho = random_density(rng, 2)
    direct = sum(k @ rho @ dagger(k) for k in ch.operators)
    assert np.max(np.abs(_channel_on_qubits(rho, ch, 1) - direct)) < 1e-14
    rho = random_density(rng, 8)
    ops = NoisyCircuitPlan(build_hva(spec3, 1), ch).register_kraus()
    direct = sum(a @ rho @ dagger(a) for a in ops)
    assert np.max(np.abs(_channel_on_qubits(rho, ch, 3) - direct)) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_register_kraus_order(random_channel, n):
    """Row k is E[k_1] (x) ... (x) E[k_n], (k_1 ... k_n) the bits of k, qubit 1 leading."""
    ch = random_channel(2)
    ops = NoisyCircuitPlan(build_hva(heisenberg_spec(n), 1), ch).register_kraus()
    assert ops.shape == (2 ** n, 2 ** n, 2 ** n)
    for k, op in enumerate(ops):
        digits = [(k >> (n - 1 - i)) & 1 for i in range(n)]
        expect = kron(*(ch.operators[b] for b in digits))
        assert np.max(np.abs(op - expect)) < 1e-15


def test_bell_prep_state():
    """|Phi> has amplitude 1/sqrt(2^n) exactly on the paired indices i,i."""
    for n in (1, 2, 3):
        psi = bell_prep_state(n)
        d = 2 ** n
        expect = np.zeros(d * d, dtype=complex)
        for i in range(d):
            expect[i * d + i] = 1.0 / np.sqrt(d)
        assert np.max(np.abs(psi - expect)) < 1e-14


def test_readout_vector_overlap_identity(spec3, rng):
    # <w| (U (x) I)|Phi> = Tr(V^dag U) / d, the trace identity behind the test
    target = toffoli()
    w = readout_vector(target)
    c = build_hva(spec3, 2)
    theta = rng.normal(size=15)
    u = circuit_unitary(c, theta)
    phi = bell_prep_state(3)
    amp = np.vdot(w, kron(u, np.eye(8)) @ phi)
    expect = np.trace(dagger(target.matrix) @ u) / 8.0
    assert abs(amp - expect) < 1e-12


def test_evolve_density_pure_unitary_limit(spec3, rng):
    """With p = 0 every placement reduces to U rho U^dag."""
    c = build_hva(spec3, 3)
    theta = rng.normal(size=15)
    u = circuit_unitary(c, theta)
    rho = random_density(rng, 8)
    expect = u @ rho @ dagger(u)
    for placement in ("after-each-layer", "after-each-gate", "final-only"):
        plan = NoisyCircuitPlan(c, amplitude_damping(0.0), placement)
        out = evolve_density(plan, theta, rho)
        assert np.max(np.abs(out - expect)) < 1e-11


def test_evolve_density_preserves_trace_and_positivity(spec3, rng):
    c = build_hva(spec3, 2)
    plan = NoisyCircuitPlan(c, amplitude_damping(0.15))
    for _ in range(5):
        theta = rng.normal(size=15)
        rho = random_density(rng, 8)
        out = evolve_density(plan, theta, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        evals = np.linalg.eigvalsh(out)
        assert evals.min() > -1e-12


def test_evolve_density_placements_differ(spec3, rng):
    theta = rng.normal(size=15)
    c = build_hva(spec3, 3)
    rho = random_density(rng, 8)
    outs = {}
    for placement in ("after-each-layer", "after-each-gate", "final-only"):
        plan = NoisyCircuitPlan(c, amplitude_damping(0.2), placement)
        outs[placement] = evolve_density(plan, theta, rho)
    assert np.max(np.abs(outs["after-each-layer"] - outs["final-only"])) > 1e-4
    assert np.max(np.abs(outs["after-each-gate"] - outs["after-each-layer"])) > 1e-4


def test_noisy_plan_validation(spec3):
    c = build_hva(spec3, 1)
    with pytest.raises(ValueError):
        NoisyCircuitPlan(c, amplitude_damping(0.1), placement="sometimes")


def test_evolve_density_register_checks(spec3):
    c = build_hva(spec3, 1)
    plan = NoisyCircuitPlan(c, amplitude_damping(0.1))
    with pytest.raises(DimMismatch):
        evolve_density(plan, np.zeros(15), np.eye(4) / 4.0)  # register too small
    with pytest.raises(DimMismatch):
        evolve_density(plan, np.zeros(15), np.zeros((8, 7)))


def test_hs_test_probability_statevector_route(spec3, rng):
    """The literal overlap-test circuit reproduces |Tr(V^dag U)|^2/d^2."""
    target = toffoli()
    c = build_hva(spec3, 2)
    for _ in range(5):
        theta = rng.normal(size=15)
        u = circuit_unitary(c, theta)
        t = np.trace(dagger(target.matrix) @ u)
        expect = abs(t) ** 2 / 64.0
        got = hs_test_probability(c, theta, target)
        assert abs(got - expect) < 1e-12


def test_hs_test_probability_density_route_noiseless(spec3, rng):
    target = toffoli()
    c = build_hva(spec3, 2)
    plan = NoisyCircuitPlan(c, amplitude_damping(0.0))
    theta = rng.normal(size=15)
    pure = hs_test_probability(c, theta, target)
    noisy = hs_test_probability(c, theta, target, plan=plan)
    assert abs(pure - noisy) < 1e-10


def test_hs_test_probability_rejects_a_target_on_other_qubits(spec3):
    with pytest.raises(DimMismatch, match="target acts on 2 qubits, circuit on 3"):
        hs_test_probability(build_hva(spec3, 1), np.zeros(15),
                            TargetGate("cnot", elementary("CNOT")))


def test_hs_test_probability_rejects_a_plan_on_another_circuit(spec3):
    c = build_hva(spec3, 2)
    for other in (build_hva(spec3, 3), build_hva(heisenberg_spec(2), 2)):
        with pytest.raises(DimMismatch):
            hs_test_probability(c, np.zeros(15), toffoli(),
                                plan=NoisyCircuitPlan(other, amplitude_damping(0.05)))


def test_hs_test_probability_damping_lowers_overlap(spec3):
    # the property only holds where the noiseless overlap is large; at a
    # random theta the overlap is near zero and damping can raise it, so
    # probe the identity circuit (overlap 36/64) and a small perturbation
    target = toffoli()
    c = build_hva(spec3, 2)
    for theta in (np.zeros(15), np.full(15, 0.05)):
        base = hs_test_probability(c, theta, target)
        last = base
        for p in (0.1, 0.3):
            damped = hs_test_probability(
                c, theta, target, plan=NoisyCircuitPlan(c, amplitude_damping(p)))
            assert damped < last
            last = damped
    assert hs_test_probability(c, np.zeros(15), target) == pytest.approx(36 / 64)
