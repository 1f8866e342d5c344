"""Layer construction and the dense-unitary oracles for the circuit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spingate.ansatz import (_factors, _varying_columns, apply_circuit, build_hva,
                             circuit_unitary, gate_matrices, layer_unitary)
from spingate.errors import DimMismatch, InvalidDepth, LengthMismatch
from spingate.hamiltonian import heisenberg_spec
from spingate.linalg import hermitian_expm, is_unitary, kron


def test_layer_structure(spec3):
    c = build_hva(spec3, 4)
    assert c.spec is spec3
    assert c.m == 4
    assert c.q == 15
    # factor j of a layer is generated by term j: 9 single-site, then 6 two-site
    assert [t.weight for t in c.spec.terms] == [1] * 9 + [2] * 6


def test_depth_validation(spec3):
    for bad in (0, -1, 2.5, True, "3"):
        with pytest.raises(InvalidDepth):
            build_hva(spec3, bad)


def test_gate_matrices_match_exponential_oracle(spec3, rng):
    """Each factor equals exp(-i theta_j P_j) computed independently."""
    c = build_hva(spec3, 1)
    paulis = spec3.matrices()
    for _ in range(5):
        theta = rng.normal(size=15)
        gs = gate_matrices(c, theta)
        for j in range(15):
            expect = hermitian_expm(paulis[j], theta[j])
            assert np.max(np.abs(gs[j] - expect)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gate_factors_equal_cos_identity_minus_i_sin_pauli_exactly(n):
    """The scattered factors hold the broadcast formula's values (zeros may differ in sign)."""
    spec = heisenberg_spec(n)
    paulis, eye = spec.matrices(), np.eye(2 ** n)
    rng = np.random.default_rng(n)

    def formula(angles, terms):
        return (np.cos(angles)[..., None, None] * eye
                - 1j * np.sin(angles)[..., None, None] * paulis[list(terms)])

    c = build_hva(spec, 1)
    every = tuple(range(spec.q))
    vector = rng.uniform(-np.pi, np.pi, spec.q)
    stack = rng.uniform(-4.0, 4.0, size=(3, 2, spec.q))
    assert np.array_equal(gate_matrices(c, vector), formula(vector, every))
    assert np.array_equal(gate_matrices(c, stack), formula(stack, every))
    terms = (2, 5, spec.q - 1)
    subset = stack[..., list(terms)]
    assert np.array_equal(_factors(spec, subset, terms), formula(subset, terms))
    assert _factors(spec, stack[..., :0], ()).shape == (3, 2, 0, 2 ** n, 2 ** n)


def test_layer_unitary_ordered_product(spec3, rng):
    c = build_hva(spec3, 1)
    theta = rng.normal(size=15)
    gs = gate_matrices(c, theta)
    prod = np.eye(8, dtype=complex)
    for g in gs:  # term 1 acts first, so it sits rightmost in the product
        prod = g @ prod
    assert np.max(np.abs(layer_unitary(c, theta) - prod)) < 1e-12


def test_circuit_unitary_is_layer_power(spec3, rng):
    theta = rng.normal(size=15)
    for m in (1, 2, 5):
        c = build_hva(spec3, m)
        ul = layer_unitary(c, theta)
        assert np.max(np.abs(circuit_unitary(c, theta)
                             - np.linalg.matrix_power(ul, m))) < 1e-11
    # every output's bits depend on the association u = ul @ u, so pin it
    # for a vector and a stack with shared columns
    stack = rng.uniform(-4.0, 4.0, size=(5, 15))
    stack[:, CHARGE_SHARED] = stack[0, CHARGE_SHARED]
    for m in (1, 2, 5):
        c = build_hva(spec3, m)
        for thetas in (theta, stack):
            ul = layer_unitary(c, thetas)
            u = ul
            for _ in range(m - 1):
                u = ul @ u
            assert circuit_unitary(c, thetas).tobytes() == u.tobytes()


def test_circuit_unitary_unitarity(spec3, rng):
    c = build_hva(spec3, 3)
    for _ in range(10):
        u = circuit_unitary(c, rng.normal(size=15))
        assert is_unitary(u, 1e-10)


def test_apply_circuit_matches_dense(spec3, rng):
    c = build_hva(spec3, 2)
    theta = rng.normal(size=15)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    dense = circuit_unitary(c, theta) @ psi
    assert np.max(np.abs(apply_circuit(c, theta, psi) - dense)) < 1e-12


def test_apply_circuit_on_larger_register(spec3, rng):
    """On a 2n register the circuit acts as U (x) I."""
    c = build_hva(spec3, 2)
    theta = rng.normal(size=15)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    psi /= np.linalg.norm(psi)
    dense = kron(circuit_unitary(c, theta), np.eye(8)) @ psi
    out = apply_circuit(c, theta, psi)
    assert np.max(np.abs(out - dense)) < 1e-12


def test_apply_circuit_register_checks(spec3):
    c = build_hva(spec3, 1)
    theta = np.zeros(15)
    with pytest.raises(DimMismatch):
        apply_circuit(c, theta, np.zeros(6, dtype=complex))
    with pytest.raises(DimMismatch):
        apply_circuit(c, theta, np.zeros(4, dtype=complex))


def test_parameter_length_checks(spec3):
    c = build_hva(spec3, 1)
    with pytest.raises(LengthMismatch):
        circuit_unitary(c, np.zeros(14))
    with pytest.raises(LengthMismatch):
        gate_matrices(c, np.zeros((15, 1)))


def test_zero_parameters_give_identity(spec3):
    c = build_hva(spec3, 6)
    u = circuit_unitary(c, np.zeros(15))
    assert np.max(np.abs(u - np.eye(8))) < 1e-14


def test_stacked_parameters_broadcast(spec3, rng):
    # leading axes index independent vectors; each slice equals its own
    # single-vector result bit for bit
    c = build_hva(spec3, 3)
    stack = rng.uniform(-4.0, 4.0, size=(2, 3, 15))
    gs = gate_matrices(c, stack)
    ls = layer_unitary(c, stack)
    us = circuit_unitary(c, stack)
    assert gs.shape == (2, 3, 15, 8, 8)
    assert ls.shape == us.shape == (2, 3, 8, 8)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(gs[i, j], gate_matrices(c, stack[i, j]))
            assert np.array_equal(ls[i, j], layer_unitary(c, stack[i, j]))
            assert np.array_equal(us[i, j], circuit_unitary(c, stack[i, j]))


# columns every row of a noise stack shares: charge noise shifts the six
# couplings (terms 10-15), nuclear noise the Z fields (terms 3, 6 and 9)
CHARGE_SHARED = [j < 9 for j in range(15)]
NUCLEAR_SHARED = [j not in (2, 5, 8) for j in range(15)]


@settings(max_examples=80, deadline=None)
@given(shared=st.lists(st.booleans(), min_size=15, max_size=15),
       rows=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       outer=st.sampled_from([(), (2,)]))
@example(shared=[False] * 15, rows=4, seed=1, outer=())
@example(shared=[True] * 15, rows=4, seed=2, outer=())
@example(shared=CHARGE_SHARED, rows=4, seed=3, outer=())
@example(shared=NUCLEAR_SHARED, rows=4, seed=4, outer=())
@example(shared=[False] * 15, rows=1, seed=5, outer=())
@example(shared=CHARGE_SHARED, rows=3, seed=6, outer=(2,))
def test_layer_unitary_with_shared_columns(spec3, shared, rows, seed, outer):
    # the columns in `shared` hold row 0's bits in every row and get one
    # factor built from row 0; every slice of the layer and of the circuit
    # still equals its single-vector result bit for bit, with one-row
    # stacks, stacks under extra leading axes and all columns shared (all
    # rows equal) included
    c = build_hva(spec3, 2)
    stack = np.random.default_rng(seed).uniform(-4.0, 4.0, size=outer + (rows, 15))
    flat = stack.reshape(-1, 15)
    flat[:, shared] = flat[0, shared]
    varies = ~np.array(shared) & (len(flat) > 1)
    assert np.array_equal(_varying_columns(flat), np.flatnonzero(varies))
    lus = layer_unitary(c, stack)
    cus = circuit_unitary(c, stack)
    assert lus.shape == cus.shape == stack.shape[:-1] + (8, 8)
    for row, lu, cu in zip(flat, lus.reshape(-1, 8, 8), cus.reshape(-1, 8, 8)):
        assert lu.tobytes() == layer_unitary(c, row).tobytes()
        assert cu.tobytes() == circuit_unitary(c, row).tobytes()
    assert layer_unitary(c, np.zeros((0, 15))).shape == (0, 8, 8)
