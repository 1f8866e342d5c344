import numpy as np
import pytest

from spingate.errors import DimMismatch, NotHermitian
from spingate.linalg import (apply_to_qubits, dagger, hermitian_expm,
                             hs_overlap, is_unitary, kron)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random dense Hermitian matrix of size n with O(1) entries."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + dagger(a)) / 2.0


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary: exponential of a random Hermitian generator."""
    return hermitian_expm(random_hermitian(n, rng), 1.0)


def test_kron_first_factor_most_significant():
    zx = kron(Z, X)
    # |10> -> index 2; Z acts on first qubit (-1), X flips second: |11> index 3
    v = np.zeros(4)
    v[2] = 1.0
    out = zx @ v
    assert out[3] == -1.0
    with pytest.raises(DimMismatch):
        kron()


def test_hermitian_expm_z_rotation():
    theta = 0.7
    u = hermitian_expm(Z, theta)
    expect = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
    assert np.max(np.abs(u - expect)) < 1e-14


def test_hermitian_expm_pauli_identity():
    # exp(-i a P) = cos(a) I - i sin(a) P whenever P^2 = I
    a = 1.234
    for p in (X, Z, kron(X, X)):
        u = hermitian_expm(p, a)
        expect = np.cos(a) * np.eye(p.shape[0]) - 1j * np.sin(a) * p
        assert np.max(np.abs(u - expect)) < 1e-13


def test_hermitian_expm_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimMismatch):
        hermitian_expm(np.zeros((2, 3)))


def test_hs_overlap_extremes():
    assert hs_overlap(np.eye(4), np.eye(4)) == 1.0
    assert hs_overlap(X, Z) == 0.0  # orthogonal Paulis
    with pytest.raises(DimMismatch):
        hs_overlap(np.eye(2), np.eye(4))


def test_hs_overlap_phase_invariant(rng):
    u = random_unitary(8, rng)
    for phase in (0.3, 1.1, -2.0):
        v = np.exp(1j * phase) * u
        assert abs(hs_overlap(u, v) - 1.0) < 1e-12


def test_hs_overlap_clipped_to_unit_interval(rng):
    for _ in range(10):
        a = random_unitary(4, rng)
        b = random_unitary(4, rng)
        val = hs_overlap(a, b)
        assert 0.0 <= val <= 1.0


def test_is_unitary():
    assert is_unitary(np.eye(3))
    assert not is_unitary(2 * np.eye(3))
    assert not is_unitary(np.zeros((2, 3)))


def test_apply_to_qubits_matches_kron_oracle(rng):
    """Applying a 1q operator in the middle of a register equals the
    explicit I (x) M (x) I product."""
    n = 3
    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    for q, expect_op in ((1, kron(X, np.eye(2), np.eye(2))),
                         (2, kron(np.eye(2), X, np.eye(2))),
                         (3, kron(np.eye(2), np.eye(2), X))):
        out = apply_to_qubits(psi, X, (q,), n)
        assert np.max(np.abs(out - expect_op @ psi)) < 1e-14


def test_apply_to_qubits_two_qubit_order(rng):
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=complex)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    # control 1, target 3: oracle via basis permutation
    expect = np.zeros(8, dtype=complex)
    for i in range(8):
        b = [(i >> 2) & 1, (i >> 1) & 1, i & 1]
        if b[0]:
            b[2] ^= 1
        expect[(b[0] << 2) | (b[1] << 1) | b[2]] = psi[i]
    out = apply_to_qubits(psi, cnot, (1, 3), 3)
    assert np.max(np.abs(out - expect)) < 1e-14
    # reversed qubit listing swaps control and target
    out_rev = apply_to_qubits(psi, cnot, (3, 1), 3)
    assert np.max(np.abs(out_rev - out)) > 1e-3


def test_apply_to_qubits_shape_checks():
    with pytest.raises(DimMismatch):
        apply_to_qubits(np.zeros(8), X, (1, 2), 3)
    with pytest.raises(DimMismatch):
        apply_to_qubits(np.zeros(7), X, (1,), 3)


def test_random_matrices(rng):
    h = random_hermitian(6, rng)
    assert np.max(np.abs(h - dagger(h))) < 1e-14
    u = random_unitary(6, rng)
    assert is_unitary(u, 1e-10)


def test_hs_overlap_broadcasts_over_leading_axes(rng):
    us = np.stack([random_unitary(8, rng) for _ in range(5)])
    v = random_unitary(8, rng)
    vals = hs_overlap(us, v)
    assert vals.shape == (5,)
    for u, val in zip(us, vals):
        assert val == hs_overlap(u, v)
    with pytest.raises(DimMismatch):
        hs_overlap(us, np.eye(4))
    with pytest.raises(DimMismatch):
        hs_overlap(np.zeros((5, 8, 4)), np.zeros((8, 4)))
