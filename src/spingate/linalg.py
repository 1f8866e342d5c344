"""Dense complex linear algebra over small multi-qubit Hilbert spaces.

Everything here works on plain complex128 numpy arrays.  Dimensions stay
small (2^n for a handful of qubits), so dense operations are always the
right tool; no sparsity or scaling tricks are attempted.

Conventions: qubit 1 is the most significant bit of the basis index, so a
basis state |q1 q2 ... qn> has index sum_i q_i * 2^(n-i).  When a state
vector is reshaped to shape (2,)*n, axis i-1 belongs to qubit i.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, NotHermitian

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10


def kron(*ops: np.ndarray) -> np.ndarray:
    """Tensor product of one or more operators, first factor most significant."""
    if not ops:
        raise DimMismatch("kron needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def is_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    """Check U.U^dag = I entrywise within tol."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    d = u.shape[0]
    return bool(np.max(np.abs(u @ dagger(u) - np.eye(d))) <= tol)


def hermitian_expm(h: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * H) for Hermitian H, via eigendecomposition.

    Raises NotHermitian if max|H - H^dag| exceeds the structural tolerance.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {h.shape}")
    defect = np.max(np.abs(h - dagger(h)))
    if defect > HERMITICITY_TOL:
        raise NotHermitian(f"matrix deviates from Hermitian by {defect:.3e}")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * scale * w)) @ dagger(v)


def hs_overlap(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Normalized Hilbert-Schmidt overlap |Tr(V^dag U)|^2 / d^2 in [0, 1].

    Broadcasts over leading axes: u and v are (..., d, d), and the result
    is a float for two matrices or an array of the broadcast leading shape.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if (u.ndim < 2 or v.ndim < 2 or u.shape[-2:] != v.shape[-2:]
            or u.shape[-1] != u.shape[-2]):
        raise DimMismatch(f"incompatible shapes {u.shape} and {v.shape}")
    d = u.shape[-1]
    t = np.trace(dagger(v) @ u, axis1=-2, axis2=-1)
    val = (t.real * t.real + t.imag * t.imag) / (d * d)
    if val.ndim:
        return np.clip(val, 0.0, 1.0)
    return float(min(max(val, 0.0), 1.0))


def apply_to_qubits(psi: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...],
                    n: int) -> np.ndarray:
    """Apply a k-qubit operator to the given (1-based) qubits of an n-qubit state.

    `mat` is 2^k x 2^k with its own first qubit most significant; `qubits`
    lists distinct register positions in that significance order.
    """
    k = len(qubits)
    if mat.shape != (2 ** k, 2 ** k):
        raise DimMismatch(f"operator shape {mat.shape} does not act on {k} qubits")
    if psi.size != 2 ** n:
        raise DimMismatch(f"state of size {psi.size} is not {n} qubits")
    axes = [q - 1 for q in qubits]
    t = psi.reshape((2,) * n)
    op = mat.reshape((2,) * (2 * k))
    t = np.tensordot(op, t, axes=(list(range(k, 2 * k)), axes))
    # tensordot puts the k output axes first; restore register order
    t = np.moveaxis(t, list(range(k)), axes)
    return t.reshape(psi.shape)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random dense Hermitian matrix of size n with O(1) entries."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + dagger(a)) / 2.0


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary: exponential of a random Hermitian generator."""
    return hermitian_expm(random_hermitian(n, rng), 1.0)
