"""Layered product-formula circuit generated by a parameterized chain Hamiltonian.

One layer applies, in canonical term order, the factor exp(-i theta_j P_j)
for every term of the Hamiltonian spec; the full circuit repeats that layer
m times with the same parameter vector (parameters are shared across layers,
so the circuit has Q knobs regardless of depth).  In rotation-gate language
each factor is R_alpha(2 theta_j) on one site or R_alpha,alpha(2 theta_j)
on an adjacent pair: the conventional half-angle in the exponent means the
applied rotation angle is twice theta_j.  The spec is the only description
of a layer: the dense kernels use its Pauli strings, and the statevector
oracle reads each term's sites and local Pauli from its letters.

The paper's slice duration t0 is 1, so it does not appear: the parameters
are dimensionless angles with period 2*pi, which the cost's wrapping of
theta relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DimMismatch, InvalidDepth, LengthMismatch, check_count
from .hamiltonian import PAULI_1Q, HamiltonianSpec
from .linalg import apply_to_qubits, kron


@dataclass(frozen=True)
class AnsatzCircuit:
    """m identical layers, factor j generated by spec.terms[j]; one shared theta."""

    spec: HamiltonianSpec
    m: int

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def q(self) -> int:
        return self.spec.q


def build_hva(spec: HamiltonianSpec, m: int) -> AnsatzCircuit:
    """Build the m-layer circuit for a Hamiltonian spec; m must be >= 1."""
    check_count("layer count", m, 1, error=InvalidDepth)
    return AnsatzCircuit(spec=spec, m=int(m))


def _check_theta(circuit: AnsatzCircuit, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 0 or theta.shape[-1] != circuit.q:
        raise LengthMismatch(f"expected {circuit.q} parameters, got shape {theta.shape}")
    return theta


def _factor_table(spec: HamiltonianSpec, terms: tuple[int, ...]):
    """Where the factors of `terms` take their floats from.

    Factor i, viewed as 2 d^2 interleaved floats, holds cos(a_i) at each
    diagonal real part and -i sin(a_i) P_i at each nonzero of P_i: the
    phase times -i is +-1 or +-i, so that entry is +-sin(a_i) on its real
    or its imaginary float.  Returns flat float positions in a (k, d, d)
    block and, for each, its source in the concatenation [cos, sin, -sin].
    """
    perm, phase = spec.nonzeros()
    perm, phase = perm[list(terms)], phase[list(terms)]
    k, d = perm.shape
    block, row = (np.arange(k) * 2 * d * d)[:, None], np.arange(d)
    weight = -1j * phase
    on_imag = weight.imag != 0
    positive = np.where(on_imag, weight.imag, weight.real) > 0
    term = np.broadcast_to(np.arange(k)[:, None], (k, d))
    positions = np.concatenate([block + 2 * (row * d + row), block + 2 * (row * d + perm) + on_imag])
    sources = np.concatenate([term, np.where(positive, k + term, 2 * k + term)])
    return positions.ravel(), sources.ravel()


def _factors(spec: HamiltonianSpec, angles: np.ndarray, terms: tuple[int, ...]) -> np.ndarray:
    """cos(a) I - i sin(a) P for angles (..., k) and the k terms they drive.

    `terms` names the driven terms by index, tuple(range(Q)) for a whole
    layer; each tuple has its own cached `_factor_table`.  Each value is
    written straight to its float; every other entry is zero.
    """
    positions, sources = spec.cached(("factors", terms), lambda: _factor_table(spec, terms))
    d = 2 ** spec.n
    sin = np.sin(angles)
    values = np.concatenate([np.cos(angles), sin, -sin], axis=-1)
    out = np.zeros(angles.shape + (d, d), dtype=complex)
    floats = out.view(float).reshape(angles.shape[:-1] + (angles.shape[-1] * 2 * d * d,))
    floats[..., positions] = values[..., sources]
    return out


def gate_matrices(circuit: AnsatzCircuit, theta: np.ndarray) -> np.ndarray:
    """Per-term full-register factor matrices for one layer.

    theta of shape (..., Q) gives factors of shape (..., Q, 2^n, 2^n); the
    leading axes index independent parameter vectors.  Each Pauli string
    squares to the identity, so the factor is cos(theta_j) I - i sin(theta_j) P.
    """
    theta = _check_theta(circuit, theta)
    return _factors(circuit.spec, theta, tuple(range(circuit.q)))


def _varying_columns(rows: np.ndarray) -> np.ndarray:
    """Indices of the columns of a (B, Q) stack where some row differs from row 0 in its bits.

    An empty stack varies in every column.
    """
    if len(rows) == 0:
        return np.arange(rows.shape[1])
    bits = np.ascontiguousarray(rows).view(np.uint64)
    return np.flatnonzero((bits != bits[0]).any(axis=0))


def layer_head(circuit: AnsatzCircuit, rows: np.ndarray) -> tuple[list, list, list]:
    """A (B, Q) stack's varying columns (none for one row), the other columns' d x d
    factors from row 0 and the d x d prefixes before the first varying column."""
    varying = _varying_columns(rows).tolist() if len(rows) != 1 else []
    shared = [j for j in range(circuit.q) if j not in varying]
    factors = list(_factors(circuit.spec, rows[0].take(shared), tuple(shared))) if shared else []
    lead = factors[:varying[0]] if varying else factors
    return varying, factors, list(accumulate(lead, lambda f, g: g @ f))


def layer_products(circuit: AnsatzCircuit, rows: np.ndarray, head: tuple = ()) -> tuple[list, list]:
    """Factors G_j and prefixes F_j = G_j ... G_0 of one layer for a (B, Q) stack.

    The one forward pass behind every layer, cost and gradient: two lists
    of Q matrices.  A column whose bits are equal in all rows (a single
    row's every column; a noise realization shifts only some terms: charge
    noise the couplings 10-15, nuclear noise terms 3, 6 and 9) gets one
    d x d factor built from row 0; each varying column gets a (B, d, d)
    stack of per-row factors.  The prefixes stay d x d up to the first
    varying factor, and a (d, d) @ (B, d, d) product runs the same
    per-matrix multiplication as an unstacked one, so each row's slice
    equals its single-row result bit for bit, whether the pass starts from
    the rows' own `layer_head` or from `head`, that of a stack holding them.
    """
    varying, factors, prefixes = head or layer_head(circuit, rows)
    if varying:  # on copies: a head shared by several chunks stays as built
        own = _factors(circuit.spec, rows.take(varying, axis=1), tuple(varying))
        factors = factors.copy()
        for i, j in enumerate(varying):  # ascending, so each lands at index j
            factors.insert(j, own[:, i])
        prefixes = prefixes.copy() or factors[:1]
    for g in factors[len(prefixes):]:  # F_j = G_j @ F_(j-1), multiplied left onto the first factor
        prefixes.append(g @ prefixes[-1])
    return factors, prefixes


def layer_unitary(circuit: AnsatzCircuit, theta: np.ndarray) -> np.ndarray:
    """Ordered product of one layer's factors (term 1 applied first).

    theta of shape (..., Q) gives (..., 2^n, 2^n): the last prefix of
    `layer_products`.  A stack whose rows are all equal is one d x d
    product, tiled at the end.
    """
    theta = _check_theta(circuit, theta)
    rows = theta.reshape(-1, circuit.q)
    u = layer_products(circuit, rows)[1][-1]
    if u.ndim == 2 and len(rows) > 1:  # every row is row 0
        u = np.tile(u, (len(rows), 1, 1))
    return u.reshape(theta.shape[:-1] + u.shape[-2:])


def layer_powers(layer: np.ndarray, m: int) -> list[np.ndarray]:
    """[I, L, L^2, ..., L^(m-1)], each L @ the one before, for a matrix or a stack."""
    powers = [np.eye(layer.shape[-1], dtype=layer.dtype), layer][:m]
    for _ in range(m - 2):
        powers.append(layer @ powers[-1])
    return powers


def circuit_unitary(circuit: AnsatzCircuit, theta: np.ndarray) -> np.ndarray:
    """Dense unitary of the whole circuit: the layer unitary raised to m.

    Broadcasts like layer_unitary: (..., Q) gives (..., 2^n, 2^n).  L^m is
    the last of `layer_powers` up to m, so it is L @ (L @ ... (L @ L)).
    """
    return layer_powers(layer_unitary(circuit, theta), circuit.m + 1)[-1]


def apply_circuit(circuit: AnsatzCircuit, theta: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply the circuit gate by gate to a state on >= n qubits.

    The circuit occupies the leading n qubits of the register, so this
    matches circuit_unitary (x) I on the trailing qubits.
    """
    theta = _check_theta(circuit, theta)
    psi = np.asarray(psi, dtype=complex)
    n_reg = int(np.log2(psi.size))
    if 2 ** n_reg != psi.size:
        raise DimMismatch(f"state size {psi.size} is not a power of 2")
    if circuit.n > n_reg:
        raise DimMismatch(f"circuit on {circuit.n} qubits does not fit a {n_reg}-qubit register")
    locals_ = []
    for term, ang in zip(circuit.spec.terms, theta):
        # the term's Pauli on just its own (1-based) sites: 2x2 or 4x4
        qubits = tuple(i + 1 for i, c in enumerate(term.letters) if c != "I")
        gen = kron(*(PAULI_1Q[term.letters[q - 1]] for q in qubits))
        mat = np.cos(ang) * np.eye(gen.shape[0]) - 1j * np.sin(ang) * gen
        locals_.append((mat, qubits))
    out = psi
    for _ in range(circuit.m):
        for mat, qubits in locals_:
            out = apply_to_qubits(out, mat, qubits, n_reg)
    return out
