"""Parameterized spin-chain Hamiltonians built from Pauli strings.

The model is an open chain of n >= 2 spins with independently tunable
single-spin fields and nearest-neighbour exchange couplings, one scalar
parameter per term:

    H(theta) = sum_j theta_j * P_j

where each P_j is either sigma_alpha on one site or
sigma_alpha (x) sigma_alpha on an adjacent pair, alpha in {X, Y, Z}.

Canonical term order: all local terms first, site by site (X, Y, Z within
a site), then all coupling terms bond by bond (XX, YY, ZZ within a bond).
For n = 3 that gives Q = 15 terms:

    X1 Y1 Z1 X2 Y2 Z2 X3 Y3 Z3 X1X2 Y1Y2 Z1Z2 X2X3 Y2Y3 Z2Z3

Parameter vectors are plain float64 arrays of length Q in this order.
Angles are dimensionless: the evolution time per Trotter slice is fixed
to 1, so theta_j is periodic with period 2*pi and canonically wrapped
into [-pi, pi].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidQubitCount, LengthMismatch
from .linalg import kron

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

TAU = 2.0 * np.pi


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Paulis, e.g. letters "XII" or "IZZ"."""

    letters: str

    def __post_init__(self):
        if not self.letters or any(c not in PAULI_1Q for c in self.letters):
            raise ValueError(f"bad Pauli letters {self.letters!r}")

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        return sum(c != "I" for c in self.letters)

    @property
    def label(self) -> str:
        """Compact site-indexed name, e.g. "Z1" or "X1X2" (sites are 1-based)."""
        parts = [f"{c}{i + 1}" for i, c in enumerate(self.letters) if c != "I"]
        return "".join(parts) if parts else "I"

    def matrix(self) -> np.ndarray:
        return kron(*(PAULI_1Q[c] for c in self.letters))


@dataclass(frozen=True)
class HamiltonianSpec:
    """Ordered catalogue of the parameterized terms of a chain Hamiltonian."""

    n: int
    terms: tuple[PauliString, ...]
    _matrices: tuple = field(default=None, repr=False, compare=False)

    @property
    def q(self) -> int:
        return len(self.terms)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)

    def matrices(self) -> np.ndarray:
        """Stack of the term matrices, shape (Q, 2^n, 2^n).  Cached."""
        if self._matrices is None:
            stack = np.stack([t.matrix() for t in self.terms])
            stack.setflags(write=False)
            object.__setattr__(self, "_matrices", stack)
        return self._matrices

    def local_indices(self, axis: str | None = None) -> list[int]:
        """Indices of weight-1 terms, optionally restricted to one Pauli axis."""
        out = []
        for i, t in enumerate(self.terms):
            if t.weight != 1:
                continue
            if axis is None or axis in t.letters:
                out.append(i)
        return out

    def coupling_indices(self) -> list[int]:
        """Indices of the weight-2 exchange terms."""
        return [i for i, t in enumerate(self.terms) if t.weight == 2]


def heisenberg_spec(n: int) -> HamiltonianSpec:
    """Fully anisotropic open-chain spec for n >= 2 sites; Q = 6n - 3 terms."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidQubitCount(f"chain needs at least 2 sites, got {n!r}")
    terms = []
    for site in range(n):
        for axis in "XYZ":
            letters = "I" * site + axis + "I" * (n - site - 1)
            terms.append(PauliString(letters))
    for bond in range(n - 1):
        for axis in "XYZ":
            letters = "I" * bond + axis + axis + "I" * (n - bond - 2)
            terms.append(PauliString(letters))
    return HamiltonianSpec(n=int(n), terms=tuple(terms))


def assemble(spec: HamiltonianSpec, theta: np.ndarray) -> np.ndarray:
    """Dense H(theta) = sum_j theta_j P_j; Hermitian and traceless by construction."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.q,):
        raise LengthMismatch(f"expected {spec.q} coefficients, got shape {theta.shape}")
    return np.tensordot(theta, spec.matrices(), axes=(0, 0))


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Wrap each coefficient into [-pi, pi].

    Values already inside the window are returned bit-identically
    (round-half-even makes the shift exactly zero there), so wrapping is
    idempotent.
    """
    theta = np.asarray(theta, dtype=float)
    return theta - TAU * np.rint(theta / TAU)


def format_parameters(spec: HamiltonianSpec, theta: np.ndarray) -> str:
    """Text form, one term per line: `LABEL index value` with 10 decimals."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.q,):
        raise LengthMismatch(f"expected {spec.q} values, got shape {theta.shape}")
    lines = [f"{lab} {i} {theta[i]:.10f}" for i, lab in enumerate(spec.labels)]
    return "\n".join(lines) + "\n"


def parse_parameters(text: str, spec: HamiltonianSpec) -> np.ndarray:
    """Inverse of format_parameters; validates labels and index order."""
    values = np.full(spec.q, np.nan)
    seen = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed parameter line {raw!r}")
        label, idx_s, val_s = parts
        idx = int(idx_s)
        if idx < 0 or idx >= spec.q or spec.labels[idx] != label:
            raise ValueError(f"label/index mismatch on line {raw!r}")
        if idx in seen:
            raise ValueError(f"duplicate index {idx}")
        seen.add(idx)
        values[idx] = float(val_s)
    if len(seen) != spec.q:
        raise ValueError(f"expected {spec.q} parameter lines, got {len(seen)}")
    return values
