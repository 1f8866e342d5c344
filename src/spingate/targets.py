"""Target gates for compilation and the small fixed-gate catalogue.

Basis convention matches the rest of the package: qubit 1 is the most
significant bit, so for three qubits |q1 q2 q3> has index 4*q1 + 2*q2 + q3.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitary, UnknownGate
from .linalg import UNITARITY_TOL, is_unitary

# most qubits a target may act on (the paper's act on 3): the density route
# builds (2, d^2, d^2) int64 and complex tables, 16 and 32 MiB at 5 qubits,
# 256 and 512 MiB at 6, 4 and 8 GiB at 7
MAX_QUBITS = 5


@dataclass(frozen=True)
class TargetGate:
    """A named unitary to compile toward."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = m.shape[0]
        if m.ndim != 2 or m.shape != (d, d) or d & (d - 1):
            raise NotUnitary(f"target {self.name!r} must be square with power-of-2 size")
        if not is_unitary(m, UNITARITY_TOL):
            raise NotUnitary(f"target {self.name!r} is not unitary within {UNITARITY_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return int(np.log2(self.matrix.shape[0]))


def toffoli() -> TargetGate:
    """Doubly-controlled NOT: qubits 1 and 2 control, qubit 3 flips.

    Permutation action: swaps |110> and |111>, fixes the other six states.
    """
    m = np.eye(8, dtype=complex)
    m[[6, 7]] = m[[7, 6]]
    return TargetGate("toffoli", m)


def fredkin() -> TargetGate:
    """Controlled swap: qubit 1 controls, qubits 2 and 3 swap.

    Permutation action: swaps |101> and |110>, fixes the other six states.
    """
    m = np.eye(8, dtype=complex)
    m[[5, 6]] = m[[6, 5]]
    return TargetGate("fredkin", m)


_ELEMENTARY = {
    "I": np.eye(2, dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "CNOT": np.array([[1, 0, 0, 0],
                      [0, 1, 0, 0],
                      [0, 0, 0, 1],
                      [0, 0, 1, 0]], dtype=complex),
}


def elementary(name: str) -> np.ndarray:
    """Fixed gates used by the overlap-test circuit: I, H, CNOT."""
    try:
        return _ELEMENTARY[name].copy()
    except KeyError:
        raise UnknownGate(f"no elementary gate named {name!r}") from None


def load_target_matrix(path: str) -> TargetGate:
    """Read a gate from a text file: one row per line, entries as `re,im` pairs.

    The matrix must be square with power-of-2 size and unitary; the gate is
    named after the file stem.  A row or a row count past 2^MAX_QUBITS, and
    a row whose length differs from the first row's, is rejected as soon as
    it is read, before the rest is parsed.
    """
    cap = 2 ** MAX_QUBITS
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(rows) == cap or len(tokens) > cap:
                raise ValueError(f"{path} is larger than {cap}x{cap}: "
                                 f"targets act on at most {MAX_QUBITS} qubits")
            if rows and len(tokens) != len(rows[0]):
                raise ValueError(f"{path} has rows of {len(rows[0])} and {len(tokens)} entries")
            entries = []
            for tok in tokens:
                re_s, _, im_s = tok.partition(",")
                if not _:
                    raise ValueError(f"bad matrix entry {tok!r} in {path}")
                entries.append(complex(float(re_s), float(im_s)))
            rows.append(entries)
    m = np.array(rows, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{path} is not a square matrix")
    name = os.path.splitext(os.path.basename(path))[0]
    return TargetGate(name, m)


def resolve_target(spec_str: str) -> TargetGate:
    """Map a name ("toffoli", "fredkin") or a matrix file path to a TargetGate."""
    key = spec_str.strip().lower()
    if key == "toffoli":
        return toffoli()
    if key == "fredkin":
        return fredkin()
    if os.path.exists(spec_str):
        return load_target_matrix(spec_str)
    raise UnknownGate(f"unknown target {spec_str!r} (not a known name or file)")
