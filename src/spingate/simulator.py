"""State-vector and density-matrix simulation of the compiled circuit.

Two independent routes to the same overlap quantity:

* a pure state-vector route (no noise), running the literal two-register
  overlap-test circuit: Bell pairs, the compiled circuit, the inverse
  target, Bell unpreparation, then the all-zeros probability;
* a density-matrix route that supports Kraus channels interleaved with
  the circuit, used for amplitude-damping studies.

Registers: the circuit acts on qubits 1..n (register A); the overlap test
adds a mirror register B on qubits n+1..2n.  Channels act only inside the
compiled circuit, on register-A qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzCircuit, gate_matrices, layer_unitary
from .errors import DimMismatch, OutOfRange
from .linalg import apply_to_qubits, dagger
from .targets import TargetGate, elementary

CHANNEL_TOL = 1e-12

PLACEMENTS = ("after-each-layer", "after-each-gate", "final-only")


@dataclass(frozen=True)
class KrausChannel:
    """A single-qubit channel given by its Kraus operators."""

    name: str
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops or any(k.shape != (2, 2) for k in ops):
            raise DimMismatch("Kraus operators must be 2x2")
        comp = sum(dagger(k) @ k for k in ops)
        if np.max(np.abs(comp - np.eye(2))) > CHANNEL_TOL:
            raise OutOfRange(f"channel {self.name!r} violates completeness")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "operators", ops)
        # 4x4 action on the (row, col) index pair of one qubit: the map
        # rho -> sum_k E_k rho E_k^dag becomes a single matrix product.
        s4 = sum(np.kron(k, k.conj()) for k in ops)
        s4.setflags(write=False)
        object.__setattr__(self, "superop4", s4)


def amplitude_damping(p: float) -> KrausChannel:
    """Decay channel |1> -> |0> with probability p; p must lie in [0, 1]."""
    if not 0.0 <= p <= 1.0 or not np.isfinite(p):
        raise OutOfRange(f"damping probability {p!r} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(f"amplitude-damping(p={p:g})", (k0, k1))


@dataclass(frozen=True)
class NoisyCircuitPlan:
    """A circuit plus where/on which qubits a channel fires during it."""

    circuit: AnsatzCircuit
    channel: KrausChannel
    placement: str = "after-each-layer"
    target_qubits: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}")
        qubits = self.target_qubits
        if qubits is None:
            qubits = tuple(range(1, self.circuit.n + 1))
        else:
            qubits = tuple(int(q) for q in qubits)
            if any(q < 1 or q > self.circuit.n for q in qubits):
                raise DimMismatch("channel qubits must lie inside the circuit register")
        object.__setattr__(self, "target_qubits", qubits)

    def register_kraus(self) -> np.ndarray:
        """(K, 2^n, 2^n) Kraus operators of the channel on the whole register.

        Each is a Kronecker product over qubits 1..n (qubit 1 leading) of
        one channel operator on each target qubit and the identity on the
        others, so K = len(channel.operators) ** len(target_qubits).
        """
        chan = np.stack(self.channel.operators)
        eye = np.eye(2, dtype=complex)[None]
        ops = np.ones((1, 1, 1), dtype=complex)
        for q in range(1, self.circuit.n + 1):
            size = 2 * ops.shape[-1]
            factor = chan if q in self.target_qubits else eye
            ops = np.einsum("kab,jcd->kjacbd", ops, factor).reshape(-1, size, size)
        return ops


def _unitary_on_front(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """rho -> (U (x) I) rho (U (x) I)^dag with U acting on the leading qubits."""
    d = u.shape[0]
    r = rho.shape[0] // d
    if r == 1:
        return u @ rho @ dagger(u)
    t = rho.reshape(d, r, d, r)
    t = np.tensordot(u, t, axes=([1], [0]))
    t = np.tensordot(t, u.conj(), axes=([2], [1]))
    return np.moveaxis(t, 3, 2).reshape(rho.shape)


def _channel_on_qubits(rho: np.ndarray, channel: KrausChannel,
                       qubits: tuple[int, ...], n_reg: int) -> np.ndarray:
    """Apply a 1-qubit Kraus channel independently to each listed qubit.

    The channel's 4x4 superoperator acts on the qubit's (row, col) axis
    pair, so each application is one small matrix product.
    """
    s4 = channel.superop4
    t = rho.reshape((2,) * (2 * n_reg))
    for q in qubits:
        axes = (q - 1, n_reg + q - 1)
        moved = np.moveaxis(t, axes, (0, 1))
        shape = moved.shape
        flat = s4 @ moved.reshape(4, -1)
        t = np.moveaxis(flat.reshape(shape), (0, 1), axes)
    return t.reshape(rho.shape)


def evolve_density(plan: NoisyCircuitPlan, theta: np.ndarray,
                   rho0: np.ndarray) -> np.ndarray:
    """Run the planned noisy circuit on a density matrix.

    rho0 may live on a larger register; the circuit and its channels act on
    the leading qubits.  Trace is preserved by construction.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[0]
    if rho0.ndim != 2 or rho0.shape != (dim, dim) or dim & (dim - 1):
        raise DimMismatch(f"density matrix shape {rho0.shape} is not a qubit register")
    n_reg = dim.bit_length() - 1
    circuit = plan.circuit
    if n_reg < circuit.n:
        raise DimMismatch("register smaller than the circuit")
    chan = plan.channel
    qubits = plan.target_qubits
    rho = rho0
    if plan.placement == "after-each-gate":
        gs = gate_matrices(circuit, theta)
        for _ in range(circuit.m):
            for g in gs:
                rho = _unitary_on_front(rho, g)
                rho = _channel_on_qubits(rho, chan, qubits, n_reg)
        return rho
    ul = layer_unitary(circuit, theta)
    for _ in range(circuit.m):
        rho = _unitary_on_front(rho, ul)
        if plan.placement == "after-each-layer":
            rho = _channel_on_qubits(rho, chan, qubits, n_reg)
    if plan.placement == "final-only":
        rho = _channel_on_qubits(rho, chan, qubits, n_reg)
    return rho


def bell_prep_state(n: int) -> np.ndarray:
    """|Phi> on 2n qubits: H on each A qubit, then CNOT from A_i to B_i."""
    n_reg = 2 * n
    psi = np.zeros(2 ** n_reg, dtype=complex)
    psi[0] = 1.0
    h = elementary("H")
    cnot = elementary("CNOT")
    for i in range(1, n + 1):
        psi = apply_to_qubits(psi, h, (i,), n_reg)
        psi = apply_to_qubits(psi, cnot, (i, i + n), n_reg)
    return psi


def readout_vector(target: TargetGate) -> np.ndarray:
    """The fixed vector w with P(all zeros) = <w| rho |w> after the circuit.

    Folding the inverse-target and Bell-unpreparation unitaries into the
    projector turns the tail of the overlap test into a single quadratic
    form; w = (V (x) I) |Phi>.
    """
    n = target.n
    u = bell_prep_state(n)
    return apply_to_qubits(u, target.matrix, tuple(range(1, n + 1)), 2 * n)


def hs_test_probability(circuit: AnsatzCircuit, theta: np.ndarray,
                        target: TargetGate,
                        plan: NoisyCircuitPlan | None = None) -> float:
    """All-zeros probability of the two-register overlap-test circuit.

    Equals |Tr(V^dag U)|^2 / d^2 for the noiseless circuit and generalizes
    it when a noise plan is given.  With a plan, the circuit is run on the
    density matrix of the Bell-pair register with channels per the plan.
    """
    if target.n != circuit.n:
        raise DimMismatch(f"target acts on {target.n} qubits, circuit on {circuit.n}")
    n = circuit.n
    n_reg = 2 * n
    if plan is None:
        from .ansatz import apply_circuit

        psi = bell_prep_state(n)
        psi = apply_circuit(circuit, theta, psi)
        sys_qubits = tuple(range(1, n + 1))
        psi = apply_to_qubits(psi, dagger(target.matrix), sys_qubits, n_reg)
        h = elementary("H")
        cnot = elementary("CNOT")
        for i in range(1, n + 1):
            psi = apply_to_qubits(psi, cnot, (i, i + n), n_reg)
            psi = apply_to_qubits(psi, h, (i,), n_reg)
        amp = psi[0]
        return float(min(max((amp * amp.conjugate()).real, 0.0), 1.0))
    if plan.circuit is not circuit:
        plan = NoisyCircuitPlan(circuit, plan.channel, plan.placement,
                                plan.target_qubits)
    u = bell_prep_state(n)
    rho = np.outer(u, u.conj())
    rho = evolve_density(plan, theta, rho)
    w = readout_vector(target)
    p = (w.conj() @ rho @ w).real
    return float(min(max(p, 0.0), 1.0))
