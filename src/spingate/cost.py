"""Gate-infidelity cost and its gradients.

The cost is C(theta) = 1 - |Tr(V^dag U(theta))|^2 / d^2, i.e. one minus the
normalized Hilbert-Schmidt overlap between the compiled circuit and the
target.  Three evaluation modes share this definition:

* "exact-trace"          direct trace of the dense circuit unitary;
* "hs-test-statevector"  the literal two-register overlap-test circuit;
* "hs-test-density"      the overlap test under a noise plan.

The density mode evaluates the overlap-test probability as an entanglement
fidelity, p = Tr((V (x) conj V)^dag K_total) / d^2, with K_total the noisy
circuit's superoperator on row-major vec(rho).  A noisy step with unitary u
is the Kraus sum sum_k (A_k u) (x) conj(A_k u) over the plan's register
Kraus operators A_k.  Kraus maps preserve Hermiticity, so in a fixed real
basis of Hermitian matrices each step is a real d^2 x d^2 matrix: step(L)^m
after each layer, (step(G_(Q-1)) ... step(G_0))^m after each gate and
step(L^m) for final-only.  The literal density evolution in the simulator
module is its test oracle.

Parameters are angles with period 2*pi; every evaluation canonically wraps
its input first, so wrapping a vector never changes its cost, bit for bit.
A parameter vector holding NaN or +-inf is rejected with NumericalFailure.
`costs` evaluates a stack of vectors; in exact-trace mode it runs the same
broadcasting kernel as `cost` over chunks of rows, and every row's cost
equals the single-vector cost bit for bit.

Gradients exist for the noiseless modes only: a central finite difference
(2Q cost calls) and an adjoint-style sweep that uses the shared layer:
one pass over the layer's factors plus O(m) products for the depth.
`gradients` runs the adjoint sweep over a (B, Q) stack, COST_CHUNK_ROWS
rows per broadcast call, and `gradient` is its one-row case, so every
row's gradient equals the single-vector gradient bit for bit.  Neither
counts towards eval_count, which counts cost evaluations only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import (AnsatzCircuit, circuit_unitary, gate_matrices,
                     layer_unitary)
from .errors import (DimMismatch, LengthMismatch, NoisyModeUnsupported,
                     NumericalFailure)
from .hamiltonian import wrap_angles
from .linalg import hs_overlap
from .seeding import derive_rng
from .simulator import NoisyCircuitPlan, hs_test_probability
from .targets import TargetGate

MODES = ("exact-trace", "hs-test-statevector", "hs-test-density")

CENTRAL_DIFF_STEP = 1e-6
# rows per stacked exact-trace evaluation: bounds the (rows, Q, d, d)
# factor stacks that `costs` and `gradients` hold at once
COST_CHUNK_ROWS = 16


@dataclass
class CostEvaluator:
    """Cost C(theta) for one circuit/target pair in a fixed evaluation mode."""

    circuit: AnsatzCircuit
    target: TargetGate
    mode: str = "exact-trace"
    plan: NoisyCircuitPlan | None = None
    eval_count: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown cost mode {self.mode!r}")
        if self.target.n != self.circuit.n:
            raise DimMismatch("target and circuit act on different qubit counts")
        if self.mode == "hs-test-density":
            if self.plan is None:
                raise ValueError("hs-test-density mode needs a noise plan")
            if self.plan.circuit is not self.circuit:
                self.plan = NoisyCircuitPlan(self.circuit, self.plan.channel,
                                             self.plan.placement,
                                             self.plan.target_qubits)
            self._prepare_density_fastpath()
        self._v_dag = self.target.matrix.conj().T
        self._dim = 2 ** self.circuit.n

    def _prepare_density_fastpath(self):
        """Kraus stack, Hermitian-basis gather and readout of the density mode.

        The basis is E_aa, (E_ab + E_ba)/sqrt(2), i(E_ab - E_ba)/sqrt(2) for
        a < b: columns B[:, s] = c_s e_(a b) + conj(c_s) e_(b a) of a unitary
        B.  For a Kraus map K, rows (b a) of K B conjugate rows (a b), so
        R = B^dag K B has R[s, t] = Re(2 conj(c_s) (c_t K[(a b), (e f)] +
        conj(c_t) K[(a b), (f e)])) for s ~ (a, b), t ~ (e, f).  Each weight
        is real or imaginary: each term reads one float of the interleaved
        (real, imag) matmul in `_real_superop`, which holds K[(a b), (e f)]
        = sum_k E_k[a, e] conj(E_k[b, f]) at [(a e), (b f)].  The readout
        (V (x) conj V)^dag is the map of the one Kraus operator V^dag.
        """
        d = 2 ** self.circuit.n
        a, b = np.triu_indices(d, 1)
        lo, hi = (np.concatenate([np.arange(d), x, x]) for x in (a, b))
        r2 = np.sqrt(0.5)
        c = np.concatenate([np.full(d, 0.5), np.full(len(a), r2), np.full(len(a), 1j * r2)])
        weight = 2.0 * c.conj()[None, :, None] * np.stack([c, c.conj()])[:, None, :]
        flat = np.stack([(lo[:, None] * d + e[None, :]) * d * d + hi[:, None] * d + f[None, :]
                         for e, f in ((lo, hi), (hi, lo))])
        imag = weight.imag != 0
        self._gather_index = 2 * flat + imag
        self._gather_weight = np.where(imag, -weight.imag, weight.real)
        self._kraus = self.plan.register_kraus()
        v_dag = self.target.matrix.conj().T
        self._readout = np.ascontiguousarray(self._real_superop(v_dag[None]).T) / (d * d)

    def _real_superop(self, ops: np.ndarray) -> np.ndarray:
        """Real basis matrix of rho -> sum_k E_k rho E_k^dag for a (K, d, d) stack."""
        x = ops.reshape(len(ops), -1)
        prod = x.T @ x.conj()
        terms = np.take(prod.reshape(-1).view(float), self._gather_index)
        terms *= self._gather_weight
        return terms.sum(axis=0)

    def _density_cost(self, theta: np.ndarray) -> float:
        circuit, placement, kraus = self.circuit, self.plan.placement, self._kraus
        if placement == "final-only":
            total = self._real_superop(kraus @ circuit_unitary(circuit, theta))
        elif placement == "after-each-layer":
            step = self._real_superop(kraus @ layer_unitary(circuit, theta))
            total = np.linalg.matrix_power(step, circuit.m)
        else:
            # one gate at a time: a (Q, d^2, d^2) stack of steps ran 2.5x slower
            gates = gate_matrices(circuit, theta)
            step = self._real_superop(kraus @ gates[0])
            for g in gates[1:]:
                step = self._real_superop(kraus @ g) @ step
            total = np.linalg.matrix_power(step, circuit.m)
        p = np.vdot(self._readout, total)
        return 1.0 - float(min(max(p, 0.0), 1.0))

    @property
    def noisy(self) -> bool:
        return self.mode == "hs-test-density"

    def _check(self, theta: np.ndarray, ndim: int = 1) -> np.ndarray:
        """Wrapped float copy of one vector (ndim 1) or a (B, Q) stack (ndim 2)."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != ndim or theta.shape[-1] != self.circuit.q:
            raise LengthMismatch(
                f"expected {self.circuit.q} parameters, got shape {theta.shape}")
        if not np.isfinite(theta).all():
            raise NumericalFailure("parameter vector holds NaN or infinity")
        return wrap_angles(theta)

    def cost(self, theta: np.ndarray) -> float:
        """Infidelity in [0, 1]; increments eval_count."""
        theta = self._check(theta)
        self.eval_count += 1
        if self.mode == "exact-trace":
            u = circuit_unitary(self.circuit, theta)
            return 1.0 - hs_overlap(u, self.target.matrix)
        if self.mode == "hs-test-statevector":
            return 1.0 - hs_test_probability(self.circuit, theta, self.target)
        return self._density_cost(theta)

    def costs(self, thetas: np.ndarray) -> np.ndarray:
        """Costs of a (B, Q) stack, row r equal to cost(thetas[r]) bit for bit.

        Exact-trace mode evaluates COST_CHUNK_ROWS rows per broadcast
        kernel call; the other modes call `cost` row by row.  eval_count
        grows by B either way.
        """
        thetas = self._check(thetas, ndim=2)
        if self.mode != "exact-trace":
            return np.array([self.cost(row) for row in thetas], dtype=float)
        self.eval_count += len(thetas)
        out = np.empty(len(thetas))
        for start in range(0, len(thetas), COST_CHUNK_ROWS):
            u = circuit_unitary(self.circuit, thetas[start:start + COST_CHUNK_ROWS])
            out[start:start + COST_CHUNK_ROWS] = 1.0 - hs_overlap(u, self.target.matrix)
        return out

    def fidelity(self, theta: np.ndarray) -> float:
        return 1.0 - self.cost(theta)

    def gradient(self, theta: np.ndarray, method: str = "adjoint") -> np.ndarray:
        """dC/dtheta for noiseless modes; raises NoisyModeUnsupported otherwise."""
        if self.noisy:
            raise NoisyModeUnsupported("gradients are defined for noiseless modes only")
        if method == "central-diff":
            return self._gradient_central(theta)
        if method == "adjoint":
            return self.gradients(self._check(theta)[None])[0]
        raise ValueError(f"unknown gradient method {method!r}")

    def gradients(self, thetas: np.ndarray) -> np.ndarray:
        """Adjoint gradients of a (B, Q) stack, row r equal to gradient(thetas[r]) bit for bit.

        Runs the adjoint sweep on COST_CHUNK_ROWS rows per broadcast call.
        """
        if self.noisy:
            raise NoisyModeUnsupported("gradients are defined for noiseless modes only")
        thetas = self._check(thetas, ndim=2)
        out = np.empty(thetas.shape)
        for start in range(0, len(thetas), COST_CHUNK_ROWS):
            out[start:start + COST_CHUNK_ROWS] = self._gradient_adjoint(
                thetas[start:start + COST_CHUNK_ROWS])
        return out

    def _gradient_central(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        h = CENTRAL_DIFF_STEP
        grad = np.empty(self.circuit.q)
        for j in range(self.circuit.q):
            up = theta.copy()
            dn = theta.copy()
            up[j] += h
            dn[j] -= h
            grad[j] = (self.cost(up) - self.cost(dn)) / (2.0 * h)
        return grad

    def _gradient_adjoint(self, thetas: np.ndarray) -> np.ndarray:
        """Analytic gradients of a wrapped (B, Q) stack from one sweep over the shared layer.

        With T = Tr(V^dag U), U = L^m and every layer sharing theta,
        dT/dtheta_j = Tr(M dL/dtheta_j) with the environment
        M = sum_l L^l V^dag L^(m-1-l).  Writing L = G_(Q-1) ... G_0 with
        G_j = exp(-i theta_j P_j), dL/dtheta_j inserts -i P_j after
        G_j, so dT/dtheta_j = -i Tr(P_j F_j B_j) with the prefix
        F_j = G_j ... G_0 and the suffix B_j = M G_(Q-1) ... G_(j+1).  This
        costs O(m + Q) matrix products instead of O(mQ).  Then
        dC/dtheta_j = -(2/d^2) Re(conj(T) dT/dtheta_j).  Every product is
        the same per-matrix multiplication for each row of the stack.
        """
        circuit = self.circuit
        m, d = circuit.m, self._dim
        gs = np.moveaxis(gate_matrices(circuit, thetas), 1, 0)  # (Q, B, d, d)
        fwd = np.empty_like(gs)
        fwd[0] = gs[0]
        for j in range(1, len(gs)):
            fwd[j] = gs[j] @ fwd[j - 1]
        layer = fwd[-1]
        powers = [np.eye(d, dtype=complex)]
        for _ in range(m - 1):
            powers.append(layer @ powers[-1])
        t_val = np.trace(self._v_dag @ layer @ powers[-1], axis1=-2, axis2=-1)
        env = sum(powers[l] @ self._v_dag @ powers[m - 1 - l] for l in range(m))
        back = np.empty_like(gs)
        back[-1] = env
        for j in range(len(gs) - 2, -1, -1):
            back[j] = back[j + 1] @ gs[j + 1]
        dt = -1j * np.einsum("jab,jrbc,jrca->rj", circuit.spec.matrices(), fwd, back)
        return -(2.0 / (d * d)) * (np.conj(t_val)[:, None] * dt).real

    def gradient_stats(self, samples: int, init, seed: int) -> "GradientStats":
        """Variance of each gradient coordinate over init-scheme draws.

        Draws `samples` parameter vectors from the init scheme with a
        dedicated RNG seeded by `seed`, evaluates their adjoint gradients
        in one stacked call, and reports per-coordinate mean and variance
        plus the pooled variance over all coordinates.
        """
        if samples < 1:
            raise ValueError("need at least one sample")
        rng = derive_rng(seed)
        thetas = np.array([init.sample(rng, self.circuit.q) for _ in range(samples)])
        grads = self.gradients(thetas)
        return GradientStats(
            samples=samples,
            mean=grads.mean(axis=0),
            variance=grads.var(axis=0),
            overall_variance=float(grads.var()),
        )


@dataclass(frozen=True)
class GradientStats:
    """Per-coordinate gradient statistics over random initializations."""

    samples: int
    mean: np.ndarray
    variance: np.ndarray
    overall_variance: float
