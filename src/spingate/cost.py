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
step(L^m) for final-only: one product of unit steps from one
`layer_products` call, repeated.  The literal density evolution in the
simulator module is its test oracle.
The plan chooses the route: "hs-test-density" with a noise plan and
"exact-trace" without one by default; an explicit mode must agree
(ValueError), so no plan is dropped.  The plan must be built on the
evaluator's circuit or an equal one, else DimMismatch, as in `hs_test_probability`.

Parameters are angles with period 2*pi; every evaluation canonically wraps
its input first, so wrapping a vector never changes its cost, bit for bit.
A parameter vector holding NaN or +-inf is rejected with NumericalFailure.
`costs` of a stack of vectors is the one cost entry of every mode, and
`cost` is `costs` of one row, so every row's cost equals the
single-vector cost bit for bit.  In exact-trace mode `costs` powers the
layer of `layer_products` over chunks of rows (one-row and all-equal
chunks stay d x d and give one value) from one `layer_head` per stack.

Every mode has one gradient, an adjoint-style sweep over
`ansatz.layer_products` (the layer's factors and prefixes) and O(m)
`layer_powers`.  The sweep's traces Tr(P_j F_j B_j) sum over each Pauli
string's nonzeros only, one per row (`HamiltonianSpec.nonzeros`), which
adds the same terms in the same order as the sum over every entry.  The
noiseless modes feed the sweep the environment of V^dag; the density
mode reduces the real environment of its superoperators through the
Kraus stack to a complex 8x8 environment of the layer and feeds the
sweep that.  `gradients` runs the noiseless sweep over a (B, Q) stack,
COST_CHUNK_ROWS rows per broadcast call, and the density gradient row by
row (stacked 64x64 rows run slower); `gradient` is its one-row case, so
every row's gradient equals the single-vector gradient bit for bit.
Optimizers ask for gradients where they have just costed, so the
evaluator keeps one record, the forward pass of its last cost kernel
call: an exact-trace chunk (at most COST_CHUNK_ROWS rows) or one density
row.  A gradient chunk whose rows all match recorded rows bit for bit
reads it and sweeps the recorded rows; another builds powers to L^(m-1).
Neither counts towards eval_count, which counts cost evaluations only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate

import numpy as np

from .ansatz import AnsatzCircuit, layer_head, layer_powers, layer_products
from .errors import DimMismatch, LengthMismatch, NumericalFailure
from .hamiltonian import wrap_angles
from .simulator import NoisyCircuitPlan, hs_test_probability
from .targets import TargetGate

MODES = ("exact-trace", "hs-test-statevector", "hs-test-density")

# rows per stacked exact-trace evaluation: bounds the (rows, Q, d, d)
# factor stacks that `costs` and `gradients` hold at once.  32 rows ran
# the sampled noise sweep a few percent faster but raised its peak memory.
COST_CHUNK_ROWS = 16


@dataclass
class CostEvaluator:
    """Cost C(theta) for one circuit/target pair; a noise plan selects the density mode."""

    circuit: AnsatzCircuit
    target: TargetGate
    mode: str | None = None
    plan: NoisyCircuitPlan | None = None
    eval_count: int = field(default=0, init=False)

    def __post_init__(self):
        noisy = self.plan is not None
        if self.mode is None:
            self.mode = "hs-test-density" if noisy else "exact-trace"
        if self.mode not in MODES:
            raise ValueError(f"unknown cost mode {self.mode!r}")
        if (self.mode == "hs-test-density") != noisy:
            raise ValueError(f"{self.mode} mode {'takes no' if noisy else 'needs a'} noise plan")
        if self.target.n != self.circuit.n:
            raise DimMismatch("target and circuit act on different qubit counts")
        self._v_dag = self.target.matrix.conj().T
        if noisy:
            if self.plan.circuit != self.circuit:
                raise DimMismatch("the noise plan is built on another circuit")
            self._prepare_density_fastpath()
        self._record = ((), [])  # (wrapped rows, their forward passes)

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
        self._readout = np.ascontiguousarray(self._real_superop(self._v_dag[None]).T) / (d * d)

    def _real_superop(self, ops: np.ndarray) -> np.ndarray:
        """Real basis matrix of rho -> sum_k E_k rho E_k^dag for a (K, d, d) stack."""
        x = ops.reshape(len(ops), -1)
        prod = x.T @ x.conj()
        terms = np.take(prod.reshape(-1).view(float), self._gather_index)
        terms *= self._gather_weight
        return terms.sum(axis=0)

    def _density_forward(self, theta: np.ndarray) -> tuple:
        """One wrapped vector's factors, prefixes, powers [I, ..., L^m] (final-only)
        and unit steps: step(L^m), step(L) or the gate steps S_j."""
        placement, m = self.plan.placement, self.circuit.m
        gs, fwd = layer_products(self.circuit, theta[None])
        powers = layer_powers(fwd[-1], m + 1) if placement == "final-only" else None
        units = powers[-1:] if powers else fwd[-1:] if placement == "after-each-layer" else gs
        # one unit at a time: a (Q, d^2, d^2) stack of gate steps ran 2.5x slower
        steps = [self._real_superop(self._kraus @ u) for u in units]
        return gs, fwd, powers, steps

    def _density_cost(self, theta: np.ndarray) -> float:
        """Density cost of one wrapped vector, whose forward pass becomes the record."""
        steps = self._remember(theta[None])[0][-1]
        total = reduce(lambda t, s: s @ t, steps)  # steps[-1] ... steps[0]
        repeat = 1 if self.plan.placement == "final-only" else self.circuit.m
        p = np.vdot(self._readout, np.linalg.matrix_power(total, repeat))
        return 1.0 - float(min(max(p, 0.0), 1.0))

    def _check(self, thetas: np.ndarray) -> np.ndarray:
        """Wrapped float copy of a (B, Q) stack."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.circuit.q:
            raise LengthMismatch(
                f"expected {self.circuit.q} parameters, got shape {thetas.shape}")
        if not np.isfinite(thetas).all():
            raise NumericalFailure("parameter vector holds NaN or infinity")
        return wrap_angles(thetas)

    def cost(self, theta: np.ndarray) -> float:
        """Infidelity in [0, 1], `costs` of one row; increments eval_count."""
        return float(self.costs(np.asarray(theta, dtype=float)[None])[0])

    def costs(self, thetas: np.ndarray) -> np.ndarray:
        """Costs of a (B, Q) stack, row r equal to cost(thetas[r]) bit for bit.

        Exact-trace mode evaluates COST_CHUNK_ROWS rows per broadcast kernel
        call from one `layer_head` of the whole stack; the other modes
        answer row by row.  eval_count grows by B.
        """
        thetas = self._check(thetas)
        self.eval_count += len(thetas)
        if self.mode == "hs-test-statevector":
            return np.array([1.0 - hs_test_probability(self.circuit, row, self.target)
                             for row in thetas], dtype=float)
        if self.mode == "hs-test-density":
            return np.array([self._density_cost(row) for row in thetas], dtype=float)
        head = layer_head(self.circuit, thetas)
        return _in_chunks(self._exact_costs, thetas, np.empty(len(thetas)), head)

    def _exact_costs(self, thetas: np.ndarray, head: tuple) -> np.ndarray:
        """Exact-trace costs of a wrapped (B, Q) stack; one value if the layer stays d x d.

        1 - |Tr(V^dag U)|^2 / d^2 from the cached V^dag, the overlap clipped
        to [0, 1] as `linalg.hs_overlap` clips it.
        """
        t = np.trace(self._v_dag @ self._remember(thetas, head)[2][-1], axis1=-2, axis2=-1)
        overlap = (t.real * t.real + t.imag * t.imag) / len(self._v_dag) ** 2
        return 1.0 - np.clip(overlap, 0.0, 1.0)

    def _remember(self, thetas: np.ndarray, head: tuple = ()):
        """A wrapped chunk's `_forward` up to L^m, the new record; the old one is dropped first."""
        self._record = ((), [])
        self._record = (thetas, self._forward(thetas, self.circuit.m + 1, head))
        return self._record[1]

    def _forward(self, thetas: np.ndarray, depth: int, head: tuple = ()):
        """A chunk's `layer_products` and powers [I, ..., L^(depth-1)], or `_density_forward`s."""
        if self.mode == "hs-test-density":
            return [self._density_forward(row) for row in thetas]
        gs, fwd = layer_products(self.circuit, thetas, head)
        return gs, fwd, layer_powers(fwd[-1], depth)

    def _recall(self, thetas: np.ndarray) -> tuple:
        """The record and each row's index in it if it holds every row's bits; else (afresh, None)."""
        rows, forward = self._record
        known = {row.tobytes(): i for i, row in enumerate(rows)}
        index = [known.get(row.tobytes()) for row in thetas]
        if None in index:
            return self._forward(thetas, self.circuit.m), None
        return forward, index

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """dC/dtheta by the adjoint sweep, `gradients` of one row."""
        return self.gradients(np.asarray(theta, dtype=float)[None])[0]

    def gradients(self, thetas: np.ndarray) -> np.ndarray:
        """Adjoint gradients of a (B, Q) stack, row r equal to gradient(thetas[r]) bit for bit.

        The noiseless modes run the adjoint sweep on COST_CHUNK_ROWS rows
        per broadcast call; the density mode answers row by row.  Both read
        the record of the last cost kernel call where it holds the rows (`_recall`).
        """
        thetas = self._check(thetas)
        if self.mode == "hs-test-density":
            return np.array([self._density_gradient(row) for row in thetas]).reshape(thetas.shape)
        return _in_chunks(self._gradient_adjoint, thetas, np.empty(thetas.shape))

    def _gradient_adjoint(self, thetas: np.ndarray) -> np.ndarray:
        """Analytic gradients of a wrapped chunk from one sweep over the shared layer.

        With T = Tr(V^dag U), U = L^m and every layer sharing theta,
        dT/dtheta_j = Tr(M dL/dtheta_j) with the environment
        M = sum_l L^l V^dag L^(m-1-l) (`_layer_sweep`).  Then
        dC/dtheta_j = -(2/d^2) Re(conj(T) dT/dtheta_j).
        """
        d, m = len(self._v_dag), self.circuit.m
        (gs, fwd, powers), index = self._recall(thetas)  # powers up to L^m or L^(m-1)
        t_val = np.trace(self._v_dag @ fwd[-1] @ powers[m - 1], axis1=-2, axis2=-1)
        dt = _layer_sweep(self.circuit, gs, fwd, _depth_environment(powers[:m], self._v_dag))
        grad = -(2.0 / (d * d)) * (np.conj(t_val)[..., None] * dt).real
        return grad if index is None or grad.ndim == 1 else grad[index]

    def _step_environment(self, u: np.ndarray, env: np.ndarray) -> np.ndarray:
        """Complex 8x8 G with <env, d step(u)> = Re Tr(G du), step(u) = _real_superop(A u).

        `_real_superop` reads each step entry as a weighted float of the
        interleaved product P = X^T conj(X), X[k] = vec(A_k u).  Its adjoint
        scatters env times the weights back onto P's floats, giving a
        complex P-bar with <env, d step> = Re sum conj(P-bar) dP; then
        dP = dX^T conj(X) + X^T conj(dX) gives Re sum dX W with
        W = conj(X) (P-bar + P-bar^dag), and dX[k] = A_k du gives
        G = sum_k W_k^T A_k.
        """
        kraus = self._kraus
        x = (kraus @ u).reshape(len(kraus), -1)
        n = x.shape[1]
        bar = np.bincount(self._gather_index.ravel(), (self._gather_weight * env).ravel(),
                          minlength=2 * n * n).view(complex).reshape(n, n)
        w = x.conj() @ (bar + bar.conj().T)
        d = u.shape[-1]
        return w.reshape(-1, d).T @ kraus.reshape(-1, d)

    def _density_gradient(self, theta: np.ndarray) -> np.ndarray:
        """Exact gradient of the density cost for one wrapped vector, from its forward record.

        p = <R, T> with R the readout and T the circuit's real
        superoperator; dC = -dp (the clip of p to [0, 1] is not
        differentiated).  For T = S^m, dp = <E, dS> with the real
        environment E = sum_l (S^T)^l R (S^T)^(m-1-l), and
        `_step_environment` turns <E, d step(u)> into Re Tr(G du):
        * after each layer, S = step(L), and G feeds the layer sweep;
        * final-only, T = step(L^m): G is R's environment of L^m, which
          the noiseless depth environment carries to L;
        * after each gate, S = S_(Q-1) ... S_0 with S_j = step(G_j), so
          gate j sees (S_(Q-1) ... S_(j+1))^T E (S_(j-1) ... S_0)^T, and
          dG_j/dtheta_j = -i P_j G_j.
        """
        forward, index = self._recall(theta[None])
        gs, fwd, powers, steps = forward[0 if index is None else index[0]]
        circuit, m, placement = self.circuit, self.circuit.m, self.plan.placement
        if placement == "final-only":
            g = self._step_environment(powers[-1], self._readout)
            return -_layer_sweep(circuit, gs, fwd, _depth_environment(powers[:-1], g)).real
        if placement == "after-each-layer":
            env = _depth_environment(layer_powers(steps[0].T, m), self._readout)
            g = self._step_environment(fwd[-1], env)
            return -_layer_sweep(circuit, gs, fwd, g).real
        # before[j] = S_(j-1) ... S_0, not recorded: keeping them slowed each cost by a quarter
        before = list(accumulate(steps[:-1], lambda b, s: s @ b, initial=np.eye(len(steps[0]))))
        after = _depth_environment(layer_powers((steps[-1] @ before[-1]).T, m), self._readout)
        paulis = circuit.spec.matrices()
        grad = np.empty(circuit.q)
        for j in reversed(range(circuit.q)):
            g = self._step_environment(gs[j], after @ before[j].T)
            grad[j] = -np.trace(g @ (-1j * paulis[j]) @ gs[j]).real
            after = steps[j].T @ after
        return grad


def _in_chunks(kernel, thetas: np.ndarray, out: np.ndarray, *args) -> np.ndarray:
    """Fill out[r] with kernel's row r, COST_CHUNK_ROWS rows per kernel(rows, *args) call."""
    for start in range(0, len(thetas), COST_CHUNK_ROWS):
        rows = slice(start, start + COST_CHUNK_ROWS)
        out[rows] = kernel(thetas[rows], *args)
    return out


def _depth_environment(powers: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """sum_l a^l x a^(m-1-l) from powers = [I, a, ..., a^(m-1)].

    Tr(x d(a^m)) = Tr(env da), and for real matrices
    <x, d(a^m)> = <env', da> with env' built the same way from a^T.
    """
    m = len(powers)
    return sum(powers[l] @ x @ powers[m - 1 - l] for l in range(m))


def _layer_sweep(circuit: AnsatzCircuit, gs: list, fwd: list, env: np.ndarray) -> np.ndarray:
    """d Tr(M L)/dtheta_j for the factors and prefixes of `layer_products`, (..., Q) complex.

    L = G_(Q-1) ... G_0 with G_j = exp(-i theta_j P_j), so dL/dtheta_j
    inserts -i P_j after G_j and d Tr(M L)/dtheta_j = -i Tr(P_j F_j B_j)
    with the prefix F_j = fwd[j] and the suffix B_j = M G_(Q-1) ... G_(j+1).
    This costs O(Q) matrix products instead of O(Q^2).  The d x d prefixes
    and M are broadcast to the last prefix's shape as they are stacked;
    one row or all rows equal stay d x d and give a (Q,) result.  Every
    product is the same per-matrix multiplication for each row.  Row a of
    P_j has one nonzero, phase[j, a] in column perm[j, a], so the trace
    sums phase[j, a] F_j[perm[j, a], c] B_j[c, a] over a and c alone: the
    same nonzero terms, added in the same order, as the sum over every
    entry of P_j.
    """
    q, shape = len(gs), fwd[-1].shape
    back = np.empty((q,) + shape, dtype=complex)
    back[-1] = env
    for j in range(q - 2, -1, -1):
        np.matmul(back[j + 1], gs[j + 1], out=back[j])
    prefixes = np.empty_like(back)
    for j, f in enumerate(fwd):
        prefixes[j] = f
    perm, phase = circuit.spec.nonzeros()
    rows = prefixes[np.arange(q)[:, None], ..., perm, :]  # (Q, d, ..., d): row perm[j, a] of F_j
    return -1j * np.einsum("ja,ja...c,j...ca->...j", phase, rows, back)
