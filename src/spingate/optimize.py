"""Optimizers for the compilation cost: L-BFGS and Nelder-Mead.

Both are written against a plain callable interface so they can be
exercised on textbook functions, but they assume a 2*pi-periodic
objective when they wrap parameters: L-BFGS wraps the iterate into
[-pi, pi] after every accepted step (the cost is exactly periodic, so
this never changes the objective value), and returned parameters are
always canonically wrapped.

L-BFGS uses the standard two-loop recursion over a bounded history of
curvature pairs with an Armijo backtracking line search.  A descent that
stalls above the cost goal (a relative-decrease test over a window of
iterations, as in L-BFGS-B) is escaped basin-hopping style: the best
point so far gets a seeded Gaussian kick and the descent starts afresh
from there, within the same iteration budget.  Nelder-Mead is
the classic simplex method with reflection/expansion/contraction/shrink
coefficients 1, 2, 0.5, 0.5.  Every iteration of either method appends a
trace record (cost, gradient norm or simplex spread, wall time), which
downstream tooling writes out as training curves.

Each method is written once, as an ask/tell generator: it yields
("cost", x) or ("grad", x) and is sent the value back, and its return
value is the OptimizationTrace.  One loop, `_lockstep`, runs every
generator: it advances a set of them in rounds and answers each round's
requests with one call of a stacked cost and one of a stacked gradient.
`multi_restart` hands it all restarts with the evaluator's `costs` and
`gradients`; `lbfgs_minimize`, `nelder_mead_minimize` and
`run_single_restart` hand it one generator, with their one-vector
callables answering row by row.  A non-finite cost or gradient raises
NumericalFailure naming the restart.  A trace's `elapsed_ms` counts from
the restart's first step; in lockstep that is the start of the shared
run, so it includes the time spent on the other restarts.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure
from .hamiltonian import wrap_angles
from .seeding import derive_rng

ARMIJO_C1 = 1e-4
MAX_HALVINGS = 60
CURVATURE_EPS = 1e-12
# stall test: relative cost decrease over a window of iterations
STALL_WINDOW = 5
STALL_RTOL = 1e-2
# standard deviation of the Gaussian kick that escapes a stall
KICK_SIGMA = 0.5

DEFAULT_MAX_ITERS = {"lbfgs": 200, "nelder-mead": 2000}
# most restarts, re-trainings or samples one run may ask for: every
# restart's generator, every re-training's start vector and every
# (samples, Q) parameter stack is built before the first is used.  The
# paper's runs use at most a few hundred; a larger count is a typo, and
# building it could exhaust memory before anything is computed.
MAX_COUNT = 100_000


@dataclass(frozen=True)
class InitScheme:
    """Gaussian initial parameters, clipped to a box.

    Draws theta_j ~ Normal(mean, sigma) and clips each coordinate into
    the `clip` interval, so every draw lies in [-1, 1] by default.
    """

    sigma: float = 0.5
    mean: float = 0.0
    clip: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.clip
        if not np.isfinite([self.mean, lo, hi]).all():
            raise ConfigError(f"init mean and clip must be finite, got {self.mean!r}, "
                              f"{self.clip!r}")
        if not 0.0 <= self.sigma < np.inf:
            raise ConfigError(f"init sigma must be finite and >= 0, got {self.sigma!r}")
        if not lo <= hi:
            raise ConfigError(f"init clip interval is inverted: {self.clip!r}")

    def sample(self, rng: np.random.Generator, q: int) -> np.ndarray:
        lo, hi = self.clip
        return np.clip(rng.normal(self.mean, self.sigma, q), lo, hi)


@dataclass
class OptimizerConfig:
    """Knobs shared by both optimizers; max_iters=None picks the per-algorithm
    default (200 for lbfgs, 2000 for nelder-mead)."""

    algorithm: str = "lbfgs"
    max_iters: int | None = None
    cost_tolerance: float = 1e-4
    gradient_tolerance: float = 1e-8
    history_size: int = 10
    simplex_step: float = 0.1
    spread_tolerance: float = 1e-8
    restarts: int = 10

    def __post_init__(self):
        if self.algorithm not in DEFAULT_MAX_ITERS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.restarts < 1 or self.history_size < 1:
            raise ConfigError("restarts and history_size must be at least 1")
        if self.restarts > MAX_COUNT:
            raise ConfigError(f"restarts must be at most {MAX_COUNT}, got {self.restarts!r}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ConfigError(f"max_iters must be at least 1, got {self.max_iters!r}")
        for name in ("cost_tolerance", "gradient_tolerance", "spread_tolerance"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, "
                                  f"got {getattr(self, name)!r}")
        # a zero step gives a degenerate simplex that stops at once
        if not 0.0 < self.simplex_step < np.inf:
            raise ConfigError(f"simplex_step must be finite and > 0, got {self.simplex_step!r}")

    @property
    def resolved_max_iters(self) -> int:
        if self.max_iters is not None:
            return int(self.max_iters)
        return DEFAULT_MAX_ITERS[self.algorithm]


@dataclass
class OptimizationTrace:
    """Per-iteration history of one optimizer run.

    `metric` holds the gradient infinity norm (lbfgs) or the simplex cost
    spread (nelder-mead).  Row 0 describes the initial point or simplex.
    """

    restart_index: int
    algorithm: str
    costs: np.ndarray
    metric: np.ndarray
    elapsed_ms: np.ndarray
    theta_history: np.ndarray
    final_theta: np.ndarray
    final_cost: float
    converged: bool
    stop_reason: str
    n_evals: int

    @property
    def iterations(self) -> int:
        """Number of optimizer iterations performed (row 0 is the start)."""
        return len(self.costs) - 1


class _Recorder:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.costs = []
        self.metric = []
        self.elapsed = []
        self.thetas = []

    def add(self, cost, metric, theta):
        self.costs.append(float(cost))
        self.metric.append(float(metric))
        self.elapsed.append((time.perf_counter() - self.t0) * 1e3)
        self.thetas.append(np.array(theta, dtype=float))

    def finish(self, restart_index, algorithm, final_theta, final_cost,
               converged, stop_reason, n_evals) -> OptimizationTrace:
        return OptimizationTrace(
            restart_index=restart_index,
            algorithm=algorithm,
            costs=np.array(self.costs),
            metric=np.array(self.metric),
            elapsed_ms=np.array(self.elapsed),
            theta_history=np.array(self.thetas),
            final_theta=np.asarray(final_theta, dtype=float),
            final_cost=float(final_cost),
            converged=converged,
            stop_reason=stop_reason,
            n_evals=n_evals,
        )


def _checked(kind: str, value, restart_index: int):
    """A requested cost (float) or gradient (float array); NumericalFailure if not finite."""
    value = float(value) if kind == "cost" else np.asarray(value, dtype=float)
    if not np.isfinite(value).all():
        raise NumericalFailure(f"restart {restart_index}: the {kind} is not finite")
    return value


def _lockstep(steps: dict, costs, gradients) -> dict[int, OptimizationTrace]:
    """Run optimizer generators, keyed by restart index, to their ends in rounds.

    Each round answers every pending cost request with one call of
    `costs` on the stacked vectors, then every pending gradient request
    with one call of `gradients`; a generator whose cost is answered may
    ask for its gradient in the same round.  Returns the traces by index.
    """
    active: dict[int, tuple] = {}  # restart index -> (generator, its request)
    traces: dict[int, OptimizationTrace] = {}

    def advance(index, gen, reply):
        try:
            active[index] = (gen, gen.send(reply))
        except StopIteration as done:
            del active[index]
            traces[index] = done.value

    for index, gen in steps.items():
        advance(index, gen, None)
    while active:
        for kind, batch in (("cost", costs), ("grad", gradients)):
            asking = [(index, gen, x) for index, (gen, (k, x)) in active.items() if k == kind]
            if asking:
                values = batch(np.array([x for _, _, x in asking]))
                for (index, gen, _), value in zip(asking, values):
                    advance(index, gen, _checked(kind, value, index))
    return traces


def _rows(fun):
    """A stacked callable that answers each row with one call of `fun`."""
    return lambda xs: [fun(x) for x in xs]


def lbfgs_minimize(fun, grad, x0: np.ndarray, cfg: OptimizerConfig,
                   restart_index: int = 0,
                   rng: np.random.Generator | None = None) -> OptimizationTrace:
    """Two-loop-recursion L-BFGS with Armijo backtracking and stall escapes.

    A descent has stalled when the gradient infinity norm is at most
    cfg.gradient_tolerance, or when over the last STALL_WINDOW iterations
    the cost fell by no more than STALL_RTOL of its value at the start of
    the window (the relative-decrease test of L-BFGS-B).  Given `rng`, a
    stall above cfg.cost_tolerance is escaped in place: the best point so
    far is kicked by KICK_SIGMA-wide Gaussian noise drawn from `rng`, the
    curvature history is dropped and the descent goes on from there.  The
    kick is one trace row and counts as one of the max_iters iterations.

    Stop reasons: "cost-tolerance" (converged), "gradient-tolerance" (a
    stationary point that is not escaped), "stalled" (a stall with no
    escape, or the iteration budget ran out after an escape),
    "line-search-failure" (no Armijo step within MAX_HALVINGS halvings),
    and "max-iterations".  The best point seen is returned; converged is
    True only when its cost meets the goal.  A non-finite value from
    `fun` or `grad` raises NumericalFailure.
    """
    steps = _lbfgs_steps(x0, cfg, restart_index, rng)
    return _lockstep({restart_index: steps}, _rows(fun), _rows(grad))[restart_index]


def _lbfgs_steps(x0, cfg, restart_index, rng):
    """lbfgs_minimize as an ask/tell generator (see the module docstring)."""
    rec = _Recorder()
    x = wrap_angles(np.asarray(x0, dtype=float))
    f = yield "cost", x
    g = yield "grad", x
    n_evals = 1
    hist = deque(maxlen=cfg.history_size)  # curvature pairs (s, y, 1 / s.y), oldest first
    best_x, best_f = x, f
    descent_start = 0
    escaped = False
    rec.add(f, np.max(np.abs(g)), x)

    def done(reason):
        return rec.finish(restart_index, "lbfgs", best_x, best_f,
                          best_f <= cfg.cost_tolerance, reason, n_evals)

    while True:
        if f <= cfg.cost_tolerance:
            return done("cost-tolerance")
        row = len(rec.costs) - 1
        stationary = np.max(np.abs(g)) <= cfg.gradient_tolerance
        window_start = row - STALL_WINDOW
        stalled = stationary or (
            window_start >= descent_start
            and rec.costs[window_start] - f <= STALL_RTOL * rec.costs[window_start])
        budget_left = row < cfg.resolved_max_iters
        if stalled and (rng is None or not budget_left):
            return done("gradient-tolerance" if stationary else "stalled")
        if not budget_left:
            return done("stalled" if escaped else "max-iterations")
        if stalled:
            x = wrap_angles(best_x + rng.normal(0.0, KICK_SIGMA, best_x.size))
            f = yield "cost", x
            g = yield "grad", x
            n_evals += 1
            hist.clear()
            escaped = True
            descent_start = row + 1
        else:
            # two-loop recursion for d = -H g
            d = -g.copy()
            alphas = []
            for s, y, r in reversed(hist):
                a = r * np.dot(s, d)
                alphas.append(a)
                d -= a * y
            if hist:
                s, y, _ = hist[-1]
                d *= np.dot(s, y) / np.dot(y, y)
            for (s, y, r), a in zip(hist, reversed(alphas)):
                b = r * np.dot(y, d)
                d += (a - b) * s
            slope = np.dot(g, d)
            if slope >= 0.0:
                # not a descent direction; drop history and fall back to steepest descent
                hist.clear()
                d = -g
                slope = np.dot(g, d)
            # Armijo backtracking
            alpha = 1.0
            f_new = None
            for _ in range(MAX_HALVINGS):
                f_try = yield "cost", x + alpha * d
                n_evals += 1
                if f_try <= f + ARMIJO_C1 * alpha * slope:
                    f_new = f_try
                    break
                alpha *= 0.5
            if f_new is None:
                return done("line-search-failure")
            # the curvature pair uses the step taken, not the difference of
            # wrapped iterates, which jumps by 2*pi across the seam
            s = alpha * d
            x = wrap_angles(x + s)
            g_new = yield "grad", x
            y = g_new - g
            sy = np.dot(s, y)
            if sy > CURVATURE_EPS:
                hist.append((s, y, 1.0 / sy))
            f, g = f_new, g_new
        rec.add(f, np.max(np.abs(g)), x)
        if f < best_f:
            best_x, best_f = x, f


def nelder_mead_minimize(fun, x0: np.ndarray, cfg: OptimizerConfig,
                         restart_index: int = 0) -> OptimizationTrace:
    """Classic simplex search; derivative-free, usable on noisy costs.

    The initial simplex is x0 plus cfg.simplex_step along each coordinate.
    Terminates when the best vertex reaches cfg.cost_tolerance, when the
    simplex cost spread drops below cfg.spread_tolerance, or after
    max_iters iterations.  The best vertex is returned (wrapped); its cost
    never increases between iterations.  As with L-BFGS, converged is True
    only when the cost goal was met; a collapsed simplex above it counts
    as a stall.  A non-finite value from `fun` raises NumericalFailure.
    """
    steps = _nelder_mead_steps(x0, cfg, restart_index)
    return _lockstep({restart_index: steps}, _rows(fun), None)[restart_index]


def _nelder_mead_steps(x0, cfg, restart_index):
    """nelder_mead_minimize as an ask/tell generator (see the module docstring)."""
    x0 = np.asarray(x0, dtype=float)
    q = x0.size
    verts = [x0.copy()]
    for j in range(q):
        v = x0.copy()
        v[j] += cfg.simplex_step
        verts.append(v)
    fvals = []
    for v in verts:
        fvals.append((yield "cost", v))
    n_evals = q + 1
    rec = _Recorder()

    def order():
        idx = np.argsort(fvals, kind="stable")
        return [verts[i] for i in idx], [fvals[i] for i in idx]

    verts, fvals = order()
    rec.add(fvals[0], fvals[-1] - fvals[0], verts[0])
    reason, conv = "max-iterations", False
    for _ in range(cfg.resolved_max_iters):
        if fvals[0] <= cfg.cost_tolerance:
            reason, conv = "cost-tolerance", True
            break
        if fvals[-1] - fvals[0] < cfg.spread_tolerance:
            reason, conv = "spread-tolerance", False
            break
        centroid = np.mean(verts[:-1], axis=0)
        worst = verts[-1]
        xr = centroid + (centroid - worst)
        fr = yield "cost", xr
        n_evals += 1
        if fr < fvals[0]:
            xe = centroid + 2.0 * (xr - centroid)
            fe = yield "cost", xe
            n_evals += 1
            if fe < fr:
                verts[-1], fvals[-1] = xe, fe
            else:
                verts[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (worst - centroid)
            fc = yield "cost", xc
            n_evals += 1
            if fc < min(fr, fvals[-1]):
                verts[-1], fvals[-1] = xc, fc
            else:
                best = verts[0]
                for i in range(1, q + 1):
                    verts[i] = best + 0.5 * (verts[i] - best)
                    fvals[i] = yield "cost", verts[i]
                n_evals += q
        verts, fvals = order()
        rec.add(fvals[0], fvals[-1] - fvals[0], verts[0])
    return rec.finish(restart_index, "nelder-mead", wrap_angles(verts[0]),
                      fvals[0], conv, reason, n_evals)


@dataclass
class RestartSummary:
    """Aggregate of a multi-restart optimization."""

    traces: list[OptimizationTrace]
    best_index: int
    seeds: list[list[int]]

    @property
    def best(self) -> OptimizationTrace:
        return self.traces[self.best_index]

    @property
    def final_costs(self) -> np.ndarray:
        return np.array([t.final_cost for t in self.traces])

    def stats(self) -> dict:
        """Mean/std of final cost over all restarts and over converged ones."""
        costs = self.final_costs
        conv = np.array([t.converged for t in self.traces], dtype=bool)
        out = {
            "mean_final_cost": float(costs.mean()),
            "std_final_cost": float(costs.std()),
            "n_restarts": len(self.traces),
            "n_converged": int(conv.sum()),
        }
        if conv.any():
            out["mean_final_cost_converged"] = float(costs[conv].mean())
            out["std_final_cost_converged"] = float(costs[conv].std())
        disp = 0.0
        finals = [t.final_theta for t, c in zip(self.traces, conv) if c]
        for i in range(len(finals)):
            for j in range(i + 1, len(finals)):
                disp = max(disp, float(np.max(np.abs(finals[i] - finals[j]))))
        out["parameter_dispersion_converged"] = disp
        return out


def _restart_steps(evaluator, init: InitScheme, cfg: OptimizerConfig, index: int):
    """The optimizer generator of one restart, started at its counter-derived draw."""
    rng = derive_rng(init.seed, index)
    theta0 = init.sample(rng, evaluator.circuit.q)
    if cfg.algorithm == "lbfgs":
        # the stall kicks continue the restart's own stream
        return _lbfgs_steps(theta0, cfg, index, rng)
    return _nelder_mead_steps(theta0, cfg, index)


def run_single_restart(evaluator, init: InitScheme, cfg: OptimizerConfig,
                       index: int) -> OptimizationTrace:
    """One restart with its counter-derived seed, through `cost` and `gradient`."""
    steps = _restart_steps(evaluator, init, cfg, index)
    return _lockstep({index: steps}, _rows(evaluator.cost), _rows(evaluator.gradient))[index]


def multi_restart(evaluator, init: InitScheme, cfg: OptimizerConfig) -> RestartSummary:
    """Run cfg.restarts independent optimizations and keep them all.

    All restarts advance together in rounds: each round answers every
    pending cost request with one `evaluator.costs` call, then every
    pending gradient request with one `evaluator.gradients` call.
    Per-restart seeds derive from (init.seed, restart index) and each
    stacked row equals its single-vector value bit for bit, so restart i
    equals `run_single_restart(evaluator, init, cfg, i)`.
    """
    steps = {i: _restart_steps(evaluator, init, cfg, i) for i in range(cfg.restarts)}
    traces = _lockstep(steps, evaluator.costs, evaluator.gradients)
    ordered = [traces[i] for i in range(cfg.restarts)]
    best_index = int(np.argmin([t.final_cost for t in ordered]))
    return RestartSummary(traces=ordered, best_index=best_index,
                          seeds=[[init.seed, i] for i in range(cfg.restarts)])
