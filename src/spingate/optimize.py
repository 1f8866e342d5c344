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

Each method is written once, as an ask/tell generator that yields
requests and is sent each answer back; its return value is the
OptimizationTrace.  There are three kinds of request:

* ("cost", x): the cost at x, a float;
* ("grad", x): the gradient g at x, answered as (g, max|g|);
* ("direction", (g, hist)): L-BFGS's d = -H g from its curvature pairs,
  answered as (d, g.d).

One loop, `_lockstep`, runs every generator: it advances a set of them
in rounds and answers each round's requests with one call of a stacked
cost, one of a stacked gradient and one `_directions` call, which runs
the two-loop recursion once over all rows when there are at least
STACKED_DIRECTION_ROWS of them, and row by row below that.
`multi_restart` hands it all restarts with the evaluator's `costs` and
`gradients`, and `retrain` all re-trainings, each a short Nelder-Mead
phase chained into an L-BFGS polish; `lbfgs_minimize`,
`nelder_mead_minimize` and `run_single_restart` hand it one generator,
with their one-vector callables answering row by row.  Each batch of
costs or gradients is checked at once: a non-finite value raises
NumericalFailure naming the first restart that has one.  A trace's
`elapsed_ms` counts from the restart's first step; in lockstep that is
the start of the shared run, so it includes the time spent on the other
restarts.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure, check_amount, check_count, check_real
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
# Nelder-Mead iterations a re-training runs before its L-BFGS polish.
# tools/retrain_budget.py compares each start with its own result at 150
# (the former value): warm starts at Toffoli m = 6 and Fredkin m = 5, the
# default grid, 20 per point, master seeds 10, 7, 3 and 5 (800 per
# placement).  At 50, after each layer 1 start ends more than 1e-4 above
# and 4 below, final-only 4 above and 3 below, after each gate 15 and 15;
# no grid point's mean fidelity drops by more than 0.006, 800 cold starts
# rise by 0.0007 in mean cost, and at seeds 11 and 12 none ends above or
# below.  After each layer the 800 ask for 126,552 density costs, not
# 240,161.  The phase stays because it is an escape: the polish alone,
# from the warm start, ends 13 of 100 Toffoli starts higher, by up to 0.20.
RETRAIN_SIMPLEX_ITERS = 50

DEFAULT_MAX_ITERS = {"lbfgs": 200, "nelder-mead": 2000}
# most restarts, re-trainings or samples one run may ask for: every
# restart's generator, every re-training's start vector and every
# (samples, Q) parameter stack is built before the first is used.  The
# paper's runs use at most a few hundred; a larger count is a typo, and
# building it could exhaust memory before anything is computed.
MAX_COUNT = 100_000
# most iterations one optimizer run may take, and most curvature pairs an
# L-BFGS history may keep: ten times the largest default (2000).  Every
# iteration appends a parameter copy to its trace, so a run that never
# meets its goals grows until its budget is spent; a history longer than
# the iteration budget could never fill.
MAX_ITERS = 20_000
# direction requests of one round from which `_directions` runs one
# stacked recursion, not one per row.  With full histories of 10 pairs of
# 15-vectors, stacked against row by row: 1 row 159 against 57 us, 2 rows
# 196 against 147, 3 rows 156 against 159, 4 rows 176 against 246, 10
# rows 275 against 547 (median of 3 runs, 2-core x86-64 host)
STACKED_DIRECTION_ROWS = 3


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
        if not isinstance(self.clip, (tuple, list)) or len(self.clip) != 2:
            raise ConfigError(f"init clip must be a pair, got {self.clip!r}")
        lo, hi = self.clip
        for name, value in (("mean", self.mean), ("clip_low", lo), ("clip_high", hi)):
            check_real(f"init {name}", value)
        check_amount("init sigma", self.sigma)
        check_count("init seed", self.seed, 0)
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
        if not isinstance(self.algorithm, str) or self.algorithm not in DEFAULT_MAX_ITERS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        check_count("restarts", self.restarts, 1, MAX_COUNT)
        check_count("history_size", self.history_size, 1, MAX_ITERS)
        if self.max_iters is not None:
            check_count("max_iters", self.max_iters, 1, MAX_ITERS)
        for name in ("cost_tolerance", "gradient_tolerance", "spread_tolerance"):
            check_amount(name, getattr(self, name))
        # a zero step gives a degenerate simplex that stops at once; the
        # parameters are angles of period 2*pi, so a step above pi means
        # nothing, and a huge one overflows the simplex moves
        check_amount("simplex_step", self.simplex_step)
        if not 0.0 < self.simplex_step <= np.pi:
            raise ConfigError(f"simplex_step must lie in (0, pi], got {self.simplex_step!r}")

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


def _finite(kind: str, values, indices: list[int]):
    """A batch of requested costs (floats) or gradients (float rows).

    NumericalFailure naming the first restart whose value is not finite.
    """
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        finite = np.isfinite(values.reshape(len(indices), -1)).all(axis=1)
        raise NumericalFailure(f"restart {indices[np.argmin(finite)]}: the {kind} is not finite")
    return values.tolist() if kind == "cost" else values


def _two_loop(g: np.ndarray, hist) -> np.ndarray:
    """d = -H g by the two-loop recursion over curvature pairs (s, y, 1 / s.y), oldest first."""
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
    return d


def _directions(requests: list) -> list | np.ndarray:
    """`_two_loop` of each (g, hist) request, row r equal to _two_loop(*requests[r]) bit for bit.

    From STACKED_DIRECTION_ROWS requests on, one recursion runs over
    (depth, rows, Q) stacks of the pairs, newest first and zero-padded:
    np.vecdot is the same dot kernel as np.dot, each update is the same
    elementwise arithmetic, and no update touches a row at a padded pair.
    """
    if len(requests) < STACKED_DIRECTION_ROWS:
        return [_two_loop(g, hist) for g, hist in requests]
    d = -np.array([g for g, _ in requests])
    rows, q = d.shape
    lengths = np.array([len(hist) for _, hist in requests])
    depth = lengths.max()
    if depth == 0:
        return d
    pad = (np.zeros(q), np.zeros(q), 0.0)
    newest_first = [[*reversed(hist), *[pad] * (depth - len(hist))] for _, hist in requests]
    s, y, r = zip(*[pair for level in zip(*newest_first) for pair in level])
    s, y = (np.array(v).reshape(depth, rows, q) for v in (s, y))
    r = np.array(r).reshape(depth, rows)
    # where= on an update only at depths that some row's history does not reach
    shortest = lengths.min()
    used = [True if k < shortest else (lengths > k)[:, None] for k in range(depth)]
    alphas = np.empty_like(r)
    for k in range(depth):
        alphas[k] = r[k] * np.vecdot(s[k], d)
        np.subtract(d, alphas[k][:, None] * y[k], out=d, where=used[k])
    d *= np.divide(np.vecdot(s[0], y[0]), np.vecdot(y[0], y[0]), out=np.ones(rows),
                   where=lengths > 0)[:, None]
    for k in reversed(range(depth)):
        b = r[k] * np.vecdot(y[k], d)
        np.add(d, (alphas[k] - b)[:, None] * s[k], out=d, where=used[k])
    return d


def _lockstep(steps: dict, costs, gradients) -> dict[int, OptimizationTrace]:
    """Run optimizer generators, keyed by restart index, to their ends in rounds.

    Each round answers every pending cost request with one call of
    `costs` on the stacked vectors, then every pending gradient request
    with one call of `gradients`, then every pending direction request
    with one `_directions` call; a generator whose cost is answered may
    ask for its gradient and then its direction in the same round.  Batches
    follow the order of `steps`; a gradient reply is (g, max|g|) and a
    direction reply (d, g.d), each from one reduction over the batch.
    Returns the traces by index.
    """
    pending = {"cost": [], "grad": [], "direction": []}  # kind -> [(position, index, gen, x)]
    traces: dict[int, OptimizationTrace] = {}

    def advance(position, index, gen, reply):
        try:
            kind, x = gen.send(reply)
        except StopIteration as done:
            traces[index] = done.value
        else:
            pending[kind].append((position, index, gen, x))

    for position, (index, gen) in enumerate(steps.items()):
        advance(position, index, gen, None)
    while any(pending.values()):
        for kind, asking in pending.items():
            if not asking:
                continue
            pending[kind] = []
            asking.sort()  # by position: one request per generator
            requests = [x for *_, x in asking]
            if kind == "direction":
                d = np.asarray(_directions(requests))  # np.vecdot runs np.dot's kernel per row
                replies = zip(d, np.vecdot(np.array([g for g, _ in requests]), d))
            else:
                batch = costs if kind == "cost" else gradients
                values = _finite(kind, batch(np.array(requests)), [i for _, i, _, _ in asking])
                replies = values if kind == "cost" else zip(values, np.abs(values).max(axis=1))
            for (position, index, gen, _), reply in zip(asking, replies):
                advance(position, index, gen, reply)
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


def _lbfgs_steps(x0, cfg, restart_index, rng, stall_rtol=STALL_RTOL):
    """lbfgs_minimize as an ask/tell generator (see the module docstring).

    Gradient replies carry max|g| and direction replies g.d (`_lockstep`).
    `stall_rtol` replaces STALL_RTOL in the stall test.
    """
    rec = _Recorder()
    x = wrap_angles(np.asarray(x0, dtype=float))
    f = yield "cost", x
    g, g_max = yield "grad", x
    n_evals = 1
    hist = deque(maxlen=cfg.history_size)  # curvature pairs (s, y, 1 / s.y), oldest first
    best_x, best_f = x, f
    descent_start = 0
    escaped = False
    rec.add(f, g_max, x)

    def done(reason):
        return rec.finish(restart_index, "lbfgs", best_x, best_f,
                          best_f <= cfg.cost_tolerance, reason, n_evals)

    while True:
        if f <= cfg.cost_tolerance:
            return done("cost-tolerance")
        row = len(rec.costs) - 1
        stationary = g_max <= cfg.gradient_tolerance
        window_start = row - STALL_WINDOW
        stalled = stationary or (
            window_start >= descent_start
            and rec.costs[window_start] - f <= stall_rtol * rec.costs[window_start])
        budget_left = row < cfg.resolved_max_iters
        if stalled and (rng is None or not budget_left):
            return done("gradient-tolerance" if stationary else "stalled")
        if not budget_left:
            return done("stalled" if escaped else "max-iterations")
        if stalled:
            x = wrap_angles(best_x + rng.normal(0.0, KICK_SIGMA, best_x.size))
            f = yield "cost", x
            g, g_max = yield "grad", x
            n_evals += 1
            hist.clear()
            escaped = True
            descent_start = row + 1
        else:
            d, slope = yield "direction", (g, hist)
            if slope >= 0.0:
                # not a descent direction; drop history and fall back to steepest descent
                hist.clear()
                d = -g
                slope = np.dot(g, d)
            # Armijo backtracking
            alpha = 1.0
            f_new = None
            for _ in range(MAX_HALVINGS):
                f_try = yield "cost", (x_try := x + alpha * d)
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
            x = wrap_angles(x_try)
            g_new, g_max = yield "grad", x
            y = g_new - g
            sy = np.dot(s, y)
            if sy > CURVATURE_EPS:
                hist.append((s, y, 1.0 / sy))
            f, g = f_new, g_new
        rec.add(f, g_max, x)
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
        # the largest pairwise max-norm distance: rounding is monotone, so the
        # per-coordinate max - min equals the pairwise maximum bit for bit
        finals = [t.final_theta for t, c in zip(self.traces, conv) if c]
        out["parameter_dispersion_converged"] = (
            float(np.ptp(finals, axis=0).max()) if len(finals) > 1 else 0.0)
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


def _retrain_steps(x0, cfg: OptimizerConfig, restart_index: int):
    """One re-training as an ask/tell generator: a short simplex phase, then a polish.

    RETRAIN_SIMPLEX_ITERS Nelder-Mead iterations from x0, then L-BFGS
    from the best vertex with its default budget and no kicks, whose
    stall test uses cfg.spread_tolerance in place of STALL_RTOL.  Returns
    the polish's trace, whose row 0 is that vertex.
    """
    simplex = yield from _nelder_mead_steps(
        x0, dataclasses.replace(cfg, algorithm="nelder-mead", max_iters=RETRAIN_SIMPLEX_ITERS),
        restart_index)
    polish_cfg = dataclasses.replace(cfg, algorithm="lbfgs", max_iters=None)
    return (yield from _lbfgs_steps(simplex.final_theta, polish_cfg, restart_index, None,
                                    stall_rtol=cfg.spread_tolerance))


def retrain(evaluator, starts: list[np.ndarray], cfg: OptimizerConfig) -> list[OptimizationTrace]:
    """Re-train from each start vector (see `_retrain_steps`), all in lockstep.

    cfg gives the simplex step, the history size and the cost, gradient
    and spread tolerances; its algorithm, max_iters and restarts are not
    used.  Costs and
    gradients come from `evaluator.costs` and `evaluator.gradients`;
    trace i belongs to starts[i], and a non-finite value raises
    NumericalFailure naming that index.
    """
    traces = _lockstep({i: _retrain_steps(x0, cfg, i) for i, x0 in enumerate(starts)},
                       evaluator.costs, evaluator.gradients)
    return [traces[i] for i in range(len(starts))]
