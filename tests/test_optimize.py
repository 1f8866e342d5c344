"""Optimizer behaviour on textbook objectives plus restart plumbing."""

import numpy as np
import pytest

from spingate.ansatz import build_hva
from spingate.cost import CostEvaluator
from spingate.errors import ConfigError, NumericalFailure
from spingate.hamiltonian import heisenberg_spec
from spingate.optimize import (InitScheme, OptimizerConfig, RestartSummary,
                               lbfgs_minimize, multi_restart,
                               nelder_mead_minimize, run_single_restart)
from spingate.targets import toffoli


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def fun(x):
        return float(np.sum((x - center) ** 2))

    def grad(x):
        return 2.0 * (np.asarray(x) - center)

    return fun, grad


def test_lbfgs_solves_quadratic():
    fun, grad = quadratic([0.3, -0.4, 0.1])
    cfg = OptimizerConfig()
    tr = lbfgs_minimize(fun, grad, np.zeros(3), cfg)
    assert tr.converged
    assert tr.stop_reason == "cost-tolerance"
    assert tr.final_cost <= cfg.cost_tolerance
    assert np.max(np.abs(tr.final_theta - [0.3, -0.4, 0.1])) < 0.02
    assert tr.algorithm == "lbfgs"
    # trace rows: initial point plus one per iteration
    assert len(tr.costs) == tr.iterations + 1
    assert tr.costs[0] == fun(np.zeros(3))


def test_lbfgs_already_at_goal():
    fun, grad = quadratic([0.0, 0.0])
    tr = lbfgs_minimize(fun, grad, np.zeros(2), OptimizerConfig())
    assert tr.converged and tr.iterations == 0
    assert tr.stop_reason == "cost-tolerance"


def test_lbfgs_stall_is_not_convergence():
    """A zero-gradient point above the cost goal ends the run unconverged."""
    def fun(x):
        return 0.3 + float(np.sum(np.asarray(x) ** 2))

    def grad(x):
        return 2.0 * np.asarray(x)

    tr = lbfgs_minimize(fun, grad, np.zeros(4), OptimizerConfig())
    assert tr.stop_reason == "gradient-tolerance"
    assert not tr.converged
    assert tr.final_cost == pytest.approx(0.3)


def test_lbfgs_line_search_failure_reported():
    # cost jumps up everywhere except the starting point, so every
    # backtracking candidate is rejected and the halving budget runs out
    calls = {"n": 0}

    def bump(x):
        calls["n"] += 1
        return 0.5 if calls["n"] == 1 else 1.0

    tr = lbfgs_minimize(bump, lambda x: np.ones(3), np.zeros(3),
                        OptimizerConfig())
    assert tr.stop_reason == "line-search-failure"
    assert not tr.converged
    assert tr.final_cost == 0.5


def test_lbfgs_max_iterations():
    # anisotropic bowl: a single steepest-descent step cannot land on the
    # minimum, unlike the isotropic case where the first halving does
    w = np.arange(1, 7, dtype=float)
    center = np.full(6, 0.9)
    fun = lambda x: float(np.sum(w * (np.asarray(x) - center) ** 2))
    grad = lambda x: 2.0 * w * (np.asarray(x) - center)
    cfg = OptimizerConfig(max_iters=1, cost_tolerance=1e-12)
    tr = lbfgs_minimize(fun, grad, np.zeros(6), cfg)
    assert tr.stop_reason == "max-iterations"
    assert not tr.converged
    assert tr.iterations == 1


def test_lbfgs_iterates_stay_wrapped():
    fun, grad = quadratic(np.full(2, 2.9))
    tr = lbfgs_minimize(fun, grad, np.zeros(2), OptimizerConfig())
    assert np.all(np.abs(tr.theta_history) <= np.pi + 1e-12)
    assert np.all(np.abs(tr.final_theta) <= np.pi + 1e-12)


def test_lbfgs_curvature_pair_ignores_wrap_seam():
    """A minimum across the +-pi seam is found exactly as one away from it."""
    w = np.array([1.0, 3.0, 0.5, 2.0])

    def periodic_bowl(center):
        fun = lambda x: float(np.sum(w * (1.0 - np.cos(np.asarray(x) - center))))
        grad = lambda x: w * np.sin(np.asarray(x) - center)
        return fun, grad

    cfg = OptimizerConfig(cost_tolerance=1e-12)
    center = np.array([np.pi - 0.05, -np.pi + 0.1, np.pi - 0.2, 0.3])
    x0 = np.array([2.6, -2.7, 2.5, -0.4])
    shift = np.array([np.pi, -np.pi, np.pi, 0.0]) / 2
    seam = lbfgs_minimize(*periodic_bowl(center), x0, cfg)
    inside = lbfgs_minimize(*periodic_bowl(center - shift), x0 - shift, cfg)
    # the first step carries two coordinates across the seam
    assert np.any(np.abs(np.diff(seam.theta_history[:2], axis=0)) > np.pi)
    assert seam.iterations == inside.iterations
    assert seam.final_cost == pytest.approx(inside.final_cost, abs=1e-15)
    assert seam.stop_reason == inside.stop_reason == "cost-tolerance"


def flat_floor():
    """0.3 plus a quartic well: progress near the floor is too slow to matter."""
    def fun(x):
        return 0.3 + float(np.sum((1.0 - np.cos(np.asarray(x))) ** 2))

    def grad(x):
        x = np.asarray(x)
        return 2.0 * (1.0 - np.cos(x)) * np.sin(x)

    return fun, grad


def test_lbfgs_plateau_reports_stalled():
    fun, grad = flat_floor()
    cfg = OptimizerConfig(max_iters=40)
    tr = lbfgs_minimize(fun, grad, np.array([1.0, -0.8, 0.5]), cfg)
    assert tr.stop_reason == "stalled"
    assert not tr.converged
    assert tr.iterations < cfg.max_iters
    assert np.max(np.abs(grad(tr.final_theta))) > cfg.gradient_tolerance
    assert tr.final_cost == pytest.approx(0.3, abs=1e-2)


def test_lbfgs_stall_escapes_stay_within_max_iters():
    fun, grad = flat_floor()
    cfg = OptimizerConfig(max_iters=40)
    tr = lbfgs_minimize(fun, grad, np.array([1.0, -0.8, 0.5]), cfg,
                        rng=np.random.default_rng(3))
    assert tr.stop_reason == "stalled"
    assert not tr.converged
    assert tr.iterations == cfg.max_iters
    # a kick is the only step that raises the cost
    assert np.any(np.diff(tr.costs) > 0.0)
    # the best point seen is returned
    assert tr.final_cost == min(tr.costs)
    assert fun(tr.final_theta) == tr.final_cost


def test_nelder_mead_solves_quadratic():
    fun, _ = quadratic([0.2, -0.1])
    cfg = OptimizerConfig(algorithm="nelder-mead")
    tr = nelder_mead_minimize(fun, np.zeros(2), cfg)
    assert tr.converged
    assert tr.stop_reason == "cost-tolerance"
    assert tr.final_cost <= cfg.cost_tolerance
    assert tr.algorithm == "nelder-mead"


def test_nelder_mead_collapse_above_goal_is_stall():
    fun = lambda x: 0.25 + float(np.sum(np.asarray(x) ** 2))
    cfg = OptimizerConfig(algorithm="nelder-mead")
    tr = nelder_mead_minimize(fun, np.zeros(2), cfg)
    assert tr.stop_reason == "spread-tolerance"
    assert not tr.converged
    assert tr.final_cost == pytest.approx(0.25, abs=1e-6)


def test_nelder_mead_cost_never_increases():
    fun, _ = quadratic([0.4, 0.3, -0.2])
    cfg = OptimizerConfig(algorithm="nelder-mead", cost_tolerance=1e-10)
    tr = nelder_mead_minimize(fun, np.full(3, 0.9), cfg)
    assert np.all(np.diff(tr.costs) <= 1e-15)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(algorithm="adam")
    for bad in (dict(restarts=0), dict(history_size=0), dict(max_iters=0),
                dict(cost_tolerance=-1e-4), dict(gradient_tolerance=-1.0),
                dict(spread_tolerance=float("nan")), dict(simplex_step=0.0),
                dict(simplex_step=-0.1), dict(simplex_step=float("nan")),
                dict(simplex_step=float("inf"))):
        with pytest.raises(ConfigError):
            OptimizerConfig(**bad)
    assert OptimizerConfig().resolved_max_iters == 200
    assert OptimizerConfig(algorithm="nelder-mead").resolved_max_iters == 2000
    assert OptimizerConfig(max_iters=17).resolved_max_iters == 17


def test_init_scheme_rejects_inverted_clip():
    with pytest.raises(ConfigError):
        InitScheme(clip=(1.0, -1.0))
    assert InitScheme(clip=(0.5, 0.5)).sample(np.random.default_rng(0), 3).tolist() == [0.5] * 3


def test_init_scheme_clipping_and_reproducibility():
    init = InitScheme(sigma=5.0, clip=(-1.0, 1.0), seed=0)
    draws = init.sample(np.random.default_rng(9), 500)
    assert np.max(np.abs(draws)) <= 1.0
    assert np.mean(np.abs(draws) == 1.0) > 0.5  # wide sigma hits the box often
    a = init.sample(np.random.default_rng(5), 15)
    b = init.sample(np.random.default_rng(5), 15)
    assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def small_evaluator():
    return CostEvaluator(build_hva(heisenberg_spec(3), 1), toffoli(),
                         mode="exact-trace")


def test_multi_restart_deterministic(small_evaluator):
    init = InitScheme(seed=7)
    cfg = OptimizerConfig(restarts=3, max_iters=15)
    a = multi_restart(small_evaluator, init, cfg)
    b = multi_restart(small_evaluator, init, cfg)
    for ta, tb in zip(a.traces, b.traces):
        assert np.array_equal(ta.costs, tb.costs)
        assert np.array_equal(ta.final_theta, tb.final_theta)
    assert a.best_index == b.best_index
    assert a.seeds == [[7, 0], [7, 1], [7, 2]]


def one_at_a_time(evaluator, init, cfg):
    """Every restart on its own, through the single-vector `cost` and `gradient`."""
    return [run_single_restart(evaluator, init, cfg, i) for i in range(cfg.restarts)]


def test_multi_restart_threaded_matches_serial(small_evaluator):
    """Restart draws are counter-derived, so advancing them together changes nothing."""
    init = InitScheme(seed=11)
    cfg = OptimizerConfig(restarts=4, max_iters=15)
    serial = one_at_a_time(small_evaluator, init, cfg)
    pooled = multi_restart(small_evaluator, init, cfg)
    for ts, tp in zip(serial, pooled.traces, strict=True):
        assert np.array_equal(ts.costs, tp.costs)
        assert np.array_equal(ts.final_theta, tp.final_theta)
        assert ts.stop_reason == tp.stop_reason


def test_multi_restart_escapes_match_serial(small_evaluator):
    """Kicks draw from each restart's own stream, so lockstep changes nothing."""
    init = InitScheme(seed=5)
    cfg = OptimizerConfig(restarts=4, max_iters=60)
    serial = one_at_a_time(small_evaluator, init, cfg)
    pooled = multi_restart(small_evaluator, init, cfg)
    kicked = [t for t in serial if np.any(np.diff(t.costs) > 0.0)]
    assert kicked
    assert all(t.stop_reason == "stalled" for t in kicked)
    for ts, tp in zip(serial, pooled.traces, strict=True):
        assert np.array_equal(ts.costs, tp.costs)
        assert np.array_equal(ts.theta_history, tp.theta_history)
        assert np.array_equal(ts.final_theta, tp.final_theta)
        assert ts.stop_reason == tp.stop_reason
        assert ts.iterations <= cfg.max_iters


def test_multi_restart_best_index(small_evaluator):
    init = InitScheme(seed=3)
    cfg = OptimizerConfig(restarts=5, max_iters=10)
    s = multi_restart(small_evaluator, init, cfg)
    finals = [t.final_cost for t in s.traces]
    assert s.best_index == int(np.argmin(finals))
    assert s.best.final_cost == min(finals)
    assert np.array_equal(s.final_costs, finals)


def test_restart_summary_stats():
    fun, grad = quadratic([0.3])
    good = lbfgs_minimize(fun, grad, np.zeros(1), OptimizerConfig())
    stall_fun = lambda x: 0.5 + float(np.sum(np.asarray(x) ** 2))
    stall_grad = lambda x: 2.0 * np.asarray(x)
    stalled = lbfgs_minimize(stall_fun, stall_grad, np.zeros(1), OptimizerConfig())
    summary = RestartSummary(traces=[good, stalled], best_index=0,
                             seeds=[[0, 0], [0, 1]])
    st = summary.stats()
    assert st["n_restarts"] == 2
    assert st["n_converged"] == 1
    assert st["mean_final_cost_converged"] == good.final_cost
    assert st["std_final_cost_converged"] == 0.0
    assert st["mean_final_cost"] == pytest.approx(
        0.5 * (good.final_cost + stalled.final_cost))
    assert st["parameter_dispersion_converged"] == 0.0


def test_run_single_restart_matches_manual(small_evaluator):
    from spingate.seeding import derive_rng
    init = InitScheme(seed=21)
    cfg = OptimizerConfig(restarts=1, max_iters=10)
    tr = run_single_restart(small_evaluator, init, cfg, 4)
    rng = derive_rng(21, 4)
    theta0 = init.sample(rng, 15)
    tr2 = lbfgs_minimize(small_evaluator.cost, small_evaluator.gradient,
                         theta0, cfg, restart_index=4)
    assert np.array_equal(tr.final_theta, tr2.final_theta)
    assert tr.restart_index == 4


def assert_same_traces(summary, serial):
    """A lockstep summary equals its restarts run one at a time, bit for bit."""
    for ta, tb in zip(summary.traces, serial, strict=True):
        for name in ("costs", "metric", "theta_history", "final_theta"):
            assert np.array_equal(getattr(ta, name), getattr(tb, name))
        assert (ta.restart_index, ta.stop_reason, ta.n_evals, ta.final_cost) \
            == (tb.restart_index, tb.stop_reason, tb.n_evals, tb.final_cost)
    assert summary.best_index == int(np.argmin([t.final_cost for t in serial]))


def test_lockstep_matches_one_at_a_time_when_restarts_finish_apart():
    ev = CostEvaluator(build_hva(heisenberg_spec(3), 3), toffoli())
    init = InitScheme(seed=5)
    cfg = OptimizerConfig(restarts=4, max_iters=60, cost_tolerance=0.2)
    lockstep = multi_restart(ev, init, cfg)
    assert_same_traces(lockstep, one_at_a_time(ev, init, cfg))
    # one restart converges rounds before the others, which kick on to the budget
    early = [t for t in lockstep.traces if t.stop_reason == "cost-tolerance"]
    assert len(early) == 1 and early[0].iterations < cfg.max_iters
    for t in lockstep.traces:
        if t is not early[0]:
            assert t.iterations == cfg.max_iters and np.any(np.diff(t.costs) > 0.0)


def test_nelder_mead_lockstep_matches_one_at_a_time(small_evaluator):
    init = InitScheme(seed=2)
    cfg = OptimizerConfig(algorithm="nelder-mead", restarts=3, max_iters=120)
    lockstep = multi_restart(small_evaluator, init, cfg)
    assert_same_traces(lockstep, one_at_a_time(small_evaluator, init, cfg))
    assert all(t.algorithm == "nelder-mead" for t in lockstep.traces)


class _StackSizes(CostEvaluator):
    """Records the row count of every `costs` call, and 1 for every `cost` call."""

    def costs(self, thetas):
        self.rows.append(len(thetas))
        return super().costs(thetas)

    def cost(self, theta):
        self.rows.append(1)
        return super().cost(theta)


def test_lockstep_counts_the_same_evaluations_in_fewer_calls():
    init = InitScheme(seed=9)
    cfg = OptimizerConfig(restarts=5, max_iters=20)
    runs = {"lockstep": lambda ev: multi_restart(ev, init, cfg).traces,
            "serial": lambda ev: one_at_a_time(ev, init, cfg)}
    counts = {}
    for name, run in runs.items():
        ev = _StackSizes(build_hva(heisenberg_spec(3), 2), toffoli())
        ev.rows = rows = []
        traces = run(ev)
        counts[name] = (ev.eval_count, len(rows), max(rows))
        assert ev.eval_count == sum(rows) == sum(t.n_evals for t in traces)
    lockstep, serial = counts["lockstep"], counts["serial"]
    assert lockstep[0] == serial[0]
    assert lockstep[1] < serial[1]
    assert lockstep[2] == cfg.restarts and serial[2] == 1


def test_lbfgs_non_finite_values_raise():
    fun, grad = quadratic([0.3, -0.4])
    nan_fun = lambda x: fun(x) if np.all(np.asarray(x) == 0.0) else float("nan")
    with pytest.raises(NumericalFailure, match="restart 7: the cost"):
        lbfgs_minimize(nan_fun, grad, np.zeros(2), OptimizerConfig(), restart_index=7)
    inf_grad = lambda x: np.array([np.inf, 0.0])
    with pytest.raises(NumericalFailure, match="restart 0: the grad"):
        lbfgs_minimize(fun, inf_grad, np.zeros(2), OptimizerConfig())
    with pytest.raises(NumericalFailure, match="restart 2: the cost"):
        nelder_mead_minimize(lambda x: float("nan"), np.zeros(2),
                             OptimizerConfig(algorithm="nelder-mead"), restart_index=2)


class _NanAfter:
    """An evaluator whose last stacked cost turns NaN after `calls` calls of `costs`."""

    def __init__(self, evaluator, calls):
        self.inner, self.calls, self.circuit = evaluator, calls, evaluator.circuit

    def costs(self, thetas):
        out = self.inner.costs(thetas)
        self.calls -= 1
        if self.calls < 0:
            out[-1] = np.nan
        return out

    def gradients(self, thetas):
        return self.inner.gradients(thetas)


def test_multi_restart_non_finite_cost_names_the_restart(small_evaluator):
    ev = _NanAfter(small_evaluator, calls=3)
    with pytest.raises(NumericalFailure, match="restart 2: the cost is not finite"):
        multi_restart(ev, InitScheme(seed=4), OptimizerConfig(restarts=3, max_iters=10))
