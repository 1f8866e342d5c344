"""Cost definition, route agreement, and gradients."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spingate.ansatz import build_hva, circuit_unitary, gate_matrices, layer_products
from spingate import cost as cost_module
from spingate.cost import COST_CHUNK_ROWS, MODES, CostEvaluator, _layer_sweep
from spingate.errors import DimMismatch, LengthMismatch, NumericalFailure
from spingate.hamiltonian import heisenberg_spec, wrap_angles
from spingate.linalg import dagger, hs_overlap
from spingate.noise import CoherentNoise, _shifted_stack
from spingate.simulator import (PLACEMENTS, KrausChannel, NoisyCircuitPlan,
                                amplitude_damping, bell_prep_state,
                                evolve_density, readout_vector)
from spingate.targets import TargetGate, fredkin, toffoli


def make_eval(spec3, m=2, mode=None, target=None, plan=None):
    c = build_hva(spec3, m)
    return CostEvaluator(c, target or toffoli(), mode=mode, plan=plan)


def test_cost_at_zero_is_hand_value(spec3):
    # theta = 0 gives U = I; Tr(V^dag I) = 6 for either permutation target,
    # so C = 1 - 36/64 = 0.4375 independent of depth
    for target in (toffoli(), fredkin()):
        for m in (1, 4, 6):
            ev = make_eval(spec3, m=m, target=target)
            assert ev.cost(np.zeros(15)) == pytest.approx(0.4375, abs=1e-14)


def test_cost_range_and_fidelity(spec3, rng):
    ev = make_eval(spec3)
    for _ in range(20):
        theta = rng.normal(size=15)
        cval = ev.cost(theta)
        assert 0.0 <= cval <= 1.0
    assert not hasattr(ev, "fidelity")  # the fidelity is 1 - cost; no wrapper


def test_modes_agree_noiseless(spec3, rng):
    """Exact-trace and the literal overlap-test circuit give one cost."""
    a = make_eval(spec3, mode="exact-trace")
    b = make_eval(spec3, mode="hs-test-statevector")
    for _ in range(10):
        theta = rng.normal(size=15)
        assert abs(a.cost(theta) - b.cost(theta)) < 1e-12


def test_density_mode_p0_matches_noiseless(spec3, rng):
    c = build_hva(spec3, 2)
    target = toffoli()
    plan = NoisyCircuitPlan(c, amplitude_damping(0.0))
    a = CostEvaluator(c, target, mode="exact-trace")
    b = CostEvaluator(c, target, mode="hs-test-density", plan=plan)
    for _ in range(5):
        theta = rng.normal(size=15)
        assert abs(a.cost(theta) - b.cost(theta)) < 1e-10


def depolarizing(p):
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0]))
    return KrausChannel(f"depolarizing(p={p:g})",
                        (np.sqrt(1 - 0.75 * p) * np.eye(2),
                         *(np.sqrt(p / 4) * s for s in paulis)))


def test_density_fastpath_matches_literal_evolution(spec3, rng, random_channel):
    """The superoperator shortcut must track the straight density route.

    Amplitude damping's superoperator is nearly diagonal and can hide a
    basis or sign error that only shows once steps compose, so depolarizing
    and random channels (complex, non-Hermitian operators, 1 to 3 of
    them) are checked as well.
    """
    u = bell_prep_state(3)
    rho0 = np.outer(u, u.conj())
    for target in (toffoli(), fredkin()):
        w = readout_vector(target)
        for m in (1, 2, 5):
            c = build_hva(spec3, m)
            channels = [f(p) for p in (0.0, 0.08, 0.5) for f in (amplitude_damping, depolarizing)]
            for channel in channels + [random_channel(k) for k in (1, 2, 3)]:
                for placement in PLACEMENTS:
                    plan = NoisyCircuitPlan(c, channel, placement)
                    ev = CostEvaluator(c, target, mode="hs-test-density", plan=plan)
                    theta = rng.normal(size=15)
                    rho = evolve_density(plan, theta, rho0)
                    literal = 1.0 - (w.conj() @ rho @ w).real
                    assert abs(ev.cost(theta) - literal) < 1e-12


def test_cost_periodicity(spec3, rng):
    """Shifting any coordinate by 2*pi moves the cost by at most float
    rounding in the shifted coordinate itself."""
    ev = make_eval(spec3)
    theta = rng.uniform(-np.pi, np.pi, size=15)
    base = ev.cost(theta)
    for j in (0, 4, 9, 14):
        up = theta.copy()
        up[j] += 2.0 * np.pi
        assert abs(ev.cost(up) - base) < 1e-12
        dn = theta.copy()
        dn[j] -= 4.0 * np.pi
        assert abs(ev.cost(dn) - base) < 1e-12


def test_cost_wrap_invariance_bitwise(spec3, rng):
    # wrapping happens on entry and is idempotent, so pre-wrapping a vector
    # (in-window or not) never changes the returned float
    ev = make_eval(spec3)
    for scale in (1.0, 30.0):
        theta = rng.uniform(-scale, scale, size=15)
        assert ev.cost(theta) == ev.cost(wrap_angles(theta))


def test_eval_count_increments(spec3, rng, central_diff):
    ev = make_eval(spec3)
    assert ev.eval_count == 0
    ev.cost(rng.normal(size=15))
    ev.cost(rng.normal(size=15))
    assert ev.eval_count == 2
    central_diff(ev, rng.normal(size=15))
    assert ev.eval_count == 2 + 30  # 2Q extra cost calls
    ev.gradient(rng.normal(size=15))
    assert ev.eval_count == 32  # the adjoint gradient costs nothing


def test_adjoint_gradient_matches_central_diff(spec3, rng, central_diff):
    ev = make_eval(spec3, m=3)
    for _ in range(5):
        theta = rng.normal(size=15)
        adj = ev.gradient(theta)
        fd = central_diff(ev, theta)
        assert np.max(np.abs(adj - fd)) < 1e-6


def test_gradient_zero_at_exact_compilation(spec3):
    """At theta = 0 with target = identity the cost sits at a minimum."""
    from spingate.targets import TargetGate
    ident = TargetGate("ident", np.eye(8))
    ev = make_eval(spec3, target=ident)
    g = ev.gradient(np.zeros(15))
    assert np.max(np.abs(g)) < 1e-12
    assert ev.cost(np.zeros(15)) < 1e-15


def test_gradient_checks(spec3, rng):
    c = build_hva(spec3, 2)
    plan = NoisyCircuitPlan(c, amplitude_damping(0.1))
    noisy = CostEvaluator(c, toffoli(), mode="hs-test-density", plan=plan)
    assert noisy.gradient(np.zeros(15)).shape == (15,)
    assert noisy.gradients(np.zeros((2, 15))).shape == (2, 15)
    assert noisy.gradients(np.zeros((0, 15))).shape == (0, 15)
    for bad in (np.zeros(15), np.zeros((3, 16))):
        with pytest.raises(LengthMismatch):
            noisy.gradients(bad)
    with pytest.raises(NumericalFailure):
        noisy.gradient(np.full(15, np.inf))
    ev = make_eval(spec3)
    for method in ("adjoint", "central-diff", "forward"):  # one gradient: no method knob
        with pytest.raises(TypeError):
            ev.gradient(np.zeros(15), method=method)
    assert not hasattr(cost_module, "CENTRAL_DIFF_STEP")
    with pytest.raises(LengthMismatch):
        ev.cost(np.zeros(16))
    for bad in (np.zeros(15), np.zeros((3, 16))):
        with pytest.raises(LengthMismatch):
            ev.gradients(bad)
    stack = np.zeros((3, 15))
    stack[1, 4] = np.nan
    with pytest.raises(NumericalFailure):
        ev.gradients(stack)


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_density_gradient_matches_central_diff(spec3, rng, random_channel, central_diff,
                                               placement):
    worst = 0.0
    for target in (toffoli(), fredkin()):
        for m in (1, 2, 6):
            c = build_hva(spec3, m)
            for channel in [amplitude_damping(p) for p in (0.0, 0.01, 0.3)] + [random_channel(2)]:
                plan = NoisyCircuitPlan(c, channel, placement)
                ev = CostEvaluator(c, target, mode="hs-test-density", plan=plan)
                theta = rng.normal(size=15)
                gap = np.max(np.abs(ev.gradient(theta) - central_diff(ev, theta)))
                worst = max(worst, gap)
    assert worst < 1e-6


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_density_gradients_equal_single_gradients_bitwise(spec3, rng, random_channel,
                                                          placement):
    c = build_hva(spec3, 3)
    plan = NoisyCircuitPlan(c, random_channel(3), placement)
    ev = CostEvaluator(c, fredkin(), mode="hs-test-density", plan=plan)
    stack = rng.uniform(-30.0, 30.0, size=(4, 15))
    grads = ev.gradients(stack)
    for row, grad in zip(stack, grads):
        assert grad.tobytes() == ev.gradient(row).tobytes()
    assert ev.eval_count == 0


def test_evaluator_validation(spec3):
    c = build_hva(spec3, 1)
    with pytest.raises(ValueError):
        CostEvaluator(c, toffoli(), mode="guess")
    with pytest.raises(ValueError, match="^hs-test-density mode needs a noise plan$"):
        CostEvaluator(c, toffoli(), mode="hs-test-density")
    plan = NoisyCircuitPlan(c, amplitude_damping(0.3))
    for mode in ("exact-trace", "hs-test-statevector"):  # the plan is never dropped
        with pytest.raises(ValueError, match=f"^{mode} mode takes no noise plan$"):
            CostEvaluator(c, toffoli(), mode=mode, plan=plan)
    assert CostEvaluator(c, toffoli()).mode == "exact-trace"
    two_site = heisenberg_spec(2)
    with pytest.raises(DimMismatch):
        CostEvaluator(build_hva(two_site, 1), toffoli())


def test_evaluator_rejects_a_plan_on_another_circuit(spec3):
    c = build_hva(spec3, 2)
    for other in (build_hva(spec3, 3), build_hva(heisenberg_spec(2), 2)):
        plan = NoisyCircuitPlan(other, amplitude_damping(0.05))
        with pytest.raises(DimMismatch):
            CostEvaluator(c, toffoli(), mode="hs-test-density", plan=plan)


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_a_plan_selects_the_density_route(spec3, placement):
    """With a plan and no mode, the evaluator is the density evaluator, bit for bit."""
    c = build_hva(spec3, 2)
    plan = NoisyCircuitPlan(c, amplitude_damping(0.3), placement)
    chosen = CostEvaluator(c, toffoli(), plan=plan)
    density = CostEvaluator(c, toffoli(), mode="hs-test-density", plan=plan)
    assert chosen.mode == "hs-test-density"
    stack = np.stack([np.linspace(-1.0, 1.0, 15), np.linspace(2.0, -5.0, 15)])
    assert chosen.costs(stack).tobytes() == density.costs(stack).tobytes()
    assert chosen.gradients(stack).tobytes() == density.gradients(stack).tobytes()
    # the plan is not dropped: the noiseless cost is another number
    assert abs(chosen.costs(stack) - CostEvaluator(c, toffoli()).costs(stack)).min() > 1e-3


def test_cost_against_raw_trace(spec3, rng):
    # independent reassembly of the definition from raw matrices
    ev = make_eval(spec3, m=2)
    target = toffoli()
    theta = rng.normal(size=15)
    u = circuit_unitary(ev.circuit, theta)
    t = np.trace(dagger(target.matrix) @ u)
    assert abs(ev.cost(theta) - (1.0 - abs(t) ** 2 / 64.0)) < 1e-14


@functools.lru_cache(maxsize=None)
def _stack_evaluator(target_name, m):
    target = toffoli() if target_name == "toffoli" else fredkin()
    return CostEvaluator(build_hva(heisenberg_spec(3), m), target)


# columns every row of a noise stack shares: charge noise shifts terms
# 10-15, nuclear noise terms 3, 6 and 9
CHARGE_SHARED = [j < 9 for j in range(15)]
NUCLEAR_SHARED = [j not in (2, 5, 8) for j in range(15)]


@settings(max_examples=120, deadline=None)
@given(target_name=st.sampled_from(["toffoli", "fredkin"]),
       m=st.sampled_from([1, 5, 6, 12]),
       rows=st.integers(min_value=1, max_value=40),
       scale=st.sampled_from([1.0, np.pi, 30.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       shared=st.lists(st.booleans(), min_size=15, max_size=15),
       tail_shift=st.sampled_from([0.0, 0.5]))
@example(target_name="toffoli", m=6, rows=COST_CHUNK_ROWS, scale=30.0, seed=1,
         shared=[False] * 15, tail_shift=0.0)
@example(target_name="fredkin", m=6, rows=COST_CHUNK_ROWS + 1, scale=30.0, seed=2,
         shared=[False] * 15, tail_shift=0.0)
@example(target_name="fredkin", m=5, rows=2 * COST_CHUNK_ROWS + 3, scale=np.pi, seed=1,
         shared=CHARGE_SHARED, tail_shift=0.0)
@example(target_name="fredkin", m=5, rows=2 * COST_CHUNK_ROWS + 3, scale=np.pi, seed=3,
         shared=NUCLEAR_SHARED, tail_shift=0.0)
@example(target_name="toffoli", m=12, rows=COST_CHUNK_ROWS + 1, scale=30.0, seed=2,
         shared=[True] * 15, tail_shift=0.0)
@example(target_name="fredkin", m=5, rows=2 * COST_CHUNK_ROWS + 3, scale=np.pi, seed=4,
         shared=[True] * 15, tail_shift=0.5)
def test_stacked_costs_equal_single_costs_bitwise(target_name, m, rows, scale, seed, shared,
                                                  tail_shift):
    # rows up to 40 cross the chunk edges; |angles| up to 30 exercise
    # wrapping; every row holds row 0's coordinates in the `shared`
    # columns, as a noise stack does in the terms it does not shift (all
    # 15: all rows equal).  A tail shift moves those columns in the rows
    # past the first chunk, so they vary in the stack but not in its first
    # chunk (all 15 shared: the first chunk is all-equal), and the chunks
    # share the stack's `layer_head`, not their own
    ev = _stack_evaluator(target_name, m)
    stack = np.random.default_rng(seed).uniform(-scale, scale, size=(rows, 15))
    stack[:, shared] = stack[0, shared]
    stack[COST_CHUNK_ROWS:, shared] += tail_shift
    single = np.array([ev.cost(row) for row in stack])
    assert ev.costs(stack).tobytes() == single.tobytes()
    # every row also equals the public circuit-unitary route, byte for byte
    public = np.array([1.0 - hs_overlap(circuit_unitary(ev.circuit, wrap_angles(row)),
                                        ev.target.matrix) for row in stack])
    assert public.tobytes() == single.tobytes()


@pytest.mark.parametrize("kind", ["charge", "nuclear"])
def test_a_noise_stack_builds_its_shared_factors_once(monkeypatch, kind):
    """One 300-row `costs` call builds the unshifted terms' factors once for
    the stack, and the shifted terms' factors once per chunk."""
    from spingate import ansatz

    ev = _stack_evaluator("fredkin", 5)
    spec, noise = ev.circuit.spec, CoherentNoise(kind, 0.05, "uniform-sample", seed=3)
    shifted = tuple(noise.affected_indices(spec))
    stack = _shifted_stack(np.linspace(-3.0, 3.0, 15), noise, spec, 300)
    built, factors = [], ansatz._factors

    def counted(spec, angles, terms):
        built.append(terms)
        return factors(spec, angles, terms)

    monkeypatch.setattr(ansatz, "_factors", counted)
    ev.costs(stack)
    chunks = -(-len(stack) // COST_CHUNK_ROWS)
    unshifted = tuple(j for j in range(15) if j not in shifted)
    assert built.count(unshifted) == 1 and built.count(shifted) == chunks
    assert len(built) == chunks + 1


@settings(max_examples=60, deadline=None)
@given(target_name=st.sampled_from(["toffoli", "fredkin"]),
       m=st.sampled_from([1, 6, 12]),
       rows=st.integers(min_value=1, max_value=40),
       scale=st.sampled_from([1.0, np.pi, 30.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       shared=st.lists(st.booleans(), min_size=15, max_size=15))
@example(target_name="toffoli", m=6, rows=COST_CHUNK_ROWS, scale=30.0, seed=1,
         shared=[False] * 15)
@example(target_name="fredkin", m=6, rows=COST_CHUNK_ROWS + 1, scale=30.0, seed=2,
         shared=[False] * 15)
@example(target_name="fredkin", m=1, rows=COST_CHUNK_ROWS + 3, scale=np.pi, seed=3,
         shared=CHARGE_SHARED)
@example(target_name="toffoli", m=6, rows=COST_CHUNK_ROWS + 3, scale=np.pi, seed=4,
         shared=NUCLEAR_SHARED)
@example(target_name="toffoli", m=6, rows=COST_CHUNK_ROWS + 1, scale=30.0, seed=5,
         shared=[True] * 15)
def test_stacked_gradients_equal_single_gradients_bitwise(target_name, m, rows, scale, seed,
                                                          shared):
    # rows up to 40 cross the chunk edges; |angles| up to 30 exercise
    # wrapping; the `shared` columns hold row 0's coordinates, as in the
    # costs test (all 15: all rows equal, as `[init] sigma = 0` gives)
    ev = _stack_evaluator(target_name, m)
    stack = np.random.default_rng(seed).uniform(-scale, scale, size=(rows, 15))
    stack[:, shared] = stack[0, shared]
    single = np.array([ev.gradient(row) for row in stack])
    assert np.array_equal(ev.gradients(stack), single)
    for row, grad in zip(stack, single, strict=True):
        assert np.array_equal(grad, _adjoint_gradient_one_vector(ev, row))


def _adjoint_gradient_one_vector(ev, theta):
    """The shared-layer adjoint sweep for one vector, with unstacked products."""
    circuit, v_dag, d = ev.circuit, ev.target.matrix.conj().T, 8
    gs = gate_matrices(circuit, wrap_angles(theta))
    fwd = np.empty_like(gs)
    fwd[0] = gs[0]
    for j in range(1, len(gs)):
        fwd[j] = gs[j] @ fwd[j - 1]
    powers = [np.eye(d, dtype=complex)]
    for _ in range(circuit.m - 1):
        powers.append(fwd[-1] @ powers[-1])
    t_val = np.trace(v_dag @ fwd[-1] @ powers[-1])
    back = np.empty_like(gs)
    back[-1] = sum(powers[l] @ v_dag @ powers[circuit.m - 1 - l] for l in range(circuit.m))
    for j in range(len(gs) - 2, -1, -1):
        back[j] = back[j + 1] @ gs[j + 1]
    dt = -1j * np.einsum("jab,jbc,jca->j", circuit.spec.matrices(), fwd, back)
    return -(2.0 / (d * d)) * (np.conj(t_val) * dt).real


def _gradient_requests(stack, rng):
    """Gradient stacks an optimizer can send after costing `stack`.

    The same rows, a reordered subset, a set with duplicates, and recorded
    rows mixed with new ones.
    """
    rows = len(stack)
    mixed = np.concatenate([stack[rng.permutation(rows)[:3]],
                            rng.uniform(-np.pi, np.pi, size=(2, stack.shape[1]))])
    return {"same": stack,
            "subset": stack[rng.permutation(rows)[:max(1, rows - 2)]],
            "duplicates": stack[rng.integers(0, rows, size=rows + 2)],
            "mixed": mixed[rng.permutation(len(mixed))]}


def _assert_gradients_after_costs_equal_fresh(make, stack, rng):
    """Gradients read after costs(stack) equal a fresh evaluator's, byte for byte."""
    recorded, fresh = make(), make()
    recorded.costs(stack)
    for kind, request in _gradient_requests(stack, rng).items():
        assert recorded.gradients(request).tobytes() == fresh.gradients(request).tobytes(), kind


@settings(max_examples=40, deadline=None)
@given(target_name=st.sampled_from(["toffoli", "fredkin"]),
       m=st.sampled_from([1, 6]),
       rows=st.integers(min_value=1, max_value=COST_CHUNK_ROWS + 3),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       shared=st.sampled_from([[False] * 15, CHARGE_SHARED, NUCLEAR_SHARED, [True] * 15]))
@example(target_name="toffoli", m=6, rows=COST_CHUNK_ROWS + 3, seed=1, shared=[False] * 15)
@example(target_name="fredkin", m=6, rows=9, seed=2, shared=CHARGE_SHARED)
@example(target_name="toffoli", m=6, rows=9, seed=3, shared=NUCLEAR_SHARED)
@example(target_name="toffoli", m=1, rows=5, seed=4, shared=[True] * 15)
def test_gradients_after_costs_equal_fresh_gradients_bitwise(target_name, m, rows, seed, shared):
    # |angles| up to 30 exercise wrapping before rows are matched; the
    # `shared` columns hold row 0's coordinates, as in a noise stack (all
    # 15: all rows equal); more than COST_CHUNK_ROWS rows cross a chunk edge
    rng = np.random.default_rng(seed)
    stack = rng.uniform(-30.0, 30.0, size=(rows, 15))
    stack[:, shared] = stack[0, shared]
    target = toffoli() if target_name == "toffoli" else fredkin()
    circuit = build_hva(heisenberg_spec(3), m)
    _assert_gradients_after_costs_equal_fresh(lambda: CostEvaluator(circuit, target), stack, rng)


@pytest.mark.parametrize("placement", PLACEMENTS)
@settings(max_examples=4, deadline=None)
@given(rows=st.integers(min_value=1, max_value=COST_CHUNK_ROWS + 3),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(rows=COST_CHUNK_ROWS + 3, seed=1)
def test_density_gradients_after_costs_equal_fresh_gradients_bitwise(placement, rows, seed):
    circuit = build_hva(heisenberg_spec(3), 2)
    plan = NoisyCircuitPlan(circuit, amplitude_damping(0.05), placement)
    rng = np.random.default_rng(seed)
    stack = rng.uniform(-30.0, 30.0, size=(rows, 15))
    _assert_gradients_after_costs_equal_fresh(
        lambda: CostEvaluator(circuit, fredkin(), mode="hs-test-density", plan=plan), stack, rng)


@pytest.mark.parametrize("mode", ["exact-trace", "hs-test-density"])
def test_gradients_never_read_a_stale_record(spec3, rng, mode):
    """Rows that only an earlier cost call evaluated, or other rows of the
    same shape as the last call's, get a fresh evaluator's gradients."""
    circuit = build_hva(spec3, 3)
    plan = NoisyCircuitPlan(circuit, amplitude_damping(0.05), "after-each-gate")

    def make():
        return CostEvaluator(circuit, toffoli(), mode=mode,
                             plan=plan if mode == "hs-test-density" else None)

    ev, fresh = make(), make()
    first, last, other = (rng.uniform(-np.pi, np.pi, size=(4, 15)) for _ in range(3))
    ev.costs(first)
    ev.costs(last)
    for request in (first, other, first[:1]):
        assert ev.gradients(request).tobytes() == fresh.gradients(request).tobytes()
    ev.cost(last[0])  # a single cost call replaces the record with its one row
    assert ev.gradients(last[1:]).tobytes() == fresh.gradients(last[1:]).tobytes()


@pytest.mark.parametrize("mode", ["exact-trace", "hs-test-density"])
def test_repeated_costs_hold_one_record(spec3, rng, mode):
    """500 cost calls on one evaluator retain one forward record, not one per call.

    Past the first call's record, retained memory grows by less than one
    more record (numpy's own caches warm up over the first calls) and is
    flat over the last 250 calls.
    """
    circuit = build_hva(spec3, 2)
    plan = NoisyCircuitPlan(circuit, amplitude_damping(0.01))
    ev = CostEvaluator(circuit, toffoli(), mode=mode,
                       plan=plan if mode == "hs-test-density" else None)
    thetas = rng.uniform(-np.pi, np.pi, size=(501, 15))
    ev.cost(thetas[0])  # builds the cached factor tables before tracing starts
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ev.cost(thetas[1])
        one_record = tracemalloc.get_traced_memory()[0] - base
        for theta in thetas[2:251]:
            ev.cost(theta)
        middle = tracemalloc.get_traced_memory()[0] - base
        for theta in thetas[251:]:
            ev.cost(theta)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 2 * one_record
    assert held - middle < 1024


def test_density_costs_record_their_last_row_only(spec3, rng):
    """A stack of density rows retains one row's record (about 0.5 MB after
    each gate at m = 6: 15 unit steps of 64x64), not one per row."""
    circuit = build_hva(spec3, 6)
    plan = NoisyCircuitPlan(circuit, amplitude_damping(0.01), "after-each-gate")
    ev = CostEvaluator(circuit, toffoli(), mode="hs-test-density", plan=plan)
    ev.cost(rng.uniform(-np.pi, np.pi, size=15))
    tracemalloc.start()
    try:
        ev.cost(rng.uniform(-np.pi, np.pi, size=15))
        one_row = tracemalloc.get_traced_memory()[0]
        ev.costs(rng.uniform(-np.pi, np.pi, size=(COST_CHUNK_ROWS, 15)))
        stack = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert stack < 1.5 * one_row


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_density_gradient_reads_its_own_row_of_a_record(spec3, rng, placement):
    """In a density record of two rows, row 1's gradient comes from row 1's
    forward pass: it equals a fresh evaluator's gradient bit for bit."""
    circuit = build_hva(spec3, 2)
    plan = NoisyCircuitPlan(circuit, amplitude_damping(0.05), placement)
    ev, fresh = (CostEvaluator(circuit, toffoli(), mode="hs-test-density", plan=plan)
                 for _ in range(2))
    rows = wrap_angles(rng.uniform(-np.pi, np.pi, size=(2, 15)))
    ev._remember(rows)  # a record of two rows, as `costs` of one chunk would keep
    assert ev._recall(rows[1:])[1] == [1]
    assert ev.gradients(rows[1:]).tobytes() == fresh.gradients(rows[1:]).tobytes()


@pytest.mark.parametrize("mode", ["exact-trace", "hs-test-density"])
def test_a_cost_call_drops_the_old_record_before_building_the_new(spec3, rng, mode):
    """The old and the new record are never alive at once: a cost call's
    peak stays well under one record above the memory it started with."""
    circuit = build_hva(spec3, 6)
    plan = NoisyCircuitPlan(circuit, amplitude_damping(0.01), "after-each-gate")
    ev = CostEvaluator(circuit, toffoli(), mode=mode,
                       plan=plan if mode == "hs-test-density" else None)
    rows = COST_CHUNK_ROWS if mode == "exact-trace" else 1  # the largest record of each mode
    ev.costs(rng.uniform(-np.pi, np.pi, size=(rows, 15)))
    tracemalloc.start()
    try:
        ev.costs(rng.uniform(-np.pi, np.pi, size=(rows, 15)))
        record = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ev.costs(rng.uniform(-np.pi, np.pi, size=(rows, 15)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - record < record / 2


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("rows", [1, 3, 17])
def test_layer_sweep_over_nonzeros_equals_dense_einsum(n, rows):
    """The sum over each Pauli string's nonzeros equals the sum over all its entries, bitwise.

    Both on an all-varying stack and on one whose every third column
    varies, where `layer_products` gives d x d shared factors and prefixes.
    """
    circuit = build_hva(heisenberg_spec(n), 3)
    rng = np.random.default_rng(10 * n + rows)
    d = 2 ** n
    stack = rng.uniform(-np.pi, np.pi, size=(rows, circuit.q))
    shared = np.arange(circuit.q) % 3 != 2
    shared_stack = stack.copy()
    shared_stack[:, shared] = stack[0, shared]
    for thetas in (stack, shared_stack):
        gs, fwd = layer_products(circuit, thetas)
        shape = fwd[-1].shape
        env = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        back = np.empty((circuit.q,) + shape, dtype=complex)
        back[-1] = env
        for j in range(circuit.q - 2, -1, -1):
            back[j] = back[j + 1] @ gs[j + 1]
        prefixes = np.stack([np.broadcast_to(f, shape) for f in fwd])
        dense = -1j * np.einsum("jab,j...bc,j...ca->...j", circuit.spec.matrices(), prefixes, back)
        assert _layer_sweep(circuit, gs, fwd, env).tobytes() == dense.tobytes()
        assert dense.shape == shape[:-2] + (circuit.q,)


def test_costs_other_modes_follow_cost(spec3, rng):
    stack = rng.normal(size=(3, 15))
    sv = make_eval(spec3, mode="hs-test-statevector")
    assert np.array_equal(sv.costs(stack), [sv.cost(row) for row in stack])
    plan = NoisyCircuitPlan(build_hva(spec3, 2), amplitude_damping(0.05))
    dens = make_eval(spec3, mode="hs-test-density", plan=plan)
    assert np.array_equal(dens.costs(stack), [dens.cost(row) for row in stack])


def _evaluator_in(spec3, mode):
    plan = NoisyCircuitPlan(build_hva(spec3, 2), amplitude_damping(0.05))
    return make_eval(spec3, mode=mode, plan=plan if mode == "hs-test-density" else None)


@pytest.mark.parametrize("mode", MODES)
def test_cost_is_costs_of_one_row(spec3, rng, mode):
    """`cost` is `costs` of one row bit for bit, and `costs` checks its stack once."""
    ev = _evaluator_in(spec3, mode)
    theta = rng.uniform(-3 * np.pi, 3 * np.pi, 15)
    one = ev.cost(theta)
    assert ev.eval_count == 1
    assert np.float64(one).tobytes() == ev.costs(theta[None])[0].tobytes()
    checked = []
    check = ev._check
    ev._check = lambda thetas: checked.append(len(thetas)) or check(thetas)
    ev.costs(rng.normal(size=(3, 15)))
    assert checked == [3] and ev.eval_count == 5


@pytest.mark.parametrize("mode", ["exact-trace", "hs-test-density"])
@pytest.mark.parametrize("span", [1, 3])
def test_central_diff_equals_the_coordinate_loop_bitwise(spec3, rng, central_diff, mode, span):
    """One `costs` call on theta +- h e_j gives the loop of single costs bit for bit,
    for theta inside [-pi, pi] (span 1) and outside it (span 3), a -0.0 entry included."""
    ev = _evaluator_in(spec3, mode)
    theta = rng.uniform(-span * np.pi, span * np.pi, 15)
    theta[4] = -0.0
    assert (np.abs(theta) > np.pi).any() == (span > 1)
    h = central_diff.step
    loop = np.empty(15)
    for j in range(15):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        loop[j] = (ev.cost(up) - ev.cost(dn)) / (2.0 * h)
    before = ev.eval_count
    assert central_diff(ev, theta).tobytes() == loop.tobytes()
    assert ev.eval_count - before == 30


def test_costs_eval_count_grows_by_rows(spec3, rng):
    for mode in ("exact-trace", "hs-test-statevector"):
        ev = make_eval(spec3, mode=mode)
        ev.costs(rng.normal(size=(37, 15)))
        assert ev.eval_count == 37
        ev.cost(rng.normal(size=15))
        assert ev.eval_count == 38


def test_costs_rejects_wrong_shapes(spec3):
    ev = make_eval(spec3)
    for bad in (np.zeros(15), np.zeros((4, 14)), np.zeros((2, 3, 15)), np.float64(0.0)):
        with pytest.raises(LengthMismatch):
            ev.costs(bad)
    assert ev.eval_count == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cost_rejects_non_finite_parameters(spec3, bad):
    ev = make_eval(spec3)
    theta = np.zeros(15)
    theta[3] = bad
    with pytest.raises(NumericalFailure):
        ev.cost(theta)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_costs_rejects_non_finite_parameters(spec3, bad):
    ev = make_eval(spec3)
    stack = np.zeros((20, 15))
    stack[17, 3] = bad
    with pytest.raises(NumericalFailure):
        ev.costs(stack)


@pytest.mark.parametrize("method", ["adjoint", "central-diff"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gradient_rejects_non_finite_parameters(spec3, central_diff, method, bad):
    ev = make_eval(spec3)
    theta = np.zeros(15)
    theta[3] = bad
    with pytest.raises(NumericalFailure):
        ev.gradient(theta) if method == "adjoint" else central_diff(ev, theta)


def test_exact_costs_read_out_the_public_overlap_bitwise():
    """Exact-trace `cost` and `costs` give 1 - hs_overlap(circuit_unitary(c, theta), V) bit
    for bit, clip included: the target is the circuit at theta0, whose overlap with
    itself rounds above 1."""
    circuit = build_hva(heisenberg_spec(3), 6)
    theta0 = np.random.default_rng(3).uniform(-np.pi, np.pi, 15)
    target = TargetGate("circuit-at-theta0", circuit_unitary(circuit, theta0))
    t = np.trace(dagger(target.matrix) @ circuit_unitary(circuit, theta0))
    assert (t.real * t.real + t.imag * t.imag) / 64 > 1.0  # so the clip runs
    ev = CostEvaluator(circuit, target)

    def public(theta):
        return 1.0 - hs_overlap(circuit_unitary(circuit, wrap_angles(theta)), target.matrix)

    assert ev.cost(theta0) == public(theta0) == 0.0
    spread = np.random.default_rng(4).uniform(-np.pi, np.pi, (10, 15))
    spread[3] = theta0
    noise = CoherentNoise("charge", 0.05, "uniform-sample", seed=3)
    charge = _shifted_stack(theta0, noise, circuit.spec, 40)  # three chunks, one layer_head
    charge[7] = theta0
    for stack in (spread, np.tile(theta0, (10, 1)), charge):
        expected = np.array([public(row) for row in stack])
        assert ev.costs(stack).tobytes() == expected.tobytes()
        assert np.array([ev.cost(row) for row in stack]).tobytes() == expected.tobytes()
