import numpy as np
import pytest

from spingate.hamiltonian import heisenberg_spec
from spingate.simulator import KrausChannel


@pytest.fixture(scope="session")
def spec3():
    return heisenberg_spec(3)


@pytest.fixture()
def rng():
    # fresh fixed-seed generator per test, so draw order inside one test
    # cannot leak into another
    return np.random.default_rng(1234)


@pytest.fixture()
def random_channel(rng):
    """random_channel(k): k complex, non-Hermitian Kraus operators, the 2x2
    blocks of a random 2k x 2 isometry (the QR of a complex Gaussian)."""
    def make(k):
        a = rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2))
        return KrausChannel(f"random(k={k})", tuple(np.linalg.qr(a)[0].reshape(k, 2, 2)))
    return make


CENTRAL_DIFF_STEP = 1e-6


@pytest.fixture(scope="session")
def central_diff():
    """central_diff(evaluator, theta): the central-difference gradient, the test
    oracle of `CostEvaluator.gradient`.  (C(theta + h e_j) - C(theta - h e_j)) / 2h
    from one `costs` call on the 2Q rows theta +- h e_j; `central_diff.step` is h."""
    def gradient(evaluator, theta):
        theta = np.asarray(theta, dtype=float)[None]
        shifts = CENTRAL_DIFF_STEP * np.eye(theta.shape[-1])
        c = evaluator.costs(np.concatenate([theta + shifts, theta - shifts]))
        return (c[:len(shifts)] - c[len(shifts):]) / (2.0 * CENTRAL_DIFF_STEP)
    gradient.step = CENTRAL_DIFF_STEP
    return gradient
