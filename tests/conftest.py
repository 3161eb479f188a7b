import numpy as np
import pytest

from qchan import Ensemble, GeneralKraus, QubitState, pure_state


@pytest.fixture
def rng():
    return np.random.RandomState(20260808)


def random_state(rng) -> QubitState:
    """Uniform draw from the Poincare ball."""
    r = 0.5 * np.sqrt(rng.uniform())
    costh = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    sinth = np.sqrt(1.0 - costh * costh)
    a = 0.5 + r * costh
    b = r * sinth * np.exp(1j * phi)
    return QubitState(float(a), complex(b))


def random_pure_state(rng) -> QubitState:
    return pure_state(rng.uniform(), np.exp(2j * np.pi * rng.uniform()))


def random_ensemble(rng, n_states=None, pure=False) -> Ensemble:
    n = int(n_states) if n_states else rng.randint(1, 5)
    probs = rng.dirichlet(np.ones(n))
    draw = random_pure_state if pure else random_state
    return Ensemble(tuple((float(p), draw(rng)) for p in probs))


def random_kraus(seed: int, n_ops: int) -> GeneralKraus:
    """A seeded complex family of n_ops operators: the 2x2 blocks of a random isometry,
    so sum E*E = I up to roundoff. One operator is a unitary."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
    isometry = np.linalg.qr(z)[0]
    return GeneralKraus(tuple(isometry[2 * k:2 * k + 2] for k in range(n_ops)))
