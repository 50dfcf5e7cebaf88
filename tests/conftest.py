import numpy as np
import pytest

from pricekit import Observable, Population, TypeSet, process
from pricekit.process import Process


@pytest.fixture
def f1():
    """Life-or-death fixture: U = (2, 0), p_* = 1/2."""
    src = Population(TypeSet(["a", "b"]), [1, 1])
    return process(src, [[2], [0]])


@pytest.fixture
def f2():
    """Symmetric doubly stochastic kernel: purely environmental."""
    src = Population(TypeSet(["a", "b"]), [1, 1])
    return Process(src, Population(TypeSet(["a", "b"]), [1, 1]),
                   [[0.5, 0.5], [0.5, 0.5]])


@pytest.fixture
def f5():
    """Mixed fixture: mu=(1,2), W=(2,0.5), U=(2,0.5), var(U)=1/2."""
    src = Population(TypeSet(["a", "b"]), [1, 2])
    return process(src, [[1, 1], [0.5, 0]])


def bernoulli_dispersion(q: float) -> Process:
    src = Population(TypeSet(["o"]), [1.0])
    return process(src, [[q, 1.0 - q]])


def bernoulli_mixing(p: float) -> Process:
    src = Population(TypeSet(["a", "b"]), [p, 1.0 - p])
    return process(src, [[1.0], [1.0]])


def random_process(rng, kmax: int = 8, kmin: int = 1, density: float = 0.8) -> Process:
    k = int(rng.integers(kmin, kmax + 1))
    k2 = int(rng.integers(kmin, kmax + 1))
    kernel = rng.uniform(0.05, 2.0, size=(k, k2)) * (rng.random((k, k2)) < density)
    if kernel.sum() == 0:
        kernel[0, 0] = 1.0
    src = Population(TypeSet.range(k), rng.uniform(0.1, 2.0, k))
    return process(src, kernel)


def random_composable_pair(rng, kmax: int = 6):
    p = random_process(rng, kmax)
    k2 = len(p.target.types)
    k3 = int(rng.integers(1, kmax + 1))
    kernel = rng.uniform(0.05, 1.6, size=(k2, k3)) * (rng.random((k2, k3)) < 0.85)
    if (kernel.T @ p.target.weights).sum() == 0:
        kernel[int(np.argmax(p.target.weights)), 0] = 1.0
    q = process(p.target, kernel)
    return p, q


def childless_composable_pair(rng, scale: float = 1.0, kmax: int = 6):
    """A composable pair on K, K', K'' <= kmax types whose kernels each have
    about a third of their rows childless, with parent weights times scale."""
    k, k2, k3 = (int(v) for v in rng.integers(1, kmax + 1, 3))
    kernel = rng.uniform(0.05, 2.0, (k, k2)) * (rng.random((k, k2)) < 0.8)
    kernel[rng.random(k) < 0.3] = 0.0
    if not kernel.any():
        kernel[0, 0] = 1.0
    p = process(Population(TypeSet.range(k), rng.uniform(0.1, 2.0, k) * scale), kernel)
    kernel = rng.uniform(0.05, 2.0, (k2, k3)) * (rng.random((k2, k3)) < 0.8)
    kernel[rng.random(k2) < 0.3] = 0.0
    if not (kernel.T @ p.target.weights).any():
        kernel[int(np.argmax(p.target.weights)), 0] = 1.0
    return p, process(p.target, kernel)


def selective_equilibrium_process(rng, kmax: int = 8) -> Process:
    """U takes the two values 0 and 1/p_* exactly; p_* strictly inside (0,1)."""
    k = int(rng.integers(2, kmax + 1))
    weights = rng.uniform(0.2, 2.0, k)
    alive = np.zeros(k, dtype=bool)
    alive[rng.permutation(k)[: int(rng.integers(1, k))] ] = True
    k2 = int(rng.integers(1, kmax + 1))
    c = rng.uniform(0.5, 3.0)
    kernel = np.zeros((k, k2))
    for i in np.nonzero(alive)[0]:
        row = rng.uniform(0.1, 1.0, k2)
        kernel[i] = c * row / row.sum()
    src = Population(TypeSet.range(k), weights)
    return process(src, kernel)


def random_observable(rng, types: TypeSet, scale: float = 3.0) -> Observable:
    return Observable(types, rng.normal(0.0, scale, len(types)))
