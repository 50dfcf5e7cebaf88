"""Finite discrete measures, observables, and population statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import EPS_ZERO


def _as_readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def finite_array(values, what: str, dtype=float) -> np.ndarray:
    """values as a float (or complex) array, rejected with the first NaN or infinite entry."""
    arr = np.asarray(values, dtype=dtype)
    if not np.isfinite(arr).all():
        at = np.argwhere(~np.isfinite(arr))[0].tolist()
        raise ValueError(f"{what} must be finite, got {arr[tuple(at)]} at {at}")
    return arr


@dataclass(frozen=True)
class TypeSet:
    """Ordered set of unique type labels."""

    labels: tuple[str, ...]

    def __init__(self, labels):
        labels = tuple(str(c) for c in labels)
        if len(labels) == 0:
            raise ValueError("a type set needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError("type labels must be unique")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    @staticmethod
    def range(k: int, prefix: str = "t") -> "TypeSet":
        return TypeSet(f"{prefix}{i}" for i in range(k))


@dataclass(frozen=True)
class Population:
    """Nonnegative weight per type; the measure driving all expectations."""

    types: TypeSet
    weights: np.ndarray = field(repr=False)

    def __init__(self, types: TypeSet, weights):
        w = _as_readonly(finite_array(weights, "population weights"))
        if w.ndim != 1 or len(w) != len(types):
            raise ValueError("one weight per type required")
        if np.any(w < 0):
            raise ValueError("population weights must be nonnegative")
        if w.sum() <= 0:
            raise ValueError("total population size must be positive")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class Observable:
    """Real-valued function on a type set."""

    types: TypeSet
    values: np.ndarray = field(repr=False)

    def __init__(self, types: TypeSet, values):
        v = _as_readonly(finite_array(values, "observable values"))
        if v.ndim != 1 or len(v) != len(types):
            raise ValueError("one value per type required")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "values", v)

    @staticmethod
    def constant(types: TypeSet, c: float) -> "Observable":
        return Observable(types, np.full(len(types), float(c)))


def _check_same_types(pop: Population, obs: Observable) -> None:
    if obs.types != pop.types:
        raise ValueError("observable is defined on a different type set")


def expectation(pop: Population, x: Observable) -> float:
    """Population average (1/N) sum_i x_i mu_i."""
    _check_same_types(pop, x)
    return float(pop.weights @ x.values) / pop.size


def covariance(pop: Population, x: Observable, y: Observable) -> float:
    """Population covariance under the probability measure mu/N."""
    _check_same_types(pop, x)
    _check_same_types(pop, y)
    xbar = expectation(pop, x)
    ybar = expectation(pop, y)
    centered = (x.values - xbar) * (y.values - ybar)
    return float(pop.weights @ centered) / pop.size


def variance(pop: Population, x: Observable) -> float:
    return covariance(pop, x, x)


def childbearing_stats(pop: Population, u: Observable) -> tuple[float, Population]:
    """Childbearing weight fraction and the population restricted to u > 0.

    The childbearing types are the fitness summary's support, so the u > 0 /
    u = 0 dichotomy is the one every law reads, stable under rounding noise.
    """
    from .process import summarize_fitness   # process imports this module

    _check_same_types(pop, u)
    if np.any(u.values < -EPS_ZERO):
        raise ValueError("childbearing statistics need a nonnegative observable")
    alive = summarize_fitness(u.values, pop.weights / pop.size).support
    p_star = float(pop.weights[alive].sum()) / pop.size
    if not alive.any():
        raise ValueError("no childbearing mass: u vanishes everywhere")
    restricted = Population(
        TypeSet(np.asarray(pop.types.labels)[alive]), pop.weights[alive]
    )
    return p_star, restricted


def xlogx(x: np.ndarray | float) -> np.ndarray | float:
    """x * log(x) with the 0 log 0 = 0 convention (x must be >= 0)."""
    arr = np.asarray(x, dtype=float)
    out = np.zeros_like(arr)
    pos = arr > 0
    out[pos] = arr[pos] * np.log(arr[pos])
    if np.ndim(x) == 0:
        return float(out)
    return out
