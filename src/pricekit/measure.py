"""Finite discrete measures, observables, and population statistics."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain
from types import MappingProxyType

import numpy as np


def finite_array(values, what: str, dtype=float) -> np.ndarray:
    """values as a float (or complex) array, rejected with the first NaN or infinite
    entry; the leaves of a nested list must not be booleans or strings, which
    numpy would read as numbers."""
    try:
        arr = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} are not an array of numbers: {exc}") from None
    leaves = values if isinstance(values, (list, tuple)) else []
    while leaves and isinstance(leaves[0], (list, tuple)):
        leaves = list(chain.from_iterable(leaves))
    if {bool, str} & set(map(type, leaves)):
        bad = next(v for v in leaves if type(v) in (bool, str))
        raise ValueError(f"{what} are not an array of numbers: got {type(bad).__name__} {bad!r}")
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
        _set(self, labels=labels)

    def __len__(self) -> int:
        return len(self.labels)

    @staticmethod
    def range(k: int, prefix: str = "t") -> "TypeSet":
        return TypeSet(f"{prefix}{i}" for i in range(k))


class _Frozen:
    """The load rule of the frozen records: pickled and copied with each read-only mapping
    as a dict, then set back by ``_set``, each mapping read-only and each array frozen again."""

    def __getstate__(self):
        return {k: dict(v) if type(v) is MappingProxyType else v for k, v in vars(self).items()}

    def __setstate__(self, state):
        _set(self, **{k: MappingProxyType(v) if type(v) is dict else v for k, v in state.items()})


class _Value(_Frozen):
    """The one value rule of the records with an array field: equal when of one class
    with equal compared fields, arrays by ``np.array_equal``; ``==`` never raises.
    Unhashable (a hash would read every array) unless the record defines one that agrees.
    ``_set`` freezes the arrays a generated ``__init__`` is given."""

    def __post_init__(self):
        _set(self)

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
            else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name))
                         for f in fields(self) if f.compare))

    __hash__ = None


def _set(record, **fields) -> None:
    """The one write rule of the frozen records: set ``fields`` on ``record`` and freeze each
    array among them in place (with none given, each array it holds).  A front door copies
    a caller's array first; a generated ``__init__`` takes over and freezes what it is given."""
    vars(record).update(fields)
    for value in (fields or vars(record)).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


def _built(cls, **fields):
    """A ``cls`` record of fields the package has just formed from checked parts,
    taken over as built by ``_set``, with no array copied or checked.  The public
    constructors are the front doors; a caller of this one guarantees their invariants."""
    record = object.__new__(cls)
    _set(record, **fields)
    return record


def _population_size(weights: np.ndarray) -> float:
    """The total of finite nonnegative weights, which must neither overflow nor vanish."""
    with np.errstate(over="ignore"):
        size = weights.sum()
    if not np.isfinite(size):
        raise ValueError(f"total population size overflows: the weights sum to {size}")
    if size <= 0:
        raise ValueError("total population size must be positive")
    return float(size)


@dataclass(frozen=True, eq=False)
class Population(_Value):
    """Nonnegative weight per type; the measure driving all expectations."""

    types: TypeSet
    weights: np.ndarray = field(repr=False)

    def __init__(self, types: TypeSet, weights):
        w = np.array(finite_array(weights, "population weights"))
        if w.ndim != 1 or len(w) != len(types):
            raise ValueError("one weight per type required")
        if np.any(w < 0):
            raise ValueError("population weights must be nonnegative")
        # _size is not a field, so repr and == are unchanged; the weights are read-only.
        _set(self, types=types, weights=w, _size=_population_size(w))

    @property
    def size(self) -> float:
        return self._size

    def __hash__(self):    # -0.0 and 0.0 compare equal and hash alike
        return hash((self.types, tuple(self.weights.tolist())))


@dataclass(frozen=True, eq=False)
class Observable(_Value):
    """Real-valued function on a type set."""

    types: TypeSet
    values: np.ndarray = field(repr=False)

    def __init__(self, types: TypeSet, values):
        v = np.array(finite_array(values, "observable values"))
        if v.ndim != 1 or len(v) != len(types):
            raise ValueError("one value per type required")
        _set(self, types=types, values=v)

    def __hash__(self):    # -0.0 and 0.0 compare equal and hash alike
        return hash((self.types, tuple(self.values.tolist())))

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


def xlogx(x: np.ndarray | float) -> np.ndarray | float:
    """x * log(x), elementwise, with 0 log 0 = 0 (x must be >= 0).

    The log is taken of positive entries only: every other entry is read as
    1, so it maps to 1 * log 1 = 0.  A scalar input gives a Python float."""
    arr = np.asarray(x, dtype=float)
    safe = np.where(arr > 0, arr, 1.0)
    out = safe * np.log(safe)
    if np.ndim(x) == 0:
        return float(out)
    return out
