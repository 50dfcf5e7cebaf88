import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pricekit import (
    Observable,
    Population,
    TypeSet,
    covariance,
    expectation,
    variance,
)
from pricekit.measure import xlogx

from oracles import xlogx_by_mask

AB = TypeSet(["a", "b"])


def test_expectation_examples():
    pop = Population(AB, [1, 2])
    assert expectation(pop, Observable(AB, [1, 0])) == pytest.approx(1 / 3)
    pop2 = Population(AB, [1, 1])
    assert expectation(pop2, Observable(AB, [2, 0])) == pytest.approx(1.0)
    for c in (-3.5, 0.0, 7.25):
        assert expectation(pop2, Observable.constant(AB, c)) == pytest.approx(c)


def test_covariance_examples():
    pop = Population(AB, [1, 1])
    x = Observable(AB, [2, 0])
    assert covariance(pop, x, x) == pytest.approx(1.0)
    pop2 = Population(AB, [1, 2])
    y = Observable(AB, [2, 0.5])
    assert covariance(pop2, y, y) == pytest.approx(0.5)
    assert variance(pop2, Observable.constant(AB, 4.2)) == pytest.approx(0.0)


def test_type_mismatch_rejected():
    pop = Population(AB, [1, 1])
    other = Observable(TypeSet(["x", "y"]), [1, 2])
    with pytest.raises(ValueError):
        expectation(pop, other)
    with pytest.raises(ValueError):
        covariance(pop, other, other)


def test_population_invariants():
    with pytest.raises(ValueError):
        Population(AB, [1, -0.5])
    with pytest.raises(ValueError):
        Population(AB, [0, 0])
    with pytest.raises(ValueError):
        TypeSet(["a", "a"])
    with pytest.raises(ValueError):
        TypeSet([])


def test_population_keeps_its_checked_total():
    """size is the total __init__ checked, read without summing again; it is
    not a field, so repr and == see only the types and the weights."""
    weights = [0.1, 0.2, 0.3, 1e-17]
    pop = Population(TypeSet(["a", "b", "c", "d"]), weights)
    assert pop.size is pop.size
    assert pop.size == float(np.asarray(weights).sum())
    assert [f.name for f in dataclasses.fields(Population)] == ["types", "weights"]
    assert repr(pop) == "Population(types=TypeSet(labels=('a', 'b', 'c', 'd')))"


@pytest.mark.parametrize("cls", [Population, Observable])
def test_equal_values_are_equal_and_hash_alike(cls):
    a, b = cls(AB, [1, 2]), cls(AB, [1.0, 2.0])
    assert a == b and not a != b and hash(a) == hash(b)
    assert cls(AB, [-0.0, 1]) == cls(AB, [0.0, 1])
    assert hash(cls(AB, [-0.0, 1])) == hash(cls(AB, [0.0, 1]))
    assert {a, b} == {a} and len({a, b, cls(AB, [2, 1])}) == 2
    assert b in {a} and cls(AB, [2, 1]) not in {a}


@pytest.mark.parametrize("cls", [Population, Observable])
def test_unequal_values_types_or_classes_are_unequal(cls):
    a = cls(AB, [1, 2])
    assert a != cls(AB, [1, 2.5])
    assert a != cls(TypeSet(["a", "c"]), [1, 2])
    assert a != cls(TypeSet(["a", "b", "c"]), [1, 2, 3])
    other = Observable(AB, [1, 2]) if cls is Population else Population(AB, [1, 2])
    for x in (other, (AB, np.array([1.0, 2.0])), AB, None, 1):
        assert a != x and not a == x and x != a
    assert a.__eq__(np.array([1.0, 2.0])) is False


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.01, 10), min_size=2, max_size=6),
    st.lists(st.floats(-20, 20), min_size=6, max_size=6),
    st.lists(st.floats(-20, 20), min_size=6, max_size=6),
    st.floats(-5, 5),
    st.floats(-5, 5),
)
def test_expectation_linear_covariance_bilinear(weights, xs, ys, a, b):
    k = len(weights)
    types = TypeSet.range(k)
    pop = Population(types, weights)
    x = Observable(types, xs[:k])
    y = Observable(types, ys[:k])
    combo = Observable(types, a * x.values + b * y.values)
    assert expectation(pop, combo) == pytest.approx(
        a * expectation(pop, x) + b * expectation(pop, y), rel=1e-9, abs=1e-9
    )
    assert covariance(pop, x, y) == pytest.approx(covariance(pop, y, x), rel=1e-9, abs=1e-9)
    assert covariance(pop, combo, y) == pytest.approx(
        a * covariance(pop, x, y) + b * covariance(pop, y, y), rel=1e-7, abs=1e-7
    )
    assert variance(pop, x) >= -1e-12


def test_variance_zero_iff_constant_on_support():
    types = TypeSet.range(3)
    pop = Population(types, [1.0, 0.0, 2.0])
    x = Observable(types, [3.0, -100.0, 3.0])  # differs only off-support
    assert variance(pop, x) == pytest.approx(0.0, abs=1e-15)
    y = Observable(types, [3.0, 0.0, 3.1])
    assert variance(pop, y) > 1e-4


# Entries at the edges of the double range, with x log x = 0 at 0, -0.0 and
# every negative entry, and +inf mapped to +inf.
XLOGX_EDGES = [0.0, -0.0, 5e-324, 1e-300, 1e300, np.inf, 1.0, 0.5, 2.0, -1.0, -5e-324]


def test_xlogx_equals_the_gather_scatter_form():
    """Whole-array xlogx equals the masked form bit for bit.  The suite turns
    RuntimeWarnings into errors, so a log or product of a non-positive entry
    would fail here."""
    rng = np.random.default_rng(80)
    edges = np.array(XLOGX_EDGES)
    arrays = [edges, edges.reshape(1, -1), np.zeros(0), np.array([0.0]), np.array([3.0]),
              rng.choice(edges, size=(48, 48)),
              rng.random((48, 48)) * (rng.random((48, 48)) < 0.5)]
    for a in arrays:
        got, want = xlogx(a), xlogx_by_mask(a)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.array_equal(got, want) and got.sum() == want.sum()
    for v in XLOGX_EDGES + [0, 1, 3]:
        for x in (v, np.float64(v), np.array(v)):
            got, want = xlogx(x), xlogx_by_mask(x)
            assert type(got) is float
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
