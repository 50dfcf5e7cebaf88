"""The public constructors are the front doors: they check every input.  A
record the package builds from parts it has just checked (a kernel-image
process, a simulated generation, the fitness record's W and U, q read on p's
exact target, the factorization) is taken over as built.  Each such record
equals, by value, the one the public constructors build from its own arrays,
and every array it keeps is read-only.  The public constructors copy a caller's
array before they freeze the one they keep."""

import numpy as np
import pytest

from pricekit import (DensityOperator, Observable, Population, Process, QuantumObservable,
                      QuantumProcess, TypeSet, fitness, generating_profile, kraus_to_super,
                      price_factorize, process)
from pricekit.process import _image_process, _kernel_image, check_composable, flow_cells

from oracles import CELL_FIELDS

# K = 1, K != K', childless rows; every source weight scaled by each factor
SHAPES = [(1, 1, 0), (1, 3, 0), (3, 2, 1), (4, 4, 2), (2, 5, 0)]
SCALES = [1.0, 1e60, 1e-60, 1e150, 1e-150]


def build(k: int, k2: int, childless: int, scale: float) -> Process:
    rng = np.random.default_rng([28, k, k2, childless])
    kernel = rng.uniform(0.1, 2.0, (k, k2)) * (rng.random((k, k2)) < 0.6)
    kernel[:, 0] += 0.5
    kernel[:childless] = 0.0
    return process(Population(TypeSet.range(k), rng.uniform(0.1, 2.0, k) * scale), kernel)


def through_the_front_door(record):
    """record rebuilt from its own arrays by the public constructors, with
    every check they run."""
    if isinstance(record, Population):
        return Population(record.types, record.weights)
    if isinstance(record, Observable):
        return Observable(record.types, record.values)
    return Process(through_the_front_door(record.source), through_the_front_door(record.target),
                   record.kernel)


def assert_taken_over(record):
    rebuilt = through_the_front_door(record)
    assert record == rebuilt
    pops = ([record] if isinstance(record, Population)
            else [record.source, record.target] if isinstance(record, Process) else [])
    for pop in pops:
        assert pop.size == through_the_front_door(pop).size
        assert not pop.weights.flags.writeable
    arrays = [record.values] if isinstance(record, Observable) else []
    arrays += [record.kernel] if isinstance(record, Process) else []
    assert not any(a.flags.writeable for a in arrays)


def built_records(p: Process) -> dict:
    """Every record a taken-over site builds from p, by site."""
    fd, factors = fitness(p), price_factorize(p)
    types = TypeSet.range(p.kernel.shape[1])
    step = _image_process(p.source, p.kernel, types, _kernel_image(p.kernel, p.source.weights))
    # p's target nudged within the composability tolerance, so q is re-read on it
    nudged = Population(p.target.types, p.target.weights * (1 + 1e-12))
    q = process(nudged, np.ones((len(p.target.types), 2)))
    return {"process": p, "simulated step": step, "W": fd.W, "U": fd.U,
            "q on p's target": check_composable(p, q), "selective": factors.selective,
            "environmental": factors.environmental}


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("shape", SHAPES)
def test_each_built_record_is_the_front_door_record(shape, scale):
    p = build(*shape, scale)
    records = built_records(p)
    for record in records.values():
        assert_taken_over(record)
    # the fitness record's W and U are those a caller would form from the kernel
    w = p.kernel.sum(axis=1)
    wbar = float(p.source.weights @ w) / p.source.size
    assert records["W"] == Observable(p.source.types, w)
    assert records["U"] == Observable(p.source.types, w / wbar)
    # a checked kernel is shared, not copied
    assert records["simulated step"].kernel is p.kernel
    assert records["q on p's target"].source is p.target


def kept_arrays(p: Process) -> dict:
    """Every array p keeps or hands out from a kept record, by name."""
    fd, factors = fitness(p), price_factorize(p)
    step = _image_process(p.target, p.kernel, p.target.types,
                          _kernel_image(p.kernel, p.target.weights))
    arrays = {f"fitness.{name}": getattr(fd, name) for name in ("u", "prob", "u_log_u", "support")}
    arrays.update({"fitness.W": fd.W.values, "fitness.U": fd.U.values,
                   "flow_cells": flow_cells(p), "simulated target": step.target.weights,
                   "selective kernel": factors.selective.kernel,
                   "environmental kernel": factors.environmental.kernel,
                   "intermediate weights": factors.selective.target.weights})
    cells = generating_profile(p).cells
    arrays.update({f"cells.{name}": getattr(cells, name) for name in CELL_FIELDS})
    return arrays


@pytest.mark.parametrize("name", sorted(kept_arrays(build(3, 3, 1, 1.0))))
def test_a_write_into_a_kept_array_raises(name):
    array = kept_arrays(build(3, 3, 1, 1.0))[name]
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = 1


# Each public constructor given a caller's array of the dtype it keeps: a new
# caller's array, and the array the record keeps of it.
FRONT_DOORS = {
    "Population": (lambda: np.array([1.0, 2.0]),
                   lambda a: Population(TypeSet.range(2), a).weights),
    "Observable": (lambda: np.array([0.5, 3.0]),
                   lambda a: Observable(TypeSet.range(2), a).values),
    "Process": (lambda: np.array([[1.0, 0.0], [0.5, 1.0]]),
                lambda a: Process(Population(TypeSet.range(2), [1, 2]),
                                  Population(TypeSet.range(2), [2, 2]), a).kernel),
    "DensityOperator": (lambda: np.diag([0.7, 0.3]).astype(complex),
                        lambda a: DensityOperator(a).matrix),
    "QuantumObservable": (lambda: np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex),
                          lambda a: QuantumObservable(a).matrix),
    "QuantumProcess": (lambda: kraus_to_super([np.diag([1.0, 0.5]),
                                               np.array([[0.0, 0.3], [0.2, 0.0]])]),
                       lambda a: QuantumProcess(a, DensityOperator(np.diag([0.7, 0.3])))
                       .superoperator),
}


@pytest.mark.parametrize("name", sorted(FRONT_DOORS))
def test_front_doors_copy_before_they_freeze(name):
    """The record freezes its own copy: the caller's array stays writable and
    shares no memory with it, and a later write to it does not reach the record."""
    make, keep = FRONT_DOORS[name]
    given = make()
    kept = keep(given)
    snapshot = kept.copy()
    assert given.flags.writeable and not kept.flags.writeable
    assert not np.shares_memory(given, kept)
    given[...] = 0.0
    np.testing.assert_array_equal(kept, snapshot)
