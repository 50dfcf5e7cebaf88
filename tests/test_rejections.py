"""Every input check of the library raises its own ValueError: mismatched
dimensions and type sets, states and projections that are not what they
claim, and open processes whose children are all orphans."""

import numpy as np
import pytest

from pricekit import (
    DensityOperator,
    Observable,
    OpenProcess,
    OpenQuantumProcess,
    Partition,
    Population,
    Process,
    QuantumObservable,
    QuantumProcess,
    TypeSet,
    cell_arrays,
    childbearing_stats,
    kgs,
    kraus_to_super,
    local_average,
    local_change,
    multilevel_price,
    open_process,
    price,
    process,
    q_fitness,
    q_kgs,
    q_partition_entropy,
    q_price,
)
from pricekit.quantum import hermitize, vec

AB = TypeSet(["a", "b"])
XYZ = TypeSet(["x", "y", "z"])


def f5():
    return process(Population(AB, [1, 2]), [[1, 1], [0.5, 0]])


def pair():
    p = f5()
    return p, process(p.target, [[0.5, 1.5], [1.0, 0.0]])


def on(types):
    return Observable(types, np.arange(len(types), dtype=float))


def qubit_process(scale=1.0):
    return QuantumProcess(kraus_to_super([scale * np.eye(2)]), DensityOperator(np.eye(2) / 2))


def fitness_below_the_band():
    """rho -> rho_00 |0><0| - t rho_11 (1 - |0><0|) into five levels, t = 0.9e-8:
    lambda_min(J) = -t passes the certificate, but W = diag(1, -4t) fails the
    fitness operator's own -1e-8 band."""
    t, d_out = 0.9e-8, 5
    s = np.zeros((d_out * d_out, 4), dtype=complex)
    s[:, 0] = vec(np.diag(np.eye(d_out)[0]).astype(complex))
    s[:, 3] = -t * vec(np.diag(1.0 - np.eye(d_out)[0]).astype(complex))
    return q_fitness(QuantumProcess(s, DensityOperator(np.eye(2) / 2)))


LIBRARY_REJECTIONS = [
    # measure
    pytest.param(lambda: Population(AB, [1, 2, 3]), "one weight per type required",
                 id="population-length"),
    pytest.param(lambda: Population(AB, [1, float("nan")]),
                 r"population weights must be finite, got nan at \[1\]", id="population-nan"),
    pytest.param(lambda: Population(AB, [float("inf"), 1]),
                 r"population weights must be finite, got inf at \[0\]", id="population-inf"),
    pytest.param(lambda: Observable(AB, [float("nan"), 1]),
                 r"observable values must be finite, got nan at \[0\]", id="observable-nan"),
    pytest.param(lambda: Observable(AB, [1]), "one value per type required",
                 id="observable-length"),
    pytest.param(lambda: childbearing_stats(Population(AB, [1, 2]), Observable(AB, [0, 0])),
                 "no childbearing mass", id="no-childbearing-mass"),
    # process and Price; the kernel is checked before a target is derived from it
    pytest.param(lambda: process(Population(AB, [1, 2]), [[1.0, float("nan")], [0.5, 0.0]]),
                 r"kernel entries must be finite, got nan at \[0, 1\]", id="process-kernel-nan"),
    pytest.param(lambda: Process(Population(AB, [1, 2]), Population(AB, [1, 1]),
                                 [[1.0, 0.0], [0.0, -float("inf")]]),
                 r"kernel entries must be finite, got -inf at \[1, 1\]", id="kernel-inf"),
    pytest.param(lambda: local_average(f5(), on(AB)), "observable must live on the target",
                 id="local-average-types"),
    pytest.param(lambda: local_change(f5(), on(XYZ), on(TypeSet(["c0", "c1"]))),
                 "x must live on the source", id="local-change-types"),
    pytest.param(lambda: price(f5(), on(XYZ), on(f5().target.types)),
                 "x must live on the source", id="price-x"),
    pytest.param(lambda: price(f5(), on(AB), on(AB)), "y must live on the target",
                 id="price-y"),
    pytest.param(lambda: multilevel_price(*pair(), on(AB), on(pair()[1].target.types)),
                 "y must live on the intermediate", id="multilevel-price-y"),
    pytest.param(lambda: multilevel_price(*pair(), on(pair()[1].source.types), on(AB)),
                 "z must live on the final", id="multilevel-price-z"),
    # partitions and cells
    pytest.param(lambda: Partition(AB, [["a", "b"], []]), "partition blocks must be nonempty",
                 id="partition-empty-block"),
    pytest.param(lambda: Partition(AB, [["a"]]), "blocks must cover the type set",
                 id="partition-not-covering"),
    pytest.param(lambda: cell_arrays(f5(), Partition.singletons(AB), Partition.singletons(AB)),
                 "partitions must match the process type sets", id="cell-arrays-types"),
    # open processes
    pytest.param(lambda: OpenProcess(f5(), Population(AB, [5, 5])),
                 "full target must share the child type set", id="open-process-types"),
    pytest.param(lambda: open_process(Population(AB, [1, 2]), [[1], [1]], [-0.5]),
                 "orphan weights must be nonnegative", id="negative-orphans"),
    pytest.param(lambda: kgs(open_process(Population(AB, [1, 2]), [[1e-20], [0]], [1.0]),
                             on(AB), on(TypeSet(["c0"]))),
                 "all children are orphans", id="kgs-all-orphans"),
    # operators
    pytest.param(lambda: hermitize(np.array([[0.0, 1.0], [0.0, 0.0]])), "is not Hermitian",
                 id="hermitize"),
    pytest.param(lambda: DensityOperator(np.diag([1.0, -1.0])),
                 "density operator has eigenvalue", id="density-negative"),
    pytest.param(lambda: DensityOperator(np.zeros((2, 2))),
                 "density operator needs positive trace", id="density-zero-trace"),
    pytest.param(lambda: DensityOperator([[1.0, 0.0], [0.0, float("nan")]]),
                 r"density operator entries must be finite, got \(nan\+0j\) at \[1, 1\]",
                 id="density-nan"),
    pytest.param(lambda: QuantumObservable([[float("inf"), 0.0], [0.0, 1.0]]),
                 r"observable entries must be finite, got \(inf\+0j\) at \[0, 0\]",
                 id="quantum-observable-inf"),
    pytest.param(lambda: QuantumProcess(np.diag([1.0, float("nan"), 0.0, 1.0]),
                                        DensityOperator(np.eye(2))),
                 r"superoperator entries must be finite, got \(nan\+0j\) at \[1, 1\]",
                 id="superoperator-nan"),
    pytest.param(lambda: QuantumProcess.from_kraus([[[1.0, 0.0], [0.0, float("inf")]]],
                                                   DensityOperator(np.eye(2))),
                 r"Kraus operator entries must be finite, got \(inf\+0j\) at \[0, 1, 1\]",
                 id="kraus-inf"),
    pytest.param(lambda: QuantumProcess(np.eye(4), DensityOperator(np.eye(3))),
                 "superoperator input dimension mismatch", id="quantum-process-input"),
    pytest.param(lambda: QuantumProcess(np.ones((3, 4)), DensityOperator(np.eye(2))),
                 "superoperator output dimension is not a square", id="quantum-process-output"),
    pytest.param(fitness_below_the_band, "fitness operator is not positive",
                 id="fitness-operator-negative"),
    pytest.param(lambda: q_price(qubit_process(), QuantumObservable(np.eye(3)),
                                 QuantumObservable(np.eye(2))),
                 "observable dimensions do not match the process", id="q-price-dims"),
    pytest.param(lambda: q_partition_entropy(qubit_process(), [0.5 * np.eye(2)] * 2, [np.eye(2)]),
                 "source projection is not idempotent", id="projection-not-idempotent"),
    pytest.param(lambda: OpenQuantumProcess(qubit_process(), DensityOperator(np.eye(3))),
                 "full target dimension mismatch", id="open-quantum-dims"),
    pytest.param(lambda: q_kgs(OpenQuantumProcess(qubit_process(1e-7),
                                                  DensityOperator(np.eye(2))),
                               QuantumObservable(np.eye(2)), QuantumObservable(np.eye(2))),
                 "all children are orphans", id="q-kgs-all-orphans"),
]


@pytest.mark.parametrize("call, message", LIBRARY_REJECTIONS)
def test_rejection_raises_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
