"""Every input check of the library raises its own ValueError: mismatched
dimensions, shapes and type sets, unknown or repeated labels, orders that
are not integers, states and projections that are not what they claim,
derived totals that overflow, open processes whose children are all
orphans, and identities whose residual is NaN."""

import importlib

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
    compose,
    embed_observable,
    embed_process,
    fitness,
    higher_order_first_law,
    kgs,
    ks_entropy_curve,
    kraus_to_super,
    local_average,
    local_change,
    local_selective_entropy,
    multilevel_price,
    multilevel_second_law,
    open_process,
    price,
    process,
    q_kgs,
    q_partition_entropy,
    q_price,
)
from pricekit.config import IdentityViolation
from pricekit.quantum import hermitize, vec

A = TypeSet(["a"])
AB = TypeSet(["a", "b"])
XYZ = TypeSet(["x", "y", "z"])
SINGLETONS = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]


def f5():
    return process(Population(AB, [1, 2]), [[1, 1], [0.5, 0]])


def pair():
    p = f5()
    return p, process(p.target, [[0.5, 1.5], [1.0, 0.0]])


def on(types):
    return Observable(types, np.arange(len(types), dtype=float))


def embedded():
    return embed_process(process(Population(AB, [1, 2]), [[1, 0.5], [0.2, 1]]))


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
    return fitness(QuantumProcess(s, DensityOperator(np.eye(2) / 2)))


LIBRARY_REJECTIONS = [
    # measure
    pytest.param(lambda: Population(AB, [1, 2, 3]), "one weight per type required",
                 id="population-length"),
    pytest.param(lambda: Population(AB, [1, float("nan")]),
                 r"population weights must be finite, got nan at \[1\]", id="population-nan"),
    pytest.param(lambda: Population(AB, [float("inf"), 1]),
                 r"population weights must be finite, got inf at \[0\]", id="population-inf"),
    pytest.param(lambda: Population(AB, [1, {}]),
                 "population weights are not an array of numbers", id="population-object"),
    pytest.param(lambda: Population(AB, [-1, 2]), "population weights must be nonnegative",
                 id="population-negative"),
    # numpy reads booleans and numeric strings as numbers; a nested list may not hold them
    pytest.param(lambda: Population(AB, [True, 2]),
                 "population weights are not an array of numbers: got bool True",
                 id="population-bool"),
    pytest.param(lambda: Observable(AB, ["1", 0]),
                 "observable values are not an array of numbers: got str '1'",
                 id="observable-str"),
    pytest.param(lambda: process(Population(AB, [1, 2]), [[1, 1], [0.5, False]]),
                 "kernel entries are not an array of numbers: got bool False",
                 id="kernel-bool"),
    pytest.param(lambda: Observable(AB, [float("nan"), 1]),
                 r"observable values must be finite, got nan at \[0\]", id="observable-nan"),
    pytest.param(lambda: Observable(AB, [1]), "one value per type required",
                 id="observable-length"),
    # finite inputs whose derived totals overflow
    pytest.param(lambda: Population(AB, [1e308, 1e308]),
                 "total population size overflows: the weights sum to inf", id="size-overflow"),
    pytest.param(lambda: process(Population(AB, [1e300, 1e300]), [[1e10, 1e10], [0.5, 0]]),
                 r"derived target weights overflow: got inf at \[0\]", id="image-overflow"),
    pytest.param(lambda: open_process(Population(AB, [1e300, 1e300]), [[1e10], [1]], [0.5]),
                 r"derived target weights overflow: got inf at \[0\]", id="open-image-overflow"),
    # a row sum overflows on a parent of weight 0: mu.W is 0 * inf
    pytest.param(lambda: fitness(process(Population(AB, [0, 1]), [[1e308, 1e308], [1, 1]])),
                 "child mass mu.W overflows: nan", id="child-mass-overflow"),
    # U_i = W_i / wbar reaches N / mu_i: a subnormal parent weight overflows it
    pytest.param(lambda: fitness(process(Population(AB, [1e-310, 1]), [[1.0], [0.0]])),
                 r"relative fitness W/wbar overflow: got inf at \[0\]", id="relative-fitness-overflow"),
    pytest.param(lambda: compose(process(Population(TypeSet(["a"]), [1e-200]), [[1e200]]),
                                 process(Population(TypeSet(["c0"]), [1.0]), [[1e200]])),
                 r"composite kernel overflow: got inf at \[0, 0\]", id="composite-kernel-overflow"),
    # the kernel's shape is checked before either builder reads its columns
    pytest.param(lambda: process(Population(A, [1]), [1.0]),
                 r"kernel must be a matrix with one row per source type, got \(1,\)",
                 id="process-kernel-vector"),
    pytest.param(lambda: process(Population(A, [1]), [[1.0], [2.0]]),
                 r"kernel must be a matrix with one row per source type, got \(2, 1\)",
                 id="process-kernel-rows"),
    pytest.param(lambda: process(Population(A, [1]), [[[1.0]]]),
                 r"kernel must be a matrix with one row per source type, got \(1, 1, 1\)",
                 id="process-kernel-stack"),
    pytest.param(lambda: open_process(Population(A, [1]), [1.0], [0.0]),
                 r"kernel must be a matrix with one row per source type, got \(1,\)",
                 id="open-kernel-vector"),
    pytest.param(lambda: open_process(Population(A, [1]), [[1.0], [2.0]], [0.0]),
                 r"kernel must be a matrix with one row per source type, got \(2, 1\)",
                 id="open-kernel-rows"),
    pytest.param(lambda: open_process(Population(A, [1]), [[[1.0]]], [0.0]),
                 r"kernel must be a matrix with one row per source type, got \(1, 1, 1\)",
                 id="open-kernel-stack"),
    # process and Price; the kernel is checked before a target is derived from it
    pytest.param(lambda: process(Population(AB, [1, 2]), [[1.0, float("nan")], [0.5, 0.0]]),
                 r"kernel entries must be finite, got nan at \[0, 1\]", id="process-kernel-nan"),
    # the kernel's sign, not that of the image formed from it
    pytest.param(lambda: process(Population(AB, [1, 1]), [[-1, 0], [0, 0.5]]),
                 "kernel entries must be nonnegative", id="process-kernel-negative"),
    pytest.param(lambda: Process(Population(AB, [1, 2]), Population(AB, [1, 1]),
                                 [[1.0, 0.0], [0.0, -float("inf")]]),
                 r"kernel entries must be finite, got -inf at \[1, 1\]", id="kernel-inf"),
    # a stated target type set is checked against the kernel's columns, as a target is
    pytest.param(lambda: process(Population(AB, [1, 2]), [[1, 1], [0.5, 0]], XYZ),
                 r"kernel must be a matrix with one row per source type and one column per"
                 r" target type, got \(2, 2\)", id="process-target-types"),
    pytest.param(lambda: local_average(f5(), on(AB)), "y must live on the target",
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
    pytest.param(lambda: Partition(AB, [["a"], "b"]), "a partition block must be a list of labels",
                 id="partition-block-string"),
    pytest.param(lambda: cell_arrays(f5(), Partition.singletons(AB), Partition.singletons(AB)),
                 "partitions must match the process type sets", id="cell-arrays-types"),
    # a cell's labels are the process's, each listed once
    pytest.param(lambda: local_selective_entropy(f5(), ["a", "z"], ["c0"]),
                 "block label 'z' is unknown", id="local-selective-entropy-unknown"),
    pytest.param(lambda: local_selective_entropy(f5(), ["a", "a"], ["c0"]),
                 "block label 'a' is repeated", id="local-selective-entropy-repeated"),
    # orders and horizons are ints, not floats, booleans or numpy integers
    pytest.param(lambda: higher_order_first_law(f5(), 2.5),
                 r"order n must be an int between 1 and 8, got 2\.5", id="higher-order-float"),
    pytest.param(lambda: higher_order_first_law(f5(), True),
                 "order n must be an int between 1 and 8, got True", id="higher-order-bool"),
    # a numpy integer would carry numpy scalars into the report's bounds and extras
    pytest.param(lambda: higher_order_first_law(f5(), np.int64(2)),
                 "order n must be an int between 1 and 8", id="higher-order-numpy-int"),
    pytest.param(lambda: ks_entropy_curve(process(Population(AB, [1, 2]), [[1, 1], [0.5, 0]], AB),
                                          2.5),
                 "horizon T must be between 1 and 6", id="ks-horizon-float"),
    # open processes
    pytest.param(lambda: OpenProcess(f5(), Population(AB, [5, 5])),
                 "full target must share the child type set", id="open-process-types"),
    pytest.param(lambda: open_process(Population(AB, [1, 2]), [[1], [1]], [-0.5]),
                 "orphan weights must be nonnegative", id="negative-orphans"),
    # the kernel is checked before the parented children are formed, the
    # orphans before they are added to them
    pytest.param(lambda: open_process(Population(AB, [1, 2]), [[float("nan")], [1]], [0.5]),
                 r"kernel entries must be finite, got nan at \[0, 0\]", id="open-kernel-nan"),
    pytest.param(lambda: open_process(Population(AB, [1, 2]), [[1], [1]], [float("nan")]),
                 r"orphan weights must be finite, got nan at \[0\]", id="orphans-nan"),
    pytest.param(lambda: open_process(Population(AB, [1, 1]), [[1, 0, 0.5], [0, 1, 0]], [0.5]),
                 r"orphan weights must be one per child type, got shape \(1,\)",
                 id="orphans-short"),
    pytest.param(lambda: open_process(Population(AB, [1, 1]), [[1e308], [1]], [1e308]),
                 r"full child weights overflow: got inf at \[0\]", id="full-child-weights-overflow"),
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
    # finite states whose trace overflows; A + A-dagger of the first would too
    pytest.param(lambda: DensityOperator([[1e308, 1e308], [1e308, 1e308]]),
                 "density operator trace overflows: the eigenvalues sum to inf",
                 id="density-trace-overflow"),
    pytest.param(lambda: DensityOperator([[1e308, 0], [0, 1e308]]),
                 "density operator trace overflows: the eigenvalues sum to inf",
                 id="density-diagonal-trace-overflow"),
    pytest.param(lambda: DensityOperator([[1.0, 0.0], [0.0, float("nan")]]),
                 r"density operator entries must be finite, got \(nan\+0j\) at \[1, 1\]",
                 id="density-nan"),
    pytest.param(lambda: DensityOperator([[1, 0, 0], [0, 1, 0]]),
                 r"density operator must be a nonempty square matrix, got shape \(2, 3\)",
                 id="density-not-square"),
    pytest.param(lambda: DensityOperator([]),
                 r"density operator must be a nonempty square matrix, got shape \(0,\)",
                 id="density-empty"),
    pytest.param(lambda: QuantumObservable(np.ones((2, 2, 2))),
                 r"observable must be a nonempty square matrix, got shape \(2, 2, 2\)",
                 id="quantum-observable-stack"),
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
    # finite Kraus operators whose product overflows: from_kraus scans the map it builds
    pytest.param(lambda: QuantumProcess.from_kraus([1e200 * np.eye(2)],
                                                   DensityOperator(np.eye(2) / 2)),
                 r"superoperator entries must be finite, got \(inf\+0j\) at \[0, 0\]",
                 id="kraus-product-overflow"),
    # U = W / wbar reaches N / mu_i on the embedded map as on the kernel
    pytest.param(lambda: fitness(embed_process(process(Population(AB, [1e-310, 1]),
                                                       [[1.0], [0.0]]))),
                 r"relative fitness operator W/wbar overflow: got \(inf\+0j\) at \[0, 0\]",
                 id="relative-fitness-operator-overflow"),
    pytest.param(lambda: kraus_to_super([]), "a Kraus list needs at least one operator",
                 id="kraus-empty"),
    pytest.param(lambda: kraus_to_super([[1.0, 0.0]]), "each Kraus operator must be a matrix",
                 id="kraus-not-a-matrix"),
    pytest.param(lambda: kraus_to_super([np.eye(2), np.eye(3)]),
                 "Kraus operator entries are not an array of numbers", id="kraus-ragged"),
    pytest.param(lambda: QuantumProcess(np.eye(4), DensityOperator(np.eye(3))),
                 "superoperator input dimension mismatch", id="quantum-process-input"),
    pytest.param(lambda: QuantumProcess(np.ones((3, 4)), DensityOperator(np.eye(2))),
                 "superoperator output dimension is not a square", id="quantum-process-output"),
    # the superoperator's and the projections' shapes are checked before they are read
    pytest.param(lambda: QuantumProcess([1.0, 0, 0, 1.0], DensityOperator(np.eye(2))),
                 r"superoperator must be a matrix, got shape \(4,\)", id="superoperator-vector"),
    pytest.param(lambda: QuantumProcess(5.0, DensityOperator(np.eye(2))),
                 r"superoperator must be a matrix, got shape \(\)", id="superoperator-scalar"),
    pytest.param(lambda: q_partition_entropy(qubit_process(), [], [np.eye(2)]),
                 r"source projections must be n >= 1 2x2 matrices, got \(0,\)",
                 id="projections-empty"),
    pytest.param(lambda: q_partition_entropy(qubit_process(), [np.eye(2)], [np.eye(3)]),
                 r"target projections must be n >= 1 2x2 matrices, got \(1, 3, 3\)",
                 id="projections-wrong-dimension"),
    pytest.param(lambda: q_partition_entropy(qubit_process(), [[[1.0, 0.0]]], [np.eye(2)]),
                 r"source projections must be n >= 1 2x2 matrices, got \(1, 1, 2\)",
                 id="projections-not-square"),
    pytest.param(fitness_below_the_band, "fitness operator is not positive",
                 id="fitness-operator-negative"),
    pytest.param(lambda: embed_observable([True, False]),
                 "observable values are not an array of numbers: got bool True",
                 id="embed-observable-bool"),
    pytest.param(lambda: embed_observable(["1", 2]),
                 "observable values are not an array of numbers: got str '1'",
                 id="embed-observable-str"),
    pytest.param(lambda: q_price(qubit_process(), QuantumObservable(np.eye(3)),
                                 QuantumObservable(np.eye(2))),
                 "observable dimensions do not match the process", id="q-price-dims"),
    # a NaN entry would pass every band test of the projections
    pytest.param(lambda: q_partition_entropy(embedded(), SINGLETONS,
                                             [np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])]),
                 r"target projection entries must be finite, got \(nan\+0j\) at \[0, 0, 0\]",
                 id="projection-nan"),
    pytest.param(lambda: q_partition_entropy(embedded(),
                                             [[[1.0, np.nan], [np.nan, 0.0]], np.diag([0.0, 1.0])],
                                             SINGLETONS),
                 r"source projection entries must be finite, got \(nan\+0j\) at \[0, 0, 1\]",
                 id="projection-nan-off-diagonal"),
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


def test_nan_residual_fails_its_identity(monkeypatch):
    """A NaN residual is not within its tolerance: a cross-checked identity
    whose route turns NaN raises, as one that misses by a finite amount does."""
    with pytest.raises(IdentityViolation, match="fisher: residual nan"):
        IdentityViolation.check("fisher", float("nan"), 1e-9)
    laws = importlib.import_module("pricekit.laws")
    true_split = laws.multilevel_variance
    monkeypatch.setattr(laws, "multilevel_variance",
                        lambda p, q: np.add(true_split(p, q), (np.nan, 0.0)))
    with pytest.raises(IdentityViolation, match="multilevel_variance_routes: residual nan"):
        multilevel_second_law(*pair())
