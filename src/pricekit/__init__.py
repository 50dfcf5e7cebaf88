"""Price-equation decompositions, selection-law checkers, and entropy
diagnostics for finite evolutionary processes, classical and quantum."""

from .measure import (
    Observable,
    Population,
    TypeSet,
    childbearing_stats,
    covariance,
    expectation,
    variance,
)
from .process import (
    Factorization,
    FitnessData,
    Process,
    Purity,
    classify_purity,
    compose,
    fitness,
    local_average,
    local_change,
    price_factorize,
    process,
    validate,
)
from .price import (
    AggregatePrice,
    MultiLevelPrice,
    PriceDecomposition,
    aggregate_price,
    fisher,
    multilevel_price,
    multilevel_variance,
    price,
)
from .laws import (
    LawReport,
    StationarityClass,
    ec_selective_entropy_bound,
    ec_variance_bound,
    exp_first_law,
    first_law,
    gibbs_report,
    higher_order_first_law,
    multilevel_second_law,
    second_law,
    selective_acceleration,
    speed_limits,
    standard_reports,
    stationarity,
    zeroth_law,
)
from .entropy import (
    CellArrays,
    EntropyProfile,
    Partition,
    ReversibilityVerdict,
    cell_arrays,
    dispersion_mixing_bounds,
    environmental_entropy,
    environmental_equilibrium,
    environmental_profile,
    generating_profile,
    intergenerational_ec_change,
    ks_entropy,
    ks_entropy_curve,
    local_selective_entropy,
    reversibility,
    selective_entropy,
    third_law,
    total_entropy,
)
from .openproc import OpenProcess, dual_fitness_kgs, kgs, open_process
from .quantum import (
    DensityOperator,
    OpenQuantumProcess,
    QuantumObservable,
    QuantumProcess,
    embed_observable,
    embed_process,
    kraus_to_super,
    q_expectation,
    q_factorize,
    q_fitness,
    q_kgs,
    q_laws,
    q_partition_entropy,
    q_price,
)

__version__ = "0.1.0"
