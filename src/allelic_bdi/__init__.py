"""Birth-death-immigration dynamics on allelic partitions.

A three-parameter (alpha, theta, mu) continuous-time Markov chain on
multiplicity vectors, with exact Ewens/Pitman sampling-formula evaluators,
its reversible stationary laws in the mu > 1 regime, the urn's group-count
growth, three simulation engines (two on partitions, one on the population
size) and Monte Carlo diagnostics.
"""

__version__ = "0.1.0"

from .errors import (
    BoundExceededError,
    DomainError,
    InapplicableEventError,
    PartitionParseError,
    RunawayError,
)
from .partitions import (
    MAX_ENUMERATION_SIZE,
    AllelicPartition,
    EventKind,
    TransitionEvent,
    enumerate_partitions,
)
from .formulae import (
    ModelParams,
    esf,
    nbin_time_param,
    neg_bin_pmf,
    psf,
    transient_pmf,
)
from .urn import group_count_trace
from .ctmc import (
    DEFAULT_MAX_EVENTS,
    Trajectory,
    simulate,
    simulate_branching,
)
from .stationary import (
    PARTITION_BALANCE_MAX_SIZE,
    BalanceScan,
    alpha0_limit_rate,
    alpha0_marginal,
    mixture_consistency_scan,
    partition_balance_scan,
    partition_stationary_pmf,
    partition_stationary_truncated,
    size_balance_scan,
    size_stationary_pmf,
    stationary_mass_comparison,
    weight_series_gap,
)
from .montecarlo import (
    EmpiricalDistribution,
    GrowthRow,
    conditional_given_size,
    growth_report,
    run_ensemble,
    stationary_occupation,
    tv_distance,
    write_growth_csv,
    write_histogram_csv,
)

__all__ = [
    "__version__",
    "AllelicPartition",
    "BalanceScan",
    "BoundExceededError",
    "DEFAULT_MAX_EVENTS",
    "DomainError",
    "EmpiricalDistribution",
    "EventKind",
    "GrowthRow",
    "InapplicableEventError",
    "MAX_ENUMERATION_SIZE",
    "ModelParams",
    "PARTITION_BALANCE_MAX_SIZE",
    "PartitionParseError",
    "RunawayError",
    "Trajectory",
    "TransitionEvent",
    "alpha0_limit_rate",
    "alpha0_marginal",
    "conditional_given_size",
    "enumerate_partitions",
    "esf",
    "group_count_trace",
    "growth_report",
    "mixture_consistency_scan",
    "nbin_time_param",
    "neg_bin_pmf",
    "partition_balance_scan",
    "partition_stationary_pmf",
    "partition_stationary_truncated",
    "psf",
    "run_ensemble",
    "simulate",
    "simulate_branching",
    "size_balance_scan",
    "size_stationary_pmf",
    "stationary_mass_comparison",
    "stationary_occupation",
    "transient_pmf",
    "tv_distance",
    "weight_series_gap",
    "write_growth_csv",
    "write_histogram_csv",
]
