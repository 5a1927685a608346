"""Effects, observables and unbiasedness checks for finite quantum systems."""

__version__ = "0.1.0"

from .effects import (  # noqa: E402
    Effect,
    State,
    occurrence_probability,
    seq_product,
)
from .observables import (  # noqa: E402
    CoexistenceWitness,
    Distribution,
    Observable,
    PartitionMap,
    coarse_grain,
    coexistence_witness,
    conditioned,
    conjugate,
    distribution,
    iter_partition_maps,
    iter_set_partitions,
    obs_seq_product,
)
from .fourier import (  # noqa: E402
    example_partitions,
    fourier_matrix,
    momentum_observable,
    position_observable,
)
from .analysis import (  # noqa: E402
    PairReport,
    PartitionCriterion,
    Verdict,
    check_condition1,
    check_condition2,
    check_generalized_mu,
    check_mu,
    check_partition_criterion,
    check_trivial,
    check_value_complementary,
    classify_pair,
    forced_alpha,
)

#: The reference implementations, loaded on first use: no command but
#: ``paper-suite`` calls them, and ``oracle`` imports ``numpy.random``.
_ORACLE_NAMES = ("McReport", "brute_trace_table", "mc_value_complementarity",
                 "random_observable", "random_state", "random_unit_vector", "random_unitary")


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_NAMES})


__all__ = [
    "__version__",
    "Effect", "State", "occurrence_probability", "seq_product",
    "CoexistenceWitness", "Distribution", "Observable", "PartitionMap",
    "coarse_grain", "coexistence_witness", "conditioned", "conjugate",
    "distribution", "iter_partition_maps", "iter_set_partitions",
    "obs_seq_product",
    "example_partitions", "fourier_matrix", "momentum_observable", "position_observable",
    "PairReport", "PartitionCriterion", "Verdict",
    "check_condition1", "check_condition2", "check_generalized_mu",
    "check_mu", "check_partition_criterion", "check_trivial",
    "check_value_complementary", "classify_pair", "forced_alpha",
    *_ORACLE_NAMES,
]
