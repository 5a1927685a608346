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
from .oracle import (  # noqa: E402
    McReport,
    brute_trace_table,
    mc_value_complementarity,
    random_observable,
    random_state,
    random_unit_vector,
    random_unitary,
)

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
    "McReport", "brute_trace_table", "mc_value_complementarity",
    "random_observable", "random_state", "random_unit_vector", "random_unitary",
]
