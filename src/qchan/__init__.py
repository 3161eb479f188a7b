"""Product-state capacities of qubit channels.

Closed-form and solver-based Holevo capacities for the amplitude-damping and
depolarizing channels, the sup-min capacity of convex combinations of two
memoryless channels, and a brute-force ensemble oracle that certifies every
optimized value.
"""

__version__ = "0.1.0"

from .capacity import (
    CapacityResult,
    capacity_amplitude_damping,
    capacity_depolarizing,
    chi_ad_curve,
    chi_ad_derivative,
    chi_dep_curve,
    dchi_dgamma,
    holevo_chi,
    monotonicity_df_da,
    monotonicity_f,
)
from .channels import (
    AmplitudeDamping,
    Channel,
    Depolarizing,
    GeneralKraus,
    MixedChannelPair,
    apply_channel,
    kraus_amplitude_damping,
    kraus_depolarizing,
    output_eigenvalues_ad,
    symmetrize,
)
from .errors import (
    BudgetExceededError,
    CertificationError,
    DomainError,
    QchanError,
    SolverError,
)
from .mixtures import (
    SEPARATION_GAMMA,
    SEPARATION_LAMBDA,
    MinimaxResult,
    capacity_two_amplitude_damping,
    capacity_two_depolarizing,
    minimax_capacity,
    separation_pair,
)
from .oracle import DEFAULT_BUDGET, OracleConfig, oracle_capacity, oracle_minimax
from .states import (
    Ensemble,
    Herm2,
    QubitState,
    binary_entropy,
    eigenvalues_herm2,
    mirror_pair,
    mix,
    pure_state,
    von_neumann_entropy,
)

__all__ = [
    "AmplitudeDamping",
    "BudgetExceededError",
    "CapacityResult",
    "CertificationError",
    "Channel",
    "DEFAULT_BUDGET",
    "Depolarizing",
    "DomainError",
    "Ensemble",
    "GeneralKraus",
    "Herm2",
    "MinimaxResult",
    "MixedChannelPair",
    "OracleConfig",
    "QchanError",
    "QubitState",
    "SEPARATION_GAMMA",
    "SEPARATION_LAMBDA",
    "SolverError",
    "apply_channel",
    "binary_entropy",
    "capacity_amplitude_damping",
    "capacity_depolarizing",
    "capacity_two_amplitude_damping",
    "capacity_two_depolarizing",
    "chi_ad_curve",
    "chi_ad_derivative",
    "chi_dep_curve",
    "dchi_dgamma",
    "eigenvalues_herm2",
    "holevo_chi",
    "kraus_amplitude_damping",
    "kraus_depolarizing",
    "minimax_capacity",
    "mirror_pair",
    "mix",
    "monotonicity_df_da",
    "monotonicity_f",
    "oracle_capacity",
    "oracle_minimax",
    "output_eigenvalues_ad",
    "pure_state",
    "separation_pair",
    "symmetrize",
    "von_neumann_entropy",
]
