"""Single-shot work statistics of driven systems coupled to a heat bath.

The package computes exact and sampled work distributions for discrete
protocols (sequences of Hamiltonian changes and thermalizations), evaluates
worst-case and tail-tolerant guaranteed work, relates them to one-shot
divergence quantities, and models a driven electron box as a continuous-time
application.
"""

from .ebox import (
    CrooksCheck,
    EboxParams,
    Ramp,
    SeriesWorkDistribution,
    WorkSamples,
    analytic_work_distribution,
    characteristic_function,
    constant_ramp,
    constant_relaxation_p0,
    cost_work_quantile,
    ebox_crooks_check,
    extracted_work_quantile,
    gibbs_occupations,
    integrate_master,
    linear_ramp,
    markov_bound_check,
    mean_work,
    monte_carlo_work,
    partial_swap_chain,
    swap_probability,
    szilard_ramp,
    szilard_sweep,
    tunneling_rate,
)
from .engine import (
    WorkDistribution,
    bin_works,
    crooks_residual,
    epsilon_guaranteed_work,
    jarzynski_sum,
    variation_distance,
    work_distribution,
    worst_case_work,
)
from .errors import (
    ConvergenceError,
    InvalidInputError,
    NumericError,
    ResourceLimitError,
    StepSizeError,
    SupportMismatchError,
)
from .model import (
    DiagonalState,
    EnergyLandscape,
    HamiltonianChange,
    LevelPartition,
    Protocol,
    Thermalization,
    make_thermal_state,
    partial_swap_hop_matrix,
    reverse_protocol,
    step_work,
    sudden_quench_jump_matrix,
)
from .singleshot import (
    EqualityReport,
    TildeScenario,
    build_tilde_scenario,
    d_infinity,
    d_zero,
    exhaustive_smooth_d_zero,
    greedy_smooth_d_zero,
    main_equality_report,
    markov_d_infinity_bound,
    max_entropy,
    out_of_set_probability,
    smooth_d_zero,
    work_tail_equality_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.3.0"
