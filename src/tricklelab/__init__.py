"""Trickle propagation lab: protocol simulator, renewal analytics, exact laws."""

from .core import (
    NodeState,
    Reaction,
    TAU_INFINITE,
    TrickleParams,
    needs_new_interval,
    on_interval_end,
    on_message,
    on_timer,
    quiet_state,
    start_interval,
)
from .analytics import (
    AsymptoticStats,
    asymptotic_stats,
    cov_update_sizes,
    delay_rate,
    delta_covariance,
    gamma_U_sq,
    hop_rate,
    mean_inter_transmission,
    mean_update_size,
    minimize_delay_variance,
    normal_approx,
    sigma_H_sq,
    sigma_T_sq,
)
from .gf import (
    TruncationInsufficientError,
    delay_moments_dp,
    delay_moments_gf,
    exact_law_dp,
    hop_pmf_dp,
    hop_pmf_gf,
    solve_delay_system,
    solve_hop_system,
    step_moment,
)
from .simulate import (
    DegenerateInputError,
    LineTopology,
    NonTerminationError,
    PropagationTrace,
    SampleSet,
    ks_distance,
    monte_carlo,
    run_protocol_event,
)

__version__ = "0.1.0"
