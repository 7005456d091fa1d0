"""Transport distances, relative entropies and explicit concentration /
transportation / log-Sobolev constants for dependent sequences, with
empirical certification tools."""

from .certify import (
    Certificate,
    best_constant,
    check_bg_duality,
    check_gc,
    check_lsi_grid,
    check_transport,
    replay,
)
from .constants import (
    RegimeConstant,
    arma_lsi_alpha,
    contraction_noise_alpha,
    gaussian_sharp_alpha,
    gc_markov_kappa,
    gc_weak_kappa,
    gc_weak_kappa_general,
    geometric_sum,
    lsi_markov_alpha,
    lsi_markov_kernel_alpha,
    lsi_weak_alpha,
    lsi_weak_alpha_general,
    ou_kappa,
    ts_general_alpha,
    ts_markov_alpha,
    ts_weak_alpha,
)
from .coupling import CouplingBound, recursive_coupling_bound, transport_inequality_audit
from .entropy import (
    EntropyBreakdown,
    chain_rule_decompose,
    relative_entropy_discrete,
    relative_entropy_gaussian,
)
from .errors import InputError, SolverError
from .measures import (
    DiscreteMeasure,
    FiniteMetricSpace,
    GaussianMeasure,
    ProductSpace,
    REAL_LINE,
    empirical_measure,
)
from .processes import (
    ARMAModel,
    ContractionNoiseModel,
    GaussianKernelModel,
    OUModel,
    SamplePaths,
    TabularModel,
    gaussian_chain_joint,
    kernel_law,
    kernel_lipschitz_estimate,
    lambda_mgf_estimate,
    ms_estimate,
    ou_transition,
    simulate_joint,
    simulate_path_sums,
    tabular_joint_law,
)
from .transport import (
    TransportPlan,
    kantorovich_dual_w1,
    solve_transport_lp,
    wasserstein_1d,
    wasserstein_exact,
    wasserstein_gaussian_w2,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
