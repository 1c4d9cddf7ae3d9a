"""Optimal consumption under diffusion short-rate models.

Solves the infinite-horizon consumption problem when the bank rate follows a
one-dimensional diffusion: value profiles K(r) via a monotone resolvent
iteration, finite/infinite classification, the bond-portfolio variant in
closed form, and Monte Carlo cross-validation of policies and hitting
functionals.
"""

from .errors import DivergenceError, HorizonError, InfeasibleProblem, InsufficientMemory, MonotonicityError
from .feasibility import (
    Feasibility,
    FeasibilityReport,
    classify,
    constant_rate_solution,
    gamma_thresholds,
    necessary_condition_probe,
    rho_decay,
    sufficient_condition_search,
    theta_growth,
)
from .gaussian import (
    JointMoments,
    envelope_norm,
    fk_kernel_weight,
    ou_moments,
    semigroup_apply,
    supersolution_N,
)
from .grids import GridFunction
from .hjb import (
    IterationTrace,
    Solution,
    SolverConfig,
    TraceStep,
    clamp_F,
    compute_KL,
    hjb_residual,
    lambda_schedule,
    optimal_consumption,
    solve_problem_a,
    solve_problem_b,
    solve_problem_c,
)
from .models import (
    Constant,
    DriftedBM,
    GeometricBM,
    Interval,
    InvariantInterval,
    InvarianceReport,
    ProblemSpec,
    ShortRateModel,
    Vasicek,
    diffusion,
    domain,
    drift,
    generator_apply,
    invariance_check,
)
from .portfolio import (
    PortfolioPolicy,
    beta_hat,
    beta_profiles,
    bond_loading,
    bonds_hjb_residual,
    eta_from_beta,
    value_c,
)
from .resolvent import (
    FiniteDifference,
    Quadrature,
    resolvent_fd,
    resolvent_quadrature,
    solve_linear_fk_ode,
)
from .simulate import (
    JEstimate,
    KLEstimate,
    PathConfig,
    Trajectory,
    estimate_J,
    estimate_KL_mc,
    resolvent_mc,
    sample_path,
    wealth_trajectory,
)

__version__ = "0.1.0"
