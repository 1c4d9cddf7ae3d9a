"""The monotone double iteration for the consumption HJB equation.

Builds K(r) (value profile Phi = K v^alpha) for Problems A and B as the limit
of K^m_n, where each inner step is one resolvent application of the
Lipschitz-clamped nonlinearity, and audits the result: monotonicity in n and
m, domination by the supersolution profile, and the pointwise HJB residual.
Problem C has the closed form K = N^{1-alpha} and no iteration.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import HorizonError, InfeasibleProblem, MonotonicityError
from .feasibility import classify, require_finite_N
from .gaussian import supersolution_N
from .grids import GridFunction
from .models import Constant, ProblemSpec, Vasicek, domain, generator_apply, state_rate
from .resolvent import FDOperator, FiniteDifference, Quadrature, QuadratureOperator, _auto_bcs, robin_rate

# accuracy of one resolvent step; the monotonicity guard aborts a run whose
# iterate falls, or escapes its bracket, by more than ten times this
_TOLERANCE = 1e-6
# K_L solves kept, each with its stencil and the factored system of its last
# lambda: compute_KL after solve_problem_b on one case reuses its solve, and
# the case's Ntilde and iteration run on that stencil (8 kept solves raised a
# 204-case sweep's peak RSS by 0.4 MB)
_KL_CACHE = 1


@dataclass(frozen=True)
class SolverConfig:
    """Iteration caps, lambda schedule, tolerances, and the resolvent backend.

    ``grid`` is the reporting grid of the solution. The solver works on a
    window padded by ``pad`` on each side (clipped to the model domain) and
    returns the restriction, so edge effects of the truncation rules stay out
    of the delivered values.
    """

    grid: GridFunction
    backend: Quadrature | FiniteDifference
    m_max: int = 16
    n_max: int = 10
    eps2: float = 1e-5
    tol_n: float = 1e-6
    tol_m: float = 1e-4
    pad: float = 0.05

    def __post_init__(self):
        if not isinstance(self.backend, (Quadrature, FiniteDifference)):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.m_max < 1 or self.n_max < 1:
            raise ValueError("m_max and n_max must be at least 1")
        if self.tol_n <= 0 or self.tol_m <= 0:
            raise ValueError("tolerances must be positive")
        if self.pad < 0:
            raise ValueError("pad must be nonnegative")


@dataclass(frozen=True)
class TraceStep:
    m: int
    n: int
    sup_increment: float
    min_increment: float
    max_bound_violation: float
    seconds: float
    lam: float  # the clamp level's lambda


@dataclass
class IterationTrace:
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def worst_min_increment(self) -> float:
        return min((s.min_increment for s in self.steps), default=0.0)

    @property
    def worst_bound_violation(self) -> float:
        return max((s.max_bound_violation for s in self.steps), default=0.0)


@dataclass
class Solution:
    """Converged value profile and its audit trail.

    ``iterates`` holds the profile's values on K's grid after every
    resolvent step (the rising fan of curves under the supersolution), as
    plain arrays; for problem B, ``N_pow`` carries the
    upper bracket K_L + Ntilde^{1-alpha} instead of N^{1-alpha}.
    ``operator`` holds the quadrature operator's telemetry, empty for the
    other backends."""

    K: GridFunction
    N_pow: GridFunction | None
    policy_c: GridFunction
    trace: IterationTrace
    iterates: list[np.ndarray]
    operator: dict = field(default_factory=dict)


def clamp_F(m: float, alpha: float, x):
    """Lipschitz clamp of the consumption nonlinearity (1-alpha) x^{alpha/(alpha-1)}.

    Below the branch point m^{alpha-1} the function continues as its tangent
    line m^alpha - alpha m x, so the whole map is Lipschitz with constant
    alpha m; this caps the relative consumption rate at m.
    """
    if m <= 0:
        raise ValueError("the clamp level m must be positive")
    x_arr = np.array(x, dtype=float, copy=None, ndmin=1)
    if (x_arr < 0).any():
        raise ValueError("the clamp is defined for x >= 0")
    xc = m ** (alpha - 1.0)
    # both branches formed in place, the curve written over the line where x > xc
    upper = np.maximum(x_arr, xc)
    np.power(upper, alpha / (alpha - 1.0), out=upper)
    upper *= 1.0 - alpha
    out = np.multiply(x_arr, alpha * m)
    np.subtract(m**alpha, out, out=out)
    np.copyto(out, upper, where=x_arr > xc)
    return float(out[0]) if np.ndim(x) == 0 else out


def lambda_schedule(spec: ProblemSpec, config: SolverConfig, m: int) -> float:
    """lambda_m = alpha m + eps2. The paper's schedule also takes the max
    with theta - gamma plus a margin, which a finite verdict makes negative
    (gamma > gamma_1 >= theta); under --force, QuadratureOperator refuses a
    level with lambda + gamma <= theta before it allocates anything."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return spec.alpha * m + config.eps2


def _extended_nodes(spec: ProblemSpec, grid: GridFunction, pad: float):
    """Reporting grid extended by ~pad on each side, clipped to the closure of
    the model domain if the grid lies in it (else left for the domain checks).

    Returns (nodes, i0, i1) with the reporting window at [i0, i1]."""
    h = grid.step
    dom = domain(spec.model)
    if isinstance(spec.model, Constant) or pad == 0.0:
        k_lo = k_hi = 0
    else:
        k = int(round(pad / h))
        k_lo = k
        k_hi = k
        if np.isfinite(dom.lo):
            k_lo = min(k, max(int(np.floor((grid.r_min - dom.lo) / h + 1e-9)), 0))
        if np.isfinite(dom.hi):
            k_hi = min(k, max(int(np.floor((dom.hi - grid.r_max) / h + 1e-9)), 0))
    n = grid.n_nodes + k_lo + k_hi
    nodes = grid.r_min - k_lo * h + h * np.arange(n)
    if dom.lo <= grid.r_min and grid.r_max <= dom.hi:  # rounding must not carry a node out of the domain
        np.clip(nodes, dom.lo, dom.hi, out=nodes)
    return nodes, k_lo, k_lo + grid.n_nodes - 1


def check_solvable(spec: ProblemSpec, config: SolverConfig) -> None:
    """The checks of model and grid that the solver of spec's variant makes
    before any work, as ValueError (InfeasibleProblem for C's N, which
    supersolution_N checks first): Problem B needs the Vasicek model and a
    grid from r = 0, Problem C a finite N, and the finite-difference Problem A
    a boundary rule on its padded nodes."""
    if spec.variant == "B":
        if not isinstance(spec.model, Vasicek):
            raise ValueError("problem B is implemented for the Vasicek model")
        if abs(config.grid.r_min) > 1e-12:
            raise ValueError("problem-B grids must start at r_min = 0")
    elif spec.variant == "C":
        require_finite_N(spec)
    elif isinstance(config.backend, FiniteDifference):
        _auto_bcs(spec, _extended_nodes(spec, config.grid, config.pad)[0])


def _upper_profile(spec: ProblemSpec, nodes: np.ndarray, force: bool):
    """N^{1-alpha} on the nodes, or None when unavailable under --force."""
    try:
        n_vals = supersolution_N(spec, nodes)
    except InfeasibleProblem:
        if force:
            return None
        raise
    return np.power(n_vals, 1.0 - spec.alpha)


def _iterate(
    spec: ProblemSpec,
    config: SolverConfig,
    apply_resolvent,
    k0: np.ndarray,
    window: slice,
    upper: np.ndarray | None,
    lower: np.ndarray | None,
    post_step=None,
) -> tuple[np.ndarray, IterationTrace, list[np.ndarray]]:
    """Run the double monotone loop from k0; all audit statistics are taken on
    the reporting window slice, against the bracketing bounds given on that
    window, and the snapshots are that window of each step's iterate."""
    trace = IterationTrace()
    snapshots: list[np.ndarray] = []
    k = k0.copy()
    for m in range(1, config.m_max + 1):
        lam = lambda_schedule(spec, config, m)
        k_outer = k.copy()
        for n in range(1, config.n_max + 1):
            t0 = time.perf_counter()
            psi = clamp_F(m, spec.alpha, np.maximum(k, 0.0))
            psi += lam * k
            k_new = apply_resolvent(lam, psi)
            if post_step is not None:
                post_step(k_new)
            dt_step = time.perf_counter() - t0
            new = k_new[window]
            delta = new - k[window]
            min_inc = float(delta.min())
            sup_inc = float(np.abs(delta, out=delta).max())
            viol = 0.0
            if upper is not None:
                viol = max(viol, float((new - upper).max()))
            if lower is not None:
                viol = max(viol, float((lower - new).max()))
            viol = max(viol, 0.0)
            trace.steps.append(TraceStep(m, n, sup_inc, min_inc, viol, dt_step, lam))
            if min_inc < -10.0 * _TOLERANCE:
                raise MonotonicityError(
                    f"iterate decreased by {-min_inc:.3g} at m={m}, n={n} "
                    f"(beyond 10x resolvent tolerance {_TOLERANCE:.1g}); "
                    "check the resolvent configuration and lambda schedule",
                    trace=trace,
                )
            if viol > 10.0 * _TOLERANCE:
                raise MonotonicityError(
                    f"iterate escaped its bracketing profile by {viol:.3g} at m={m}, n={n}",
                    trace=trace,
                )
            k = k_new
            snapshots.append(new.copy())
            if sup_inc < config.tol_n:
                break
        outer_inc = float(np.abs(k[window] - k_outer[window]).max())
        if m >= 2 and outer_inc < config.tol_m:
            break
    return k, trace, snapshots


def solve_problem_a(spec: ProblemSpec, config: SolverConfig, *, force: bool = False) -> Solution:
    """Problem A: the double monotone iteration K^m_n from K^m_0 = 0.

    The m loop warm-starts from the previous clamp level (a valid subsolution
    since the clamps increase with m), so monotonicity in both indices holds
    and is asserted against the resolvent tolerance.
    """
    if spec.variant != "A":
        raise ValueError("solve_problem_a requires a variant-A spec")
    if not force:
        classify(spec).require()
    check_solvable(spec, config)
    nodes, i0, i1 = _extended_nodes(spec, config.grid, config.pad)
    window = slice(i0, i1 + 1)
    # only the window's N is read; its time cutoff, tested on fewer nodes,
    # stops at the padded call's chunk or an earlier one (the same chunk and
    # bits on the desk and mid windows, which the N pins check)
    upper = _upper_profile(spec, nodes[window], force)
    if isinstance(config.backend, Quadrature):
        lams = [lambda_schedule(spec, config, m) for m in range(1, config.m_max + 1)]
        grid = GridFunction(nodes[0], nodes[-1], np.zeros(nodes.size))
        op = QuadratureOperator(spec, grid, config.backend, lams)
    else:
        op = FDOperator(spec, nodes)
    k, trace, snaps = _iterate(spec, config, op.apply, np.zeros(nodes.size), window, upper, None)
    sol = _package(spec, config, window, k, upper, trace, snaps)
    if isinstance(op, QuadratureOperator):
        sol.operator = op.telemetry()
    return sol


def solve_problem_c(spec: ProblemSpec, config: SolverConfig, *, force: bool = False) -> Solution:
    """Problem C: the closed-form profile K = N^{1-alpha}, with no iteration.

    N is taken on the reporting grid itself, without the pad, as Problem A
    takes it on its reporting window."""
    if spec.variant != "C":
        raise ValueError("solve_problem_c requires a variant-C spec")
    if not force:
        classify(spec).require()
    nodes = config.grid.nodes
    k = _upper_profile(spec, nodes, False)
    return _package(spec, config, slice(None), k, k, IterationTrace(), [k])


def _package(spec, config, window, k, upper, trace, iterates) -> Solution:
    """The solution on the reporting grid: K's window, and the upper bound
    given on that window."""
    grid = config.grid
    k_rep = GridFunction(grid.r_min, grid.r_max, k[window])
    if np.any(k_rep.values <= 0):
        raise MonotonicityError("converged K is not strictly positive", trace=trace)
    n_pow = GridFunction(grid.r_min, grid.r_max, upper) if upper is not None else None
    policy = optimal_consumption(k_rep, spec.alpha)
    return Solution(K=k_rep, N_pow=n_pow, policy_c=policy, trace=trace, iterates=iterates)


# ---------------------------------------------------------------------------
# Problem B


@functools.lru_cache(maxsize=_KL_CACHE)
def _kl_extended(spec: ProblemSpec, r_min: float, r_max: float, n_nodes: int, tol_n: float):
    """Hitting functional K_L on a truncation [0, R] doubled from
    max(2 r_max, 0.3) to convergence; returns (op, values), cached, where op
    is Problem B's finite-difference operator on the converged (read-only)
    nodes h * arange(n), with K(0) = 1 pinned and the Robin rule far out.
    Ntilde and the problem-B iteration run on this one stencil, so K_L stays
    an exact discrete subsolution; the cached operator keeps the factored
    system of its last lambda only."""
    h = (r_max - r_min) / (n_nodes - 1)
    R = max(2.0 * r_max, 0.3)
    prev = None
    while True:
        nodes = h * np.arange(max(int(round(R / h)), n_nodes - 1) + 1)
        op = FDOperator(spec, nodes, (("dirichlet", 1.0), ("robin", robin_rate(spec))))
        c0 = spec.gamma - spec.alpha * nodes
        u = op.system(c0, (("dirichlet", 1.0), ("dirichlet", 1.0))).solve(np.zeros(nodes.size))
        vals = u[:n_nodes]
        if prev is not None and float(np.abs(vals - prev).max()) < tol_n:
            nodes.flags.writeable = u.flags.writeable = False
            return op, u
        prev = vals
        R *= 2.0
        if R > 1000.0 * max(r_max, 1.0):
            raise HorizonError(
                f"K_L truncation radius did not converge (reached R={R:.3g}); "
                "the hitting functional may not be well defined at these parameters"
            )


def compute_KL(spec: ProblemSpec, config: SolverConfig) -> GridFunction:
    """Laplace functional of the first hitting time of 0,
    K_L(r) = E^r e^{-gamma tau_0 + alpha int_0^tau_0 r}, by FD solve of the
    homogeneous equation with K_L(0) = K_L(R) = 1 and R doubled to convergence."""
    if spec.variant != "B":
        raise ValueError("compute_KL belongs to problem B")
    check_solvable(spec, config)
    grid = config.grid
    _, u = _kl_extended(spec, grid.r_min, grid.r_max, grid.n_nodes, config.tol_n)
    return GridFunction(grid.r_min, grid.r_max, u[: grid.n_nodes].copy())


def solve_problem_b(spec: ProblemSpec, config: SolverConfig, *, force: bool = False) -> Solution:
    """Problem B: the same double loop seeded at K_L with K(0) = 1 pinned.

    Runs on the K_L truncation grid with the finite-difference operator
    (the Gaussian quadrature kernel has no absorbed-at-zero variant) and
    asserts the bracketing K_L <= K <= K_L + Ntilde^{1-alpha}."""
    if spec.variant != "B":
        raise ValueError("solve_problem_b requires a variant-B spec")
    check_solvable(spec, config)
    if not force:
        classify(spec).require()
    grid = config.grid
    op, kl = _kl_extended(spec, grid.r_min, grid.r_max, grid.n_nodes, config.tol_n)
    nodes = op.nodes
    # Ntilde: the supersolution stopped at 0 (absorbing Dirichlet), Robin far out
    c0 = (spec.gamma - spec.alpha * nodes) / (1.0 - spec.alpha)
    ntil = op.system(c0, (("dirichlet", 0.0), op.bcs[1])).solve(np.ones(nodes.size))
    upper = kl + np.power(np.maximum(ntil, 0.0), 1.0 - spec.alpha)

    window = slice(0, grid.n_nodes)

    def pin(k_new: np.ndarray) -> None:
        k_new[0] = 1.0

    k, trace, snaps = _iterate(spec, config, op.apply, kl.copy(), window, upper[window], kl[window], post_step=pin)
    return _package(spec, config, window, k, upper[window], trace, snaps)


# ---------------------------------------------------------------------------
# policy and residual audits


def optimal_consumption(K: GridFunction, alpha: float, v: float = 1.0, r: float | None = None):
    """Feedback consumption C(r, v) = K(r)^{1/(alpha-1)} v.

    With r omitted, returns the full grid of consumption levels; the relative
    rate is the v = 1 profile."""
    if v <= 0:
        raise ValueError("wealth must be positive")
    if r is None:
        if np.any(K.values <= 0):
            raise ValueError("K must be strictly positive")
        return K.with_values(np.power(K.values, 1.0 / (alpha - 1.0)) * v)
    k = float(K(r))
    if k <= 0:
        raise ValueError("K must be strictly positive at the queried rate")
    return k ** (1.0 / (alpha - 1.0)) * v


def grid_derivatives(K: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Central first and second differences on the interior nodes."""
    h = K.step
    v = K.values
    d1 = (v[2:] - v[:-2]) / (2.0 * h)
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    return d1, d2


def hjb_residual(spec: ProblemSpec, K: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Pointwise residual of Q K + (alpha r - gamma) K + (1-alpha) K^{alpha/(alpha-1)}
    on the interior nodes, raw and relative to 1 + |K|."""
    mid = K.values[1:-1]
    if np.any(mid <= 0):
        raise ValueError("K must be strictly positive on interior nodes")
    nodes = K.nodes[1:-1]
    d1, d2 = grid_derivatives(K)
    q = generator_apply(spec.model, d1, d2, nodes)
    raw = q + (spec.alpha * state_rate(spec.model, nodes) - spec.gamma) * mid + (1.0 - spec.alpha) * np.power(
        mid, spec.alpha / (spec.alpha - 1.0)
    )
    rel = raw / (1.0 + np.abs(mid))
    gf = GridFunction(nodes[0], nodes[-1], raw)
    return gf, gf.with_values(rel)


def central_window(g: GridFunction) -> GridFunction:
    """The central half of a grid function's window (residual audit scope)."""
    span = g.r_max - g.r_min
    lo = g.r_min + 0.25 * span
    hi = g.r_max - 0.25 * span
    nodes = g.nodes
    mask = (nodes >= lo - 1e-12) & (nodes <= hi + 1e-12)
    idx = np.where(mask)[0]
    return GridFunction(nodes[idx[0]], nodes[idx[-1]], g.values[idx[0] : idx[-1] + 1])
