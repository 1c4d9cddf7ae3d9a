"""Closed-form Vasicek analytics.

Joint Gaussian law of (r_t, h_t) with h_t the running rate integral, the
weighted transition kernel and semigroup P_t phi(r) = E^r[phi(r_t) e^{alpha h_t}],
and the integral supersolution N. Whether N is finite is decided in
feasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .blas import dgemm, dger
from .feasibility import require_finite_N, rho_decay
from .grids import GridFunction
from .models import Constant, InvariantInterval, ProblemSpec, Vasicek
from .parallel import check_memory, memory_budget

# how far the y mesh of semigroup_apply and of resolvent.QuadratureOperator
# reaches beyond the grid, in kernel widths (the operator's: stationary ones)
_PAD_SIGMAS = 6.0
# supersolution_N: time step and relative cutoff of the Vasicek integral, the
# time steps of one chunk (the unit of the stop test), and the values of one
# in-cache sub-block of a chunk; a sub-block holds two (rows + 1, nodes)
# arrays (the trapezoid terms, and the integrand written in place after the
# last value before it), (nodes,) sums and (rows,) time columns: a tracemalloc
# peak holds 2.5 to 3.3 arrays at 9 to 5000 nodes, within the 4 checked
_N_DT = 1e-3
_N_CUTOFF = 1e-14
_N_CHUNK = 4096
_N_FLOATS = 2**15
_N_SUB_ARRAYS = 4
_N_SUB_COLUMNS = 8
# fk_kernel_weight: floats per fill when t runs along the leading axis (whole
# time cells, at least one); each ufunc call is then long enough that the
# per-call overhead is small, while the temporaries (the dev scratch and its
# (rows, 2) dgemm operand) stay in cache
_FILL_FLOATS = 2**16


@dataclass(frozen=True)
class JointMoments:
    """First and second moments of (r_t, h_t) started at r, h_0 = 0."""

    mean_r: np.ndarray
    var_r: np.ndarray
    mean_h: np.ndarray
    var_h: np.ndarray
    cov_rh: np.ndarray


def _var_h_shape(x):
    """(b^3/sigma^2) var_h as a function of x = b t, cancellation-safe."""
    x = np.asarray(x, dtype=float)
    exact = x - 1.5 + 2.0 * np.exp(-x) - 0.5 * np.exp(-2.0 * x)
    series = x**3 / 3.0 - x**4 / 4.0 + 7.0 * x**5 / 60.0 - x**6 / 24.0
    return np.where(x < 1e-2, series, exact)


def _cov_shape(x):
    """(b^2/sigma^2) cov_rh as a function of x = b t, cancellation-safe."""
    x = np.asarray(x, dtype=float)
    exact = -np.expm1(-x) + 0.5 * np.expm1(-2.0 * x)
    series = x**2 / 2.0 - x**3 / 2.0 + 7.0 * x**4 / 24.0 - x**5 / 8.0
    return np.where(x < 1e-2, series, exact)


def _int_decay_shape(x):
    """b*(t - (1 - e^{-bt})/b) as a function of x = b t, cancellation-safe."""
    x = np.asarray(x, dtype=float)
    exact = x + np.expm1(-x)
    series = x**2 / 2.0 - x**3 / 6.0 + x**4 / 24.0
    return np.where(x < 1e-4, series, exact)


def ou_moments(model: Vasicek, r, t) -> JointMoments:
    """Exact joint moments of (r_t, h_t) for the Vasicek rate started at r.

    The covariance between r_t and h_t is not printed in the source law; it
    follows from the Ito isometry of the two stochastic integrals and is
    cross-validated against a path-simulation oracle in the test suite.
    """
    t = _checked_times(model, t)
    mean_r, mean_h = _means_from(model, np.asarray(r, dtype=float), *_mean_factors(model, t))
    var_r, var_h, cov_rh = _variances(model, t)
    return JointMoments(
        mean_r=mean_r,
        var_r=var_r * np.ones_like(mean_r),
        mean_h=mean_h,
        var_h=var_h * np.ones_like(mean_h),
        cov_rh=cov_rh * np.ones_like(mean_h),
    )


def _checked_times(model, t) -> np.ndarray:
    if not isinstance(model, Vasicek):
        raise ValueError("ou_moments requires the Vasicek model")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    return t


def _mean_factors(model: Vasicek, t: np.ndarray):
    """The t-only factors of the means, at the shape of t: e^{-bt},
    (a/b)(1 - e^{-bt}), 1 - e^{-bt} and (a/b^2) b(t - (1 - e^{-bt})/b)."""
    a, b = model.a, model.b
    x = b * t
    one_m_e1 = -np.expm1(-x)
    return np.exp(-x), (a / b) * one_m_e1, one_m_e1, (a / b**2) * _int_decay_shape(x)


def _means_from(model: Vasicek, r, e1, drift_r, one_m_e1, drift_h):
    """(mean_r, mean_h), at the broadcast shape of r and t, from r and the
    factors of _mean_factors."""
    return r * e1 + drift_r, r * one_m_e1 / model.b + drift_h


def _variances(model: Vasicek, t: np.ndarray):
    """(var_r, var_h, cov_rh), which depend on t only, at the shape of t."""
    b, sig = model.b, model.sigma
    x = b * t
    var_r = sig**2 * -np.expm1(-2.0 * x) / (2.0 * b)
    var_h = (sig**2 / b**3) * _var_h_shape(x)
    cov_rh = (sig**2 / b**2) * _cov_shape(x)
    return var_r, var_h, cov_rh


def exp_h_moment(spec: ProblemSpec, r, t):
    """E^r e^{alpha h_t} = exp(alpha mean_h + alpha^2 var_h / 2)."""
    mom = ou_moments(spec.model, r, t)
    return np.exp(spec.alpha * mom.mean_h + 0.5 * spec.alpha**2 * mom.var_h)


@dataclass(frozen=True)
class KernelColumns:
    """The factors of fk_kernel_weight that depend on t alone, at the shape
    of t; ``columns[j]`` holds those of ``t[j]``."""

    t: np.ndarray
    e1: np.ndarray  # e^{-bt}
    drift_r: np.ndarray  # (a/b)(1 - e^{-bt})
    one_m_e1: np.ndarray  # 1 - e^{-bt}
    drift_h: np.ndarray  # (a/b^2) b(t - (1 - e^{-bt})/b)
    half_var: np.ndarray  # alpha^2 var_cond / 2
    half_log: np.ndarray  # log(2 pi var_r) / 2
    scale: np.ndarray  # -1 / (2 var_r)
    shift: np.ndarray  # alpha cov_rh / var_r

    def __getitem__(self, j) -> KernelColumns:
        return KernelColumns(*(getattr(self, f.name)[j] for f in fields(self)))


def kernel_columns(spec: ProblemSpec, t) -> KernelColumns:
    """The t-only factors of fk_kernel_weight at times t > 0."""
    t = _checked_times(spec.model, t)
    if not np.all(t > 0):
        raise ValueError("the kernel requires t > 0")
    al = spec.alpha
    var_r, var_h, cov_rh = _variances(spec.model, t)
    beta = cov_rh / var_r
    var_cond = np.maximum(var_h - cov_rh**2 / var_r, 0.0)
    half_var = 0.5 * al**2 * var_cond
    half_log = 0.5 * np.log(2.0 * math.pi * var_r)
    return KernelColumns(t, *_mean_factors(spec.model, t), half_var, half_log, -0.5 / var_r, al * beta)


def fk_kernel_weight(spec: ProblemSpec, t, r, y, out=None, columns=None):
    """Weighted transition kernel w(t, r, y).

    w is the Gaussian transition density of r_t times the conditional
    exponential moment of h_t given r_t = y, so that
    int phi(y) w(t, r, y) dy = E^r[phi(r_t) e^{alpha h_t}].
    The kernel is singular at t = 0 and rejects t <= 0. ``out``, a
    C-contiguous array of the broadcast shape, receives the values instead of
    a new array. ``columns``, kernel_columns(spec, t) computed once by the
    caller, saves recomputing the factors that depend on t alone.

    The values form a (cells, ..., y) block: t runs along the leading axis
    only (a t of one value is a one-cell leading axis, not returned), r along
    the middle axes and y along the last; other layouts raise ValueError.
    The block is filled a few time cells at a time (about _FILL_FLOATS
    values), so that the temporaries stay small.
    """
    t = np.asarray(t, dtype=float)
    if columns is None:
        columns = kernel_columns(spec, t)
    elif columns.t.shape != t.shape or not np.array_equal(columns.t, t):
        raise ValueError("the kernel columns were computed for other times than t")
    al = spec.alpha
    c = columns
    mean_r, mean_h = _means_from(spec.model, np.asarray(r, dtype=float), c.e1, c.drift_r, c.one_m_e1, c.drift_h)
    # log of density * exp(alpha mu_cond + alpha^2 var_cond / 2), with
    # mu_cond = mean_h + beta dev; only dev = y - mean_r and base vary with
    # both r and y
    base = al * mean_h + c.half_var - c.half_log
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(y.shape, mean_r.shape)
    if t.size > 1 and not (t.ndim == len(shape) > 1 and t.shape[0] == t.size):
        raise ValueError(f"the kernel needs t along its leading axis only: t {t.shape}, kernel {shape}")
    if y.size > 1 and y.shape[-1] != y.size or mean_r.ndim and mean_r.shape[-1] > 1:
        raise ValueError(f"the kernel needs y along its last axis only and r off it: y {y.shape}, kernel {shape}")
    expo = np.empty(shape) if out is None else out
    if expo.shape != shape or not expo.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {shape}")
    block = expo.reshape(shape if t.size > 1 else (1, *shape))
    if block.size:
        cols = (-1,) + (1,) * (block.ndim - 1)
        _fill_kernel_rows(block, y.reshape(-1), mean_r, c.scale.reshape(cols), c.shift.reshape(cols), base)
    return expo if expo.ndim else expo[()]


def _fill_cells(shape) -> int:
    """Time cells per fill of a (cells, ..., y) kernel block."""
    return min(shape[0], max(1, _FILL_FLOATS // max(1, math.prod(shape[1:]))))


def _fill_kernel_rows(out, y, mean_r, scale, shift, base) -> None:
    """out = exp((dev scale + shift) dev + base) with dev = y - mean_r, on a
    C-contiguous (cells, ..., y) block whose t-only factors are
    (cells, 1, ..., 1) columns and whose mean_r and base are constant along
    y, a few cells at a time.

    The two passes that broadcast across each row write dev as the product
    (BLAS dgemm) of [y; -1] and [1, mean_r] into the dev scratch, and add
    base by a rank-1 update (BLAS dger) of out: the products are by +-1 and
    so exact, and each entry is rounded once, as six elementwise numpy
    passes round it.
    """
    n_y = out.shape[-1]
    per_cell = out[0].size // n_y  # rows of one time cell
    cells = _fill_cells(out.shape)
    mean_r = np.broadcast_to(mean_r, out.shape[:-1] + (1,)).reshape(-1)
    base = np.broadcast_to(base, out.shape[:-1] + (1,)).reshape(-1)
    ones = np.ones(n_y)
    # dev = [y; -1]^T [1, mean_r]^T, each entry 1 y + (-1) mean_r
    y_pair = np.stack([y, -ones])
    m_pair = np.ones((cells * per_cell, 2))
    dev = np.empty((cells * per_cell, n_y))
    for j0 in range(0, out.shape[0], cells):
        j = slice(j0, j0 + cells)
        block = out[j]
        n = block.size // n_y
        rows = slice(j0 * per_cell, j0 * per_cell + n)
        m_pair[:n, 1] = mean_r[rows]
        # dgemm and dger update c and a in place only when they are
        # Fortran-contiguous, and silently work on a copy otherwise: each is
        # the transpose of a C-contiguous block, and each pass goes on from
        # what the routine returns
        d = dgemm(1.0, y_pair.T, m_pair[:n].T, beta=0.0, c=dev[:n].T, overwrite_c=True).T.reshape(block.shape)
        np.multiply(d, scale[j], out=block)
        block += shift[j]
        block *= d
        summed = dger(1.0, ones, base[rows], a=block.reshape(-1, n_y).T, overwrite_a=True)
        np.exp(summed.T.reshape(block.shape), out=block)


def envelope_rate(spec: ProblemSpec) -> float:
    """Growth rate alpha/b of the weighted function class for the Vasicek model."""
    if not isinstance(spec.model, Vasicek):
        raise ValueError("the exponential envelope is defined for the Vasicek model")
    return spec.alpha / spec.model.b


def extend_with_envelope(phi: GridFunction, rate: float, y):
    """Evaluate phi at y, continuing beyond the grid with the frozen edge value
    scaled by the envelope e^{rate |y|}."""
    y = np.asarray(y, dtype=float)
    vals = phi(y)
    lo, hi = phi.r_min, phi.r_max
    below = y < lo
    above = y > hi
    if np.any(below):
        vals = np.where(below, phi.values[0] * np.exp(rate * (np.abs(y) - abs(lo))), vals)
    if np.any(above):
        vals = np.where(above, phi.values[-1] * np.exp(rate * (np.abs(y) - abs(hi))), vals)
    return vals


def envelope_norm(spec: ProblemSpec, phi: GridFunction) -> float:
    """sup over the grid of |phi(r)| e^{-(alpha/b)|r|}."""
    rate = envelope_rate(spec)
    return float(np.max(np.abs(phi.values) * np.exp(-rate * np.abs(phi.nodes))))


def semigroup_apply(
    spec: ProblemSpec,
    phi: GridFunction,
    t: float,
    *,
    dy: float | None = None,
) -> GridFunction:
    """Apply the weighted semigroup P_t to a grid function by trapezoid in y.

    The y mesh reaches _PAD_SIGMAS kernel widths beyond the grid, where phi
    is continued by its edge value times the exponential envelope frozen at
    the edge.
    """
    if t <= 0:
        raise ValueError("semigroup_apply requires t > 0")
    model = spec.model
    if not isinstance(model, Vasicek):
        raise ValueError("semigroup_apply requires the Vasicek model")
    if dy is None:
        dy = phi.step
    r = phi.nodes
    mom = ou_moments(model, np.array([phi.r_min, phi.r_max]), t)
    sd = math.sqrt(float(mom.var_r[0]))
    dy = min(dy, sd)  # the y mesh must resolve the kernel width
    y_lo = min(phi.r_min, float(mom.mean_r[0])) - _PAD_SIGMAS * sd
    y_hi = max(phi.r_max, float(mom.mean_r[1])) + _PAD_SIGMAS * sd
    n_y = int(math.ceil((y_hi - y_lo) / dy)) + 1
    y = np.linspace(y_lo, y_hi, n_y)
    phi_y = extend_with_envelope(phi, envelope_rate(spec), y)
    w = fk_kernel_weight(spec, t, r[:, None], y[None, :])
    weights = np.full(n_y, y[1] - y[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return phi.with_values(w @ (phi_y * weights))


def _n_integrand(spec: ProblemSpec, r: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp((-gamma t + alpha mean_h)/(1-alpha) + alpha^2 var_h / (2 (1-alpha)^2))
    written into out, a C-contiguous (len(t), len(r)) array, and returned.
    The t-only factors stay columns, and each in-place pass rounds as one
    numpy temporary of the expression did. Of the means only mean_h is
    formed, as _means_from forms it."""
    al = spec.alpha
    t = t[:, None]
    _, _, one_m_e1, drift_h = _mean_factors(spec.model, t)
    _, var_h, _ = _variances(spec.model, t)
    np.multiply(r, one_m_e1, out=out)
    out /= spec.model.b
    out += drift_h
    out *= al
    out += -spec.gamma * t
    out /= 1.0 - al
    out += 0.5 * (al / (1.0 - al)) ** 2 * var_h
    return np.exp(out, out=out)


def supersolution_N(spec: ProblemSpec, r):
    """The integral supersolution N(r) = E^r int_0^inf e^{(-gamma t + alpha h_t)/(1-alpha)} dt.

    Raises InfeasibleProblem unless feasibility.n_condition holds. Vasicek:
    trapezoid in t using the closed-form Gaussian exponent, truncated after the
    first _N_CHUNK-step chunk that ends below _N_CUTOFF times the running
    maximum at every node (the tail decays like e^{-rho t}); each chunk
    streams through sub-blocks of about _N_FLOATS values, summed in one
    np.trapezoid's order. Constant: exact closed form. Invariant interval:
    finite-difference solution of Q N + ((alpha r - gamma)/(1-alpha)) N + 1 = 0.
    Before the Vasicek loop, its sub-block arrays are checked against
    parallel.memory_budget(), and InsufficientMemory names the sizes if they
    do not fit.
    """
    require_finite_N(spec)
    model = spec.model
    al, g = spec.alpha, spec.gamma
    if isinstance(model, Constant):
        out = (1.0 - al) / (g - al * model.r) * np.ones_like(np.asarray(r, dtype=float))
        return float(out) if np.ndim(r) == 0 else out
    if isinstance(model, InvariantInterval):
        from .resolvent import solve_linear_fk_ode

        out = solve_linear_fk_ode(spec)(np.asarray(r, dtype=float))
        return float(out) if np.ndim(r) == 0 else out
    rho = rho_decay(spec)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    t_end = max(80.0 / rho, 10.0 / model.b)
    rows = max(1, min(_N_CHUNK, _N_FLOATS // r_arr.size))
    check_memory(
        "the supersolution N",
        8 * (rows + 1) * (_N_SUB_ARRAYS * r_arr.size + _N_SUB_COLUMNS),
        memory_budget(),
        f" for {_N_SUB_ARRAYS} sub-block arrays of {rows + 1} time steps x {r_arr.size} nodes and their time columns",
        "lower grid.n",
    )
    # np.trapezoid's terms, (y[1:] + y[:-1]) * dx / 2, summed row after row
    # as its axis-0 sum does: row 0 carries the chunk's running sum. vals
    # holds the integrand at the sub-block's time steps, after the last value
    # of the one before in row 0
    terms = np.empty((rows + 1, r_arr.size))
    vals = np.empty((rows + 1, r_arr.size))
    total = np.zeros_like(r_arr)
    t0 = 0.0
    gmax = _n_integrand(spec, r_arr, np.array([0.0]), vals[:1])[0].copy()
    while t0 < t_end:
        for k0 in range(0, _N_CHUNK, rows):
            ts = t0 + _N_DT * np.arange(k0 + 1, min(k0 + rows, _N_CHUNK) + 1)
            v = vals[: ts.size + 1]
            _n_integrand(spec, r_arr, ts, v[1:])
            block = terms[: ts.size + 1]
            np.add(v[1:], v[:-1], out=block[1:])
            block[1:] *= _N_DT / 2.0
            if k0 > 0:
                block[0] = chunk_sum
            chunk_sum = np.add.reduce(block if k0 > 0 else block[1:], axis=0)
            np.maximum(gmax, v[1:].max(axis=0), out=gmax)
            vals[0] = v[-1]
        total += chunk_sum
        t0 = float(ts[-1])
        if np.all(vals[0] <= _N_CUTOFF * gmax):
            break
    return float(total[0]) if np.ndim(r) == 0 else total
