"""Path simulation and the Monte Carlo estimators.

The model picks the path engine: the Vasicek pair (r_t, h_t) advances by
exact joint-Gaussian increments (no discretization bias in the state), every
other model by Euler steps. Paths are reproducible: path k draws from
seed + k. estimate_J, estimate_KL_mc and resolvent_mc run their paths
through one path-block driver, _path_blocks, and each reduces the blocks'
results in its own fixed order, bitwise the same for any worker count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .blas import linear_filter
from .errors import DivergenceError, HorizonError
from .feasibility import classify
from .gaussian import _cov_shape, _int_decay_shape, _var_h_shape, envelope_rate, exp_h_moment, extend_with_envelope
from .grids import GridFunction
from .models import Constant, InvariantInterval, ProblemSpec, ShortRateModel, Vasicek, _check_rates, _coefficients, domain
from .parallel import check_memory, fork_map, memory_budget, mib, pool_size

# paths per block of _path_blocks: a block is the unit of work of the worker
# processes, and its paths run in one or more engine calls. The
# blocks fix the order in which J is summed, so this stays a constant rather
# than a setting: another size would change J in its last bits
_PATH_BLOCK = 256
# time steps per engine call of an estimate_KL_mc round; like _PATH_BLOCK it
# fixes the SE's last bit, so it too is a constant
_KL_CHUNK = 4096
# float arrays of one value per time step that _horizon_steps holds at its peak
# (tracemalloc: 9.1-10.0 at 16001 and 160001 steps)
_HORIZON_ARRAYS = 10
# floats in one row chunk, the unit in which an exact estimate_J block runs
# from normals to integrals, an Euler block forms its integrand and the exact
# engine filters (6 rows at 4967 steps; 2**14 to 2**17 timed within 5%)
_CHUNK_FLOATS = 2**15
# an estimate_J block's peak beside an Euler block's two path-sized arrays:
# row chunks (r, h, policy values, trapezoid temporaries), floats per step
# (one exact path's normals and their correlated copy, the decay, the
# profile) and bytes per path (its generator). tracemalloc, 256 exact paths:
# 74.5, 28.2, 12.0 and 8.0 floats per step at 16, 6, 2 and 1 rows of 2001 to
# 100001 steps, an Euler block 42.3 to 4.0; a generator 836 bytes
_CHUNK_ARRAYS, _STEP_FLOATS, _GENERATOR_BYTES = 5, 4, 840
# floats per time step of one estimate_KL_mc path's reductions beside its
# round's engine arrays (tracemalloc: 11 at 256 paths of 2001 steps)
_KL_PATH_FLOATS = 16
# a resolvent_mc block's floats per time step beside its engine call: the
# times, weights and discount, and per node the two (steps, nodes) shifts and
# one path's integrand temporaries (tracemalloc: whole calls on one worker,
# at 7 to 300 nodes and 51 to 2001 steps, peak at 0.36 to 0.79 of this sizing)
_MC_STEP_FLOATS, _MC_NODE_ARRAYS = 3, 10
# float arrays of one value per time step that sample_path and wealth_trajectory
# hold at their peaks (tracemalloc: 7.0 for one exact path, 3.0 for one Euler
# path, and 6.1 for the wealth beside the path's three)
_SAMPLE_ARRAYS = 8
_WEALTH_ARRAYS = 7


@dataclass(frozen=True)
class PathConfig:
    """Settings of the Monte Carlo estimators (estimate_J, estimate_KL_mc,
    resolvent_mc), which all run through _path_blocks, and of sample_path.
    The model, not a setting, picks the path engine."""

    dt: float
    t_max: float
    n_paths: int
    seed: int
    workers: int = 0  # worker processes of the path blocks: at most this many, 0 for one per available core

    def __post_init__(self):
        if self.dt <= 0 or self.t_max < self.dt:
            raise ValueError("need dt > 0 and t_max >= dt")
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0 (0 means one per available core), got {self.workers}")

    @property
    def pool_workers(self) -> int:
        """Worker processes the estimators' path blocks run on: workers (all
        available cores for 0), capped at the available cores and at the number
        of path blocks."""
        return pool_size(self.workers, -(-self.n_paths // _PATH_BLOCK))


@dataclass
class Trajectory:
    """One sampled path: rate, running rate integral, and (once a policy is
    applied) wealth, consumption, the relative consumption rate, and tau_hit,
    the first time the rate reaches zero (Problem B's stopping time, linearly
    interpolated; None if it does not)."""

    times: np.ndarray
    r: np.ndarray
    h: np.ndarray
    V: np.ndarray | None = None
    C: np.ndarray | None = None
    c: np.ndarray | None = None
    tau_hit: float | None = None


@dataclass(frozen=True)
class JEstimate:
    """Monte Carlo estimate of the performance functional with a crude
    geometric bound on the truncated tail as a bias diagnostic, and the
    horizon the paths were run to (at most the configured t_max)."""

    mean: float
    se: float
    tail_bound: float
    horizon: float


@dataclass(frozen=True)
class KLEstimate:
    mean: float
    se: float
    absorbed_fraction: float
    truncated_weight: float


@functools.cache
def _exact_step_params(model: Vasicek, dt: float):
    """One exact step's phi, m_r, c_h, m_h and the Cholesky factor of its
    (rate, h) noise, cached (a row chunk's engine call needs them twice) and
    so read-only."""
    b = model.b
    x = b * dt
    phi = math.exp(-x)
    m_r = (model.a / b) * -math.expm1(-x)
    c_h = -math.expm1(-x) / b
    m_h = (model.a / b**2) * float(_int_decay_shape(x))
    var_x = -np.expm1(-2.0 * x) / (2.0 * b)
    var_y = float(_var_h_shape(x)) / b**3
    cov = float(_cov_shape(x)) / b**2
    chol = model.sigma * np.linalg.cholesky(np.array([[var_x, cov], [cov, var_y]]))
    chol.flags.writeable = False
    return phi, m_r, c_h, m_h, chol


def _chunk_rows(steps: int) -> int:
    """Rows of a path block in one chunk of about _CHUNK_FLOATS values."""
    return max(1, _CHUNK_FLOATS // steps)


def _exact_block_bytes(paths: int, steps: int) -> int:
    """Bytes that one exact engine call on ``paths`` rows of ``steps`` values
    holds at its peak, their generators included: the two path arrays, the
    filter's row chunks and one path's noise."""
    return 8 * (2 * paths + _CHUNK_ARRAYS * min(_chunk_rows(steps), paths) + _STEP_FLOATS) * steps + _GENERATOR_BYTES * paths


def _exact_filter(model: Vasicek, r0, dt: float, r: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (r, h) paths, shape (batch, n_steps + 1), from start rates r0 (a
    scalar or one per path), written over the rate and h parts of the
    correlated noise z @ chol.T that columns 1: of r and h hold. Every
    Vasicek sampler goes through here.

    The rate is the AR(1) recurrence r_k = x_k + phi r_{k-1} from r_0 = r0,
    lfilter([1], [1, -phi])'s C loop (blas.linear_filter), so a row costs the
    same filtered alone or beside others. Each chunk of rows is filtered and
    copied back into r, and then the drift r c_h + m_h is added into h
    (noise + drift is bitwise drift + noise) and h summed, so the engine
    holds two path-sized arrays and row chunks at its peak.
    """
    phi, m_r, c_h, m_h, _ = _exact_step_params(model, dt)
    r[:, 0] = r0
    h[:, 0] = 0.0
    taps = np.array([1.0]), np.array([1.0, -phi])
    rows = _chunk_rows(r.shape[1])
    for lo in range(0, r.shape[0], rows):
        r_rows, h_rows = r[lo : lo + rows], h[lo : lo + rows, 1:]
        r_rows[:, 1:] += m_r
        r_rows[:] = linear_filter(*taps, r_rows, 1)
        h_rows += r_rows[:, :-1] * c_h + m_h
        np.cumsum(h_rows, axis=1, out=h_rows)
    return r, h


def _exact_batch(model: Vasicek, r0, dt: float, n_steps: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """_exact_fill's (r, h) paths, shape (batch, n_steps + 1), in new arrays."""
    return _exact_fill(model, r0, dt, rngs, *np.empty((2, len(rngs), n_steps + 1)))


def _exact_fill(model: Vasicek, r0, dt: float, rngs, x: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (r, h) paths from start rates r0 (a scalar or one per path), one
    rng per path, written into x and h, which become r and h. Each path's
    correlated noise goes straight into them, the h part into columns 1: of
    h, so no (batch, n_steps, 2) array of normals is ever held, and the
    batch peaks at these two arrays."""
    chol_t = _exact_step_params(model, dt)[4].T
    for i, rng in enumerate(rngs):
        noise = rng.standard_normal((x.shape[1] - 1, 2)) @ chol_t
        x[i, 1:] = noise[:, 0]
        h[i, 1:] = noise[:, 1]
    return _exact_filter(model, r0, dt, x, h)


def _euler_batch(model: ShortRateModel, r0: float, dt: float, n_steps: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Euler (r, h) paths, shape (batch, n_steps + 1), with trapezoid h, from
    r0, one rng per path. Each path's standard normals are drawn into its row
    of r, and each step overwrites the column of normals it has used with the
    next rate. Interval paths are clamped just inside (a, b) if a step exits.
    The rates are checked against the model's domain once, after the loop
    and before h is allocated, and h is summed in place, so the block, like
    the exact one, peaks at two path-sized arrays."""
    r = np.empty((len(rngs), n_steps + 1))
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=r[i, 1:])
    r[:, 0] = r0
    dom = domain(model)
    clamp = isinstance(model, InvariantInterval)
    sqdt = math.sqrt(dt)
    for j in range(n_steps):
        mu, sig = _coefficients(model, r[:, j])
        nxt = r[:, j] + mu * dt + sig * sqdt * r[:, j + 1]
        if clamp:
            np.clip(nxt, dom.lo + 1e-12, dom.hi - 1e-12, out=nxt)
        r[:, j + 1] = nxt
    _check_rates(model, r[:, :-1])  # the rates the steps started from
    h = np.empty_like(r)
    np.add(r[:, 1:], r[:, :-1], out=h[:, 1:])
    h[:, 1:] *= 0.5
    h[:, 1:] *= dt
    h[:, 0] = 0.0
    np.cumsum(h[:, 1:], axis=1, out=h[:, 1:])
    return r, h


def _path_rngs(seed: int, start: int, count: int):
    return [np.random.default_rng(seed + k) for k in range(start, start + count)]


def _block_rngs(cfg: PathConfig, start: int):
    """The generators of the _path_blocks block whose first path is start."""
    return _path_rngs(cfg.seed, start, min(_PATH_BLOCK, cfg.n_paths - start))


def _path_blocks(what: str, cfg: PathConfig, per_block: int, results: int, label: str, prefix: tuple[int, str] | None = None):
    """Check that an estimator's path blocks fit, then return their runner.

    The check comes before anything is allocated: cfg.pool_workers blocks of
    per_block bytes, the results' bytes and the prefix's (bytes, label), if
    any, against parallel.memory_budget() (InsufficientMemory names the
    sizes). The runner calls block(start) for the blocks of _PATH_BLOCK paths
    (fewer in the last) on cfg.pool_workers worker processes
    (parallel.fork_map), each block on whichever worker is free, and returns
    their results in block order: reduced in a fixed order, they give an
    estimate that is bitwise the same for any worker count and assignment. A
    worker that dies mid-run raises BrokenProcessPool.
    """
    extra, head = (0, "") if prefix is None else (prefix[0], f"{mib(prefix[0])} {prefix[1]}, ")
    workers = cfg.pool_workers
    check_memory(
        what,
        extra + workers * per_block + results,
        memory_budget(),
        f": {head}{mib(per_block)} of path arrays for each of {workers} workers and {mib(results)} of {label}",
        "lower paths.t_max / paths.dt, paths.n_paths or --threads",
    )
    return lambda block: fork_map(block, range(0, cfg.n_paths, _PATH_BLOCK), workers)


def _first_zero_crossing(times: np.ndarray, r: np.ndarray) -> float | None:
    """Linear-interpolated first crossing time of r = 0, None if no crossing."""
    if r[0] <= 0:
        return float(times[0])
    below = r <= 0
    if not below.any():
        return None
    i = int(np.argmax(below))
    frac = r[i - 1] / (r[i - 1] - r[i])
    return float(times[i - 1] + frac * (times[i] - times[i - 1]))


def _check_step_arrays(what: str, arrays: int, steps: int) -> None:
    """Raise InsufficientMemory if arrays float arrays of steps values do not
    fit in parallel.memory_budget()."""
    need = 8 * arrays * steps
    detail = f" for {arrays} arrays of {steps} time steps"
    check_memory(what, need, memory_budget(), detail, "lower paths.t_max / paths.dt")


def sample_path(model: ShortRateModel, r0: float, cfg: PathConfig) -> Trajectory:
    """One (r, h) path: exact for the Vasicek model, Euler steps for the
    others. Before anything is allocated, the path's step arrays are checked
    against parallel.memory_budget() (InsufficientMemory names the sizes)."""
    dom = domain(model)
    if not (dom.contains_closure(r0) if not isinstance(model, Constant) else True):
        raise ValueError("r0 outside the model domain")
    n_steps = int(round(cfg.t_max / cfg.dt))
    _check_step_arrays("the sampled path", _SAMPLE_ARRAYS, n_steps + 1)
    times = cfg.dt * np.arange(n_steps + 1)
    engine = _exact_batch if isinstance(model, Vasicek) else _euler_batch
    r, h = engine(model, r0, cfg.dt, n_steps, _path_rngs(cfg.seed, 0, 1))
    return Trajectory(times=times, r=r[0], h=h[0])


def wealth_trajectory(path: Trajectory, policy_c: GridFunction, v: float) -> Trajectory:
    """Wealth, consumption, and relative consumption along a rate path under a
    proportional feedback policy: V_t = v exp(int (r - c)), C = c V. Its
    step arrays are checked against parallel.memory_budget() first."""
    if v <= 0:
        raise ValueError("initial wealth must be positive")
    if np.any(policy_c.values < 0):
        raise ValueError("the consumption policy must be nonnegative")
    _check_step_arrays("the wealth trajectory", _WEALTH_ARRAYS, path.times.size)
    c = np.maximum(policy_c(path.r), 0.0)
    dt = np.diff(path.times)
    f = path.r - c
    log_v = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * dt)])
    V = v * np.exp(log_v)
    return Trajectory(
        times=path.times,
        r=path.r,
        h=path.h,
        V=V,
        C=c * V,
        c=c,
        tau_hit=_first_zero_crossing(path.times, path.r),
    )


def _horizon_steps(spec: ProblemSpec, policy_c: GridFunction, r0: float, cfg: PathConfig) -> int:
    """Number of dt steps estimate_J runs: all of cfg's grid up to t_max,
    unless a closed-form bound shows that the rest cannot move J.

    For exact Vasicek paths E e^{alpha h_t} = exp_h_moment(spec, r0, t), and
    every sampled c_t lies in [c_lo, c_hi], the range of the (nonnegative)
    policy values, since np.interp clamps; so the trapezoid of c lies in
    [c_lo t, c_hi t].
    The expected integrand is then at most
    B(t) = c_hi^alpha e^{-(gamma + alpha c_lo) t} E e^{alpha h_t}, and J is at
    least J_lo, the trapezoid of c_lo^alpha e^{-(gamma + alpha c_hi) t} E e^{alpha h_t}.
    The horizon is the first grid index j whose expected dropped mass
    dt (B_j / 2 + sum_{k>j} B_k) is at most 2^-53 J_lo, J's rounding unit.
    With c_lo = 0 or a model other than Vasicek (Euler paths) no bound applies.
    """
    n_steps = int(round(cfg.t_max / cfg.dt))
    c_lo, c_hi = float(policy_c.values.min()), float(policy_c.values.max())
    if not isinstance(spec.model, Vasicek) or c_lo <= 0.0:
        return n_steps
    al, g = spec.alpha, spec.gamma
    times = cfg.dt * np.arange(n_steps + 1)
    moment = exp_h_moment(spec, r0, times)
    upper = c_hi**al * np.exp(-(g + al * c_lo) * times) * moment
    j_lo = float(np.trapezoid(c_lo**al * np.exp(-(g + al * c_hi) * times) * moment, dx=cfg.dt))
    upper_after = np.append(np.cumsum(upper[:0:-1])[::-1], 0.0)  # sum over k > j, smallest terms first
    ok = cfg.dt * (0.5 * upper + upper_after) <= 2.0**-53 * j_lo
    if not math.isfinite(j_lo) or not ok.any():
        return n_steps
    return int(np.argmax(ok))


def _j_block(spec: ProblemSpec, policy_c: GridFunction, r0: float, cfg: PathConfig, times: np.ndarray, start: int):
    """Per-path integrals and the summed integrand profile of the estimate_J
    block of paths start, ..., start + _PATH_BLOCK - 1 (fewer in the last block).

    integrand = exp(-g t + al (h - int c)) c^al, with int c the trapezoid of c,
    is formed in place in h a chunk of rows at a time, with the chunk's c and
    int c as temporaries, and added into the profile row after row in path
    order (bitwise h.sum(axis=0)). An exact (Vasicek) block runs the engine
    per row chunk, into one chunk's r and h that every chunk reuses, so it
    holds no path-sized array; an Euler block is one engine call and peaks at
    its two path-sized arrays, r and h."""
    al, g = spec.alpha, spec.gamma
    rngs = _block_rngs(cfg, start)
    nb = len(rngs)
    rows = _chunk_rows(times.size)
    euler = not isinstance(spec.model, Vasicek)
    if euler:
        r_all, h_all = _euler_batch(spec.model, r0, cfg.dt, times.size - 1, rngs)
    else:
        r_all, h_all = np.empty((2, min(rows, nb), times.size))
    decay = -g * times
    j = np.empty(nb)
    profile = np.zeros(times.size)
    for lo in range(0, nb, rows):
        if euler:
            r, h = r_all[lo : lo + rows], h_all[lo : lo + rows]
        else:
            k = min(rows, nb - lo)
            r, h = _exact_fill(spec.model, r0, cfg.dt, rngs[lo : lo + k], r_all[:k], h_all[:k])
        c = policy_c(r)
        np.maximum(c, 0.0, out=c)
        int_c = c[:, 1:] + c[:, :-1]
        int_c *= 0.5
        int_c *= cfg.dt
        np.cumsum(int_c, axis=1, out=int_c)
        integrand = h
        integrand[:, 1:] -= int_c
        del int_c
        integrand *= al
        integrand += decay
        np.exp(integrand, out=integrand)
        integrand *= np.power(c, al, out=c)
        del c
        j[lo : lo + rows] = np.trapezoid(integrand, dx=cfg.dt, axis=1)
        for row in integrand:
            profile += row
    return j, profile


def estimate_J(
    spec: ProblemSpec,
    policy_c: GridFunction,
    r0: float,
    v: float,
    cfg: PathConfig,
) -> JEstimate:
    """Monte Carlo value of a proportional policy:
    J = v^alpha E int_0^T e^{-gamma t} c_t^alpha e^{alpha int (r - c)} dt.

    The paths are exact for the Vasicek model and Euler paths otherwise. T
    is cfg.t_max, cut short on exact Vasicek paths where the closed-form
    bound of _horizon_steps shows that the rest of the integral is below J's
    rounding unit; JEstimate.horizon reports it.

    The paths run through _path_blocks, whose memory check, sized at
    cfg.t_max, comes before the horizon is computed. Each block sends back
    its per-path integrals and summed integrand profile, which are reduced
    in block order.

    Provably infinite problems are rejected outright; Unknown verdicts are
    allowed through (the estimator is how one probes them) and rely on the
    divergence guard, which aborts when the mean integrand grows over the
    final tenth of the horizon instead of decaying.
    """
    classify(spec).require(allow_unknown=True)
    if np.any(policy_c.values < 0):
        raise ValueError("the consumption policy must be nonnegative")
    if v <= 0:
        raise ValueError("initial wealth must be positive")
    # sized at cfg.t_max, before the horizon is known: _horizon_steps' step arrays, each
    # worker's block (its row chunks, and an Euler block's two path-sized arrays), and
    # the blocks' results held until the reduction
    steps, paths = int(round(cfg.t_max / cfg.dt)) + 1, min(_PATH_BLOCK, cfg.n_paths)
    horizon = 8 * _HORIZON_ARRAYS * steps
    per_step = 2 * paths * (not isinstance(spec.model, Vasicek)) + _CHUNK_ARRAYS * min(_chunk_rows(steps), paths) + _STEP_FLOATS
    per_block = 8 * per_step * steps + _GENERATOR_BYTES * paths
    results = 8 * (-(-cfg.n_paths // _PATH_BLOCK) * steps + cfg.n_paths)
    run = _path_blocks("estimate", cfg, per_block, results, "block results", (horizon, "for the horizon bound"))
    al, g = spec.alpha, spec.gamma
    n_steps = _horizon_steps(spec, policy_c, r0, cfg)
    times = cfg.dt * np.arange(n_steps + 1)
    sums = 0.0
    mean_profile = np.zeros(n_steps + 1)
    blocks = run(functools.partial(_j_block, spec, policy_c, r0, cfg, times))
    for j_paths, profile in blocks:  # in block order, which fixes the summation order
        sums += float(np.sum(j_paths))
        mean_profile += profile
    j_all = np.concatenate([j_paths for j_paths, _ in blocks])
    mean_profile /= cfg.n_paths
    tail_window = max(n_steps // 10, 1)
    last = float(np.mean(mean_profile[-tail_window:]))
    prev = float(np.mean(mean_profile[-2 * tail_window : -tail_window]))
    if last > max(prev, 1e-300):
        raise DivergenceError(
            "possible infinite value: the integrand grows over the last tenth of the horizon"
        )
    n = cfg.n_paths
    mean = sums / n
    scale = v**al
    tail = mean_profile[-1] / max(g, 1e-9)
    return JEstimate(
        mean=scale * mean,
        se=scale * _standard_error(j_all),
        tail_bound=float(scale * tail),
        horizon=float(times[-1]),
    )


def _standard_error(samples: np.ndarray):
    """Standard error of the sample mean over axis 0 (one sample per row),
    from the two-pass variance about the mean (a one-pass sum of squares
    cancels to rounding noise when the samples nearly agree); 0 for a single
    sample."""
    if len(samples) < 2:
        return 0.0
    se = np.sqrt(samples.var(axis=0, ddof=1) / len(samples))
    return se if se.ndim else float(se)


def _kl_block(spec: ProblemSpec, r0: float, cfg: PathConfig, start: int):
    """Hitting weights, survival at t_max and truncated weights of the
    estimate_KL_mc paths start, ..., start + _PATH_BLOCK - 1 (fewer in the last
    block), in path order.

    The block's paths that have not hit zero advance together, _KL_CHUNK
    steps a round, in one engine call (_exact_batch) per round, each path
    drawing from its own generator. Each path's row is then reduced on its
    own, by the same operations in the same order as a path simulated alone.
    """
    al, g, dt = spec.alpha, spec.gamma, cfg.dt
    bridge = 2.0 / (spec.model.sigma**2 * dt)
    max_steps = int(round(cfg.t_max / dt))
    rngs = _block_rngs(cfg, start)
    nb = len(rngs)
    weights, survival, truncated = np.zeros(nb), np.ones(nb), np.zeros(nb)
    r_last, h_last = np.full(nb, float(r0)), np.zeros(nb)
    live = list(range(nb))
    done = 0
    while live and done < max_steps:
        n_steps = min(_KL_CHUNK, max_steps - done)
        r_paths, h_paths = _exact_batch(spec.model, r_last[live], dt, n_steps, [rngs[i] for i in live])
        still = []
        for i, r_path, h_path in zip(live, r_paths, h_paths):
            h_path = h_last[i] + h_path
            below = r_path[1:] <= 0.0
            n_live = int(np.argmax(below)) if below.any() else n_steps
            p = np.exp(-bridge * r_path[:n_live] * r_path[1 : n_live + 1])
            alive = survival[i] * np.concatenate(([1.0], np.cumprod(1.0 - p)))
            t_mid = (done + 0.5 + np.arange(n_live)) * dt
            h_mid = 0.5 * (h_path[:n_live] + h_path[1 : n_live + 1])
            weights[i] += float(np.sum(alive[:-1] * p * np.exp(-g * t_mid + al * h_mid)))
            survival[i] = alive[-1]
            if n_live < n_steps:
                j = n_live
                frac = r_path[j] / (r_path[j] - r_path[j + 1])
                tau = (done + j + frac) * dt
                h_tau = h_path[j] + frac * (h_path[j + 1] - h_path[j])
                weights[i] += survival[i] * math.exp(-g * tau + al * h_tau)
                survival[i] = 0.0
            else:
                r_last[i], h_last[i] = r_path[-1], h_path[-1]
                still.append(i)
        # the round's paths (and the row views into them) go before the next round's
        del r_paths, h_paths, r_path, h_path
        live = still
        done += n_steps
    for i in live:
        truncated[i] = survival[i] * math.exp(-g * cfg.t_max + al * h_last[i])
    return weights, survival, truncated


def estimate_KL_mc(spec: ProblemSpec, r0: float, cfg: PathConfig) -> KLEstimate:
    """Monte Carlo hitting functional E^r e^{-gamma tau_0 + alpha h_{tau_0}}.

    Simulates exact Vasicek paths until the first sign change of the rate
    (crossing time by linear interpolation). A crossing between two grid
    times with both rates positive is not seen on the grid, so each such step
    is absorbed with its Brownian-bridge crossing probability
    exp(-2 r_i r_{i+1} / (sigma^2 dt)) at mid-step time and h, and the path
    carries on with the conditional survival product; this removes the
    discrete-monitoring bias without extra draws. Survival left at t_max
    contributes zero plus a truncation diagnostic. Fails if the mean survival
    at t_max exceeds 1%.

    The paths run through _path_blocks, _KL_CHUNK steps per engine call, so a
    block holds two (paths, _KL_CHUNK + 1) arrays at its peak. The per-path
    results are summed in path order.
    """
    if not isinstance(spec.model, Vasicek):
        raise ValueError("estimate_KL_mc is implemented for the Vasicek model")
    if r0 <= 0:
        raise ValueError("r0 must be positive (the functional is 1 at the boundary)")
    classify(spec).require()
    # each worker's block: one round's engine call and one path's reductions;
    # then the blocks' per-path results and their concatenation
    steps, paths = min(_KL_CHUNK, int(round(cfg.t_max / cfg.dt))) + 1, min(_PATH_BLOCK, cfg.n_paths)
    per_block = _exact_block_bytes(paths, steps) + 8 * _KL_PATH_FLOATS * steps
    run = _path_blocks("the K_L estimate", cfg, per_block, 8 * 6 * cfg.n_paths, "path results")
    blocks = run(functools.partial(_kl_block, spec, r0, cfg))
    weights, survival, truncated = (np.concatenate(parts) for parts in zip(*blocks))
    # running sums in path order (accumulate adds one term at a time)
    total, survival_total, truncated_weight = (float(np.cumsum(a)[-1]) for a in (weights, survival, truncated))
    n = cfg.n_paths
    frac_absorbed = 1.0 - survival_total / n
    if frac_absorbed < 0.99:
        raise HorizonError(
            f"only {100 * frac_absorbed:.1f}% of paths hit zero by t_max={cfg.t_max}; widen the horizon"
        )
    return KLEstimate(
        mean=total / n,
        se=_standard_error(weights),
        absorbed_fraction=frac_absorbed,
        truncated_weight=truncated_weight / n,
    )


def _mc_block(spec: ProblemSpec, psi: GridFunction, s: float, cfg: PathConfig, start: int) -> np.ndarray:
    """Per-node integrals of the resolvent_mc paths start, ...,
    start + _PATH_BLOCK - 1 (fewer in the last block), one row per path."""
    n_steps = int(round(cfg.t_max / cfg.dt))
    times = cfg.dt * np.arange(0, n_steps + 1)
    trap_t = np.full(n_steps + 1, cfg.dt)
    trap_t[0] *= 0.5
    trap_t[-1] *= 0.5
    disc = np.exp(-s * times)
    b = spec.model.b
    r_shift = psi.nodes[None, :] * np.exp(-b * times)[:, None]
    h_shift = psi.nodes[None, :] * (-np.expm1(-b * times) / b)[:, None]
    ext_rate = envelope_rate(spec)
    rngs = _block_rngs(cfg, start)
    r, h = _exact_batch(spec.model, 0.0, cfg.dt, n_steps, rngs)
    integrals = np.empty((len(rngs), psi.n_nodes))
    for k, (r_k, h_k) in enumerate(zip(r, h)):
        g = extend_with_envelope(psi, ext_rate, r_k[:, None] + r_shift) * np.exp(spec.alpha * (h_k[:, None] + h_shift)) * disc[:, None]
        integrals[k] = trap_t @ g
    return integrals


def resolvent_mc(spec: ProblemSpec, psi: GridFunction, lam: float, cfg: PathConfig) -> tuple[GridFunction, GridFunction]:
    """Monte Carlo resolvent with per-node standard errors, the cross-check
    of the resolvent module's operators: the path average of
    int e^{-(lambda+gamma)t} psi(r_t) e^{alpha h_t} dt over cfg.n_paths (at
    least 100) paths to cfg.t_max.

    Vasicek only. The paths share one exact path from r = 0 per sample,
    moved onto every grid node by the affine OU map r + node e^{-bt},
    h + node (1 - e^{-bt})/b (so common random numbers are exact and make
    node-to-node noise smooth). The paths run through _path_blocks, one
    engine call per block, which holds two (paths, n_steps + 1) arrays at its
    peak; each path's integrals are formed in its block and summed here in
    path order. lambda + gamma must be large enough that the discarded tail
    beyond t_max is below the intended tolerance.
    """
    if not isinstance(spec.model, Vasicek):
        raise ValueError(f"Monte Carlo resolvent not defined for {type(spec.model).__name__}")
    if cfg.n_paths < 100:
        raise ValueError("the Monte Carlo resolvent needs at least 100 paths")
    s = lam + spec.gamma
    if s <= 0:
        raise ValueError("lambda + gamma must be positive")
    # each worker's block: its engine call, the (steps, nodes) shifts and one
    # path's integrand, and its integrals; then the blocks' integrals, their
    # concatenation and the variance's temporary
    steps, paths = int(round(cfg.t_max / cfg.dt)) + 1, min(_PATH_BLOCK, cfg.n_paths)
    per_block = _exact_block_bytes(paths, steps) + 8 * ((_MC_STEP_FLOATS + _MC_NODE_ARRAYS * psi.n_nodes) * steps + paths * psi.n_nodes)
    run = _path_blocks("the Monte Carlo resolvent", cfg, per_block, 8 * 3 * cfg.n_paths * psi.n_nodes, "path integrals")
    integrals = np.concatenate(run(functools.partial(_mc_block, spec, psi, s, cfg)))
    total = np.zeros(psi.n_nodes)
    for row in integrals:
        total += row
    return psi.with_values(total / cfg.n_paths), psi.with_values(_standard_error(integrals))
