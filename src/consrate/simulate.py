"""Path simulation and Monte Carlo policy evaluation.

The Vasicek pair (r_t, h_t) advances by exact joint-Gaussian increments (no
discretization bias in the state), other models by Euler steps. Paths are
reproducible: path k draws from seed + k. estimate_J runs its paths in
blocks on worker processes and reduces the blocks' results in block order,
so its estimate is bitwise the same for any number of workers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, HorizonError
from .feasibility import classify
from .gaussian import _cov_shape, _int_decay_shape, _var_h_shape, exp_h_moment
from .grids import GridFunction
from .models import Constant, InvariantInterval, ProblemSpec, ShortRateModel, Vasicek, diffusion, domain, drift
from .parallel import fork_map, pool_size

# paths per estimate_J block, the unit of work of its worker processes; the blocks
# fix the order in which J is summed, so this stays a constant rather than a
# setting: another size would change J in its last bits
_J_BATCH = 256
# paths per joint_moment_sample block
_MOMENT_BLOCK = 100_000


@dataclass(frozen=True)
class PathConfig:
    dt: float
    t_max: float
    n_paths: int
    seed: int
    scheme: str = "exact"
    workers: int = 0  # estimate_J worker processes: at most this many, 0 for one per available core

    def __post_init__(self):
        if self.dt <= 0 or self.t_max < self.dt:
            raise ValueError("need dt > 0 and t_max >= dt")
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.scheme not in ("exact", "euler"):
            raise ValueError("scheme must be 'exact' or 'euler'")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0 (0 means one per available core), got {self.workers}")

    @property
    def pool_workers(self) -> int:
        """Worker processes estimate_J runs on: workers (all available cores for 0),
        capped at the available cores and at the number of path blocks."""
        return pool_size(self.workers, -(-self.n_paths // _J_BATCH))


@dataclass
class Trajectory:
    """One sampled path: rate, running rate integral, and (once a policy is
    applied) wealth, consumption, and the relative consumption rate."""

    times: np.ndarray
    r: np.ndarray
    h: np.ndarray
    V: np.ndarray | None = None
    C: np.ndarray | None = None
    c: np.ndarray | None = None
    tau_hit: float | None = None
    clamp_count: int = 0


@dataclass(frozen=True)
class JEstimate:
    """Monte Carlo estimate of the performance functional with a crude
    geometric bound on the truncated tail as a bias diagnostic, and the
    horizon the paths were run to (at most the configured t_max)."""

    mean: float
    se: float
    tail_bound: float
    horizon: float = math.nan


@dataclass(frozen=True)
class KLEstimate:
    mean: float
    se: float
    absorbed_fraction: float
    truncated_weight: float


def _unit_noise_chol(b: float, dt: float) -> np.ndarray:
    """Cholesky factor of the unit-volatility (X, Y) increment covariance."""
    x = b * dt
    var_x = -np.expm1(-2.0 * x) / (2.0 * b)
    var_y = float(_var_h_shape(x)) / b**3
    cov = float(_cov_shape(x)) / b**2
    cov_mat = np.array([[var_x, cov], [cov, var_y]])
    return np.linalg.cholesky(cov_mat)


# cached: the K_L estimator and the MC resolvent call the engine once per
# chunk or path with the same (model, dt), and this costs about 0.15 ms
@functools.lru_cache(maxsize=32)
def _exact_step_params(model: Vasicek, dt: float):
    phi = math.exp(-model.b * dt)
    m_r = (model.a / model.b) * -math.expm1(-model.b * dt)
    c_h = -math.expm1(-model.b * dt) / model.b
    m_h = (model.a / model.b**2) * float(_int_decay_shape(model.b * dt))
    chol = model.sigma * _unit_noise_chol(model.b, dt)
    chol.setflags(write=False)
    return phi, m_r, c_h, m_h, chol


def _exact_filter(model: Vasicek, r0, dt: float, x: np.ndarray, noise_h) -> tuple[np.ndarray, np.ndarray]:
    """Exact (r, h) paths, shape (batch, n_steps + 1), from start rates r0 (a
    scalar or one per path) and the rate and h parts of the correlated noise
    z @ chol.T: x[:, 1:] holds the rate part and noise_h, shape
    (batch, n_steps), the h part. x is overwritten and returned as h, so a
    block holds three path-sized arrays at its peak: x, noise_h and r.
    Every Vasicek sampler goes through here."""
    # imported here rather than at module level: only path sampling needs it,
    # and it made `import consrate.cli` take 1.75 s instead of 0.55 s (2-core VM)
    import scipy.signal

    phi, m_r, c_h, m_h, _ = _exact_step_params(model, dt)
    x[:, 1:] += m_r
    # r_0 enters as the first input with a zero filter state, which gives the
    # same arithmetic as filtering x[:, 1:] from the state phi r_0
    x[:, 0] = r0
    r = scipy.signal.lfilter([1.0], [1.0, -phi], x, axis=1)
    h, dh = x, x[:, 1:]
    np.multiply(r[:, :-1], c_h, out=dh)
    dh += m_h
    dh += noise_h
    h[:, 0] = 0.0
    np.cumsum(dh, axis=1, out=dh)
    return r, h


def _exact_paths(model: Vasicek, r0, dt: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (r, h) paths, shape (batch, n_steps + 1), from start rates r0
    driven by standard normals z of shape (batch, n_steps, 2); h starts at 0."""
    noise = z @ _exact_step_params(model, dt)[4].T
    del z  # callers pass z inline, so this frees the normals before the filter runs
    x = np.empty((noise.shape[0], noise.shape[1] + 1))
    x[:, 1:] = noise[:, :, 0]
    return _exact_filter(model, r0, dt, x, noise[:, :, 1])


def _normals(rngs, shape: tuple) -> np.ndarray:
    """Standard normals of the given shape from each rng, stacked on a new first axis."""
    z = np.empty((len(rngs), *shape))
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=z[i])
    return z


def _exact_batch(model: Vasicek, r0: float, dt: float, n_steps: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Exact (r, h) paths, shape (batch, n_steps + 1), one rng per path. Each
    path's correlated noise goes straight into the filter's buffers, so no
    (batch, n_steps, 2) array of normals is ever held."""
    chol_t = _exact_step_params(model, dt)[4].T
    x = np.empty((len(rngs), n_steps + 1))
    noise_h = np.empty((len(rngs), n_steps))
    for i, rng in enumerate(rngs):
        noise = rng.standard_normal((n_steps, 2)) @ chol_t
        x[i, 1:] = noise[:, 0]
        noise_h[i] = noise[:, 1]
    return _exact_filter(model, r0, dt, x, noise_h)


def _euler_paths(model: ShortRateModel, r0: np.ndarray, dt: float, z: np.ndarray):
    """Euler (r, h) paths, shape (batch, n_steps + 1), with trapezoid h, from
    start rates r0 of shape (batch,) driven by standard normals z of shape
    (batch, n_steps), or (1, n_steps) for one shock stream shared by the batch.
    Interval paths are clamped just inside (a, b) if a step exits, with a
    per-path clamp counter kept."""
    batch = r0.size
    n_steps = z.shape[1]
    r = np.empty((batch, n_steps + 1))
    r[:, 0] = r0
    clamp = isinstance(model, InvariantInterval)
    dom = domain(model)
    sqdt = math.sqrt(dt)
    clamp_counts = np.zeros(batch, dtype=int)
    for j in range(n_steps):
        cur = r[:, j]
        nxt = cur + drift(model, cur) * dt + diffusion(model, cur) * sqdt * z[:, j]
        if clamp:
            lo, hi = dom.lo + 1e-12, dom.hi - 1e-12
            out = (nxt < lo) | (nxt > hi)
            clamp_counts += out
            nxt = np.clip(nxt, lo, hi)
        r[:, j + 1] = nxt
    dh = 0.5 * (r[:, 1:] + r[:, :-1]) * dt
    h = np.concatenate([np.zeros((batch, 1)), np.cumsum(dh, axis=1)], axis=1)
    return r, h, clamp_counts


def _euler_batch(model: ShortRateModel, r0: float, dt: float, n_steps: int, rngs):
    """Euler (r, h, clamp counts) paths from r0, one rng per path."""
    return _euler_paths(model, np.full(len(rngs), float(r0)), dt, _normals(rngs, (n_steps,)))


def _scheme_batch(model: ShortRateModel, r0: float, cfg: PathConfig, n_steps: int, rngs):
    """(r, h, clamp counts) for one block of paths under cfg.scheme."""
    if cfg.scheme == "euler":
        return _euler_batch(model, r0, cfg.dt, n_steps, rngs)
    if not isinstance(model, Vasicek):
        raise ValueError("the exact scheme applies to the Vasicek model only")
    r, h = _exact_batch(model, r0, cfg.dt, n_steps, rngs)
    return r, h, np.zeros(len(rngs), dtype=int)


def _path_rngs(seed: int, start: int, count: int):
    return [np.random.default_rng(seed + k) for k in range(start, start + count)]


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


def sample_path(model: ShortRateModel, r0: float, cfg: PathConfig) -> Trajectory:
    """One (r, h) path. The exact scheme requires the Vasicek model."""
    dom = domain(model)
    if not (dom.contains_closure(r0) if not isinstance(model, Constant) else True):
        raise ValueError("r0 outside the model domain")
    n_steps = int(round(cfg.t_max / cfg.dt))
    times = cfg.dt * np.arange(n_steps + 1)
    r, h, clamps = _scheme_batch(model, r0, cfg, n_steps, _path_rngs(cfg.seed, 0, 1))
    return Trajectory(times=times, r=r[0], h=h[0], clamp_count=int(clamps[0]))


def wealth_trajectory(path: Trajectory, policy_c: GridFunction, v: float) -> Trajectory:
    """Wealth, consumption, and relative consumption along a rate path under a
    proportional feedback policy: V_t = v exp(int (r - c)), C = c V."""
    if v <= 0:
        raise ValueError("initial wealth must be positive")
    if np.any(policy_c.values < 0):
        raise ValueError("the consumption policy must be nonnegative")
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
        clamp_count=path.clamp_count,
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
    With c_lo = 0, the Euler scheme or another model no bound applies.
    """
    n_steps = int(round(cfg.t_max / cfg.dt))
    c_lo, c_hi = float(policy_c.values.min()), float(policy_c.values.max())
    if cfg.scheme != "exact" or not isinstance(spec.model, Vasicek) or c_lo <= 0.0:
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
    block of paths start, ..., start + _J_BATCH - 1 (fewer in the last block).

    integrand = exp(-g t + al (h - int c)) c^al, with int c the trapezoid of c,
    is formed in place, and r and h are dropped as soon as they are used, so
    the block, like the exact engine, peaks at three path-sized arrays."""
    al, g = spec.alpha, spec.gamma
    nb = min(_J_BATCH, cfg.n_paths - start)
    r, h, _ = _scheme_batch(spec.model, r0, cfg, times.size - 1, _path_rngs(cfg.seed, start, nb))
    c = policy_c(r)
    del r
    np.maximum(c, 0.0, out=c)
    integrand = np.zeros_like(c)
    int_c = integrand[:, 1:]
    np.add(c[:, 1:], c[:, :-1], out=int_c)
    int_c *= 0.5
    int_c *= cfg.dt
    np.cumsum(int_c, axis=1, out=int_c)
    np.subtract(h, integrand, out=integrand)
    del h
    integrand *= al
    integrand += -g * times
    np.exp(integrand, out=integrand)
    integrand *= np.power(c, al, out=c)
    del c
    return np.trapezoid(integrand, dx=cfg.dt, axis=1), integrand.sum(axis=0)


def estimate_J(
    spec: ProblemSpec,
    policy_c: GridFunction,
    r0: float,
    v: float,
    cfg: PathConfig,
) -> JEstimate:
    """Monte Carlo value of a proportional policy:
    J = v^alpha E int_0^T e^{-gamma t} c_t^alpha e^{alpha int (r - c)} dt.

    T is cfg.t_max, cut short on exact Vasicek paths where the closed-form
    bound of _horizon_steps shows that the rest of the integral is below J's
    rounding unit; JEstimate.horizon reports it.

    The paths run in blocks of _J_BATCH on cfg.pool_workers worker
    processes (parallel.fork_map): each block goes to whichever worker is
    free, which sends back its per-path integrals and summed integrand
    profile. The blocks' results are reduced in block order, so the estimate
    is bitwise the same for any worker count and any assignment. A worker
    that dies mid-run raises BrokenProcessPool.

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
    al, g = spec.alpha, spec.gamma
    n_steps = _horizon_steps(spec, policy_c, r0, cfg)
    times = cfg.dt * np.arange(n_steps + 1)
    sums = 0.0
    j_all = np.empty(cfg.n_paths)
    mean_profile = np.zeros(n_steps + 1)
    starts = range(0, cfg.n_paths, _J_BATCH)
    block = functools.partial(_j_block, spec, policy_c, r0, cfg, times)
    # fork_map returns the results in block order, which fixes the summation order
    for start, (j_paths, profile) in zip(starts, fork_map(block, starts, cfg.pool_workers)):
        sums += float(np.sum(j_paths))
        j_all[start : start + j_paths.size] = j_paths
        mean_profile += profile
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


def _standard_error(samples: np.ndarray) -> float:
    """Standard error of the sample mean, from the two-pass variance about the
    mean (a one-pass sum of squares cancels to rounding noise when the samples
    nearly agree); 0 for a single sample."""
    if samples.size < 2:
        return 0.0
    return math.sqrt(samples.var(ddof=1) / samples.size)


def estimate_KL_mc(spec: ProblemSpec, r0: float, cfg: PathConfig, *, chunk: int = 4096) -> KLEstimate:
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
    """
    if not isinstance(spec.model, Vasicek):
        raise ValueError("estimate_KL_mc is implemented for the Vasicek model")
    if r0 <= 0:
        raise ValueError("r0 must be positive (the functional is 1 at the boundary)")
    classify(spec).require()
    al, g, dt = spec.alpha, spec.gamma, cfg.dt
    bridge = 2.0 / (spec.model.sigma**2 * dt)
    max_steps = int(round(cfg.t_max / dt))
    total = 0.0
    weights = np.empty(cfg.n_paths)
    survival_total = 0.0
    truncated_weight = 0.0
    for k in range(cfg.n_paths):
        rng = np.random.default_rng(cfg.seed + k)
        r_last, h_last, survival = float(r0), 0.0, 1.0
        done = 0
        w = 0.0
        while done < max_steps:
            n_steps = min(chunk, max_steps - done)
            r_path, h_path = _exact_paths(spec.model, r_last, dt, rng.standard_normal((1, n_steps, 2)))
            r_path, h_path = r_path[0], h_last + h_path[0]
            below = r_path[1:] <= 0.0
            n_live = int(np.argmax(below)) if below.any() else n_steps
            p = np.exp(-bridge * r_path[:n_live] * r_path[1 : n_live + 1])
            alive = survival * np.concatenate(([1.0], np.cumprod(1.0 - p)))
            t_mid = (done + 0.5 + np.arange(n_live)) * dt
            h_mid = 0.5 * (h_path[:n_live] + h_path[1 : n_live + 1])
            w += float(np.sum(alive[:-1] * p * np.exp(-g * t_mid + al * h_mid)))
            survival = float(alive[-1])
            if n_live < n_steps:
                j = n_live
                frac = r_path[j] / (r_path[j] - r_path[j + 1])
                tau = (done + j + frac) * dt
                h_tau = h_path[j] + frac * (h_path[j + 1] - h_path[j])
                w += survival * math.exp(-g * tau + al * h_tau)
                survival = 0.0
                break
            r_last, h_last = float(r_path[-1]), float(h_path[-1])
            done += n_steps
        else:
            truncated_weight += survival * math.exp(-g * cfg.t_max + al * h_last)
        survival_total += survival
        total += w
        weights[k] = w
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


def joint_moment_sample(
    model: Vasicek,
    r0: float,
    t: float,
    n_paths: int,
    *,
    n_steps: int = 8,
    seed: int = 0,
) -> dict:
    """Sampling oracle for ou_moments: empirical moments of (r_t, h_t) from
    composed exact increments, with exact normal-theory standard errors.

    This is a test oracle, not a path API; it uses one stream for speed.
    """
    dt = t / n_steps
    rng = np.random.default_rng(seed)
    s = np.zeros(2)
    ss = np.zeros(3)  # sum r^2, sum h^2, sum r h
    done = 0
    while done < n_paths:
        nb = min(_MOMENT_BLOCK, n_paths - done)
        r, h = _exact_paths(model, r0, dt, rng.standard_normal((nb, n_steps, 2)))
        r_end, h_end = r[:, -1], h[:, -1]
        s += [r_end.sum(), h_end.sum()]
        ss += [np.sum(r_end**2), np.sum(h_end**2), np.sum(r_end * h_end)]
        done += nb
    n = n_paths
    mean_r, mean_h = s / n
    var_r = (ss[0] / n - mean_r**2) * n / (n - 1)
    var_h = (ss[1] / n - mean_h**2) * n / (n - 1)
    cov = (ss[2] / n - mean_r * mean_h) * n / (n - 1)
    return {
        "mean_r": mean_r,
        "mean_h": mean_h,
        "var_r": var_r,
        "var_h": var_h,
        "cov_rh": cov,
        "se_mean_r": math.sqrt(var_r / n),
        "se_mean_h": math.sqrt(var_h / n),
        "se_var_r": var_r * math.sqrt(2.0 / (n - 1)),
        "se_var_h": var_h * math.sqrt(2.0 / (n - 1)),
        "se_cov": math.sqrt((var_r * var_h + cov**2) / (n - 1)),
    }
