"""Short-rate model catalog: diffusion coefficients, the formal generator,
state-space domains, and the invariant-interval admissibility check."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np


@dataclass(frozen=True)
class Vasicek:
    """dr = (a - b r) dt + sigma dW on the whole line.

    a is the mean-reversion product (per time), b the reversion speed
    (per time), sigma the absolute volatility (per sqrt-time).
    """

    a: float
    b: float
    sigma: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.sigma <= 0:
            raise ValueError("Vasicek requires a > 0, b > 0, sigma > 0")


@dataclass(frozen=True)
class InvariantInterval:
    """dr = kappa((a+b)/2 - r) dt + sigma (r-a)(b-r) dW, state space (a, b).

    The volatility degenerates at both endpoints; together with the inward
    drift this keeps the rate inside the interval (see invariance_check).
    """

    a: float
    b: float
    kappa: float
    sigma: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("interval model requires a < b")
        if self.kappa <= 0 or self.sigma <= 0:
            raise ValueError("interval model requires kappa > 0 and sigma > 0")


@dataclass(frozen=True)
class DriftedBM:
    """dr = mu dt + sigma dW."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("drifted BM requires sigma > 0")


@dataclass(frozen=True)
class GeometricBM:
    """dr = mu r dt + sigma r dW; the rate must start (and stay) positive."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("geometric BM requires sigma > 0")


@dataclass(frozen=True)
class Constant:
    """Deterministic flat rate: drift and volatility vanish identically."""

    r: float


ShortRateModel = Union[Vasicek, InvariantInterval, DriftedBM, GeometricBM, Constant]


@dataclass(frozen=True)
class Interval:
    """An open (possibly unbounded, possibly degenerate) rate interval."""

    lo: float
    hi: float

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.degenerate:
            return r == self.lo
        return (r > self.lo) & (r < self.hi)

    def contains_closure(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.degenerate:
            return r == self.lo
        return (r >= self.lo) & (r <= self.hi)


def domain(model: ShortRateModel) -> Interval:
    """The open state interval of the diffusion."""
    if isinstance(model, (Vasicek, DriftedBM)):
        return Interval(-math.inf, math.inf)
    if isinstance(model, InvariantInterval):
        return Interval(model.a, model.b)
    if isinstance(model, GeometricBM):
        return Interval(0.0, math.inf)
    if isinstance(model, Constant):
        return Interval(model.r, model.r)
    raise TypeError(f"unknown model {model!r}")


def _check_rates(model: ShortRateModel, r) -> np.ndarray:
    """Validate r against the model domain (closure, so interval endpoints
    where the volatility degenerates are allowed). Constant accepts any r:
    its coefficients are identically zero."""
    arr = np.asarray(r, dtype=float)
    if isinstance(model, Constant):
        return arr
    if not np.all(domain(model).contains_closure(arr)):
        raise ValueError(f"rate outside the model domain {domain(model)}")
    return arr


def _match(r, out):
    return float(out) if np.isscalar(r) or np.asarray(r).ndim == 0 else out


def _coefficients(model: ShortRateModel, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drift mu(r) and volatility sigma(r) of the short-rate SDE on an array
    of rates, with no domain check: the one definition of each model's
    coefficients, which drift, diffusion and the Euler engine share."""
    if isinstance(model, Vasicek):
        return model.a - model.b * arr, np.full_like(arr, model.sigma)
    if isinstance(model, InvariantInterval):
        return model.kappa * (0.5 * (model.a + model.b) - arr), model.sigma * (arr - model.a) * (model.b - arr)
    if isinstance(model, DriftedBM):
        return np.full_like(arr, model.mu), np.full_like(arr, model.sigma)
    if isinstance(model, GeometricBM):
        return model.mu * arr, model.sigma * arr
    return np.zeros_like(arr), np.zeros_like(arr)  # Constant


def drift(model: ShortRateModel, r):
    """Drift coefficient mu(r) of the short-rate SDE."""
    return _match(r, _coefficients(model, _check_rates(model, r))[0])


def diffusion(model: ShortRateModel, r):
    """Volatility coefficient sigma(r) of the short-rate SDE."""
    return _match(r, _coefficients(model, _check_rates(model, r))[1])


def state_rate(model: ShortRateModel, r):
    """The rate entering zero-order coefficients (the multiplication part of
    the weighted generator A = Q + alpha r).

    For the Constant model the state space is a single point, so the grid
    coordinate is a reporting convenience and the coefficient is the model's
    flat rate everywhere; all other models use the grid coordinate itself.
    """
    arr = np.asarray(r, dtype=float)
    out = np.full_like(arr, model.r) if isinstance(model, Constant) else arr
    return _match(r, out)


def generator_apply(model: ShortRateModel, f, fp, fpp, r):
    """Formal generator Q f(r) = 0.5 sigma^2(r) f'' + mu(r) f'.

    Derivatives are supplied by the caller (for instance central differences
    on a grid function), so the generator can be tested independently of any
    discretization. The function value f itself does not enter Q; it is
    accepted so call sites can pass the full (f, f', f'') triple they hold.
    """
    del f
    sig = diffusion(model, r)
    mu = drift(model, r)
    out = 0.5 * np.asarray(sig) ** 2 * np.asarray(fpp, dtype=float) + np.asarray(mu) * np.asarray(fp, dtype=float)
    return _match(r, out)


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of the scale-function endpoint test."""

    invariant: bool
    lower_partial: float
    upper_partial: float
    threshold: float


# scale_partial_integrals: levels of the geometric endpoint mesh
_SCALE_LEVELS = 60
# invariance_check: a scale-function partial beyond this counts as divergent
_INVARIANCE_THRESHOLD = 1e6


def scale_partial_integrals(
    mu_fn: Callable,
    sigma_fn: Callable,
    a: float,
    b: float,
    *,
    points_per_segment: int = 16,
    stop_at: float = math.inf,
) -> tuple[float, float]:
    """Partial integrals of the scale density toward both endpoints.

    The scale function is s(x) = int_w^x exp(-int_w^y 2 mu/sigma^2 dz) dy with
    w the interval midpoint. Endpoint non-attainability requires s(a+) = -inf
    and s(b-) = +inf, i.e. both partial integrals (in magnitude) diverge. The
    mesh refines geometrically toward each endpoint (the offset halves on
    each of _SCALE_LEVELS levels); integration stops early once a partial
    exceeds ``stop_at``.

    Returns (lower_partial, upper_partial), both nonnegative magnitudes.
    """
    w = 0.5 * (a + b)
    half = 0.5 * (b - a)

    def _march(toward_upper: bool) -> float:
        partial = 0.0
        log_integrand = 0.0  # -int 2mu/sigma^2 from w to the current point
        y_prev = w
        for k in range(1, _SCALE_LEVELS + 1):
            offset = half * 0.5**k
            y_next = (b - offset) if toward_upper else (a + offset)
            ys = np.linspace(y_prev, y_next, points_per_segment + 1)
            mu = np.asarray(mu_fn(ys), dtype=float)
            sig = np.asarray(sigma_fn(ys), dtype=float)
            dlog = -2.0 * mu / sig**2
            # running inner integral along the fine points
            seg = np.concatenate(
                ([log_integrand], log_integrand + np.cumsum(0.5 * (dlog[1:] + dlog[:-1]) * np.diff(ys)))
            )
            log_integrand = float(seg[-1])
            if np.max(seg) > 700.0:
                # exp overflows; the density explodes super-exponentially here
                return math.inf
            vals = np.exp(seg)
            partial += abs(float(np.trapezoid(vals, ys)))
            y_prev = y_next
            if partial > stop_at:
                return partial
        return partial

    return _march(toward_upper=False), _march(toward_upper=True)


def invariance_check(model: InvariantInterval, *, points_per_segment: int = 16) -> InvarianceReport:
    """Check non-attainability of both interval endpoints via the scale function.

    The scale integral is improper; divergence is decided by whether the
    partial integrals on scale_partial_integrals' geometric endpoint mesh
    exceed _INVARIANCE_THRESHOLD.
    """
    if not isinstance(model, InvariantInterval):
        raise ValueError("invariance_check applies to the invariant-interval model")
    probe = np.linspace(model.a, model.b, 1001)[1:-1]
    if np.any(diffusion(model, probe) == 0.0):
        raise ValueError("volatility vanishes in the interior; the diffusion must be non-degenerate")
    lower, upper = scale_partial_integrals(
        lambda y: drift(model, y),
        lambda y: diffusion(model, y),
        model.a,
        model.b,
        points_per_segment=points_per_segment,
        stop_at=10.0 * _INVARIANCE_THRESHOLD,
    )
    return InvarianceReport(
        invariant=bool(lower > _INVARIANCE_THRESHOLD and upper > _INVARIANCE_THRESHOLD),
        lower_partial=lower,
        upper_partial=upper,
        threshold=_INVARIANCE_THRESHOLD,
    )


@dataclass(frozen=True)
class ProblemSpec:
    """A consumption problem: model + utility exponent + discount + variant.

    Variant A is unconstrained consumption from a bank account, B stops when
    the rate first hits zero (requires 0 interior to the state space), C adds
    the bond portfolio.
    """

    model: ShortRateModel
    alpha: float
    gamma: float
    variant: str = "A"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if self.variant not in ("A", "B", "C"):
            raise ValueError("variant must be one of A, B, C")
        if self.variant == "B":
            dom = domain(self.model)
            if not (dom.lo < 0.0 < dom.hi):
                raise ValueError(
                    "variant B needs 0 in the interior of the state space; "
                    "otherwise the problem reduces to variant A"
                )
