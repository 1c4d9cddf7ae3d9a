"""Decides finiteness: classifies problems as provably finite, provably
infinite, or unknown, owns the Vasicek thresholds and the sufficient
condition for a finite supersolution N, and supplies the constant-rate closed
form that anchors the solver's oracles."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InfeasibleProblem
from .models import Constant, DriftedBM, GeometricBM, InvariantInterval, ProblemSpec, Vasicek


class Feasibility(enum.Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict plus whatever certificate backs it.

    ``divergence_witness`` holds the coefficients (c1, c2, c3) of the exponent
    polynomial c1 t + c2 t^2 + c3 t^3 driving an infinite value (reference
    start r = 0 for the drifted BM, r = 1 for the geometric BM, zero
    consumption; the verdict does not depend on the start because the leading
    coefficient is positive for every admissible one). ``sufficient_pair`` is
    a (delta, p) certificate from the Hoelder-condition search, when found.
    """

    verdict: Feasibility
    reason: str
    thresholds: tuple[float, float] | None = None
    rho: float | None = None
    divergence_witness: tuple[float, float, float] | None = None
    sufficient_pair: tuple[float, float] | None = None

    def require(self, allow_unknown: bool = False) -> None:
        """Raise InfeasibleProblem unless the verdict is Finite, or Unknown
        when ``allow_unknown`` is set."""
        if self.verdict is Feasibility.FINITE or (allow_unknown and self.verdict is Feasibility.UNKNOWN):
            return
        raise InfeasibleProblem(f"feasibility verdict is {self.verdict.name}: {self.reason}")


def gamma_thresholds(spec: ProblemSpec) -> tuple[float, float]:
    """Sufficient discount thresholds (gamma_1, gamma_2) for the Vasicek model.

    gamma > gamma_1 makes the supersolution N finite; gamma > gamma_2 is the
    extra uniform-integrability margin.
    """
    model = spec.model
    if not isinstance(model, Vasicek):
        raise ValueError("gamma thresholds are defined for the Vasicek model")
    a, b, sig, al = model.a, model.b, model.sigma, spec.alpha
    g1 = al * a / b + al**2 * sig**2 / ((1.0 - al) * b**2)
    g2 = al * a / b + 3.0 * al**2 * sig**2 / (2.0 * math.sqrt(1.0 - al) * b**2) + al * sig * (b + 1.0) / b
    return g1, g2


def theta_growth(spec: ProblemSpec) -> float:
    """Growth exponent of the weighted semigroup norm bound:
    ||P_t phi|| <= 2 e^{theta t} ||phi|| with theta = alpha^2 sigma^2/(2 b^2) + alpha a / b."""
    model = spec.model
    if not isinstance(model, Vasicek):
        raise ValueError("the semigroup growth bound is defined for the Vasicek model")
    return spec.alpha**2 * model.sigma**2 / (2.0 * model.b**2) + spec.alpha * model.a / model.b


def rho_decay(spec: ProblemSpec) -> float:
    """Exponential tail decay rate of the N integrand for the Vasicek model."""
    model = spec.model
    if not isinstance(model, Vasicek):
        raise ValueError("rho is defined for the Vasicek model")
    a, b, sig, al = model.a, model.b, model.sigma, spec.alpha
    return (spec.gamma - al * a / b - al**2 * sig**2 / (2.0 * (1.0 - al) * b**2)) / (1.0 - al)


def n_condition(spec: ProblemSpec) -> tuple[bool, str]:
    """The sufficient condition for a finite supersolution N, and the
    comparison it made: gamma > alpha r for a constant rate, gamma > alpha b on
    the invariant interval (a, b), gamma > gamma_1 for Vasicek. No other model
    has one. The compared values are printed in full, so that the comparison
    reads right at the boundary."""
    model, g = spec.model, spec.gamma
    if isinstance(model, Constant):
        name, bound = "alpha r", spec.alpha * model.r
    elif isinstance(model, InvariantInterval):
        name, bound = "alpha b", spec.alpha * model.b
    elif isinstance(model, Vasicek):
        name, bound = "gamma_1", gamma_thresholds(spec)[0]
    else:
        return False, f"no supersolution N is known for the {type(model).__name__} model"
    holds = g > bound
    return holds, f"gamma = {float(g)!r} {'>' if holds else '<='} {name} = {float(bound)!r}"


def require_finite_N(spec: ProblemSpec) -> None:
    """Raise InfeasibleProblem unless n_condition holds."""
    holds, comparison = n_condition(spec)
    if not holds:
        raise InfeasibleProblem(f"supersolution N not guaranteed finite: {comparison}")


def classify(spec: ProblemSpec) -> FeasibilityReport:
    """Feasibility verdict for the value function of the given problem; it
    reads only the model, alpha and gamma, not the variant.

    Only proven directions are asserted: Vasicek below its thresholds and the
    interval model with gamma <= alpha b stay Unknown rather than Infinite.
    """
    model = spec.model
    al, g = spec.alpha, spec.gamma
    if isinstance(model, (Constant, InvariantInterval)):
        holds, comparison = n_condition(spec)
        if holds:
            return FeasibilityReport(Feasibility.FINITE, f"{comparison}: the supersolution N is finite")
        if isinstance(model, InvariantInterval):
            return FeasibilityReport(
                Feasibility.UNKNOWN, f"{comparison}: the bounded-interval sufficient condition fails"
            )
        return FeasibilityReport(
            Feasibility.INFINITE,
            f"{comparison}: vanishing consumption rates push the functional to infinity",
            divergence_witness=(max(al * model.r - g, 0.0), 0.0, 0.0),
        )
    if isinstance(model, Vasicek):
        g1, g2 = gamma_thresholds(spec)
        if g > max(g1, g2):
            return FeasibilityReport(
                Feasibility.FINITE,
                f"gamma = {g:.6g} exceeds max(gamma_1, gamma_2) = {max(g1, g2):.6g}",
                thresholds=(g1, g2),
                rho=rho_decay(spec),
                sufficient_pair=sufficient_condition_search(spec),
            )
        return FeasibilityReport(
            Feasibility.UNKNOWN,
            f"gamma = {g:.6g} is not above max(gamma_1, gamma_2) = {max(g1, g2):.6g}; "
            "the sufficient conditions are inconclusive",
            thresholds=(g1, g2),
        )
    if isinstance(model, DriftedBM):
        return FeasibilityReport(
            Feasibility.INFINITE,
            "integrated Brownian motion contributes a t^3 exponent that beats any discount",
            divergence_witness=(-g, al * model.mu / 2.0, al**2 * model.sigma**2 / 6.0),
        )
    if isinstance(model, GeometricBM):
        return FeasibilityReport(
            Feasibility.INFINITE,
            "e^y > y bounds the geometric rate below an integrated BM, whose t^3 exponent diverges",
            divergence_witness=(
                -g,
                al * (model.mu - 0.5 * model.sigma**2) / 2.0,
                al**2 * model.sigma**2 / 6.0,
            ),
        )
    raise TypeError(f"unknown model {model!r}")


def constant_rate_solution(alpha: float, gamma: float, r: float, v: float) -> tuple[float, float]:
    """Closed-form value and relative consumption rate for a constant rate:
    Phi = ((gamma - alpha r)/(1 - alpha))^{alpha-1} v^alpha and
    c_hat = (gamma - alpha r)/(1 - alpha). Wealth then decays exactly as
    V_t = e^{(r - gamma) t/(1 - alpha)} v."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if v <= 0:
        raise ValueError("wealth must be positive")
    margin = gamma - alpha * r
    if margin <= 0:
        raise InfeasibleProblem("gamma - alpha r <= 0: the constant-rate value is infinite")
    c_hat = margin / (1.0 - alpha)
    return c_hat ** (alpha - 1.0) * v**alpha, c_hat


def necessary_condition_probe(spec: ProblemSpec, c: float) -> str:
    """Closed-form divergence test of E^r int e^{-gamma t + alpha int (r_s - c) ds} dt.

    Returns "divergent" only when divergence is certified (a positive
    super-linear exponent term, or a nonnegative asymptotic linear rate);
    otherwise "finite". A divergent probe falsifies finiteness of the value.
    """
    if c <= 0:
        raise ValueError("the probe consumption rate must be positive")
    model = spec.model
    al, g = spec.alpha, spec.gamma
    if isinstance(model, (DriftedBM, GeometricBM)):
        return "divergent"
    if isinstance(model, Constant):
        rate = al * model.r - g - al * c
    elif isinstance(model, Vasicek):
        rate = theta_growth(spec) - g - al * c
    elif isinstance(model, InvariantInterval):
        # only the guaranteed lower bound r >= a certifies divergence
        rate = al * model.a - g - al * c
    else:
        raise TypeError(f"unknown model {model!r}")
    return "divergent" if rate >= 0 else "finite"


def sufficient_condition_search(spec: ProblemSpec) -> tuple[float, float] | None:
    """Search for (delta, p) with p in (1, 1/alpha) making
    E int e^{-(gamma-delta) q t + alpha q int r} dt finite, q = p/(p-1).

    A coarse existence probe on fixed grids: p in {1 + k (1/alpha - 1)/20},
    delta in {gamma 2^{-j}}. Returns the first satisfying pair or None.
    """
    model = spec.model
    if not isinstance(model, Vasicek):
        raise ValueError("the sufficient-condition search targets the Vasicek model")
    al, g = spec.alpha, spec.gamma
    if g <= 0:
        return None
    for k in range(1, 20):
        p = 1.0 + k * (1.0 / al - 1.0) / 20.0
        q = p / (p - 1.0)
        for j in range(1, 21):
            delta = g * 2.0**-j
            rate = al * q * model.a / model.b + (al * q) ** 2 * model.sigma**2 / (
                2.0 * model.b**2
            ) - (g - delta) * q
            if rate < 0:
                return delta, p
    return None
