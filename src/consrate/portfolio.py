"""Problem C: the bond-portfolio variant.

The value profile is N^{1-alpha} in closed form, the optimal wealth-volatility
exposure is beta = K'/((1-alpha) K) = N'/N, and a concrete (eta, psi) pair is
recovered from beta for the exponential maturity-density family."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feasibility import classify
from .gaussian import supersolution_N
from .grids import GridFunction
from .models import Constant, InvariantInterval, ProblemSpec, diffusion
from .hjb import grid_derivatives, hjb_residual

# beta_hat: half-width and node count of the local grid around r
_BETA_HALFWIDTH = 0.05
_BETA_NODES = 401


@dataclass(frozen=True)
class PortfolioPolicy:
    """Exposure beta, bank weight eta, maturity-density rate varsigma, and the
    aggregate bond log-sensitivity upsilon, tied by beta = (1 - eta) upsilon."""

    beta: float
    eta: float
    varsigma: float
    upsilon: float

    def __post_init__(self):
        if self.varsigma <= 0:
            raise ValueError("varsigma must be positive")
        if abs(self.beta - (1.0 - self.eta) * self.upsilon) > 1e-12 * max(1.0, abs(self.beta)):
            raise ValueError("policy fields must satisfy beta = (1 - eta) upsilon")


def value_c(spec: ProblemSpec, r, v: float):
    """Problem-C value Phi(r, v) = N(r)^{1-alpha} v^alpha."""
    if spec.variant != "C":
        raise ValueError("value_c requires a variant-C spec")
    if v <= 0:
        raise ValueError("wealth must be positive")
    classify(spec).require()
    n = supersolution_N(spec, r)
    return np.power(n, 1.0 - spec.alpha) * v**spec.alpha


def beta_profiles(spec: ProblemSpec, grid: GridFunction) -> tuple[GridFunction, GridFunction]:
    """The optimal exposure on the interior nodes, computed both ways:
    K'/((1-alpha) K) with K = N^{1-alpha}, and N'/N directly."""
    n_vals = supersolution_N(spec, grid.nodes)
    n_gf = grid.with_values(n_vals)
    k_gf = grid.with_values(np.power(n_vals, 1.0 - spec.alpha))
    dk, _ = grid_derivatives(k_gf)
    dn, _ = grid_derivatives(n_gf)
    from_k = dk / ((1.0 - spec.alpha) * k_gf.values[1:-1])
    from_n = dn / n_vals[1:-1]
    nodes = grid.nodes
    return (
        GridFunction(nodes[1], nodes[-2], from_k),
        GridFunction(nodes[1], nodes[-2], from_n),
    )


def beta_hat(spec: ProblemSpec, r: float) -> float:
    """Optimal exposure at one rate, cross-checked across both formulas."""
    model = spec.model
    if isinstance(model, Constant):
        return 0.0
    lo, hi = r - _BETA_HALFWIDTH, r + _BETA_HALFWIDTH
    if isinstance(model, InvariantInterval):
        margin = 1e-6 * (model.b - model.a)
        lo = max(lo, model.a + margin)
        hi = min(hi, model.b - margin)
    grid = GridFunction.zeros(lo, hi, _BETA_NODES)
    from_k, from_n = beta_profiles(spec, grid)
    bk, bn = float(from_k(r)), float(from_n(r))
    if abs(bk - bn) > 1e-6 + 100.0 * grid.step**2 * max(1.0, abs(bk)):
        raise RuntimeError(f"exposure formulas disagree: {bk} vs {bn}")
    return bk


def bond_loading(b: float, time_to_maturity) -> np.ndarray | float:
    """Affine loading B(u) = (1 - e^{-b u})/b of the zero-coupon bond yield on
    the short rate, so d/dr log price = -B(u) <= 0."""
    if b <= 0:
        raise ValueError("reversion speed must be positive")
    u = np.asarray(time_to_maturity, dtype=float)
    if np.any(u < 0):
        raise ValueError("time to maturity must be nonnegative")
    out = -np.expm1(-b * u) / b
    return float(out) if np.ndim(time_to_maturity) == 0 else out


def eta_from_beta(beta: float, varsigma: float, b: float) -> PortfolioPolicy:
    """Recover the bank weight for the exponential maturity density
    psi(t, theta) = varsigma e^{-varsigma (theta - t)}.

    The aggregate log-sensitivity is
    upsilon = -int_0^inf varsigma e^{-varsigma u} B(u) du = -1/(varsigma + b),
    and eta = 1 - beta/upsilon."""
    if varsigma <= 0:
        raise ValueError("varsigma must be positive")
    if b <= 0:
        raise ValueError("reversion speed must be positive")
    upsilon = -1.0 / (varsigma + b)
    eta = 1.0 - beta / upsilon
    return PortfolioPolicy(beta=beta, eta=eta, varsigma=varsigma, upsilon=upsilon)


def bonds_hjb_residual(spec: ProblemSpec, K: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Residual of the bond-portfolio HJB: hjb_residual's
    Q K + (alpha r - gamma) K + (1-alpha) K^{alpha/(alpha-1)} plus the exposure
    term alpha sigma^2 (K')^2 / (2 (1-alpha) K), on the interior nodes."""
    base, _ = hjb_residual(spec, K)
    mid = K.values[1:-1]
    d1, _ = grid_derivatives(K)
    sig = np.asarray(diffusion(spec.model, K.nodes[1:-1]))
    raw = base.values + spec.alpha * sig**2 * d1**2 / (2.0 * (1.0 - spec.alpha) * mid)
    return base.with_values(raw), base.with_values(raw / (1.0 + np.abs(mid)))
