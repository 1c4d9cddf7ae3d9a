"""One resolvent step u = (lambda + gamma - A)^{-1} psi.

A is the weighted generator Q + alpha r. The solver has two backends, each an
operator with ``apply(lam, psi_values)``: QuadratureOperator integrates the
closed-form Gaussian kernel in time and rate (the primary method, Vasicek
only), and FDOperator solves the equivalent linear ODE on the window. The
Monte Carlo resolvent averages the probabilistic representation; it is a
cross-check of the two, not a solver backend.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.linalg

from .errors import InsufficientMemory
from .feasibility import require_finite_N, theta_growth
from .gaussian import envelope_rate, extend_with_envelope, fk_kernel_weight, ou_moments
from .grids import GridFunction
from .models import Constant, InvariantInterval, ProblemSpec, Vasicek, diffusion, drift, state_rate
from .parallel import fork_map, memory_budget, one_blas_thread, pool_size, shared_empty
from .simulate import _euler_paths, _exact_paths


@dataclass(frozen=True)
class Quadrature:
    """Time-rate trapezoid quadrature of the Gaussian kernel (Vasicek only)."""

    dt: float = 0.01
    t_max: float = 12.0
    dy: float = 0.002
    y_halfwidth: float | None = None
    workers: int = 0  # operator build worker processes: at most this many, 0 for one per available core

    def __post_init__(self):
        if self.dt <= 0 or self.t_max < self.dt or self.dy <= 0:
            raise ValueError("quadrature steps and horizon must be positive")
        if self.y_halfwidth is not None and not self.y_halfwidth > 0:
            raise ValueError(f"quad.y_halfwidth must be positive, got {self.y_halfwidth:g}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0 (0 means one per available core), got {self.workers}")


@dataclass(frozen=True)
class FiniteDifference:
    """Central-difference boundary-value solve of the resolvent ODE."""


@dataclass(frozen=True)
class MonteCarlo:
    """Settings of resolvent_mc, the path average of
    int e^{-(lambda+gamma)t} psi(r_t) e^{alpha h_t} dt (a cross-check, not a
    solver backend)."""

    paths: int
    dt: float
    t_max: float
    seed: int

    def __post_init__(self):
        if self.paths < 100:
            raise ValueError("Monte Carlo backend needs at least 100 paths")
        if self.dt <= 0 or self.t_max < self.dt:
            raise ValueError("Monte Carlo step and horizon must be positive")


ResolventBackend = Union[Quadrature, FiniteDifference]


def robin_rate(spec: ProblemSpec) -> float:
    """Envelope growth rate alpha/((1-alpha) b) used as the Robin boundary slope
    on truncated Vasicek windows."""
    if not isinstance(spec.model, Vasicek):
        raise ValueError("the Robin rule is defined for the Vasicek model")
    return spec.alpha / ((1.0 - spec.alpha) * spec.model.b)


def _check_laplace_convergence(spec: ProblemSpec, lam: float) -> None:
    theta = theta_growth(spec)
    if lam + spec.gamma <= theta:
        raise ValueError(
            f"lambda + gamma = {lam + spec.gamma:.6g} does not exceed the weighted-semigroup "
            f"growth rate {theta:.6g}; the time integral diverges"
        )


def _frozen_cell(spec: ProblemSpec, lam: float, r: np.ndarray, dt: float) -> np.ndarray:
    """Analytic weight of the first time cell [0, dt] with the state frozen:
    int_0^dt e^{-(lambda+gamma-alpha r) t} dt."""
    s = lam + spec.gamma - spec.alpha * r
    z = s * dt
    small = np.abs(z) < 1e-8
    s_safe = np.where(small, 1.0, s)
    exact = -np.expm1(-z) / s_safe
    series = dt * (1.0 - z / 2.0 + z**2 / 6.0)
    return np.where(small, series, exact)


def _cell_weights(s: float, h: float) -> tuple[float, float]:
    """Exact weights for e^{-s t} against the linear hat on one cell of width h:
    contribution = e^{-s t_left} (A * g_left + B * g_right)."""
    z = s * h
    if z < 1e-4:
        a = h / 2.0 - s * h**2 / 6.0 + s**2 * h**3 / 24.0
        b = h / 2.0 - s * h**2 / 3.0 + s**2 * h**3 / 8.0
        return a, b
    q = math.exp(-z)
    b = (1.0 - q - z * q) / (s**2 * h)
    a = (1.0 - q) / s - b
    return a, b


# one node tile's accumulator (lambdas x nodes x y mesh) and one block of its
# kernel (time cells x nodes x y mesh), the GEMM operand, each hold at most about
# this many floats (2**18 floats are 2 MB, a common per-core L2 size), so that a
# tile is built in cache
_BLOCK_FLOATS = 2**18


def _check_memory(stack_floats: int, workers: int, task_floats: int) -> None:
    """Raise InsufficientMemory unless the R(lambda) stack and ``workers``
    tasks' buffers fit in what the process may still take."""
    budget = memory_budget()
    need = 8 * (stack_floats + workers * task_floats)
    if budget is not None and need > budget:
        mib = 2.0**-20
        raise InsufficientMemory(
            f"the quadrature operator needs {need * mib:.1f} MiB: {8 * stack_floats * mib:.1f} MiB of R(lambda) "
            f"and {8 * task_floats * mib:.1f} MiB of tile buffers for each of {workers} workers, but only "
            f"{budget * mib:.1f} MiB is available; lower grid.n, solver.m_max or --threads"
        )


class QuadratureOperator:
    """Resolvent matrices R(lambda) on a grid for a fixed set of lambdas.

    The time integral uses exponentially weighted trapezoid coefficients
    (exact integration of e^{-(lambda+gamma)t} against the piecewise-linear
    interpolant of P_t psi) plus the analytic frozen-state correction on the
    singular first cell [0, dt]. All R(lambda) are built together, one tile of
    rate nodes at a time: for each tile the kernel of each time cell is
    evaluated once, block by block of cells, and one GEMM per block adds it
    into a small accumulator holding that tile for every lambda. When the
    tile's cells are done, the y trapezoid and the extension onto the y mesh
    turn the accumulator into the tile's rows of every R(lambda). Tile and
    block are sized by ``_BLOCK_FLOATS`` so that both stay in cache.

    Each tile is one task of parallel.fork_map on ``workers`` worker
    processes (``backend.workers`` capped by parallel.pool_size), and goes to
    whichever worker is free. A task owns its kernel block and its
    accumulator and writes only its own rows of the R(lambda) stack, which
    lives in a shared mapping made before the workers are forked; the tiles
    and blocks depend neither on the worker count nor on which worker builds
    which tile, so R(lambda) is bitwise the same for any count. A worker that
    dies mid-build raises BrokenProcessPool. Before the mapping is made,
    the stack and the workers' tile buffers are checked against the memory
    the process may still take (parallel.memory_budget), and
    InsufficientMemory names the sizes if they do not fit. The build runs
    with OpenBLAS on one thread, which also keeps R(lambda) independent of
    BLAS's own thread count (at the paper profile's sizes the GEMM's last
    bits depend on it); where that setting cannot be found, the build runs on
    one worker and BLAS as it is.
    """

    def __init__(self, spec: ProblemSpec, grid: GridFunction, backend: Quadrature, lams):
        started = time.perf_counter()
        if not isinstance(spec.model, Vasicek):
            raise ValueError("the quadrature resolvent requires the Vasicek model")
        lams = [float(lam) for lam in lams]
        if not lams:
            raise ValueError("the quadrature operator needs at least one lambda")
        for lam in lams:
            _check_laplace_convergence(spec, lam)
        self.spec = spec
        self.backend = backend
        self.nodes = grid.nodes
        model = spec.model
        n_steps = int(round(backend.t_max / backend.dt))
        if n_steps < 2:
            raise ValueError("t_max must cover at least two time cells")
        self.n_steps = n_steps
        self.times = backend.dt * np.arange(1, n_steps + 1)

        first_width = math.sqrt(float(ou_moments(model, 0.0, backend.dt).var_r))
        if backend.dy > 1.3 * first_width:
            raise ValueError(
                f"dy={backend.dy:g} cannot resolve the kernel width {first_width:.3g} at t=dt; "
                "shrink dy (roughly dy <= sigma*sqrt(dt)) or enlarge dt"
            )
        stat_sd = math.sqrt(float(ou_moments(model, 0.0, backend.t_max).var_r))
        hw = backend.y_halfwidth if backend.y_halfwidth is not None else 6.0 * stat_sd
        long_mean = model.a / model.b
        y_lo = min(grid.r_min, long_mean) - hw
        y_hi = max(grid.r_max, long_mean) + hw
        n_y = int(math.ceil((y_hi - y_lo) / backend.dy)) + 1
        self.y = np.linspace(y_lo, y_hi, n_y)
        trap_y = np.full(n_y, self.y[1] - self.y[0])
        trap_y[0] *= 0.5
        trap_y[-1] *= 0.5

        # extension of a grid function onto the y mesh: linear interpolation
        # inside the window, frozen edge value times the envelope outside. It
        # has at most two entries per y point, so it is applied as a sparse
        # matrix, with the y trapezoid weights folded in (scipy.sparse is
        # imported here so that `import consrate.cli` does not load it).
        from scipy.sparse import csr_array

        rate = envelope_rate(spec)
        n_r = self.nodes.size
        ext = np.zeros((n_y, n_r))
        below, above = self.y < grid.r_min, self.y > grid.r_max
        ext[below, 0] = np.exp(rate * (np.abs(self.y[below]) - abs(grid.r_min)))
        ext[above, -1] = np.exp(rate * (np.abs(self.y[above]) - abs(grid.r_max)))
        inside = np.flatnonzero(~(below | above))
        pos = (self.y[inside] - grid.r_min) / grid.step
        i = np.minimum(pos.astype(int), n_r - 2)
        ext[inside, i] = 1.0 - (pos - i)
        ext[inside, i + 1] = pos - i
        ext = csr_array(ext * trap_y[:, None])

        coef = np.array([self._coefficients(lam) for lam in lams])
        n_lam = len(lams)
        tile = max(1, min(n_r, _BLOCK_FLOATS // (n_lam * n_y)))
        per_block = max(1, min(n_steps, _BLOCK_FLOATS // (tile * n_y)))
        self.node_tile, self.block_cells = tile, per_block
        tiles = [(i0, min(i0 + tile, n_r)) for i0 in range(0, n_r, tile)]
        build = functools.partial(self._build_tile, coef, ext)
        with one_blas_thread() as pinned:
            self.workers = pool_size(backend.workers, len(tiles)) if pinned else 1
            # a task's kernel block, accumulator and product with ext
            width = tile * n_y
            _check_memory(n_lam * n_r * n_r, self.workers, per_block * width + n_lam * (width + tile * n_r))
            self._mats = shared_empty((n_lam, n_r, n_r))
            seconds = fork_map(build, tiles, self.workers)
        self.kernel_s, self.gemm_s = (sum(s) for s in zip(*seconds))
        self._level = {lam: i for i, lam in enumerate(lams)}
        self.build_s = time.perf_counter() - started

    def _build_tile(self, coef: np.ndarray, ext, nodes: tuple[int, int]) -> tuple[float, float]:
        """Write rows i0:i1 of every R(lambda); return the seconds spent in
        kernel fills and in GEMMs."""
        i0, i1 = nodes
        n_lam, n_y, per_block = coef.shape[0], self.y.size, self.block_cells
        width = (i1 - i0) * n_y
        r = self.nodes[None, i0:i1, None]
        buf = np.empty(per_block * width)
        # dgemm updates c in place only when c is Fortran-contiguous, and
        # silently works on a copy otherwise: every tile, the ragged last one
        # too, gets its own accumulator, and acc is rebound to the result
        acc = np.zeros((width, n_lam), order="F")
        kernel_s = gemm_s = 0.0
        for start in range(0, self.n_steps, per_block):
            stop = min(start + per_block, self.n_steps)
            block = buf[: (stop - start) * width].reshape(stop - start, i1 - i0, n_y)
            t0 = time.perf_counter()
            fk_kernel_weight(self.spec, self.times[start:stop, None, None], r, self.y[None, None, :], block)
            t1 = time.perf_counter()
            # acc^T += coef[:, start:stop] @ block
            acc = scipy.linalg.blas.dgemm(
                1.0, block.reshape(stop - start, width).T, coef[:, start:stop].T, beta=1.0, c=acc, overwrite_c=True
            )
            t2 = time.perf_counter()
            kernel_s += t1 - t0
            gemm_s += t2 - t1
        self._mats[:, i0:i1] = (acc.T.reshape(n_lam * (i1 - i0), n_y) @ ext).reshape(n_lam, i1 - i0, self.nodes.size)
        return kernel_s, gemm_s

    def telemetry(self) -> dict:
        """Sizes, worker count and build times of the operator, as written to
        run_record.txt; kernel_s and gemm_s are seconds summed over the
        tiles, across the workers."""
        return {
            "n_r": self.nodes.size,
            "n_y": self.y.size,
            "time_cells": self.n_steps,
            "node_tile": self.node_tile,
            "lambda_levels": len(self._mats),
            "build_s": f"{self.build_s:.3f}",
            "workers": self.workers,
            "kernel_s": f"{self.kernel_s:.3f}",
            "gemm_s": f"{self.gemm_s:.3f}",
        }

    def _coefficients(self, lam: float) -> np.ndarray:
        s = lam + self.spec.gamma
        dt = self.backend.dt
        a, b = _cell_weights(s, dt)
        decay = np.exp(-s * self.times)
        c = np.zeros(self.n_steps)
        c[:-1] += decay[:-1] * a
        c[1:] += decay[:-1] * b
        return c

    def resolvent_matrix(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """(R, d) with u = R @ psi + d * psi."""
        if lam not in self._level:
            raise ValueError(
                f"lambda = {lam:.17g} is not one of the {len(self._level)} levels "
                "this quadrature operator was built for"
            )
        return self._mats[self._level[lam]], _frozen_cell(self.spec, lam, self.nodes, self.backend.dt)

    def apply(self, lam: float, psi_values: np.ndarray) -> np.ndarray:
        mat, d = self.resolvent_matrix(lam)
        return mat @ psi_values + d * psi_values


def resolvent_quadrature(
    spec: ProblemSpec, psi: GridFunction, lam: float, backend: Quadrature
) -> GridFunction:
    """Quadrature evaluation of u = (lambda + gamma - A)^{-1} psi (Vasicek)."""
    op = QuadratureOperator(spec, psi, backend, (lam,))
    return psi.with_values(op.apply(lam, psi.values))


# ---------------------------------------------------------------------------
# finite differences


@dataclass
class TridiagSystem:
    """Tridiagonal operator rows c0 u - c2 u'' - c1 u' = rhs with boundary rows
    already folded in. Dirichlet rows carry fixed right-hand sides."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    dirichlet_left: float | None = None
    dirichlet_right: float | None = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float).copy()
        if self.dirichlet_left is not None:
            rhs[0] = self.dirichlet_left
        if self.dirichlet_right is not None:
            rhs[-1] = self.dirichlet_right
        n = self.diag.size
        ab = np.zeros((3, n))
        ab[0, 1:] = self.sup[:-1]
        ab[1, :] = self.diag
        ab[2, :-1] = self.sub[1:]
        return scipy.linalg.solve_banded((1, 1), ab, rhs)


def fd_system(
    spec: ProblemSpec,
    nodes: np.ndarray,
    c0: np.ndarray,
    left_bc: tuple,
    right_bc: tuple,
) -> TridiagSystem:
    """Assemble c0 u - Q u (model drift/volatility) on a uniform grid.

    Interior rows use central differences, switching the drift term to the
    upwind side wherever the cell Peclet number |mu| h / sigma^2 exceeds 1
    (inevitable near the degenerate endpoints of the interval model); this
    keeps the matrix an M-matrix. Refuses non-M-matrix assemblies.
    """
    nodes = np.asarray(nodes, dtype=float)
    h = nodes[1] - nodes[0]
    mu = np.asarray(drift(spec.model, nodes), dtype=float)
    c2 = 0.5 * np.asarray(diffusion(spec.model, nodes), dtype=float) ** 2
    n = nodes.size
    sub = np.zeros(n)
    diag = np.asarray(c0, dtype=float).copy()
    sup = np.zeros(n)

    # interior rows
    c1 = mu[1:-1]
    d2 = c2[1:-1]
    central = np.abs(c1) * h <= 2.0 * d2
    central &= d2 > 0
    sub_i = -d2 / h**2 + np.where(central, c1 / (2.0 * h), np.where(c1 < 0, c1 / h, 0.0))
    sup_i = -d2 / h**2 - np.where(central, c1 / (2.0 * h), np.where(c1 > 0, c1 / h, 0.0))
    diag_i = 2.0 * d2 / h**2 + np.where(central, 0.0, np.abs(c1) / h)
    sub[1:-1] = sub_i
    sup[1:-1] = sup_i
    diag[1:-1] += diag_i

    def _fold(side: int, bc: tuple):
        i = 0 if side < 0 else n - 1
        kind = bc[0]
        if kind == "dirichlet":
            diag[i] = 1.0
            (sup if side < 0 else sub)[i] = 0.0
            return bc[1]
        if kind == "robin":
            rate = bc[1]
            off = -2.0 * c2[i] / h**2
            diag[i] += 2.0 * c2[i] / h**2 - side * 2.0 * c2[i] * rate / h - mu[i] * rate
            (sup if side < 0 else sub)[i] = off
            return None
        if kind == "degenerate":
            # sigma vanishes here; the equation is first order with inward drift
            if side < 0:
                diag[i] += mu[i] / h
                sup[i] = -mu[i] / h
            else:
                diag[i] += -mu[i] / h
                sub[i] = mu[i] / h
            return None
        if kind == "diagonal":
            return None
        raise ValueError(f"unknown boundary rule {bc!r}")

    dl = _fold(-1, left_bc)
    dr = _fold(+1, right_bc)

    tol = 1e-12 * max(1.0, float(np.max(np.abs(diag))))
    if np.any(sub[1:] > tol) or np.any(sup[:-1] > tol):
        raise ValueError(
            "finite-difference assembly is not an M-matrix (drift-dominated stencil); "
            "refine the grid"
        )
    if np.any(diag <= 0):
        raise ValueError(
            "finite-difference diagonal is not positive; increase lambda/gamma or shrink the window"
        )
    return TridiagSystem(sub=sub, diag=diag, sup=sup, dirichlet_left=dl, dirichlet_right=dr)


def _auto_bcs(spec: ProblemSpec, nodes: np.ndarray) -> tuple[tuple, tuple]:
    model = spec.model
    if isinstance(model, Vasicek):
        rate = robin_rate(spec)
        left_rate = rate if nodes[0] >= 0 else -rate
        return ("robin", left_rate), ("robin", rate)
    if isinstance(model, InvariantInterval):
        if abs(nodes[0] - model.a) > 1e-9 or abs(nodes[-1] - model.b) > 1e-9:
            raise ValueError("interval-model FD grids must span [a, b] where the volatility degenerates")
        return ("degenerate",), ("degenerate",)
    if isinstance(model, Constant):
        return ("diagonal",), ("diagonal",)
    raise ValueError(f"no truncation boundary rule for {type(model).__name__}")


class FDOperator:
    """Finite-difference resolvent (lambda + gamma - A)^{-1} on a fixed node set.

    ``bcs`` is the (left, right) boundary-rule pair of fd_system, by default
    the model's truncation rules. The tridiagonal system is assembled once per
    lambda and reused for every psi.
    """

    def __init__(self, spec: ProblemSpec, nodes: np.ndarray, bcs: tuple[tuple, tuple] | None = None):
        self.spec = spec
        self.nodes = nodes
        self.bcs = _auto_bcs(spec, nodes) if bcs is None else bcs
        self._systems: dict[float, TridiagSystem] = {}

    def apply(self, lam: float, psi_values: np.ndarray) -> np.ndarray:
        if lam not in self._systems:
            c0 = lam + self.spec.gamma - self.spec.alpha * state_rate(self.spec.model, self.nodes)
            if np.any(c0 <= 0):
                raise ValueError(
                    "lambda + gamma - alpha r must stay positive on the window; "
                    "increase lambda or shrink the window"
                )
            self._systems[lam] = fd_system(self.spec, self.nodes, c0, *self.bcs)
        return self._systems[lam].solve(psi_values)


def resolvent_fd(
    spec: ProblemSpec, psi: GridFunction, lam: float, backend: FiniteDifference
) -> GridFunction:
    """Finite-difference solve of (lambda + gamma - A) u = psi on the grid."""
    del backend
    return psi.with_values(FDOperator(spec, psi.nodes).apply(lam, psi.values))


def solve_linear_fk_ode(
    spec: ProblemSpec,
    grid: GridFunction | None = None,
    *,
    n_nodes: int = 2001,
) -> GridFunction:
    """FD solution of Q N + ((alpha r - gamma)/(1 - alpha)) N + 1 = 0.

    Serves as the supersolution N for the interval model (no closed-form
    transition density exists there) and as a cross-check of the Vasicek
    quadrature N. Boundary rules match resolvent_fd. Raises
    InfeasibleProblem unless feasibility.n_condition holds.
    """
    require_finite_N(spec)
    model = spec.model
    al, g = spec.alpha, spec.gamma
    if grid is None:
        if isinstance(model, InvariantInterval):
            grid = GridFunction.zeros(model.a, model.b, n_nodes)
        else:
            raise ValueError("a grid is required for models without a bounded state space")
    nodes = grid.nodes
    c0 = (g - al * state_rate(model, nodes)) / (1.0 - al)
    left, right = _auto_bcs(spec, nodes)
    sys = fd_system(spec, nodes, c0, left, right)
    return grid.with_values(sys.solve(np.ones(nodes.size)))


# ---------------------------------------------------------------------------
# Monte Carlo


def resolvent_mc(
    spec: ProblemSpec, psi: GridFunction, lam: float, backend: MonteCarlo
) -> tuple[GridFunction, GridFunction]:
    """Monte Carlo resolvent with per-node standard errors.

    Vasicek paths share one exact path from r = 0 per sample, moved onto every
    grid node by the affine OU map r + node e^{-bt}, h + node (1 - e^{-bt})/b
    (so common random numbers are exact and make node-to-node noise smooth);
    other models step all nodes as one Euler batch with a common shock. Path k
    draws from seed + k. lambda + gamma must be large enough that the
    discarded tail beyond t_max is below the intended tolerance.
    """
    _check_mc_applicable(spec)
    s = lam + spec.gamma
    if s <= 0:
        raise ValueError("lambda + gamma must be positive")
    nodes = psi.nodes
    n_steps = int(round(backend.t_max / backend.dt))
    dt = backend.dt
    times = dt * np.arange(0, n_steps + 1)
    trap_t = np.full(n_steps + 1, dt)
    trap_t[0] *= 0.5
    trap_t[-1] *= 0.5
    disc = np.exp(-s * times)

    vasicek = isinstance(spec.model, Vasicek)
    if vasicek:
        ext_rate = envelope_rate(spec)
        b = spec.model.b
        r_shift = nodes[None, :] * np.exp(-b * times)[:, None]
        h_shift = nodes[None, :] * (-np.expm1(-b * times) / b)[:, None]

        def psi_at(r):
            return extend_with_envelope(psi, ext_rate, r)

    else:
        r_start = state_rate(spec.model, nodes)

        def psi_at(r):
            return psi(r)

    # the variance is taken about the mean of the kept path integrals: a
    # one-pass total_sq / n - mean^2 cancels to rounding noise once they are
    # nearly equal
    total = np.zeros(nodes.size)
    integrals = np.empty((backend.paths, nodes.size))
    for k in range(backend.paths):
        rng = np.random.default_rng(backend.seed + k)
        if vasicek:
            r, h = _exact_paths(spec.model, 0.0, dt, rng.standard_normal((1, n_steps, 2)))
            r_mat, h_mat = r[0][:, None] + r_shift, h[0][:, None] + h_shift
        else:
            r, h, _ = _euler_paths(spec.model, r_start, dt, rng.standard_normal((1, n_steps)))
            r_mat, h_mat = np.ascontiguousarray(r.T), np.ascontiguousarray(h.T)
        g = psi_at(r_mat) * np.exp(spec.alpha * h_mat) * disc[:, None]
        integrals[k] = trap_t @ g
        total += integrals[k]
    n = backend.paths
    mean = total / n
    se = np.sqrt(integrals.var(axis=0, ddof=1) / n)
    return psi.with_values(mean), psi.with_values(se)


def _check_mc_applicable(spec: ProblemSpec) -> None:
    if isinstance(spec.model, (Vasicek, InvariantInterval, Constant)):
        return
    raise ValueError(f"Monte Carlo resolvent not defined for {type(spec.model).__name__}")
