"""One resolvent step u = (lambda + gamma - A)^{-1} psi.

A is the weighted generator Q + alpha r. The solver has two backends, each an
operator with ``apply(lam, psi_values)``: QuadratureOperator integrates the
closed-form Gaussian kernel in time and rate (the primary method, Vasicek
only), and FDOperator solves the equivalent linear ODE on the window. Both
are deterministic; their Monte Carlo cross-check, simulate.resolvent_mc, runs
on the path engines.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .blas import csr_matvecs, dgemm, dgttrf, dgttrs
from .feasibility import require_finite_N, theta_growth
from .gaussian import (
    _PAD_SIGMAS,
    _fill_cells,
    envelope_rate,
    fk_kernel_weight,
    kernel_columns,
    ou_moments,
)
from .grids import GridFunction
from .models import Constant, InvariantInterval, ProblemSpec, Vasicek, _check_rates, _coefficients, state_rate
from .parallel import check_memory, fork_map, memory_budget, mib, one_blas_thread, pool_size, shared_empty


@dataclass(frozen=True)
class Quadrature:
    """Time-rate trapezoid quadrature of the Gaussian kernel (Vasicek only)."""

    dt: float = 0.01
    t_max: float = 12.0
    dy: float = 0.002
    workers: int = 0  # operator build worker processes: at most this many, 0 for one per available core

    def __post_init__(self):
        if self.dt <= 0 or self.t_max < self.dt or self.dy <= 0:
            raise ValueError("quadrature steps and horizon must be positive")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0 (0 means one per available core), got {self.workers}")


@dataclass(frozen=True)
class FiniteDifference:
    """Central-difference boundary-value solve of the resolvent ODE."""


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


class _Extension:
    """The extension matrix E (y mesh x nodes) of QuadratureOperator, kept
    as the CSR arrays of its transpose; times(x) is x @ E by sparsetools'
    csr_matvecs. scipy.sparse computes x @ csr_array(E) as (E^T x^T)^T with
    csc_matvecs over the columns of E^T, adding each term x_j E_ji into a
    zeroed output one at a time in y order; csr_matvecs over the rows of E^T
    adds the same terms, in the same order, with the same axpy, so the two
    products are bit for bit the same.
    """

    @staticmethod
    def matrix(y: np.ndarray, grid: GridFunction, rate: float) -> np.ndarray:
        """E as a dense array: the extension of a grid function onto the y
        mesh (linear interpolation inside the window, frozen edge value times
        the envelope e^{rate |y|} outside), with the y trapezoid weights
        folded in."""
        n_r = grid.n_nodes
        ext = np.zeros((y.size, n_r))
        below, above = y < grid.r_min, y > grid.r_max
        ext[below, 0] = np.exp(rate * (np.abs(y[below]) - abs(grid.r_min)))
        ext[above, -1] = np.exp(rate * (np.abs(y[above]) - abs(grid.r_max)))
        inside = np.flatnonzero(~(below | above))
        pos = (y[inside] - grid.r_min) / grid.step
        i = np.minimum(pos.astype(int), n_r - 2)
        ext[inside, i] = 1.0 - (pos - i)
        ext[inside, i + 1] = pos - i
        trap_y = np.full(y.size, y[1] - y[0])
        trap_y[0] *= 0.5
        trap_y[-1] *= 0.5
        return ext * trap_y[:, None]

    def __init__(self, ext: np.ndarray):
        self.n_y, self.n_r = ext.shape
        node, self.cols = np.nonzero(ext.T)  # by node, each in y order
        self.starts = np.searchsorted(node, np.arange(self.n_r + 1))
        self.weights = ext[self.cols, node]

    def times(self, x: np.ndarray) -> np.ndarray:
        """x @ E, for x of shape (rows, y mesh)."""
        rows, n_y = x.shape
        if n_y != self.n_y:  # csr_matvecs checks no size: it would read past the end of x
            raise ValueError(f"x has {n_y} columns where the y mesh has {self.n_y} points")
        out = np.zeros((self.n_r, rows))
        csr_matvecs(self.n_r, self.n_y, rows, self.starts, self.cols, self.weights, x.T.ravel(), out.ravel())
        return out.T


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
        # the kernel's t-only factors, computed here once and inherited by the
        # workers; each block's fill takes its cells' rows
        self._columns = kernel_columns(spec, self.times[:, None, None])

        first_width = math.sqrt(float(ou_moments(model, 0.0, backend.dt).var_r))
        if backend.dy > 1.3 * first_width:
            raise ValueError(
                f"dy={backend.dy:g} cannot resolve the kernel width {first_width:.3g} at t=dt; "
                "shrink dy (roughly dy <= sigma*sqrt(dt)) or enlarge dt"
            )
        stat_sd = math.sqrt(float(ou_moments(model, 0.0, backend.t_max).var_r))
        hw = _PAD_SIGMAS * stat_sd
        long_mean = model.a / model.b
        y_lo = min(grid.r_min, long_mean) - hw
        y_hi = max(grid.r_max, long_mean) + hw
        n_y = int(math.ceil((y_hi - y_lo) / backend.dy)) + 1
        self.y = np.linspace(y_lo, y_hi, n_y)
        ext = _Extension(_Extension.matrix(self.y, grid, envelope_rate(spec)))
        n_r = self.nodes.size

        coef = np.array([self._coefficients(lam) for lam in lams])
        n_lam = len(lams)
        tile = max(1, min(n_r, _BLOCK_FLOATS // (n_lam * n_y)))
        per_block = max(1, min(n_steps, _BLOCK_FLOATS // (tile * n_y)))
        self.node_tile, self.block_cells = tile, per_block
        tiles = [(i0, min(i0 + tile, n_r)) for i0 in range(0, n_r, tile)]
        build = functools.partial(self._build_tile, coef, ext)
        with one_blas_thread() as pinned:
            self.workers = pool_size(backend.workers, len(tiles)) if pinned else 1
            # a task's kernel block, accumulator, product with ext, and the
            # kernel fill's dev scratch and its (rows, 2) dgemm operand
            width = tile * n_y
            fill = _fill_cells((per_block, tile, n_y)) * (width + 2 * tile)
            stack, task = 8 * n_lam * n_r * n_r, 8 * (per_block * width + n_lam * (width + tile * n_r) + fill)
            check_memory(
                "the quadrature operator",
                stack + self.workers * task,
                memory_budget(),
                f": {mib(stack)} of R(lambda) and {mib(task)} of tile buffers for each of {self.workers} workers",
                "lower grid.n, solver.m_max or --threads",
            )
            self._mats = shared_empty((n_lam, n_r, n_r))
            seconds = fork_map(build, tiles, self.workers)
        self.kernel_s, self.gemm_s = (sum(s) for s in zip(*seconds))
        self._level = {lam: i for i, lam in enumerate(lams)}
        self.build_s = time.perf_counter() - started

    def _build_tile(self, coef: np.ndarray, ext: _Extension, nodes: tuple[int, int]) -> tuple[float, float]:
        """Write rows i0:i1 of every R(lambda); return the seconds spent in
        kernel fills and in GEMMs."""
        i0, i1 = nodes
        n_lam, n_y, per_block = coef.shape[0], self.y.size, self.block_cells
        width = (i1 - i0) * n_y
        r = self.nodes[None, i0:i1, None]
        y = self.y[None, None, :]
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
            columns = self._columns[start:stop]
            fk_kernel_weight(self.spec, columns.t, r, y, block, columns=columns)
            t1 = time.perf_counter()
            # acc^T += coef[:, start:stop] @ block
            acc = dgemm(
                1.0, block.reshape(stop - start, width).T, coef[:, start:stop].T, beta=1.0, c=acc, overwrite_c=True
            )
            t2 = time.perf_counter()
            kernel_s += t1 - t0
            gemm_s += t2 - t1
        self._mats[:, i0:i1] = ext.times(acc.T.reshape(n_lam * (i1 - i0), n_y)).reshape(n_lam, i1 - i0, self.nodes.size)
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

# an off-diagonal entry above this many times max(1, the largest |diagonal
# entry|) breaks a system's M-matrix sign pattern
_SIGN_TOL = 1e-12


@dataclass
class TridiagSystem:
    """Tridiagonal operator rows c0 u - c2 u'' - c1 u' = rhs with boundary rows
    already folded in. Dirichlet rows carry fixed right-hand sides. The first
    solve LU-factors the matrix with partial pivoting (LAPACK dgttrf) and keeps
    the factors; each solve is then one dgttrs, the arithmetic of LAPACK's
    one-shot dgtsv in the same order."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    dirichlet_left: float | None = None
    dirichlet_right: float | None = None
    _factors: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.array(rhs, dtype=float)
        if self.dirichlet_left is not None:
            rhs[0] = self.dirichlet_left
        if self.dirichlet_right is not None:
            rhs[-1] = self.dirichlet_right
        if self._factors is None:
            *factors, info = dgttrf(self.sub[1:], self.diag, self.sup[:-1])
            if info > 0:
                raise np.linalg.LinAlgError("singular matrix")
            self._factors = factors
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")  # np.asarray_chkfinite's message
        return dgttrs(*self._factors, rhs, overwrite_b=True)[0]


def fd_system(spec: ProblemSpec, nodes: np.ndarray, c0: np.ndarray, left_bc: tuple, right_bc: tuple) -> TridiagSystem:
    """Assemble c0 u - Q u (model drift/volatility) on a uniform grid.

    Interior rows use central differences, switching the drift term to the
    upwind side wherever the cell Peclet number |mu| h / sigma^2 exceeds 1
    (inevitable near the degenerate endpoints of the interval model); this
    keeps the matrix an M-matrix. Refuses non-M-matrix assemblies.
    """
    return FDOperator(spec, nodes, (left_bc, right_bc)).system(c0)


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

    The stencil is assembled once, here, from one models._coefficients call
    with one domain check: the interior rows' off-diagonals and the ``offset``
    they add to c0 on the diagonal, and the coefficients at the end nodes. The
    interior sign check runs here too: it keeps the largest off-diagonal entry
    above _SIGN_TOL, the smallest tolerance a system can have, for each system
    to compare with its own. Each system folds its own boundary rows in, so
    every system on these nodes shares the one assembly: apply's use ``bcs``
    (fd_system's (left, right) rule pair, by default the model's truncation
    rules) and system(c0, bcs) takes any other. Each lambda's system is formed
    and checked on the first apply at that lambda, and factored by that
    apply's solve, so every further apply is one dgttrs.
    """

    def __init__(self, spec: ProblemSpec, nodes: np.ndarray, bcs: tuple[tuple, tuple] | None = None):
        self.spec = spec
        self.nodes = nodes = np.asarray(nodes, dtype=float)
        self.bcs = _auto_bcs(spec, nodes) if bcs is None else bcs
        self._h = h = nodes[1] - nodes[0]
        mu, sigma = _coefficients(spec.model, _check_rates(spec.model, nodes))
        c2 = 0.5 * sigma**2
        n = nodes.size
        sub = np.zeros(n)
        offset = np.zeros(n)
        sup = np.zeros(n)

        # interior rows
        c1 = mu[1:-1]
        d2 = c2[1:-1]
        abs_c1 = np.abs(c1)
        central = abs_c1 * h <= 2.0 * d2
        central &= d2 > 0
        diffusive = -d2 / h**2
        half, upwind = c1 / (2.0 * h), c1 / h
        sub[1:-1] = diffusive + np.where(central, half, np.where(c1 < 0, upwind, 0.0))
        sup[1:-1] = diffusive - np.where(central, half, np.where(c1 > 0, upwind, 0.0))
        offset[1:-1] = 2.0 * d2 / h**2 + np.where(central, 0.0, abs_c1 / h)

        self._sub, self._offset, self._sup = sub, offset, sup
        self._ends = (mu[0], c2[0]), (mu[-1], c2[-1])
        self._worst_offdiag = max(float(np.max(a, initial=0.0, where=a > _SIGN_TOL)) for a in (sub[1:-1], sup[1:-1]))
        self._rows = self._boundary_rows(self.bcs)
        # apply's systems share these off-diagonals, with bcs folded in
        sup[0], sub[-1] = self._rows[0][0], self._rows[1][0]
        self._alpha_r = spec.alpha * state_rate(spec.model, nodes)
        self._systems: dict[float, TridiagSystem] = {}

    def _boundary_rows(self, bcs: tuple[tuple, tuple]) -> tuple[tuple, tuple]:
        """Each end row of the (left, right) rules as (off-diagonal entry,
        diagonal offset, Dirichlet value or None)."""
        h = self._h
        rows = []
        for side, bc, (mu, c2) in zip((-1, +1), bcs, self._ends):
            kind = bc[0]
            if kind == "dirichlet":
                rows.append((0.0, 0.0, bc[1]))
            elif kind == "robin":
                rate = bc[1]
                rows.append((-2.0 * c2 / h**2, 2.0 * c2 / h**2 - side * 2.0 * c2 * rate / h - mu * rate, None))
            elif kind == "degenerate":
                # sigma vanishes here; the equation is first order with inward drift
                rows.append((-mu / h, mu / h, None) if side < 0 else (mu / h, -mu / h, None))
            elif kind == "diagonal":
                rows.append((0.0, 0.0, None))
            else:
                raise ValueError(f"unknown boundary rule {bc!r}")
        return tuple(rows)

    def system(self, c0: np.ndarray, bcs: tuple[tuple, tuple] | None = None) -> TridiagSystem:
        """The system with diagonal c0 + offset and the boundary rows of
        ``bcs`` (by default the operator's; Dirichlet rows 1); refuses
        non-M-matrix assemblies and a diagonal that is not positive."""
        sub, sup = self._sub, self._sup
        if bcs is None:
            (left_off, left_add, left), (right_off, right_add, right) = self._rows
        else:
            (left_off, left_add, left), (right_off, right_add, right) = self._boundary_rows(bcs)
            sub, sup = sub.copy(), sup.copy()
            sup[0], sub[-1] = left_off, right_off
        diag = np.asarray(c0, dtype=float) + self._offset
        diag[0] = 1.0 if left is not None else diag[0] + left_add
        diag[-1] = 1.0 if right is not None else diag[-1] + right_add
        tol = _SIGN_TOL * max(1.0, float(np.abs(diag).max()))
        if self._worst_offdiag > tol or left_off > tol or right_off > tol:
            raise ValueError("finite-difference assembly is not an M-matrix (drift-dominated stencil); refine the grid")
        if not (diag > 0).all():
            raise ValueError("finite-difference diagonal is not positive; increase lambda/gamma or shrink the window")
        return TridiagSystem(sub, diag, sup, left, right)

    def apply(self, lam: float, psi_values: np.ndarray) -> np.ndarray:
        system = self._systems.get(lam)
        if system is None:
            c0 = lam + self.spec.gamma - self._alpha_r
            if (c0 <= 0).any():
                raise ValueError(
                    "lambda + gamma - alpha r must stay positive on the window; "
                    "increase lambda or shrink the window"
                )
            system = self._systems[lam] = self.system(c0)
        return system.solve(psi_values)


def resolvent_fd(spec: ProblemSpec, psi: GridFunction, lam: float) -> GridFunction:
    """Finite-difference solve of (lambda + gamma - A) u = psi on the grid."""
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
