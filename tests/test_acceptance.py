"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines
and timings. The reference configuration is the desk profile on the solve
window (0, 0.15) with the parameters a=0.03, b=0.5, sigma=0.02, alpha=0.5,
gamma=1.5304.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.integrate

from tests.conftest import child_env
from consrate import (
    Constant,
    DriftedBM,
    Feasibility,
    FiniteDifference,
    GeometricBM,
    GridFunction,
    PathConfig,
    ProblemSpec,
    Quadrature,
    SolverConfig,
    Vasicek,
    bond_loading,
    bonds_hjb_residual,
    beta_profiles,
    classify,
    compute_KL,
    envelope_norm,
    estimate_J,
    estimate_KL_mc,
    eta_from_beta,
    gamma_thresholds,
    hjb_residual,
    ou_moments,
    resolvent_fd,
    resolvent_mc,
    resolvent_quadrature,
    semigroup_apply,
    solve_problem_a,
    solve_problem_b,
    supersolution_N,
    theta_growth,
)
from consrate.cli import read_csv
from consrate.hjb import central_window
from tests.oracles import joint_moment_sample

MODEL = Vasicek(0.03, 0.5, 0.02)
SPEC_A = ProblemSpec(MODEL, 0.5, 1.5304, "A")
SPEC_B = ProblemSpec(MODEL, 0.5, 1.5304, "B")
DESK_GRID = GridFunction.zeros(0.0, 0.15, 76)
DESK_BACKEND = Quadrature(dt=0.01, t_max=12.0, dy=0.002)


def report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def desk_solution():
    cfg = SolverConfig(grid=DESK_GRID, backend=DESK_BACKEND, m_max=16, n_max=10)
    t0 = time.perf_counter()
    sol = solve_problem_a(SPEC_A, cfg)
    return sol, time.perf_counter() - t0


def test_criterion_1_constant_rate_oracle():
    spec = ProblemSpec(Constant(0.05), 0.5, 0.1, "A")
    cfg = SolverConfig(
        grid=GridFunction.zeros(0.0, 0.15, 31),
        backend=FiniteDifference(),
        m_max=30,
        n_max=200,
        tol_n=1e-9,
        tol_m=1e-8,
        pad=0.0,
    )
    t0 = time.perf_counter()
    sol = solve_problem_a(spec, cfg)
    elapsed = time.perf_counter() - t0
    truth = (0.1 - 0.5 * 0.05) ** -0.5 * (1 - 0.5) ** 0.5  # ((gamma-alpha r)/(1-alpha))^(alpha-1)
    rel = float(np.max(np.abs(sol.K.values - truth))) / truth
    ok = rel <= 1e-4 and elapsed < 5.0
    report(1, ok, f"constant-rate K rel err {rel:.2e} (tol 1e-4), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_vasicek_shape(desk_solution):
    sol, elapsed = desk_solution
    min_inc = sol.trace.worst_min_increment
    viol = sol.trace.worst_bound_violation
    dom = float(np.max(sol.K.values - sol.N_pow.values))
    _, rel = hjb_residual(SPEC_A, sol.K)
    sup_res = float(np.max(np.abs(central_window(rel).values)))
    ok = min_inc >= -1e-5 and viol <= 1e-5 and dom <= 1e-5 and sup_res <= 1e-3 and elapsed < 300.0
    report(
        2,
        ok,
        f"monotone (min inc {min_inc:.1e} >= -1e-5), dominated (max K - N^(1-a) {dom:.1e} <= 1e-5), "
        f"central HJB residual {sup_res:.1e} <= 1e-3, runtime {elapsed:.1f}s (< 300s)",
    )


def test_criterion_3_feasibility_thresholds():
    g1, g2 = gamma_thresholds(SPEC_A)
    g2_expect = 0.03 + 0.0003 / (2.0 * math.sqrt(0.5) * 0.25) + 0.03
    bm = classify(ProblemSpec(DriftedBM(0.01, 0.2), 0.5, 3.0, "A")).verdict
    gbm = classify(ProblemSpec(GeometricBM(0.01, 0.2), 0.5, 3.0, "A")).verdict
    ok = (
        abs(g1 - 0.0308) < 1e-9
        and abs(g2 - g2_expect) < 1e-9
        and bm is Feasibility.INFINITE
        and gbm is Feasibility.INFINITE
    )
    report(
        3,
        ok,
        f"gamma_1={g1:.10f} (0.0308), gamma_2={g2:.10f} ({g2_expect:.10f}), "
        f"BM={bm.value}, GBM={gbm.value}",
    )


def test_criterion_4_gaussian_moment_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for t in (0.1, 1.0, 5.0):
        s = joint_moment_sample(MODEL, 0.05, t, 1_000_000, n_steps=8, seed=42)
        mom = ou_moments(MODEL, 0.05, t)
        zs = [
            abs(s["mean_r"] - float(mom.mean_r)) / s["se_mean_r"],
            abs(s["var_r"] - float(mom.var_r)) / s["se_var_r"],
            abs(s["mean_h"] - float(mom.mean_h)) / s["se_mean_h"],
            abs(s["var_h"] - float(mom.var_h)) / s["se_var_h"],
            abs(s["cov_rh"] - float(mom.cov_rh)) / s["se_cov"],
        ]
        worst = max(worst, max(zs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 4.0 and elapsed < 60.0
    report(4, ok, f"5 moments x 3 horizons, worst |z| {worst:.2f} (<= 4), runtime {elapsed:.1f}s (< 60s)")


def test_criterion_5_pde_mc_consistency(desk_solution):
    sol, _ = desk_solution
    t0 = time.perf_counter()
    cfg = PathConfig(dt=0.0025, t_max=40.0, n_paths=10_000, seed=5)
    est = estimate_J(SPEC_A, sol.policy_c, 0.05, 3.0, cfg)
    elapsed = time.perf_counter() - t0
    pde = float(sol.K(0.05)) * 3.0**0.5
    z = (est.mean - pde) / est.se
    ok = abs(z) <= 3.0 and elapsed < 120.0
    report(
        5,
        ok,
        f"J={est.mean:.6f} (SE {est.se:.1e}) vs K(r0) v^alpha={pde:.6f}, |z|={abs(z):.2f} (<= 3), "
        f"runtime {elapsed:.1f}s (< 120s)",
    )


def test_criterion_6_problem_b_bracketing():
    cfg = SolverConfig(grid=DESK_GRID, backend=FiniteDifference(), m_max=16, n_max=40)
    sol = solve_problem_b(SPEC_B, cfg)
    kl = compute_KL(SPEC_B, cfg)
    pinned = sol.K.values[0] == 1.0
    low = float(np.max(kl.values - sol.K.values))
    high = float(np.max(sol.K.values - sol.N_pow.values))
    mc = estimate_KL_mc(SPEC_B, 0.05, PathConfig(dt=0.02, t_max=1500.0, n_paths=4000, seed=11))
    fd_val = float(kl(0.05))
    z = (mc.mean - fd_val) / mc.se
    ok = pinned and low <= 1e-5 and high <= 1e-5 and abs(z) <= 3.0
    report(
        6,
        ok,
        f"K(0)={sol.K.values[0]} (pinned), bracket slack low {low:.1e} / high {high:.1e} (<= 1e-5), "
        f"K_L(0.05) FD {fd_val:.3e} vs MC {mc.mean:.3e}, |z|={abs(z):.2f} (<= 3)",
    )


def test_criterion_7_portfolio_identities():
    spec_c = ProblemSpec(MODEL, 0.5, 1.5304, "C")
    grid = GridFunction.zeros(0.0, 0.15, 151)
    n = supersolution_N(spec_c, grid.nodes)
    K = grid.with_values(np.power(n, 0.5))
    _, rel = bonds_hjb_residual(spec_c, K)
    sup_res = float(np.max(np.abs(central_window(rel).values)))
    from_k, from_n = beta_profiles(spec_c, grid)
    beta_gap = float(np.max(np.abs(from_k.values - from_n.values)))
    beta_tol = 1e-6 + 100.0 * grid.step**2
    upsilon = eta_from_beta(0.0, 1.0, 0.5).upsilon
    oracle, _ = scipy.integrate.quad(
        lambda s: math.exp(-s) * bond_loading(0.5, s), 0.0, 60.0, epsabs=1e-13, epsrel=1e-13
    )
    ups_err = abs(upsilon + oracle)
    ok = sup_res <= 1e-3 and beta_gap <= beta_tol and ups_err <= 1e-9
    report(
        7,
        ok,
        f"bond-HJB residual {sup_res:.1e} (<= 1e-3), beta formula gap {beta_gap:.1e} (<= {beta_tol:.1e}), "
        f"Upsilon err vs quadrature oracle {ups_err:.1e} (<= 1e-9)",
    )


def test_criterion_8_semigroup_growth_bound():
    phi = GridFunction.from_callable(-6.0, 6.0, 2401, lambda r: np.exp(-(r**2)))
    base = envelope_norm(SPEC_A, phi)
    theta = theta_growth(SPEC_A)
    checks = []
    for t in (0.5, 1.0, 2.0):
        lhs = envelope_norm(SPEC_A, semigroup_apply(SPEC_A, phi, t, dy=0.004))
        rhs = 2.0 * math.exp(theta * t) * base
        checks.append((t, lhs, rhs, lhs <= rhs))
    ok = all(c[3] for c in checks)
    detail = ", ".join(f"t={c[0]}: {c[1]:.4f} <= {c[2]:.4f}" for c in checks)
    report(8, ok, f"weighted norm bound holds: {detail}")


def test_criterion_9_backend_agreement():
    lam = 0.5 + 1e-5  # lambda_1 of the schedule
    psi = DESK_GRID.with_values(np.ones(DESK_GRID.n_nodes))
    uq = resolvent_quadrature(SPEC_A, psi, lam, DESK_BACKEND)
    ufd = resolvent_fd(SPEC_A, psi, lam)
    umc, se = resolvent_mc(SPEC_A, psi, lam, PathConfig(n_paths=2000, dt=0.01, t_max=10.0, seed=17))
    nodes = psi.nodes
    c = (nodes >= 0.0375 - 1e-12) & (nodes <= 0.1125 + 1e-12)
    rel = float(np.max(np.abs(uq.values[c] - ufd.values[c]) / np.abs(ufd.values[c])))
    z_q = float(np.max(np.abs(umc.values[c] - uq.values[c]) / se.values[c]))
    z_f = float(np.max(np.abs(umc.values[c] - ufd.values[c]) / se.values[c]))
    ok = rel <= 1e-3 and min(z_q, z_f) <= 3.0
    report(
        9,
        ok,
        f"quad vs FD rel {rel:.1e} (<= 1e-3), MC max |z| vs quad {z_q:.2f} / vs FD {z_f:.2f} (<= 3)",
    )


def test_criterion_10_determinism(tmp_path):
    fast = ["--set", "grid.n=39", "--set", "quad.dt=0.02", "--set", "quad.dy=0.0028"]
    sim = ["--set", "paths.dt=0.01", "--set", "paths.t_max=5", "--set", "paths.n_paths=50"]
    for out, threads in (("d1", "1"), ("d2", "8")):
        for cmd, extra in (("solve", fast), ("simulate", sim), ("residual", [])):
            proc = subprocess.run(
                [sys.executable, "-m", "consrate", "--output", out, "--threads", threads, "--seed", "99", *extra, cmd],
                cwd=tmp_path,
                env=child_env(),
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
    same = all(
        (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()
        for name in ("solution.csv", "trajectory.csv", "residual.csv")
    )
    t1 = read_csv(tmp_path / "d1" / "trace.csv")
    t2 = read_csv(tmp_path / "d2" / "trace.csv")
    trace_same = all(
        np.array_equal(t1[c], t2[c])
        for c in ("m", "n", "sup_increment", "min_increment", "max_bound_violation")
    )
    ok = same and trace_same
    report(
        10,
        ok,
        "solution/trajectory/residual CSVs byte-identical across --threads 1 vs 8 "
        "(trace identical up to wall-time column)",
    )
