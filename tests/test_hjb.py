import hashlib

import numpy as np
import pytest

from consrate import (
    Constant,
    FiniteDifference,
    GridFunction,
    InfeasibleProblem,
    InvariantInterval,
    MonotonicityError,
    PathConfig,
    ProblemSpec,
    Quadrature,
    SolverConfig,
    Vasicek,
    clamp_F,
    compute_KL,
    hjb_residual,
    lambda_schedule,
    optimal_consumption,
    solve_problem_a,
    solve_problem_b,
    supersolution_N,
)
from consrate import hjb, resolvent
from consrate.gaussian import fk_kernel_weight
from consrate.hjb import _iterate, central_window

VAS = Vasicek(0.03, 0.5, 0.02)
PAPER_A = ProblemSpec(VAS, 0.5, 1.5304, "A")
PAPER_B = ProblemSpec(VAS, 0.5, 1.5304, "B")


def small_quad():
    return Quadrature(dt=0.02, t_max=10.0, dy=0.0028)


def test_clamp_examples():
    assert clamp_F(65, 0.5, 0.25) == pytest.approx(0.5 / 0.25)
    assert clamp_F(65, 0.5, 0.0) == pytest.approx(65**0.5)
    xc = 65 ** (0.5 - 1.0)
    assert clamp_F(65, 0.5, xc) == pytest.approx((1 - 0.5) * 65**0.5, rel=1e-12)


def test_clamp_continuity_at_branch():
    for m in (1, 5, 65):
        xc = m ** (0.5 - 1.0)
        below = clamp_F(m, 0.5, xc * (1 - 1e-9))
        above = clamp_F(m, 0.5, xc * (1 + 1e-9))
        assert below == pytest.approx(above, rel=1e-7)


def test_clamp_lipschitz_constant():
    m, alpha = 7, 0.5
    x = np.linspace(0.0, 3.0, 4001)
    f = clamp_F(m, alpha, x)
    slopes = np.abs(np.diff(f) / np.diff(x))
    assert np.max(slopes) <= alpha * m * (1 + 1e-9)


def test_clamp_rejects_negative():
    with pytest.raises(ValueError):
        clamp_F(65, 0.5, -0.1)


def test_lambda_schedule():
    cfg = SolverConfig(grid=GridFunction.zeros(0, 0.15, 11), backend=FiniteDifference(), eps2=1e-5)
    assert lambda_schedule(PAPER_A, cfg, 65) == pytest.approx(32.50001)
    cfg3 = SolverConfig(grid=cfg.grid, backend=cfg.backend, eps2=1e-12)
    assert lambda_schedule(PAPER_A, cfg3, 1) == pytest.approx(0.5)


def test_solver_config_rejects_monte_carlo_backend():
    # the Monte Carlo resolvent (run on PathConfig's settings) is a cross-check
    # only; the solver refuses its settings up front
    mc = PathConfig(dt=0.01, t_max=1.0, n_paths=100, seed=0)
    with pytest.raises(ValueError, match="unknown backend"):
        SolverConfig(grid=GridFunction.zeros(0.0, 0.15, 11), backend=mc)


def constant_config(**kw):
    args = dict(
        grid=GridFunction.zeros(0.0, 0.15, 31),
        backend=FiniteDifference(),
        m_max=30,
        n_max=200,
        tol_n=1e-9,
        tol_m=1e-8,
        pad=0.0,
    )
    args.update(kw)
    return SolverConfig(**args)


def test_constant_oracle():
    spec = ProblemSpec(Constant(0.05), 0.5, 0.1, "A")
    sol = solve_problem_a(spec, constant_config())
    truth = ((0.1 - 0.5 * 0.05) / 0.5) ** -0.5
    assert np.max(np.abs(sol.K.values - truth)) <= 1e-4 * truth
    assert sol.K.values.max() - sol.K.values.min() <= 1e-6 * truth
    assert np.allclose(sol.policy_c.values, 0.15, rtol=1e-6)


def test_solver_gates_on_feasibility():
    with pytest.raises(InfeasibleProblem):
        solve_problem_a(ProblemSpec(Constant(0.05), 0.5, 0.02, "A"), constant_config())
    with pytest.raises(ValueError):
        solve_problem_a(PAPER_B, constant_config())  # wrong variant


def test_unknown_verdict_solvable_with_force():
    spec = ProblemSpec(VAS, 0.5, 0.05, "A")  # between gamma_1 and gamma_2
    cfg = SolverConfig(
        grid=GridFunction.zeros(0.0, 0.15, 39),
        backend=FiniteDifference(),
        m_max=8,
        n_max=40,
        pad=0.02,
    )
    with pytest.raises(InfeasibleProblem):
        solve_problem_a(spec, cfg)
    sol = solve_problem_a(spec, cfg, force=True)
    assert np.all(sol.K.values > 0)


def vasicek_config(**kw):
    args = dict(
        grid=GridFunction.zeros(0.0, 0.15, 39),
        backend=small_quad(),
        m_max=8,
        n_max=10,
        pad=0.04,
    )
    args.update(kw)
    return SolverConfig(**args)


def test_vasicek_solve_invariants():
    sol = solve_problem_a(PAPER_A, vasicek_config())
    assert sol.trace.worst_min_increment >= -1e-5
    assert sol.trace.worst_bound_violation <= 1e-5
    assert np.all(sol.K.values > 0)
    assert np.all(sol.K.values <= sol.N_pow.values + 1e-5)
    assert np.all(np.diff(sol.K.values) > 0)  # increasing in r, like N
    # first iterate of the first clamp level is strictly positive
    assert np.all(sol.iterates[0] > 0)


def test_lambda_schedule_independence():
    spec = ProblemSpec(Constant(0.05), 0.5, 0.1, "A")
    base = solve_problem_a(spec, constant_config(eps2=1e-5))
    doubled = solve_problem_a(spec, constant_config(eps2=2e-5))
    assert np.max(np.abs(base.K.values - doubled.K.values)) < 5 * 1e-8


def test_monotonicity_guard_aborts():
    # white-box: a resolvent that loses mass mid-run must trip the guard
    calls = {"n": 0}

    def shrinking_resolvent(lam, psi):
        calls["n"] += 1
        scale = 1.0 if calls["n"] < 3 else 0.2
        return scale * psi / (lam + PAPER_A.gamma)

    cfg = vasicek_config(backend=FiniteDifference())
    with pytest.raises(MonotonicityError) as err:
        _iterate(
            PAPER_A,
            cfg,
            shrinking_resolvent,
            np.zeros(11),
            slice(0, 11),
            None,
            None,
        )
    assert err.value.trace is not None and len(err.value.trace.steps) >= 3


def test_hjb_residual_constant_oracle_zero():
    spec = ProblemSpec(Constant(0.05), 0.5, 0.1, "A")
    truth = ((0.1 - 0.5 * 0.05) / 0.5) ** -0.5
    K = GridFunction(0.0, 0.15, np.full(31, truth))
    raw, rel = hjb_residual(spec, K)
    assert np.max(np.abs(raw.values)) <= 1e-12


def test_supersolution_profile_residual_sign():
    grid = GridFunction.zeros(-0.05, 0.2, 126)
    n_pow = grid.with_values(np.power(supersolution_N(PAPER_A, grid.nodes), 0.5))
    raw, rel = hjb_residual(PAPER_A, n_pow)
    assert np.max(rel.values) <= 1e-6  # supersolution: residual is nonpositive
    assert np.min(rel.values) >= -1e-3


def test_compute_KL_values():
    cfg = vasicek_config(backend=FiniteDifference(), grid=GridFunction.zeros(0.0, 0.15, 76))
    kl = compute_KL(PAPER_B, cfg)
    assert kl.values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(kl.values > 0)
    assert np.all(np.diff(kl.values) < 0)  # farther from 0 means heavier discounting


def test_compute_KL_requires_variant_b():
    with pytest.raises(ValueError):
        compute_KL(PAPER_A, vasicek_config())


def test_problem_b_pinned_and_bracketed():
    cfg = vasicek_config(backend=FiniteDifference(), n_max=40, grid=GridFunction.zeros(0.0, 0.15, 76))
    sol = solve_problem_b(PAPER_B, cfg)
    kl = compute_KL(PAPER_B, cfg)
    assert sol.K.values[0] == 1.0
    assert np.all(kl.values - sol.K.values <= 1e-5)
    assert np.all(sol.K.values - sol.N_pow.values <= 1e-5)
    assert sol.trace.worst_min_increment >= -1e-5


def test_problem_b_requires_b_spec():
    with pytest.raises(ValueError):
        solve_problem_b(PAPER_A, vasicek_config())


def test_optimal_consumption():
    K = GridFunction(0.0, 0.15, np.full(11, 1.0))
    policy = optimal_consumption(K, 0.5)
    assert np.allclose(policy.values, 1.0)
    assert optimal_consumption(K, 0.5, v=2.0, r=0.05) == pytest.approx(2.0)
    truth = ((0.1 - 0.5 * 0.05) / 0.5) ** -0.5
    Kc = GridFunction(0.0, 0.15, np.full(11, truth))
    assert optimal_consumption(Kc, 0.5, v=1.0, r=0.05) == pytest.approx(0.15)
    # linear in wealth
    assert optimal_consumption(Kc, 0.5, v=4.0, r=0.05) == pytest.approx(
        2 * optimal_consumption(Kc, 0.5, v=2.0, r=0.05)
    )
    bad = GridFunction(0.0, 0.15, np.zeros(11))
    with pytest.raises(ValueError):
        optimal_consumption(bad, 0.5)


def test_interval_model_solve():
    spec = ProblemSpec(InvariantInterval(0.0, 0.1, 1.0, 10.0), 0.5, 0.1, "A")
    cfg = SolverConfig(
        grid=GridFunction.zeros(0.0, 0.1, 201),
        backend=FiniteDifference(),
        m_max=20,
        n_max=60,
        tol_n=1e-9,
        pad=0.0,
    )
    sol = solve_problem_a(spec, cfg)
    assert sol.trace.worst_min_increment >= -1e-6
    assert np.all(sol.K.values > 0)
    assert np.all(sol.K.values <= sol.N_pow.values + 1e-6)
    raw, rel = hjb_residual(spec, sol.K)
    assert np.max(np.abs(central_window(rel).values)) <= 1e-6


def test_central_window():
    g = GridFunction(0.0, 0.15, np.arange(16.0))
    c = central_window(g)
    assert c.r_min == pytest.approx(0.04)
    assert c.r_max == pytest.approx(0.11)


def test_kernel_evaluated_once_per_time_cell(monkeypatch):
    points, ops = [], []

    def counting_kernel(*args, **kwargs):
        w = fk_kernel_weight(*args, **kwargs)
        points.append(w.size)
        return w

    class RecordedOperator(resolvent.QuadratureOperator):
        def __init__(self, *args):
            super().__init__(*args)
            ops.append(self)

    monkeypatch.setattr(resolvent, "fk_kernel_weight", counting_kernel)
    monkeypatch.setattr(hjb, "QuadratureOperator", RecordedOperator)
    cfg = SolverConfig(grid=GridFunction.zeros(0.0, 0.15, 31), backend=small_quad())
    sol = solve_problem_a(PAPER_A, cfg)
    assert len({s.m for s in sol.trace.steps}) >= 2
    (op,) = ops
    assert sum(points) == op.n_steps * op.nodes.size * op.y.size


def test_problem_a_evaluates_N_on_the_reporting_window_only(monkeypatch):
    # the iteration reads N only on the desk grid's 76-node window, so the
    # 50 pad nodes are not evaluated, and the window's N keeps its bits
    seen = []

    def recording_N(spec, r):
        seen.append(np.array(r))
        return supersolution_N(spec, r)

    monkeypatch.setattr(hjb, "supersolution_N", recording_N)
    cfg = SolverConfig(grid=GridFunction.zeros(0.0, 0.15, 76), backend=FiniteDifference())
    sol = solve_problem_a(PAPER_A, cfg)
    nodes, i0, i1 = hjb._extended_nodes(PAPER_A, cfg.grid, cfg.pad)
    (r,) = seen
    assert (r.size, nodes.size) == (76, 126)
    assert np.array_equal(r, nodes[i0 : i1 + 1])
    assert np.array_equal(sol.N_pow.values, np.power(supersolution_N(PAPER_A, nodes)[i0 : i1 + 1], 0.5))


def test_trace_records_lambda_of_each_step():
    cfg = SolverConfig(grid=GridFunction.zeros(0.0, 0.15, 31), backend=FiniteDifference())
    sol = solve_problem_a(PAPER_A, cfg)
    assert [s.lam for s in sol.trace.steps] == [lambda_schedule(PAPER_A, cfg, s.m) for s in sol.trace.steps]


# criterion 6's Problem B and K_L on its n = 76 grid at three discount rates:
# sha256 of the float.hex of every node, and K at r = 0.03, 0.09 and 0.15,
# recorded when each FD solve still went through scipy.linalg.solve_banded;
# the factored solve must reproduce them bit for bit
FD_PINNED = {
    1.25: ({"K": "9ac5209321f86699", "N_pow": "1617b719f58d78c4", "K_L": "6bb42a6cdece36c1"},
           ["0x1.472a195956798p-1", "0x1.4975f4abd767bp-1", "0x1.4ce34d6c57fddp-1"]),
    1.5304: ({"K": "1934aeca398db47e", "N_pow": "590f0191f2a557dc", "K_L": "65abc00ea4048b43"},
             ["0x1.272f23e274c7fp-1", "0x1.28d6c11148c32p-1", "0x1.2b6d1dfa81642p-1"]),
    1.75: ({"K": "2dc07c78c746d0cb", "N_pow": "37c54fd207c05ed7", "K_L": "e527f6073f757950"},
           ["0x1.13c22867c6f57p-1", "0x1.151be79683a10p-1", "0x1.174084d629db0p-1"]),
}


def hex_digest(values):
    return hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()[:16]


@pytest.mark.parametrize("gamma", sorted(FD_PINNED))
def test_problem_b_and_kl_pinned(gamma):
    cfg = SolverConfig(grid=GridFunction.zeros(0.0, 0.15, 76), backend=FiniteDifference(), m_max=16, n_max=40)
    spec = ProblemSpec(VAS, 0.5, gamma, "B")
    sol = solve_problem_b(spec, cfg)
    kl = compute_KL(spec, cfg)
    digests, k_hex = FD_PINNED[gamma]
    got = {"K": sol.K.values, "N_pow": sol.N_pow.values, "K_L": kl.values}
    assert {name: hex_digest(v) for name, v in got.items()} == digests
    assert [float(v).hex() for v in sol.K.values[[15, 45, 75]]] == k_hex


# the finest rate-stopped grid, n = 601 (h = 0.00025): the iteration runs on
# 2401 nodes and dgttrf swaps rows 0 and 1 of Ntilde's system, so N_pow(0)
# is not 1; digests as in FD_PINNED, then K at r = 0.03, 0.09 and 0.15 and
# N_pow at r = 0
FD_PINNED_601 = {
    1.25: ({"K": "4b0739bdb8837530", "N_pow": "76662e1317cff7ad", "K_L": "014feace79202c64"},
           ["0x1.472b603714895p-1", "0x1.4975f34616109p-1", "0x1.4ce34d5b67055p-1"], "0x1.00000944ca86fp+0"),
    1.5304: ({"K": "5f06c141f3f02fa5", "N_pow": "ada4573cb0e579e4", "K_L": "db60ad6b5d0c2604"},
             ["0x1.272fe08dd6310p-1", "0x1.28d6c03576caap-1", "0x1.2b6d1df55c690p-1"], "0x1.fffffffffff48p-1"),
}


@pytest.mark.parametrize("gamma", sorted(FD_PINNED_601))
def test_problem_b_and_kl_pinned_on_the_finest_grid(gamma):
    cfg = SolverConfig(grid=GridFunction.zeros(0.0, 0.15, 601), backend=FiniteDifference(), m_max=16, n_max=40)
    spec = ProblemSpec(VAS, 0.5, gamma, "B")
    sol = solve_problem_b(spec, cfg)
    kl = compute_KL(spec, cfg)
    digests, k_hex, n_pow0 = FD_PINNED_601[gamma]
    got = {"K": sol.K.values, "N_pow": sol.N_pow.values, "K_L": kl.values}
    assert {name: hex_digest(v) for name, v in got.items()} == digests
    assert [float(v).hex() for v in sol.K.values[[120, 360, 600]]] == k_hex
    assert float(sol.N_pow.values[0]).hex() == n_pow0


def test_kl_doubling_loop_runs_once_per_problem_b_case():
    # solve_problem_b and compute_KL on one spec and grid share one K_L solve;
    # compute_KL hands out a copy, so its caller cannot change the cached one
    cfg = SolverConfig(grid=GridFunction.zeros(0.0, 0.15, 76), backend=FiniteDifference(), m_max=16, n_max=40)
    hjb._kl_extended.cache_clear()
    sol = solve_problem_b(PAPER_B, cfg)
    kl = compute_KL(PAPER_B, cfg)
    info = hjb._kl_extended.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    expect = kl.values.copy()
    kl.values[:] = 0.0
    assert np.array_equal(compute_KL(PAPER_B, cfg).values, expect)
    assert np.all(sol.K.values >= expect - 1e-9)
    op, u = hjb._kl_extended(PAPER_B, 0.0, 0.15, 76, cfg.tol_n)
    assert not op.nodes.flags.writeable and not u.flags.writeable


def test_problem_b_case_assembles_two_stencils(monkeypatch):
    # K_L's doubling loop assembles one stencil per truncation (two here);
    # K_L's last solve, Ntilde and the iteration all use the second
    built = []
    init = resolvent.FDOperator.__init__

    def counting_init(self, spec, nodes, *args):
        built.append(np.asarray(nodes).size)
        init(self, spec, nodes, *args)

    monkeypatch.setattr(resolvent.FDOperator, "__init__", counting_init)
    hjb._kl_extended.cache_clear()
    cfg = SolverConfig(grid=GridFunction.zeros(0.0, 0.15, 101), backend=FiniteDifference(), m_max=16, n_max=40)
    spec = ProblemSpec(VAS, 0.5, 1.4, "B")
    sol = solve_problem_b(spec, cfg)
    kl = compute_KL(spec, cfg)
    assert built == [201, 401]
    assert sol.K.values.size == kl.values.size == 101


def test_forced_problem_b_below_gamma_1_aborts_loudly():
    # gamma = 0.02 is below gamma_1, so the iterate leaves the bracket
    # K_L <= K <= K_L + Ntilde^{1-alpha} at once; without the bracket check
    # the run would finish with an HJB residual near 1
    cfg = SolverConfig(grid=GridFunction.zeros(0.0, 0.15, 76), backend=FiniteDifference())
    with pytest.raises(MonotonicityError, match="escaped its bracketing profile") as err:
        solve_problem_b(ProblemSpec(VAS, 0.5, 0.02, "B"), cfg, force=True)
    assert err.value.trace.worst_bound_violation > 1e-5


def test_extended_nodes_stay_in_the_domain_closure():
    # r_min - k_lo h + h arange(n) can round past the domain's end (to
    # 0.20000000000000004 at n = 76, b = 0.2); Vasicek nodes keep that arithmetic bit for bit
    overshot = 0
    for b in (0.1, 0.2, 0.3, 0.7, 0.9):
        for n in range(3, 120):
            grid = GridFunction.zeros(0.0, b, n)
            spec = ProblemSpec(InvariantInterval(0.0, b, 1.0, 1.0), 0.5, 1.0, "A")
            nodes, i0, i1 = hjb._extended_nodes(spec, grid, 0.05)
            assert 0.0 <= nodes[0] and nodes[-1] <= b and (i0, i1) == (0, n - 1)
            overshot += (grid.r_min + grid.step * np.arange(n))[-1] > b
            vas, k_lo, _ = hjb._extended_nodes(PAPER_A, grid, 0.05)
            assert np.array_equal(vas, grid.r_min - k_lo * grid.step + grid.step * np.arange(vas.size))
    assert overshot  # the sweep meets the rounding it guards against
    outside = GridFunction.zeros(-0.01, 0.2, 76)  # left as it is, for the domain checks to refuse
    assert hjb._extended_nodes(spec, outside, 0.05)[0][0] == -0.01
