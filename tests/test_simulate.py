import math
import os
import tracemalloc

import numpy as np
import pytest

from consrate import simulate
from consrate import (
    Constant,
    DivergenceError,
    FiniteDifference,
    GridFunction,
    HorizonError,
    InfeasibleProblem,
    InsufficientMemory,
    InvariantInterval,
    PathConfig,
    ProblemSpec,
    Quadrature,
    SolverConfig,
    Vasicek,
    compute_KL,
    constant_rate_solution,
    estimate_J,
    estimate_KL_mc,
    ou_moments,
    sample_path,
    solve_problem_a,
    wealth_trajectory,
)
from consrate.simulate import _euler_batch, _exact_batch, _horizon_steps, _path_rngs, resolvent_mc
from tests.oracles import joint_moment_sample

VAS = Vasicek(0.03, 0.5, 0.02)
PAPER_A = ProblemSpec(VAS, 0.5, 1.5304, "A")
PAPER_B = ProblemSpec(VAS, 0.5, 1.5304, "B")
# the paper's invariant-interval example, which runs on the Euler engine
BOX_A = ProblemSpec(InvariantInterval(0.0, 0.2, 1.0, 1.0), 0.5, 1.5304, "A")


def flat_policy(level, lo=-1.0, hi=1.0):
    return GridFunction(lo, hi, np.full(5, float(level)))


def test_noiseless_path_follows_the_flow():
    m = Vasicek(0.03, 0.5, 1e-300)
    cfg = PathConfig(dt=0.01, t_max=2.0, n_paths=1, seed=1)
    path = sample_path(m, 0.05, cfg)
    mom = ou_moments(m, 0.05, path.times)
    assert np.allclose(path.r, mom.mean_r, atol=1e-12)
    assert np.allclose(path.h, mom.mean_h, atol=1e-12)


def test_path_determinism():
    cfg = PathConfig(dt=0.01, t_max=1.0, n_paths=1, seed=42)
    p1 = sample_path(VAS, 0.05, cfg)
    p2 = sample_path(VAS, 0.05, cfg)
    assert np.array_equal(p1.r, p2.r) and np.array_equal(p1.h, p2.h)
    p3 = sample_path(VAS, 0.05, PathConfig(dt=0.01, t_max=1.0, n_paths=1, seed=43))
    assert not np.array_equal(p1.r, p3.r)


@pytest.mark.parametrize("model", [BOX_A.model, Constant(0.05)], ids=["interval", "constant"])
def test_models_other_than_vasicek_run_euler_paths(model):
    # the model picks the engine: one PathConfig serves every model
    cfg = PathConfig(dt=0.01, t_max=2.0, n_paths=300, seed=42)
    r, h = _euler_batch(model, 0.05, cfg.dt, 200, _path_rngs(cfg.seed, 0, cfg.n_paths))
    path = sample_path(model, 0.05, cfg)
    assert np.array_equal(path.r, r[0]) and np.array_equal(path.h, h[0])
    spec = ProblemSpec(model, 0.5, 1.5304, "A")
    policy = GridFunction(0.0, 0.2, np.linspace(2.0, 4.0, 9))
    est = estimate_J(spec, policy, 0.05, 3.0, cfg)
    assert est.horizon == cfg.t_max  # no closed-form bound cuts Euler paths short
    times = cfg.dt * np.arange(201)
    c = policy(r)
    int_c = np.zeros_like(c)
    int_c[:, 1:] = np.cumsum(0.5 * (c[:, 1:] + c[:, :-1]) * cfg.dt, axis=1)
    integrand = np.exp(-spec.gamma * times + spec.alpha * (h - int_c)) * np.power(c, spec.alpha)
    full = 3.0**spec.alpha * float(np.mean(np.trapezoid(integrand, dx=cfg.dt, axis=1)))
    assert est.mean == pytest.approx(full, rel=1e-13)


def test_exact_moments_match_closed_form():
    s = joint_moment_sample(VAS, 0.05, 1.0, 100_000, n_steps=16, seed=9)
    mom = ou_moments(VAS, 0.05, 1.0)
    assert abs(s["mean_r"] - float(mom.mean_r)) <= 5 * s["se_mean_r"]
    assert abs(s["var_h"] - float(mom.var_h)) <= 5 * s["se_var_h"]
    assert abs(s["cov_rh"] - float(mom.cov_rh)) <= 5 * s["se_cov"]


def test_euler_agrees_with_exact_in_mean():
    n, t = 4000, 1.0
    r_ex = np.empty(n)
    r_eu = np.empty(n)
    dt = 0.005
    for engine, out in ((_exact_batch, r_ex), (_euler_batch, r_eu)):
        r, _ = engine(VAS, 0.05, dt, int(t / dt), _path_rngs(31, 0, n))
        out[:] = r[:, -1]
    se = r_ex.std(ddof=1) / math.sqrt(n)
    assert abs(r_ex.mean() - r_eu.mean()) <= 5 * se


def test_interval_paths_stay_inside():
    box = InvariantInterval(0.0, 0.1, 1.0, 10.0)
    cfg = PathConfig(dt=0.01, t_max=5.0, n_paths=1, seed=3)
    path = sample_path(box, 0.05, cfg)
    assert np.all(path.r > 0.0) and np.all(path.r < 0.1)


def test_wealth_without_consumption_grows_by_h():
    cfg = PathConfig(dt=0.01, t_max=2.0, n_paths=1, seed=5)
    path = sample_path(VAS, 0.05, cfg)
    traj = wealth_trajectory(path, flat_policy(0.0), 2.0)
    # log V is the trapezoid of r, which is the trapezoid approximation of h
    dt = np.diff(path.times)
    h_trap = np.concatenate([[0.0], np.cumsum(0.5 * (path.r[1:] + path.r[:-1]) * dt)])
    assert np.allclose(traj.V, 2.0 * np.exp(h_trap), rtol=1e-12)
    assert np.all(traj.V > 0)


def test_wealth_constant_model_oracle_exact():
    alpha, gamma, r0, v = 0.5, 0.1, 0.05, 3.0
    _, c_hat = constant_rate_solution(alpha, gamma, r0, v)
    m = Constant(r0)
    cfg = PathConfig(dt=0.01, t_max=10.0, n_paths=1, seed=7)
    path = sample_path(m, r0, cfg)
    traj = wealth_trajectory(path, flat_policy(c_hat), v)
    expect = v * np.exp((r0 - gamma) / (1 - alpha) * path.times)
    assert np.allclose(traj.V, expect, rtol=1e-12)
    assert np.allclose(traj.c, c_hat)
    assert np.allclose(traj.C, c_hat * expect, rtol=1e-12)


def test_wealth_positive_under_bounded_policies():
    cfg = PathConfig(dt=0.01, t_max=5.0, n_paths=1, seed=13)
    path = sample_path(VAS, 0.05, cfg)
    traj = wealth_trajectory(path, flat_policy(5.0), 1.0)
    assert np.min(traj.V) > 0


def test_wealth_rejects_negative_policy():
    cfg = PathConfig(dt=0.01, t_max=1.0, n_paths=1, seed=13)
    path = sample_path(VAS, 0.05, cfg)
    with pytest.raises(ValueError):
        wealth_trajectory(path, flat_policy(-0.1), 1.0)


def test_estimate_j_constant_oracle():
    spec = ProblemSpec(Constant(0.05), 0.5, 0.1, "A")
    value, c_hat = constant_rate_solution(0.5, 0.1, 0.05, 4.0)
    cfg = PathConfig(dt=0.01, t_max=300.0, n_paths=100, seed=19)
    est = estimate_J(spec, flat_policy(c_hat), 0.05, 4.0, cfg)
    # deterministic model: the only deviation is quadrature bias
    assert est.mean == pytest.approx(value, rel=1e-3)
    assert abs(est.mean - value) <= 3 * est.se + 1e-3 * value


def test_estimate_j_suboptimal_policy_is_worse():
    spec = ProblemSpec(Constant(0.05), 0.5, 0.1, "A")
    value, c_hat = constant_rate_solution(0.5, 0.1, 0.05, 4.0)
    cfg = PathConfig(dt=0.01, t_max=300.0, n_paths=100, seed=19)
    est = estimate_J(spec, flat_policy(1.5 * c_hat), 0.05, 4.0, cfg)
    assert est.mean <= value + 3 * est.se


def test_estimate_j_zero_policy():
    spec = ProblemSpec(Constant(0.05), 0.5, 0.1, "A")
    cfg = PathConfig(dt=0.01, t_max=10.0, n_paths=50, seed=19)
    est = estimate_J(spec, flat_policy(0.0), 0.05, 4.0, cfg)
    assert est.mean == 0.0


def test_estimate_j_divergence_guard():
    # an Unknown-verdict spec (gamma below gamma_1) with near-zero consumption:
    # the mean integrand grows like e^{(alpha a/b + ...) t - gamma t}
    spec = ProblemSpec(VAS, 0.5, 0.02, "A")
    cfg = PathConfig(dt=0.01, t_max=500.0, n_paths=20, seed=19)
    with pytest.raises(DivergenceError):
        estimate_J(spec, flat_policy(1e-9), 0.05, 1.0, cfg)


def test_estimate_j_bitwise_across_workers():
    # 600 paths make blocks of 256, 256 and a ragged 88
    # exact paths on Vasicek, Euler paths on the interval model
    for spec, hi in ((PAPER_A, 0.15), (BOX_A, 0.2)):
        pol = GridFunction(0.0, hi, np.linspace(2.0, 4.0, 9))
        cfgs = [PathConfig(dt=0.01, t_max=30.0, n_paths=600, seed=5, workers=w) for w in (1, 2, 3)]
        runs = [estimate_J(spec, pol, 0.05, 3.0, cfg) for cfg in cfgs]
        for est in runs[1:]:
            assert (est.mean, est.se, est.tail_bound, est.horizon) == (
                runs[0].mean, runs[0].se, runs[0].tail_bound, runs[0].horizon
            )
    # the divergence guard reads the reduced profile, which is the same on any split
    spec = ProblemSpec(VAS, 0.5, 0.02, "A")
    for w in (1, 2):
        cfg = PathConfig(dt=0.05, t_max=200.0, n_paths=600, seed=19, workers=w)
        with pytest.raises(DivergenceError):
            estimate_J(spec, flat_policy(1e-9), 0.05, 1.0, cfg)


def test_estimate_j_worker_error_reaches_the_caller(monkeypatch):
    # a block that fails: the ValueError is raised inside a worker process and
    # must reach the caller with its message, with no worker left behind
    def failing_block(spec, policy_c, r0, cfg, times, start):
        raise ValueError(f"block {start} failed")

    monkeypatch.setattr(simulate, "pool_size", lambda requested, tasks: min(requested, tasks))
    monkeypatch.setattr(simulate, "_j_block", failing_block)
    cfg = PathConfig(dt=0.01, t_max=2.0, n_paths=600, seed=3, workers=2)
    assert cfg.pool_workers == 2
    with pytest.raises(ValueError, match="block 0 failed") as info:
        estimate_J(PAPER_A, flat_policy(0.5), 0.05, 1.0, cfg)
    assert any("raised in worker process" in note for note in info.value.__notes__)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_path_config_workers():
    with pytest.raises(ValueError, match="got -1"):
        PathConfig(dt=0.01, t_max=1.0, n_paths=600, seed=1, workers=-1)
    cores = len(os.sched_getaffinity(0))
    assert PathConfig(dt=0.01, t_max=1.0, n_paths=600, seed=1).pool_workers == min(cores, 3)
    assert PathConfig(dt=0.01, t_max=1.0, n_paths=600, seed=1, workers=64).pool_workers == min(cores, 3)
    assert PathConfig(dt=0.01, t_max=1.0, n_paths=600, seed=1, workers=1).pool_workers == 1
    assert PathConfig(dt=0.01, t_max=1.0, n_paths=20, seed=1, workers=8).pool_workers == 1


def peak_path_arrays(run, n_paths, n_steps):
    """tracemalloc peak of run() in (n_paths, n_steps + 1) float arrays."""
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * n_paths * (n_steps + 1))


def test_exact_batch_peaks_at_two_path_arrays():
    # r and h: the h noise is summed into the array that becomes h, one row
    # chunk of drift at a time; a new h beside the noise made three
    _exact_batch(VAS, 0.05, 0.0025, 10, _path_rngs(1, 0, 2))  # imports and caches outside the window
    peak = peak_path_arrays(lambda: _exact_batch(VAS, 0.05, 0.0025, 2000, _path_rngs(1, 0, 256)), 256, 2000)
    assert peak < 2.3


def test_j_block_peaks_at_two_path_arrays():
    # the exact engine runs a row chunk at a time, from the normals to the
    # integrand formed in h, so the block holds a few chunks of 16 rows and
    # its generators (0.34 of a path array); the whole-block engine with the
    # integrand formed in its h made 2.09
    cfg = PathConfig(dt=0.0025, t_max=5.0, n_paths=256, seed=1)
    times = cfg.dt * np.arange(2001)
    policy = GridFunction(0.0, 0.15, np.linspace(2.0, 4.0, 76))
    simulate._j_block(PAPER_A, policy, 0.05, cfg, times[:11], 0)  # imports and caches outside the window
    peak = peak_path_arrays(lambda: simulate._j_block(PAPER_A, policy, 0.05, cfg, times, 0), 256, 2000)
    assert peak < 0.5


def test_euler_j_block_peaks_at_two_path_arrays():
    # normals drawn into r and h summed in place: the Euler block peaks at r
    # and h, like the exact one; separate normals, increments and their
    # cumulative sum made five
    cfg = PathConfig(dt=0.0025, t_max=5.0, n_paths=256, seed=1)
    times = cfg.dt * np.arange(2001)
    policy = GridFunction(0.0, 0.2, np.linspace(2.0, 4.0, 76))
    simulate._j_block(BOX_A, policy, 0.05, cfg, times[:11], 0)  # imports and caches outside the window
    peak = peak_path_arrays(lambda: simulate._j_block(BOX_A, policy, 0.05, cfg, times, 0), 256, 2000)
    assert peak < 2.3


def test_sampled_paths_check_memory_before_allocating(monkeypatch):
    cfg = PathConfig(dt=0.01, t_max=2.0, n_paths=1, seed=42)
    path = sample_path(VAS, 0.05, cfg)
    monkeypatch.setattr(simulate, "memory_budget", lambda: 2**10)
    monkeypatch.setattr(simulate, "_exact_batch", lambda *args: pytest.fail("sample_path allocated its path"))
    with pytest.raises(InsufficientMemory, match=r"the sampled path needs .* for 8 arrays of 201 time steps"):
        sample_path(VAS, 0.05, cfg)
    with pytest.raises(InsufficientMemory, match=r"the wealth trajectory needs .*; lower paths\.t_max / paths\.dt"):
        wealth_trajectory(path, flat_policy(0.5), 1.0)


def test_estimate_j_infeasible_gate():
    spec = ProblemSpec(Constant(0.5), 0.5, 0.1, "A")
    cfg = PathConfig(dt=0.01, t_max=10.0, n_paths=20, seed=19)
    with pytest.raises(InfeasibleProblem):
        estimate_J(spec, flat_policy(1.0), 0.5, 1.0, cfg)


def test_estimate_j_se_scaling():
    cfg1 = PathConfig(dt=0.01, t_max=30.0, n_paths=400, seed=23)
    cfg2 = PathConfig(dt=0.01, t_max=30.0, n_paths=800, seed=23)
    pol = flat_policy(3.0)
    e1 = estimate_J(PAPER_A, pol, 0.05, 1.0, cfg1)
    e2 = estimate_J(PAPER_A, pol, 0.05, 1.0, cfg2)
    ratio = e2.se / e1.se
    assert abs(ratio - 1.0 / math.sqrt(2.0)) <= 0.2 / math.sqrt(2.0)


def test_estimate_j_se_resolves_near_deterministic_paths():
    # the path values agree to ~1e-8 relative, so a one-pass sum of squares
    # minus mean^2 cancels to rounding noise (it gave SE = 0 at alpha = 1e-6);
    # the SE is proportional to alpha here
    cfg = PathConfig(dt=0.01, t_max=12.0, n_paths=200, seed=6)
    se = {}
    for alpha in (1e-6, 2e-6):
        se[alpha] = estimate_J(ProblemSpec(VAS, alpha, 1.5304, "A"), flat_policy(0.5), 0.05, 1.0, cfg).se
    assert se[1e-6] > 0 and se[2e-6] > 0
    assert 0.49 <= se[1e-6] / se[2e-6] <= 0.51


@pytest.fixture(scope="module")
def desk_policy():
    cfg = SolverConfig(
        grid=GridFunction.zeros(0.0, 0.15, 76), backend=Quadrature(dt=0.01, t_max=12.0, dy=0.002), m_max=16, n_max=10
    )
    return solve_problem_a(PAPER_A, cfg).policy_c


def test_desk_j_blocks_reuse_their_pages(desk_policy):
    # each exact row chunk runs in one chunk's r and h that every chunk
    # reuses: after the first block's warm-up a block takes a few hundred
    # minor page faults at most, where r and h allocated per chunk made these
    # blocks take about 7.8k each
    resource = pytest.importorskip("resource")
    cfg = PathConfig(dt=0.0025, t_max=40.0, n_paths=10_000, seed=1, workers=1)
    times = cfg.dt * np.arange(7746)
    faults = []
    for start in range(0, 1025, 256):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        simulate._j_block(PAPER_A, desk_policy, 0.05, cfg, times, start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults[1:]) < 2000, faults


def test_estimate_j_horizon_cut_keeps_j(desk_policy):
    # the bound stops the desk paths near t = 12.4; the integral past it is
    # below J's rounding unit, so J matches the full horizon t_max = 40
    cfg = PathConfig(dt=0.0025, t_max=40.0, n_paths=200, seed=17)
    est = estimate_J(PAPER_A, desk_policy, 0.05, 3.0, cfg)
    assert est.horizon < 20.0
    n_steps = int(round(cfg.t_max / cfg.dt))
    r, h = _exact_batch(VAS, 0.05, cfg.dt, n_steps, _path_rngs(cfg.seed, 0, cfg.n_paths))
    times = cfg.dt * np.arange(n_steps + 1)
    c = np.maximum(desk_policy(r), 0.0)
    dc = 0.5 * (c[:, 1:] + c[:, :-1]) * cfg.dt
    int_c = np.concatenate([np.zeros((cfg.n_paths, 1)), np.cumsum(dc, axis=1)], axis=1)
    al = PAPER_A.alpha
    integrand = np.exp(-PAPER_A.gamma * times + al * (h - int_c)) * np.power(c, al)
    full = 3.0**al * float(np.mean(np.trapezoid(integrand, dx=cfg.dt, axis=1)))
    assert est.mean == pytest.approx(full, rel=1e-13)


def test_estimate_j_full_horizon_without_a_bound():
    cfg = PathConfig(dt=0.05, t_max=30.0, n_paths=20, seed=19)
    exact = estimate_J(PAPER_A, flat_policy(3.0), 0.05, 1.0, cfg)
    assert exact.horizon < cfg.t_max
    # the interval model's Euler paths, whose h has no closed-form law
    assert estimate_J(BOX_A, flat_policy(3.0), 0.05, 1.0, cfg).horizon == cfg.t_max
    # a policy reaching zero consumption gives no decay rate to bound with
    zero = estimate_J(PAPER_A, flat_policy(0.0), 0.05, 1.0, cfg)
    assert zero.horizon == cfg.t_max and zero.mean == 0.0
    # the divergence-guard case: the bound grows, so nothing is cut
    guard = PathConfig(dt=0.01, t_max=500.0, n_paths=20, seed=19)
    assert _horizon_steps(ProblemSpec(VAS, 0.5, 0.02, "A"), flat_policy(1e-9), 0.05, guard) == 50_000


def test_kl_mc_near_boundary_absorbs_to_one():
    # started a hair above 0, almost every path is absorbed immediately with
    # weight ~ 1 (the few that escape upward would need ~1e3 time to return)
    cfg = PathConfig(dt=1e-5, t_max=1.0, n_paths=200, seed=29)
    est = estimate_KL_mc(PAPER_B, 1e-5, cfg)
    assert est.absorbed_fraction >= 0.99
    assert est.mean == pytest.approx(1.0, abs=0.02)


def test_kl_mc_decreases_in_gamma():
    cfg = PathConfig(dt=0.02, t_max=1500.0, n_paths=300, seed=37)
    lo = estimate_KL_mc(ProblemSpec(VAS, 0.5, 0.8, "B"), 0.05, cfg)
    hi = estimate_KL_mc(ProblemSpec(VAS, 0.5, 1.5304, "B"), 0.05, cfg)
    assert hi.mean <= lo.mean


def test_kl_mc_horizon_guard():
    cfg = PathConfig(dt=0.02, t_max=20.0, n_paths=100, seed=41)
    with pytest.raises(HorizonError):
        estimate_KL_mc(PAPER_B, 0.05, cfg)


def test_kl_mc_rejects_nonpositive_start():
    cfg = PathConfig(dt=0.02, t_max=100.0, n_paths=100, seed=43)
    with pytest.raises(ValueError):
        estimate_KL_mc(PAPER_B, 0.0, cfg)


def test_kl_mc_unbiased_on_a_coarse_grid():
    # at dt = 0.1 most crossings of zero fall between grid times; without the
    # Brownian-bridge weights this seed gave 5.43e-4 against 1.279e-3 (z = -5.9)
    cfg = SolverConfig(grid=GridFunction.zeros(0.0, 0.15, 76), backend=FiniteDifference(), m_max=16, n_max=40)
    fd = float(compute_KL(PAPER_B, cfg)(0.05))
    mc = estimate_KL_mc(PAPER_B, 0.05, PathConfig(dt=0.1, t_max=1500.0, n_paths=4000, seed=5))
    assert abs(mc.mean - fd) <= 3.0 * mc.se


def test_kl_mc_independent_of_chunk(monkeypatch):
    # paths carry r, h and the bridge survival product across chunk boundaries
    cfg = PathConfig(dt=0.1, t_max=1500.0, n_paths=20, seed=53)
    whole = estimate_KL_mc(PAPER_B, 0.02, cfg)
    monkeypatch.setattr(simulate, "_KL_CHUNK", 7)
    split = estimate_KL_mc(PAPER_B, 0.02, cfg)
    assert split.mean == pytest.approx(whole.mean, rel=1e-12)
    assert split.se == pytest.approx(whole.se, rel=1e-12)
    assert split.absorbed_fraction == pytest.approx(whole.absorbed_fraction, rel=1e-12)
    assert split.truncated_weight == pytest.approx(whole.truncated_weight, rel=1e-12, abs=1e-300)


def lfilter_engine(model, r0, dt, x, h):
    """The exact engine as written with scipy.signal.lfilter, the reference
    that the loop over time must match bit for bit."""
    import scipy.signal

    phi, m_r, c_h, m_h, _ = simulate._exact_step_params(model, dt)
    x = x.copy()
    x[:, 1:] += m_r
    x[:, 0] = r0
    r = scipy.signal.lfilter([1.0], [1.0, -phi], x, axis=1)
    dh = r[:, :-1] * c_h
    dh += m_h
    dh += h[:, 1:]
    h = np.zeros_like(r)
    h[:, 1:] = np.cumsum(dh, axis=1)
    return r, h


def test_exact_filter_matches_lfilter():
    rng = np.random.default_rng(8)
    dt = 0.0025
    chol = simulate._exact_step_params(VAS, dt)[4]
    for batch, columns in ((256, 4967), (1, 4097), (4096, 9)):
        for r0 in (0.05, rng.uniform(0.0, 0.1, batch)):
            noise = rng.standard_normal((batch, columns - 1, 2)) @ chol.T
            x, h = np.empty((2, batch, columns))
            x[:, 1:] = noise[:, :, 0]
            h[:, 1:] = noise[:, :, 1]
            want_r, want_h = lfilter_engine(VAS, r0, dt, x, h)
            r, h = simulate._exact_filter(VAS, r0, dt, x, h)
            assert np.array_equal(r, want_r) and np.array_equal(h, want_h)


# float.hex values of small runs of every sampler, recorded with the engine
# that called scipy.signal.lfilter and ran estimate_KL_mc and resolvent_mc
# one path at a time; the blocked engine must reproduce them bit for bit


def assert_hex(values, expected):
    assert [float(v).hex() for v in values] == expected


def test_estimate_j_pinned():
    pol = GridFunction(0.0, 0.15, np.linspace(2.0, 4.0, 9))
    est = estimate_J(PAPER_A, pol, 0.05, 3.0, PathConfig(dt=0.01, t_max=30.0, n_paths=300, seed=5, workers=1))
    assert_hex(
        (est.mean, est.se, est.tail_bound, est.horizon),
        ["0x1.fe42af5971bfcp-1", "0x1.10f3e764f4395p-13", "0x1.db555e968a645p-62", "0x1.df0a3d70a3d71p+3"],
    )


@pytest.mark.parametrize(
    "start, expected",
    [
        (0, ["0x1.269cb2bed4969p-1", "0x1.27c68050ad723p-1",
             "0x1.b8c3fb1c37123p+8", "0x1.dc986f25dfcfcp-19", "0x1.03ee0ad8e9dcap-45"]),
        (9984, ["0x1.272993694f0a4p-1", "0x1.270981679b098p-1",
                "0x1.b8c711fd2f341p+4", "0x1.e45042e3482b4p-23", "0x1.0b064792d5da3p-49"]),
    ],
)
def test_desk_j_block_pinned(desk_policy, start, expected):
    # a full desk-size exact block of 256 paths over 4967 time steps, and the
    # last, partial block of 16 paths, recorded with the engine that ran the
    # AR(1) loop over time on whole blocks: j at its first and last path and
    # the summed integrand profile at three times
    cfg = PathConfig(dt=0.0025, t_max=40.0, n_paths=10_000, seed=1)
    j, profile = simulate._j_block(PAPER_A, desk_policy, 0.05, cfg, cfg.dt * np.arange(4967), start)
    assert j.size == (256 if start == 0 else 16)
    assert_hex([j[0], j[-1], *profile[[1, 2483, 4966]]], expected)


@pytest.mark.parametrize("workers", [1, 2])
def test_euler_estimate_j_pinned_at_any_worker_count(workers, monkeypatch):
    # recorded, like test_euler_sample_path_pinned, with the Euler engine that
    # checked the domain twice per step and kept a clamp count; 300 paths make
    # blocks of 256 and 44, and both go to a worker of their own at 2
    monkeypatch.setattr(simulate, "pool_size", lambda requested, tasks: min(requested, tasks))
    cfg = PathConfig(dt=0.01, t_max=30.0, n_paths=300, seed=5, workers=workers)
    assert cfg.pool_workers == workers
    est = estimate_J(BOX_A, GridFunction(0.0, 0.2, np.linspace(2.0, 4.0, 9)), 0.05, 3.0, cfg)
    assert_hex(
        (est.mean, est.se, est.tail_bound, est.horizon),
        ["0x1.ff0c35e543670p-1", "0x1.650a5c2c727e4p-15", "0x1.41227110212d3p-128", "0x1.e000000000000p+4"],
    )


# paths from 0.05 that hit zero within a few time units, some only after t_max
FAST_HIT_B = ProblemSpec(Vasicek(0.001, 0.5, 0.05), 0.5, 1.5304, "B")


@pytest.mark.parametrize("workers", [1, 2])
def test_kl_mc_pinned_at_any_worker_count(workers, monkeypatch):
    # 300 paths make blocks of 256 and 44; both go to a worker of their own at 2
    monkeypatch.setattr(simulate, "pool_size", lambda requested, tasks: min(requested, tasks))
    cfg = PathConfig(dt=0.02, t_max=10.0, n_paths=300, seed=53, workers=workers)
    assert cfg.pool_workers == workers
    for chunk, se in ((4096, "0x1.b69e41d204197p-7"), (7, "0x1.b69e41d204196p-7")):
        monkeypatch.setattr(simulate, "_KL_CHUNK", chunk)
        est = estimate_KL_mc(FAST_HIT_B, 0.05, cfg)
        assert_hex(
            (est.mean, est.se, est.absorbed_fraction, est.truncated_weight),
            ["0x1.efca2afb4a44fp-3", se, "0x1.fbb482cf5bc76p-1", "0x1.78bd19a0d0520p-29"],
        )
    est = estimate_KL_mc(PAPER_B, 0.02, PathConfig(dt=0.1, t_max=1500.0, n_paths=300, seed=53, workers=workers))
    assert_hex(
        (est.mean, est.se, est.absorbed_fraction, est.truncated_weight),
        ["0x1.30c34831fcb4fp-5", "0x1.ef3351f908373p-8", "0x1.ffffffffb17b9p-1", "0x0.0p+0"],
    )


def test_resolvent_mc_pinned():
    psi = GridFunction(0.0, 0.15, np.ones(7))
    u, se = resolvent_mc(PAPER_A, psi, 0.5 + 1e-5, PathConfig(n_paths=300, dt=0.01, t_max=10.0, seed=17))
    assert_hex(u.values, [
        "0x1.fa4bc33861516p-2", "0x1.fc64f8f354991p-2", "0x1.feeec8762f96fp-2", "0x1.00bf43ba532cfp-1",
        "0x1.0209e4374e8c7p-1", "0x1.0357882c3bf12p-1", "0x1.04c5393bbfce0p-1",
    ])
    assert_hex(se.values, [
        "0x1.4c47bde35d648p-15", "0x1.d54cdf8cd57b2p-15", "0x1.dbbc57fd991a3p-15", "0x1.e0992078117f0p-15",
        "0x1.e5806a4948e3ep-15", "0x1.ed51ef1292706p-15", "0x1.51b071a704545p-14",
    ])


def test_resolvent_mc_bitwise_across_workers(monkeypatch):
    # 600 paths make blocks of 256, 256 and 88; the per-path integrals are
    # summed in path order whichever worker formed them
    monkeypatch.setattr(simulate, "pool_size", lambda requested, tasks: min(requested, tasks))
    psi = GridFunction(0.0, 0.15, np.linspace(1.0, 2.0, 7))
    runs = []
    for workers in (1, 2):
        cfg = PathConfig(n_paths=600, dt=0.02, t_max=6.0, seed=3, workers=workers)
        assert cfg.pool_workers == workers
        runs.append(resolvent_mc(PAPER_A, psi, 1.0, cfg))
    (u1, se1), (u2, se2) = runs
    assert np.array_equal(u1.values, u2.values) and np.array_equal(se1.values, se2.values)


def test_joint_moment_sample_pinned():
    s = joint_moment_sample(VAS, 0.05, 1.0, 1000, n_steps=8, seed=9)
    assert_hex(
        [s[key] for key in ("mean_r", "mean_h", "var_r", "var_h", "cov_rh")],
        ["0x1.ba9794bc2513bp-5", "0x1.ae0e363155429p-5", "0x1.08eb363f8c8fdp-12", "0x1.95cdbfa82f7f7p-14",
         "0x1.0a64a2dc7fe8bp-13"],
    )


def test_sample_path_pinned():
    path = sample_path(VAS, 0.05, PathConfig(dt=0.01, t_max=2.0, n_paths=1, seed=42))
    assert_hex(path.r[[1, 100, 200]], ["0x1.9efd155ab5558p-5", "0x1.a388cd6289f2ep-5", "0x1.087c5bf387741p-4"])
    assert_hex(path.h[[1, 100, 200]], ["0x1.04b86fb722a3cp-11", "0x1.a71cd51e67d25p-5", "0x1.bc3a8f66664b2p-4"])


def test_euler_sample_path_pinned():
    path = sample_path(BOX_A.model, 0.05, PathConfig(dt=0.01, t_max=2.0, n_paths=1, seed=42))
    assert_hex(path.r[[1, 100, 200]], ["0x1.9f91745bbef16p-5", "0x1.3785c4dc22554p-4", "0x1.78903515f322dp-4"])
    assert_hex(path.h[[1, 100, 200]], ["0x1.080dc706d4a76p-11", "0x1.1acc5d682140dp-4", "0x1.37a96a62cb0b7p-3"])


def test_kl_mc_checks_memory_before_allocating(monkeypatch):
    # a patched budget: 300 paths of 501 steps on two workers need 7 MiB
    def never(*args):
        raise AssertionError("estimate_KL_mc allocated although its arrays do not fit")

    monkeypatch.setattr(simulate, "pool_size", lambda requested, tasks: min(requested, tasks))
    cfg = PathConfig(dt=0.02, t_max=10.0, n_paths=300, seed=53, workers=2)
    with monkeypatch.context() as m:
        m.setattr(simulate, "memory_budget", lambda: 2**20)
        m.setattr(simulate, "fork_map", never)
        sizes = (
            r"the K_L estimate needs 7\.0 MiB: 3\.5 MiB of path arrays for each of 2 workers and "
            r"0\.0 MiB of path results, but only 1\.0 MiB is available; lower paths\.t_max / paths\.dt"
        )
        with pytest.raises(InsufficientMemory, match=sizes):
            estimate_KL_mc(FAST_HIT_B, 0.05, cfg)
    monkeypatch.setattr(simulate, "memory_budget", lambda: 2**40)
    assert estimate_KL_mc(FAST_HIT_B, 0.05, cfg).mean == float.fromhex("0x1.efca2afb4a44fp-3")


def test_resolvent_mc_checks_memory_before_allocating(monkeypatch):
    # a patched budget: 300 paths of 1001 steps on 7 nodes and two workers need 11.9 MiB
    def never(*args):
        raise AssertionError("resolvent_mc allocated although its arrays do not fit")

    monkeypatch.setattr(simulate, "pool_size", lambda requested, tasks: min(requested, tasks))
    psi = GridFunction(0.0, 0.15, np.ones(7))
    cfg = PathConfig(n_paths=300, dt=0.01, t_max=10.0, seed=17, workers=2)
    with monkeypatch.context() as m:
        m.setattr(simulate, "memory_budget", lambda: 2**20)
        m.setattr(simulate, "fork_map", never)
        sizes = (
            r"the Monte Carlo resolvent needs 11\.9 MiB: 5\.9 MiB of path arrays for each of 2 workers and "
            r"0\.0 MiB of path integrals, but only 1\.0 MiB is available; "
            r"lower paths\.t_max / paths\.dt, paths\.n_paths or --threads"
        )
        with pytest.raises(InsufficientMemory, match=sizes):
            resolvent_mc(PAPER_A, psi, 0.5 + 1e-5, cfg)
    monkeypatch.setattr(simulate, "memory_budget", lambda: 2**40)
    u, _ = resolvent_mc(PAPER_A, psi, 0.5 + 1e-5, cfg)
    assert u.values[0] == float.fromhex("0x1.fa4bc33861516p-2")


def test_estimate_j_checks_memory_before_allocating(monkeypatch):
    # a patched budget, not a real giant allocation: the desk path settings
    # need 10 MiB on two workers, before the horizon is known
    def never(*args):
        raise AssertionError("estimate_J allocated although its arrays do not fit")

    monkeypatch.setattr(simulate, "pool_size", lambda requested, tasks: min(requested, tasks))
    cfg = PathConfig(dt=0.0025, t_max=40.0, n_paths=10_000, seed=1, workers=2)
    with monkeypatch.context() as m:
        m.setattr(simulate, "memory_budget", lambda: 2**20)
        m.setattr(simulate, "_horizon_steps", never)
        m.setattr(simulate, "fork_map", never)
        sizes = (
            r"estimate needs 10\.0 MiB: 1\.2 MiB for the horizon bound, 1\.9 MiB of path arrays for "
            r"each of 2 workers and 5\.0 MiB of block results, but only 1\.0 MiB is available"
        )
        with pytest.raises(InsufficientMemory, match=sizes):
            estimate_J(PAPER_A, flat_policy(3.0), 0.05, 1.0, cfg)
    small = PathConfig(dt=0.05, t_max=30.0, n_paths=20, seed=19)
    reference = estimate_J(PAPER_A, flat_policy(3.0), 0.05, 1.0, small)
    for budget in (None, 2**40):  # unreadable, or ample
        monkeypatch.setattr(simulate, "memory_budget", lambda: budget)
        assert estimate_J(PAPER_A, flat_policy(3.0), 0.05, 1.0, small) == reference
