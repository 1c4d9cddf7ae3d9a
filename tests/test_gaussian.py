import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from consrate import (
    Constant,
    DriftedBM,
    GridFunction,
    InfeasibleProblem,
    InvariantInterval,
    ProblemSpec,
    Vasicek,
    envelope_norm,
    fk_kernel_weight,
    gamma_thresholds,
    ou_moments,
    rho_decay,
    semigroup_apply,
    supersolution_N,
    theta_growth,
)
from consrate import gaussian, hjb
from consrate.errors import InsufficientMemory
from consrate.gaussian import exp_h_moment
from tests.oracles import joint_moment_sample

VAS = Vasicek(0.03, 0.5, 0.02)
PAPER = ProblemSpec(VAS, 0.5, 1.5304, "A")


def test_moments_zero_time_degenerate():
    mom = ou_moments(VAS, 0.07, 0.0)
    assert mom.mean_r == pytest.approx(0.07)
    assert mom.var_r == 0.0
    assert mom.mean_h == 0.0
    assert mom.var_h == 0.0
    assert mom.cov_rh == 0.0


def test_moments_unit_vol_values():
    # b = 0.5, sigma = 1, t = 1, straight from the OU law
    m = Vasicek(0.03, 0.5, 1.0)
    mom = ou_moments(m, 0.0, 1.0)
    assert float(mom.var_r) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    expect_var_h = 4.0 * (1.0 - 3.0 + 4.0 * math.exp(-0.5) - math.exp(-1.0))
    assert float(mom.var_h) == pytest.approx(expect_var_h, rel=1e-12)
    # Ito-isometry covariance
    expect_cov = (1.0 / 0.5) * ((1.0 - math.exp(-0.5)) / 0.5 - (1.0 - math.exp(-1.0)) / 1.0)
    assert float(mom.cov_rh) == pytest.approx(expect_cov, rel=1e-12)


def test_moments_small_time_stable():
    mom = ou_moments(VAS, 0.05, 1e-6)
    assert float(mom.var_h) == pytest.approx(0.02**2 * (1e-6) ** 3 / 3.0, rel=1e-4)
    assert float(mom.cov_rh) == pytest.approx(0.02**2 * (1e-6) ** 2 / 2.0, rel=1e-4)
    # the covariance matrix stays positive semidefinite
    det = float(mom.var_r * mom.var_h - mom.cov_rh**2)
    assert det >= 0.0


def test_moments_negative_time_rejected():
    with pytest.raises(ValueError):
        ou_moments(VAS, 0.05, -0.1)


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_moments_match_path_oracle(t):
    # quick version of the acceptance oracle: composed exact increments
    s = joint_moment_sample(VAS, 0.05, t, 200_000, n_steps=8, seed=101)
    mom = ou_moments(VAS, 0.05, t)
    assert abs(s["mean_r"] - float(mom.mean_r)) <= 5 * s["se_mean_r"]
    assert abs(s["var_r"] - float(mom.var_r)) <= 5 * s["se_var_r"]
    assert abs(s["mean_h"] - float(mom.mean_h)) <= 5 * s["se_mean_h"]
    assert abs(s["var_h"] - float(mom.var_h)) <= 5 * s["se_var_h"]
    assert abs(s["cov_rh"] - float(mom.cov_rh)) <= 5 * s["se_cov"]


@pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 5.0])
def test_kernel_normalization(t):
    ys = np.linspace(-0.4, 0.6, 10001)
    w = fk_kernel_weight(PAPER, t, 0.05, ys)
    lhs = float(np.trapezoid(w, ys))
    rhs = float(exp_h_moment(PAPER, 0.05, t))
    assert lhs == pytest.approx(rhs, rel=1e-5)


def test_kernel_alpha_small_is_density():
    spec = ProblemSpec(VAS, 1e-12, 1.0, "A")
    ys = np.linspace(-0.3, 0.4, 8001)
    w = fk_kernel_weight(spec, 0.5, 0.05, ys)
    assert float(np.trapezoid(w, ys)) == pytest.approx(1.0, rel=1e-8)


def test_kernel_concentrates_when_vol_vanishes():
    m = Vasicek(0.03, 0.5, 1e-5)
    spec = ProblemSpec(m, 0.5, 1.5304, "A")
    mom = ou_moments(m, 0.05, 1.0)
    ys = np.linspace(0.05, 0.07, 200001)
    w = fk_kernel_weight(spec, 1.0, 0.05, ys)
    mass = float(np.trapezoid(w, ys))
    center = float(np.trapezoid(w * ys, ys)) / mass
    assert center == pytest.approx(float(mom.mean_r), abs=1e-6)
    assert mass == pytest.approx(math.exp(0.5 * float(mom.mean_h)), rel=1e-5)


def test_kernel_rejects_zero_time():
    with pytest.raises(ValueError):
        fk_kernel_weight(PAPER, 0.0, 0.05, 0.05)


def test_kernel_fills_a_given_block_with_the_same_values():
    # a (cells, nodes, y) block, the shape the quadrature operator fills in place
    t = 0.01 * np.arange(1, 8)[:, None, None]
    r = np.linspace(-0.05, 0.2, 13)[None, :, None]
    y = np.linspace(-0.1, 0.3, 101)[None, None, :]
    out = np.full((7, 13, 101), np.nan)
    assert fk_kernel_weight(PAPER, t, r, y, out) is out
    assert np.array_equal(out, fk_kernel_weight(PAPER, t, r, y))
    for j in range(7):
        assert np.array_equal(out[j : j + 1], fk_kernel_weight(PAPER, t[j : j + 1], r, y))


def six_pass_kernel(spec, t, r, y):
    """The kernel at the broadcast shape of t, r and y in one go: the moments,
    then out = exp((dev scale + shift) dev + base) with dev = y - mean_r in
    six elementwise numpy passes, each entry of each pass rounded once."""
    al = spec.alpha
    mom = ou_moments(spec.model, r, t)
    beta = mom.cov_rh / mom.var_r
    var_cond = np.maximum(mom.var_h - mom.cov_rh**2 / mom.var_r, 0.0)
    base = al * mom.mean_h + 0.5 * al**2 * var_cond - 0.5 * np.log(2.0 * math.pi * mom.var_r)
    dev = np.subtract(y, mom.mean_r)
    out = np.multiply(dev, -0.5 / mom.var_r)
    out += al * beta
    out *= dev
    out += base
    np.exp(out, out=out)
    return out


def kernel_pin(values) -> str:
    """sha256 of the float.hex of every value, first 16 hex digits."""
    return hashlib.sha256(" ".join(float(v).hex() for v in np.ravel(values)).encode()).hexdigest()[:16]


# semigroup_apply of a Gaussian bump on 111 nodes, with dy left at the grid
# step (the default) and at 0.001, and scalar-t kernels on a y mesh alone and
# on an (r, y) grid: recorded when a scalar t was still filled by six numpy
# passes, which the rank-1 fill must reproduce bit for bit
SEMIGROUP_PINNED = {
    (0.01, None): "79f2c6306ecb1070",
    (0.5, None): "1404579c22ae9a9c",
    (1.0, None): "0167a037d2864d3f",
    (5.0, None): "8cddcd0459b7b95d",
    (0.01, 0.001): "224a1ee725046472",
    (0.5, 0.001): "524d6b9b1c6b4e02",
    (1.0, 0.001): "230f583d5313d002",
    (5.0, 0.001): "f07b2f7326919932",
}
SCALAR_T_PINNED = {
    (0.01, "y"): "835021975f8032b8",
    (0.01, "r, y"): "408fecf4a5753d6f",
    (1.0, "y"): "ca1c77dcc9b15a93",
    (1.0, "r, y"): "63ff4d97b65a3c4d",
}


def test_semigroup_pinned():
    phi = GridFunction(-0.2, 0.35, np.exp(-(((np.linspace(-0.2, 0.35, 111) - 0.06) / 0.05) ** 2)))
    got = {(t, dy): kernel_pin(semigroup_apply(PAPER, phi, t, dy=dy).values) for t, dy in SEMIGROUP_PINNED}
    assert got == SEMIGROUP_PINNED


def test_scalar_t_kernel_pinned():
    ys = np.linspace(-0.2, 0.35, 2001)
    r = np.linspace(-0.05, 0.2, 26)[:, None]
    got = {}
    for t in (0.01, 1.0):
        got[t, "y"] = kernel_pin(fk_kernel_weight(PAPER, t, 0.05, ys))
        got[t, "r, y"] = kernel_pin(fk_kernel_weight(PAPER, t, r, ys[None, :]))
    assert got == SCALAR_T_PINNED
    point = fk_kernel_weight(PAPER, 0.5, 0.05, 0.06)
    assert np.ndim(point) == 0 and kernel_pin(point) == "6f93e50fcaae4f32"


def test_kernel_rejects_layouts_the_fill_cannot_take():
    t = 0.01 * np.arange(1, 4)
    r = np.linspace(0.0, 0.1, 5)
    y = np.linspace(-0.1, 0.2, 7)
    with pytest.raises(ValueError, match="t along its leading axis"):
        fk_kernel_weight(PAPER, t, 0.05, 0.06)  # t along the only axis
    with pytest.raises(ValueError, match="t along its leading axis"):
        fk_kernel_weight(PAPER, t[None, :, None], r[:, None, None], y)  # t along a middle axis
    with pytest.raises(ValueError, match="y along its last axis"):
        fk_kernel_weight(PAPER, t[:, None, None], 0.05, y[None, :, None])  # y along a middle axis
    with pytest.raises(ValueError, match="r off it"):
        fk_kernel_weight(PAPER, 0.5, r, 0.06)  # r along the last axis
    with pytest.raises(ValueError, match="r off it"):
        fk_kernel_weight(PAPER, 0.5, y, y)  # r and y paired along one axis
    block = np.empty((7, 3, 5))
    with pytest.raises(ValueError, match="C-contiguous"):
        fk_kernel_weight(PAPER, t[:, None, None], r[:, None], y, block.transpose(1, 2, 0))
    with pytest.raises(ValueError, match="C-contiguous"):
        fk_kernel_weight(PAPER, t[:, None, None], r[:, None], y, np.empty((3, 5, 8))[:, :, :7])
    with pytest.raises(ValueError, match="C-contiguous array of shape"):
        fk_kernel_weight(PAPER, t[:, None, None], r[:, None], y, np.empty((3, 35)))


# (cells, nodes, y points, _FILL_FLOATS): a one-node tile; a ragged last fill
# (7 cells filled 3 at a time); a single cell; paper-like rows of 2451 y
# points over 106 cells (filled 26 at a time, the last fill holds 2)
FILL_SHAPES = {
    "one-node tile": (30, 1, 401, None),
    "ragged last fill": (7, 5, 101, 3 * 5 * 101),
    "single cell": (1, 13, 101, None),
    "paper-like rows": (106, 1, 2451, None),
}


@pytest.mark.parametrize("name", sorted(FILL_SHAPES))
def test_rank1_fill_bitwise_equals_six_passes(monkeypatch, name):
    cells, nodes, n_y, fill = FILL_SHAPES[name]
    if fill is not None:
        monkeypatch.setattr(gaussian, "_FILL_FLOATS", fill)
    # from t = 0.001, where most of the y mesh underflows, to t = 0.106
    t = 0.001 * np.arange(1, cells + 1)[:, None, None]
    r = np.linspace(-0.05, 0.2, nodes)[None, :, None]
    y = np.linspace(-0.2, 0.35, n_y)[None, None, :]
    ref = six_pass_kernel(PAPER, t, r, y)
    assert np.array_equal(fk_kernel_weight(PAPER, t, r, y), ref)
    columns = gaussian.kernel_columns(PAPER, t)
    out = np.full(ref.shape, np.nan)
    assert fk_kernel_weight(PAPER, t, r, y, out, columns=columns) is out
    assert np.array_equal(out, ref)
    # a block's rows of columns precomputed for more cells, as the operator passes them
    longer = gaussian.kernel_columns(PAPER, 0.001 * np.arange(1, cells + 4)[:, None, None])
    assert np.array_equal(fk_kernel_weight(PAPER, t, r, y, columns=longer[:cells]), ref)


def test_kernel_rejects_columns_of_other_times():
    t = 0.01 * np.arange(1, 4)[:, None, None]
    columns = gaussian.kernel_columns(PAPER, t[1:])
    with pytest.raises(ValueError, match="other times"):
        fk_kernel_weight(PAPER, t[:2], 0.05, np.linspace(0.0, 0.1, 11), columns=columns)


def test_dger_updates_a_fortran_contiguous_operand_in_place():
    # the fill's rank-1 passes update the transpose of a C-contiguous block
    block = np.arange(12.0).reshape(3, 4)
    a = block.T
    assert scipy.linalg.blas.dger(-1.0, np.ones(4), np.array([1.0, 2.0, 3.0]), a=a, overwrite_a=True) is a
    assert np.array_equal(block, np.arange(12.0).reshape(3, 4) - np.array([[1.0], [2.0], [3.0]]))


# (rows, y points) of the fill's deviation product: single rows and columns,
# a desk fill (8 cells x 61 nodes x 123 y), paper-like rows of 2451 y points,
# and 4096 rows
DEV_SHAPES = [(1, 1), (1, 2451), (4096, 1), (3, 5), (488, 123), (26, 2451), (4096, 246)]


@pytest.mark.parametrize("rows, n_y", DEV_SHAPES)
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e150])
def test_dgemm_deviation_bitwise_equals_the_subtraction(rows, n_y, scale):
    # the fill writes dev = y - mean_r as [y; -1]^T [1, mean_r]^T into its
    # scratch: each entry 1 y + (-1) m, two exact products, rounded once
    rng = np.random.default_rng(rows * n_y)
    y = scale * rng.standard_normal(n_y)
    m = scale * rng.standard_normal(rows)
    dev = np.full((rows, n_y), np.nan)
    pair = np.ones((rows, 2))
    pair[:, 1] = m
    c = dev.T
    assert scipy.linalg.blas.dgemm(1.0, np.stack([y, -np.ones(n_y)]).T, pair.T, beta=0.0, c=c, overwrite_c=True) is c
    assert np.array_equal(dev, y[None, :] - m[:, None])


def test_semigroup_alpha_small_preserves_one():
    spec = ProblemSpec(VAS, 1e-12, 1.0, "A")
    phi = GridFunction(-0.2, 0.35, np.ones(301))
    out = semigroup_apply(spec, phi, 0.5)
    assert np.allclose(out.values, 1.0, atol=1e-7)


def test_semigroup_mgf_identity():
    phi = GridFunction(-0.2, 0.35, np.ones(301))
    out = semigroup_apply(PAPER, phi, 0.7)
    expect = exp_h_moment(PAPER, phi.nodes, 0.7)
    assert np.allclose(out.values, expect, rtol=2e-6)


def test_semigroup_growth_bound():
    phi = GridFunction(-6.0, 6.0, np.exp(-(np.linspace(-6.0, 6.0, 1201) ** 2)))
    base = envelope_norm(PAPER, phi)
    t = 1.0
    out = semigroup_apply(PAPER, phi, t, dy=0.004)
    assert envelope_norm(PAPER, out) <= 2.0 * math.exp(theta_growth(PAPER) * t) * base


def test_semigroup_composition():
    phi = GridFunction(-0.3, 0.45, np.exp(-(((np.linspace(-0.3, 0.45, 751) - 0.06) / 0.05) ** 2)))
    two_step = semigroup_apply(PAPER, semigroup_apply(PAPER, phi, 0.5), 0.5)
    one_step = semigroup_apply(PAPER, phi, 1.0)
    mid = slice(250, 500)
    scale = float(np.max(np.abs(one_step.values[mid])))
    assert np.max(np.abs(two_step.values[mid] - one_step.values[mid])) <= 2e-4 * scale


def test_semigroup_rejects_nonpositive_time():
    phi = GridFunction.zeros(0.0, 0.15, 11)
    with pytest.raises(ValueError):
        semigroup_apply(PAPER, phi, 0.0)


def test_supersolution_constant_closed_form():
    spec = ProblemSpec(Constant(0.05), 0.5, 0.1, "A")
    assert supersolution_N(spec, 0.05) == pytest.approx((1 - 0.5) / (0.1 - 0.5 * 0.05), rel=1e-14)


def test_supersolution_positive_increasing():
    r = np.linspace(-0.1, 0.3, 41)
    n = supersolution_N(PAPER, r)
    assert np.all(n > 0)
    assert np.all(np.diff(n) > 0)


def test_supersolution_tail_envelope():
    rho = rho_decay(PAPER)
    assert rho == pytest.approx(3.0, abs=1e-12)
    for r in (-0.5, 0.05, 0.4):
        bound = math.exp(0.5 * abs(r) / (0.5 * 0.5)) / rho
        assert supersolution_N(PAPER, r) <= bound


def test_supersolution_linear_ode_residual():
    grid = GridFunction.zeros(-0.05, 0.2, 251)
    n = supersolution_N(PAPER, grid.nodes)
    h = grid.step
    d1 = (n[2:] - n[:-2]) / (2 * h)
    d2 = (n[2:] - 2 * n[1:-1] + n[:-2]) / h**2
    r = grid.nodes[1:-1]
    res = 0.5 * 0.02**2 * d2 + (0.03 - 0.5 * r) * d1 + (0.5 * r - PAPER.gamma) / 0.5 * n[1:-1] + 1.0
    assert np.max(np.abs(res) / (1.0 + np.abs(n[1:-1]))) <= 1e-3


def test_supersolution_interval_bounds():
    spec = ProblemSpec(InvariantInterval(0.0, 0.1, 1.0, 10.0), 0.5, 0.1, "A")
    n = supersolution_N(spec, np.linspace(0.002, 0.098, 25))
    assert np.all(n >= 5.0 - 1e-6)
    assert np.all(n <= 10.0 + 1e-6)


def test_supersolution_peak_memory_on_mid_nodes():
    # the 251 nodes of the mid solve (grid.n=151 padded by 0.05 each side):
    # the time integral streams through sub-blocks of about 2**15 values, so
    # no (chunk, nodes) array of 4097 time steps is ever held
    nodes = GridFunction.zeros(-0.05, 0.2, 251).nodes
    tracemalloc.start()
    try:
        supersolution_N(PAPER, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# N on the desk, mid and paper solves' padded grids (126, 251 and 1251 nodes
# on [-0.05, 0.2]), at one scalar r, and at two gammas whose loops run 24 and
# 202 chunks: recorded when each chunk was integrated by one np.trapezoid call
# over 4097 time steps, which the streamed sub-blocks must reproduce bit for bit
N_PINNED = {
    (126, 1.5304): "a2ac7e607ea8a554",
    (251, 1.5304): "63d2d43e0b8a02b1",
    (1251, 1.5304): "2c79e91f67345995",
    (None, 1.5304): "e1fd360ff9be1aca",
    (251, 0.2): "0f3c1be54c8a589b",
    (26, 0.05): "906f813989f28c26",
}


def test_supersolution_pinned():
    got = {}
    for n, gamma in N_PINNED:
        r = 0.05 if n is None else GridFunction.zeros(-0.05, 0.2, n).nodes
        value = supersolution_N(ProblemSpec(VAS, 0.5, gamma, "A"), r)
        assert isinstance(value, float) == (n is None)
        got[n, gamma] = kernel_pin(value)
    assert got == N_PINNED


# N on the node sets a solve hands it: the desk solve's 76-node reporting
# window, its 126 padded nodes, and the mid solve's 151-node window, each
# taken from hjb._extended_nodes as solve_problem_a takes them; recorded when
# N was still evaluated on every padded node
N_WINDOW_PINNED = {
    (76, "window"): "9239dbdfe78bf6bd",
    (76, "padded"): "a2ac7e607ea8a554",
    (151, "window"): "579f788f8106118e",
}


def test_supersolution_pinned_on_the_solve_node_sets():
    got = {}
    for n, part in N_WINDOW_PINNED:
        nodes, i0, i1 = hjb._extended_nodes(PAPER, GridFunction.zeros(0.0, 0.15, n), 0.05)
        got[n, part] = kernel_pin(supersolution_N(PAPER, nodes[i0 : i1 + 1] if part == "window" else nodes))
    assert got == N_WINDOW_PINNED


def test_supersolution_infeasible_raises():
    with pytest.raises(InfeasibleProblem):
        supersolution_N(ProblemSpec(VAS, 0.5, 0.02, "A"), 0.05)  # gamma below gamma_1
    with pytest.raises(InfeasibleProblem):
        supersolution_N(ProblemSpec(DriftedBM(0.01, 0.1), 0.5, 1.0, "A"), 0.0)
    with pytest.raises(InfeasibleProblem):
        supersolution_N(ProblemSpec(Constant(0.05), 0.5, 0.02, "A"), 0.05)


def test_gamma_thresholds_paper_values():
    g1, g2 = gamma_thresholds(PAPER)
    assert g1 == pytest.approx(0.0308, abs=1e-12)
    expect_g2 = 0.03 + 0.0003 / (2.0 * math.sqrt(0.5) * 0.25) + 0.03
    assert g2 == pytest.approx(expect_g2, abs=1e-15)


def test_gamma_thresholds_vanishing_vol_limit():
    spec = ProblemSpec(Vasicek(0.03, 0.5, 1e-12), 0.5, 1.0, "A")
    g1, g2 = gamma_thresholds(spec)
    assert g1 == pytest.approx(0.03, abs=1e-9)
    assert g2 == pytest.approx(0.03, abs=1e-9)


def test_supersolution_checks_memory_before_its_loop(monkeypatch):
    # a patched budget, not a real giant allocation; the sizing must cover
    # what a sub-block really holds on the mid solve's 251 nodes
    nodes = GridFunction.zeros(-0.05, 0.2, 251).nodes
    tracemalloc.start()
    try:
        reference = supersolution_N(PAPER, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = 8 * 131 * (4 * 251 + 8)
    assert peak <= need
    monkeypatch.setattr(gaussian, "_n_integrand", None)  # the loop must not start
    monkeypatch.setattr(gaussian, "memory_budget", lambda: need - 1)
    sizes = (
        r"needs 1\.0 MiB for 4 sub-block arrays of 131 time steps x 251 nodes and their time columns, but only 1\.0 MiB"
    )
    with pytest.raises(InsufficientMemory, match=sizes) as info:
        supersolution_N(PAPER, nodes)
    assert isinstance(info.value, MemoryError)
    monkeypatch.undo()
    for budget in (None, need):  # unreadable, or just enough
        monkeypatch.setattr(gaussian, "memory_budget", lambda: budget)
        assert np.array_equal(supersolution_N(PAPER, nodes), reference)
