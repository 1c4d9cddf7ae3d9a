import dataclasses
import hashlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from consrate import (
    Constant,
    GridFunction,
    InfeasibleProblem,
    InvariantInterval,
    PathConfig,
    ProblemSpec,
    Quadrature,
    Vasicek,
    generator_apply,
    resolvent_fd,
    resolvent_mc,
    resolvent_quadrature,
    solve_linear_fk_ode,
    supersolution_N,
)
from consrate.errors import InsufficientMemory
from consrate.gaussian import exp_h_moment, fk_kernel_weight
from consrate.models import state_rate
from consrate import gaussian, parallel, resolvent
from consrate.resolvent import QuadratureOperator
from tests.conftest import child_env

VAS = Vasicek(0.03, 0.5, 0.02)
PAPER = ProblemSpec(VAS, 0.5, 1.5304, "A")
LAM1 = 0.5 + 1e-5


def quad_backend(**kw):
    args = dict(dt=0.02, t_max=10.0, dy=0.0028)
    args.update(kw)
    return Quadrature(**args)


def grid_unit(n=61, lo=0.0, hi=0.15):
    return GridFunction(lo, hi, np.ones(n))


def closed_form_unit_resolvent(spec, r, lam, t_max=12.0, n=24001):
    """Full-line resolvent of psi = 1 via the exponential-moment identity."""
    ts = np.linspace(0.0, t_max, n)
    r = np.atleast_1d(r)
    vals = np.vstack(
        [np.ones(r.size), np.exp(-(lam + spec.gamma) * ts[1:, None]) * exp_h_moment(spec, r[None, :], ts[1:, None])]
    )
    return np.trapezoid(vals, dx=ts[1] - ts[0], axis=0)


def central(nodes):
    lo = nodes[0] + 0.25 * (nodes[-1] - nodes[0])
    hi = nodes[-1] - 0.25 * (nodes[-1] - nodes[0])
    return (nodes >= lo - 1e-12) & (nodes <= hi + 1e-12)


def test_quadrature_zero_psi():
    psi = GridFunction.zeros(0.0, 0.15, 31)
    u = resolvent_quadrature(PAPER, psi, LAM1, quad_backend())
    assert np.allclose(u.values, 0.0)


def test_quadrature_matches_closed_form_centrally():
    psi = grid_unit()
    u = resolvent_quadrature(PAPER, psi, LAM1, quad_backend())
    truth = closed_form_unit_resolvent(PAPER, psi.nodes, LAM1)
    c = central(psi.nodes)
    assert np.max(np.abs(u.values[c] - truth[c]) / truth[c]) <= 2e-4


def test_quadrature_rejects_divergent_lambda():
    wild = ProblemSpec(Vasicek(0.03, 0.5, 5.0), 0.5, 0.1, "A")
    with pytest.raises(ValueError, match="growth rate"):
        resolvent_quadrature(wild, grid_unit(), 0.5, quad_backend())


def test_quadrature_rejects_non_vasicek():
    spec = ProblemSpec(Constant(0.05), 0.5, 0.1, "A")
    with pytest.raises(ValueError):
        resolvent_quadrature(spec, grid_unit(), 1.0, quad_backend())


def test_quadrature_rejects_coarse_dy():
    with pytest.raises(ValueError, match="kernel width"):
        resolvent_quadrature(PAPER, grid_unit(), LAM1, quad_backend(dy=0.02))


def test_fd_constant_model_exact():
    spec = ProblemSpec(Constant(0.05), 0.5, 0.1, "A")
    psi = grid_unit(31)
    lam = 1.0
    u = resolvent_fd(spec, psi, lam)
    assert np.allclose(u.values, 1.0 / (lam + 0.1 - 0.5 * 0.05), rtol=1e-14)


def test_fd_zero_psi():
    psi = GridFunction.zeros(0.0, 0.15, 31)
    u = resolvent_fd(PAPER, psi, 1.0)
    assert np.allclose(u.values, 0.0)


def test_fd_refuses_nonpositive_zero_order():
    psi = grid_unit(31, 0.0, 8.0)  # alpha r reaches 4 > lam + gamma
    with pytest.raises(ValueError, match="positive"):
        resolvent_fd(PAPER, psi, 0.5)


def test_fd_agrees_with_quadrature_centrally():
    psi = grid_unit(76)
    uq = resolvent_quadrature(PAPER, psi, LAM1, quad_backend(dt=0.01, dy=0.002, t_max=12.0))
    ufd = resolvent_fd(PAPER, psi, LAM1)
    c = central(psi.nodes)
    rel = np.abs(uq.values[c] - ufd.values[c]) / np.abs(ufd.values[c])
    assert np.max(rel) <= 1e-3


def test_backends_linear():
    rng = np.random.default_rng(3)
    g = GridFunction.zeros(0.0, 0.15, 41)
    p1 = g.with_values(rng.uniform(0.5, 2.0, 41))
    p2 = g.with_values(rng.uniform(0.0, 1.0, 41))
    combo = g.with_values(2.0 * p1.values - 0.5 * p2.values + 0.75)
    ones = g.with_values(np.ones(41))
    mc = PathConfig(n_paths=150, dt=0.02, t_max=4.0, seed=5)
    for solve in (
        lambda p: resolvent_quadrature(PAPER, p, 1.0, quad_backend()).values,
        lambda p: resolvent_fd(PAPER, p, 1.0).values,
        lambda p: resolvent_mc(PAPER, p, 1.0, mc)[0].values,
    ):
        lhs = solve(combo)
        rhs = 2.0 * solve(p1) - 0.5 * solve(p2) + 0.75 * solve(ones)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_backends_positive():
    rng = np.random.default_rng(11)
    g = GridFunction.zeros(0.0, 0.15, 41)
    psi = g.with_values(rng.uniform(0.0, 3.0, 41))
    uq = resolvent_quadrature(PAPER, psi, 1.0, quad_backend())
    ufd = resolvent_fd(PAPER, psi, 1.0)
    umc, _ = resolvent_mc(PAPER, psi, 1.0, PathConfig(n_paths=150, dt=0.02, t_max=4.0, seed=9))
    for u in (uq, ufd, umc):
        assert np.all(u.values >= 0)


def _identity_defect(spec, u, psi, lam, window):
    h = u.step
    d1 = (u.values[2:] - u.values[:-2]) / (2 * h)
    d2 = (u.values[2:] - 2 * u.values[1:-1] + u.values[:-2]) / h**2
    nodes = u.nodes[1:-1]
    q = generator_apply(spec.model, u.values[1:-1], d1, d2, nodes)
    a_u = q + spec.alpha * state_rate(spec.model, nodes) * u.values[1:-1]
    lhs = (lam + spec.gamma) * u.values[1:-1] - a_u
    defect = np.abs(lhs - psi.values[1:-1]) / (1.0 + np.abs(psi.values[1:-1]))
    return defect[window]


def test_resolvent_identity_all_backends():
    # padded grid; the identity is audited on the reporting interior
    g = GridFunction.zeros(-0.1, 0.25, 176)
    psi = g.with_values(1.0 + 0.5 * np.sin(20.0 * g.nodes))
    lam = 1.0
    inner = (g.nodes[1:-1] >= 0.0) & (g.nodes[1:-1] <= 0.15)
    uq = resolvent_quadrature(PAPER, psi, lam, quad_backend(dt=0.01, dy=0.002, t_max=12.0))
    assert np.max(_identity_defect(PAPER, uq, psi, lam, inner)) <= 1e-3
    ufd = resolvent_fd(PAPER, psi, lam)
    assert np.max(_identity_defect(PAPER, ufd, psi, lam, inner)) <= 1e-6
    umc, _ = resolvent_mc(PAPER, psi, lam, PathConfig(n_paths=2500, dt=0.01, t_max=6.0, seed=21))
    assert np.max(_identity_defect(PAPER, umc, psi, lam, inner)) <= 1e-3


def test_mc_rejects_models_other_than_vasicek():
    spec = ProblemSpec(Constant(0.05), 0.5, 0.1, "A")
    with pytest.raises(ValueError, match="not defined for Constant"):
        resolvent_mc(spec, grid_unit(21), 1.0, PathConfig(n_paths=100, dt=0.01, t_max=1.0, seed=0))


def test_mc_pure_discounting_limit():
    spec = ProblemSpec(VAS, 1e-10, 1.5304, "A")
    psi = grid_unit(21)
    lam = 0.5
    u, se = resolvent_mc(spec, psi, lam, PathConfig(n_paths=200, dt=0.01, t_max=12.0, seed=6))
    truth = 1.0 / (lam + spec.gamma)
    assert np.all(np.abs(u.values - truth) <= 3.0 * se.values + 2e-4 * truth)


def test_mc_zero_psi_zero_variance():
    psi = GridFunction.zeros(0.0, 0.15, 21)
    u, se = resolvent_mc(PAPER, psi, 1.0, PathConfig(n_paths=120, dt=0.02, t_max=2.0, seed=2))
    assert np.all(u.values == 0.0)
    assert np.all(se.values == 0.0)


def test_mc_matches_quadrature_at_m1():
    psi = grid_unit(61)
    u, se = resolvent_mc(PAPER, psi, LAM1, PathConfig(n_paths=800, dt=0.01, t_max=10.0, seed=17))
    truth = closed_form_unit_resolvent(PAPER, psi.nodes, LAM1)
    c = central(psi.nodes)
    z = np.abs(u.values[c] - truth[c]) / se.values[c]
    assert np.max(z) <= 3.0


def test_mc_requires_explicit_seed():
    with pytest.raises(TypeError):
        PathConfig(n_paths=200, dt=0.01, t_max=4.0)


def test_resolvent_does_not_load_the_path_engines(tmp_path):
    # in a fresh interpreter, with the package registered bare so that its
    # __init__ (which imports every module) does not run: the two
    # deterministic operators import nothing of consrate.simulate
    code = (
        "import importlib.util, sys, types\n"
        "package = types.ModuleType('consrate')\n"
        "package.__path__ = importlib.util.find_spec('consrate').submodule_search_locations\n"
        "sys.modules['consrate'] = package\n"
        "import consrate.resolvent\n"
        "print(sorted(m for m in sys.modules if m.startswith('consrate.')))"
    )
    r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert "consrate.resolvent" in r.stdout and "consrate.simulate" not in r.stdout, r.stdout


def test_solve_linear_fk_constant():
    spec = ProblemSpec(Constant(0.05), 0.5, 0.1, "A")
    g = GridFunction.zeros(0.0, 0.15, 21)
    n = solve_linear_fk_ode(spec, g)
    assert np.allclose(n.values, (1 - 0.5) / (0.1 - 0.5 * 0.05), rtol=1e-13)


def test_solve_linear_fk_interval_bounds():
    spec = ProblemSpec(InvariantInterval(0.0, 0.1, 1.0, 10.0), 0.5, 0.1, "A")
    n = solve_linear_fk_ode(spec, n_nodes=1001)
    assert np.all(n.values >= 5.0 - 1e-8)
    assert np.all(n.values <= 10.0 + 1e-8)


def test_solve_linear_fk_vasicek_matches_quadrature_N():
    g = GridFunction.zeros(-0.1, 0.25, 351)
    n_fd = solve_linear_fk_ode(PAPER, g)
    n_quad = supersolution_N(PAPER, g.nodes)
    c = central(g.nodes)
    assert np.max(np.abs(n_fd.values[c] - n_quad[c]) / n_quad[c]) <= 1e-3


def test_solve_linear_fk_infeasible():
    with pytest.raises(InfeasibleProblem):
        solve_linear_fk_ode(ProblemSpec(InvariantInterval(0.0, 0.3, 1.0, 10.0), 0.5, 0.1, "A"))


def test_window_halving_doubling_stability(monkeypatch):
    # the truncation-halfwidth choice must not move central values: the y mesh
    # reaches 6 stationary widths (0.12 here); 3 and 12 halve and double it
    psi = grid_unit(61)
    backend = quad_backend(dt=0.01, dy=0.002, t_max=12.0)
    base = resolvent_quadrature(PAPER, psi, LAM1, backend)
    monkeypatch.setattr(resolvent, "_PAD_SIGMAS", 3.0)
    half = resolvent_quadrature(PAPER, psi, LAM1, backend)
    monkeypatch.setattr(resolvent, "_PAD_SIGMAS", 12.0)
    double = resolvent_quadrature(PAPER, psi, LAM1, backend)
    c = central(psi.nodes)
    for other in (half, double):
        assert np.max(np.abs(other.values[c] - base.values[c]) / base.values[c]) < 1e-3


def reference_resolvent_matrix(op, grid, lam):
    """Sum over time cells of c_j(lambda) (w(t_j) * trap_y) @ ext, one cell at a
    time, with the extension built by an explicit loop over the y mesh."""
    y = op.y
    trap_y = np.full(y.size, y[1] - y[0])
    trap_y[[0, -1]] *= 0.5
    rate = PAPER.alpha / VAS.b
    ext = np.zeros((y.size, grid.n_nodes))
    for k, yk in enumerate(y):
        if yk < grid.r_min:
            ext[k, 0] = np.exp(rate * (abs(yk) - abs(grid.r_min)))
        elif yk > grid.r_max:
            ext[k, -1] = np.exp(rate * (abs(yk) - abs(grid.r_max)))
        else:
            pos = (yk - grid.r_min) / grid.step
            i = min(int(pos), grid.n_nodes - 2)
            ext[k, i] = 1.0 - (pos - i)
            ext[k, i + 1] = pos - i
    mat = np.zeros((grid.n_nodes, grid.n_nodes))
    for c, t in zip(op._coefficients(lam), op.times):
        w = fk_kernel_weight(PAPER, t, grid.nodes[:, None], y[None, :])
        mat += c * ((w * trap_y) @ ext)
    return mat


def test_quadrature_one_pass_matches_per_lambda_reference():
    # 500 time cells on 61 nodes: several kernel calls per block and a partial last block
    grid = grid_unit(61)
    lams = (LAM1, 1.5, 4.0)
    op = QuadratureOperator(PAPER, grid, quad_backend(), lams)
    for lam in lams:
        mat, _ = op.resolvent_matrix(lam)
        ref = reference_resolvent_matrix(op, grid, lam)
        assert np.max(np.abs(mat - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_quadrature_node_tiles_match_per_lambda_reference(monkeypatch):
    # a block size that cuts 61 nodes into tiles of 20 (the last tile holds one
    # node) and 155 time cells into blocks of 3 (the last block holds two)
    grid = grid_unit(61)
    lams = (LAM1, 1.5, 4.0)
    backend = quad_backend(t_max=3.1)
    n_y = QuadratureOperator(PAPER, grid, backend, lams[:1]).y.size
    monkeypatch.setattr(resolvent, "_BLOCK_FLOATS", len(lams) * 20 * n_y)
    op = QuadratureOperator(PAPER, grid, backend, lams)
    assert (op.node_tile, op.block_cells, op.n_steps) == (20, 3, 155)
    for lam in lams:
        mat, _ = op.resolvent_matrix(lam)
        ref = reference_resolvent_matrix(op, grid, lam)
        assert np.max(np.abs(mat - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_quadrature_bitwise_across_workers(monkeypatch):
    # seven levels and a block size that cut 61 nodes into tiles of 20 (the
    # last tile holds one node) and 155 time cells into blocks of 7 (the last
    # block holds one cell); a 20-node block is filled 4 + 3 cells at a time
    grid = grid_unit(61)
    lams = (LAM1, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)
    backend = quad_backend(t_max=3.1)
    n_y = QuadratureOperator(PAPER, grid, backend, lams[:1]).y.size
    monkeypatch.setattr(resolvent, "_BLOCK_FLOATS", len(lams) * 20 * n_y)
    monkeypatch.setattr(gaussian, "_FILL_FLOATS", 4 * 20 * n_y)
    # as many threads as asked for, even beyond the cores, switching often
    monkeypatch.setattr(resolvent, "pool_size", lambda requested, tasks: min(requested, tasks))
    interval = sys.getswitchinterval()
    ops = {}
    try:
        sys.setswitchinterval(1e-5)
        for workers in (1, 2, 3):
            ops[workers] = QuadratureOperator(PAPER, grid, dataclasses.replace(backend, workers=workers), lams)
            assert (ops[workers].node_tile, ops[workers].block_cells, ops[workers].n_steps) == (20, 7, 155)
    finally:
        sys.setswitchinterval(interval)
    if parallel._openblas_set_threads() is not None:
        assert [ops[w].workers for w in (1, 2, 3)] == [1, 2, 3]
    for lam in lams:
        mat, _ = ops[1].resolvent_matrix(lam)
        for workers in (2, 3):
            assert np.array_equal(ops[workers].resolvent_matrix(lam)[0], mat)
        ref = reference_resolvent_matrix(ops[1], grid, lam)
        assert np.max(np.abs(mat - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.skipif(parallel._openblas_set_threads() is None, reason="scipy's OpenBLAS thread setter not found")
def test_build_runs_blas_on_one_thread_and_restores_it(monkeypatch, tmp_path):
    set_threads = parallel._openblas_set_threads()

    def blas_threads():
        current = set_threads(1)
        set_threads(current)
        return current

    # the fills run in the build's worker processes, so each appends what it
    # saw to a file that the test then reads
    log = tmp_path / "blas_threads.txt"

    def recording_kernel(*args, **kwargs):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{blas_threads()}\n")
        return fk_kernel_weight(*args, **kwargs)

    grid = grid_unit(61)
    lams = (LAM1, 1.5, 4.0)
    backend = quad_backend(t_max=1.0)
    n_y = QuadratureOperator(PAPER, grid, backend, lams[:1]).y.size
    monkeypatch.setattr(resolvent, "_BLOCK_FLOATS", len(lams) * 20 * n_y)
    monkeypatch.setattr(resolvent, "fk_kernel_weight", recording_kernel)
    # two workers even on a one-core machine
    monkeypatch.setattr(resolvent, "pool_size", lambda requested, tasks: min(requested, tasks))
    original = blas_threads()
    try:
        set_threads(2)
        for workers in (1, 2):
            log.write_text("")
            op = QuadratureOperator(PAPER, grid, dataclasses.replace(backend, workers=workers), lams)
            seen = [int(line) for line in log.read_text().split()]
            assert op.workers == workers
            assert seen and set(seen) == {1}  # every fill ran while BLAS was on one thread
            assert blas_threads() == 2
    finally:
        set_threads(original)


def test_quadrature_checks_memory_before_mapping_the_stack(monkeypatch):
    # a patched budget, not a real giant allocation: 3 levels on 61 nodes make
    # an R(lambda) stack of 3 x 61^2 floats, and each task holds a 34-cell
    # kernel block of 61 nodes x 123 y points, its accumulator, its product
    # with ext, and the kernel fill's dev scratch of 8 cells and its (rows, 2)
    # dgemm operand of 8 x 61 rows
    grid = grid_unit(61)
    lams = (LAM1, 1.5, 4.0)
    backend = quad_backend(t_max=1.0, workers=1)
    width = 61 * 123
    task = 34 * width + 3 * (width + 61 * 61) + 8 * width + 2 * 8 * 61
    need = 8 * (3 * 61 * 61 + task)
    # a first build, untraced, so that its one-time costs (importlib frames,
    # the cached OpenBLAS thread setter) stay out of the traced peak
    QuadratureOperator(PAPER, grid, backend, lams)
    tracemalloc.start()
    try:
        reference = QuadratureOperator(PAPER, grid, backend, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (reference.node_tile, reference.block_cells, reference.y.size) == (61, 34, 123)
    assert peak <= 8 * task  # the stack is a shared mapping, which tracemalloc does not see

    def no_mapping(shape):
        raise AssertionError("the stack was mapped although it does not fit")

    with monkeypatch.context() as m:
        m.setattr(resolvent, "memory_budget", lambda: need - 1)
        m.setattr(resolvent, "shared_empty", no_mapping)
        sizes = r"needs 2\.8 MiB: 0\.1 MiB of R\(lambda\) and 2\.7 MiB of tile buffers for each of 1 workers"
        with pytest.raises(InsufficientMemory, match=sizes) as info:
            QuadratureOperator(PAPER, grid, backend, lams)
    assert isinstance(info.value, MemoryError)
    for budget in (None, need):  # unreadable, or just enough
        monkeypatch.setattr(resolvent, "memory_budget", lambda: budget)
        op = QuadratureOperator(PAPER, grid, backend, lams)
        assert np.array_equal(op.resolvent_matrix(1.5)[0], reference.resolvent_matrix(1.5)[0])


# R(lambda) of grid_unit(61) at three levels with t_max = 1 (one 61-node
# tile, blocks of 34 and 16 cells): sha256 of the float.hex of every entry,
# recorded when the kernel was still filled by six numpy passes; the fill
# must reproduce them bit for bit
QUAD_PINNED = {LAM1: "4245ba270c75f6d5", 1.5: "f43c24ef3fe16f24", 4.0: "8457ca3e6f4813bf"}


def test_quadrature_resolvent_pinned():
    op = QuadratureOperator(PAPER, grid_unit(61), quad_backend(t_max=1.0), tuple(QUAD_PINNED))
    got = {}
    for lam in QUAD_PINNED:
        values = op.resolvent_matrix(lam)[0].ravel()
        got[lam] = hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()[:16]
    assert got == QUAD_PINNED


# the extension's shapes (nodes, y points, rows of x, y range): the desk and
# mid node tiles (16 levels on the solver's extended window [-0.05, 0.2]), a
# paper one-node tile (65 levels), and a y mesh 8 times finer than the desk
# grid, whose interior nodes sum 16 or 17 terms each, all over the operators'
# y range, the window widened by six stationary standard deviations; and a y
# mesh whose points fall on the nodes up to rounding, so that some of E's
# entries are exactly 0 (314 stored entries against 372 on the desk mesh)
OPERATOR_Y = (-0.16999963134669252, 0.3199996313466925)
EXTENSION_SHAPES = {
    "desk": (126, 246, 16 * 66, OPERATOR_Y),
    "mid": (251, 351, 16 * 46, OPERATOR_Y),
    "paper tile": (1251, 2451, 65, OPERATOR_Y),
    "dy = h/8": (126, 1961, 16 * 8, OPERATOR_Y),
    "y on the nodes": (126, 246, 16 * 66, (-0.17, 0.32)),
}


@pytest.mark.parametrize("shape", EXTENSION_SHAPES)
def test_extension_product_is_scipy_sparse_bit_for_bit(shape):
    from scipy.sparse import csr_array

    n_r, n_y, rows, (y_lo, y_hi) = EXTENSION_SHAPES[shape]
    grid = GridFunction(-0.05, 0.2, np.ones(n_r))
    matrix = resolvent._Extension.matrix(np.linspace(y_lo, y_hi, n_y), grid, 1.0)
    rng = np.random.default_rng(n_y)
    # both signs and sixty orders of magnitude, so that every rounding shows
    x = rng.standard_normal((rows, n_y)) * np.exp(rng.uniform(-70.0, 70.0, (rows, n_y)))
    got = resolvent._Extension(matrix).times(x)
    assert got.tobytes() == (x @ csr_array(matrix)).tobytes()


def test_extension_rejects_rows_of_another_y_mesh():
    ext = resolvent._Extension(resolvent._Extension.matrix(np.linspace(-0.2, 0.4, 61), grid_unit(11), 1.0))
    with pytest.raises(ValueError, match="x has 60 columns where the y mesh has 61 points"):
        ext.times(np.ones((3, 60)))


def test_memory_budget_reads_this_machine():
    budget = parallel.memory_budget()
    assert budget is None or budget > 0


def test_quadrature_rejects_unbuilt_lambda():
    op = QuadratureOperator(PAPER, grid_unit(21), quad_backend(t_max=2.0), (LAM1, 1.0))
    op.resolvent_matrix(1.0)
    with pytest.raises(ValueError, match="not one of"):
        op.resolvent_matrix(0.7)
    with pytest.raises(ValueError, match="not one of"):
        op.apply(LAM1 + 1e-9, np.ones(21))


def test_mc_se_resolves_near_deterministic_paths():
    # the path integrals agree to ~1e-8 relative; SE is proportional to alpha here
    psi = grid_unit(21)
    backend = PathConfig(n_paths=200, dt=0.01, t_max=12.0, seed=6)
    se = {}
    for alpha in (1e-6, 2e-6):
        _, s = resolvent_mc(ProblemSpec(VAS, alpha, 1.5304, "A"), psi, 0.5, backend)
        se[alpha] = s.values
    assert np.all(se[1e-6] > 0) and np.all(se[2e-6] > 0)
    ratio = se[1e-6] / se[2e-6]
    assert np.all((ratio >= 0.49) & (ratio <= 0.51))


# the factored FD solve against scipy.linalg.solve_banded, bit for bit, on
# every boundary-rule pair the solvers assemble


def banded_oracle(system, rhs):
    rhs = np.array(rhs, dtype=float)
    if system.dirichlet_left is not None:
        rhs[0] = system.dirichlet_left
    if system.dirichlet_right is not None:
        rhs[-1] = system.dirichlet_right
    ab = np.zeros((3, system.diag.size))
    ab[0, 1:] = system.sup[:-1]
    ab[1] = system.diag
    ab[2, :-1] = system.sub[1:]
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


def problem_b_nodes(h):
    return h * np.arange(int(round(0.3 / h)) + 1)


def fd_case(family):
    """(spec, nodes, c0, (left, right)) of one boundary-rule pair in use."""
    rate = resolvent.robin_rate(PAPER)
    if family == "robin/robin":  # Problem A on a Vasicek window
        nodes = np.linspace(-0.05, 0.2, 126)
        return PAPER, nodes, 1.0 + PAPER.gamma - 0.5 * nodes, (("robin", -rate), ("robin", rate))
    if family == "dirichlet/robin":  # Problem B: K(0) = 1, Robin far out
        nodes = problem_b_nodes(0.002)
        return PAPER, nodes, 1.0 + PAPER.gamma - 0.5 * nodes, (("dirichlet", 1.0), ("robin", rate))
    if family == "dirichlet/dirichlet":  # K_L(0) = K_L(R) = 1
        nodes = problem_b_nodes(0.004)
        return PAPER, nodes, PAPER.gamma - 0.5 * nodes, (("dirichlet", 1.0), ("dirichlet", 1.0))
    if family == "degenerate":  # the interval model's N equation
        spec = ProblemSpec(InvariantInterval(0.0, 0.1, 1.0, 10.0), 0.5, 0.1, "A")
        nodes = np.linspace(0.0, 0.1, 201)
        return spec, nodes, (0.1 - 0.5 * nodes) / 0.5, (("degenerate",), ("degenerate",))
    nodes = np.linspace(0.0, 0.15, 21)  # the constant model
    return ProblemSpec(Constant(0.05), 0.5, 0.1, "A"), nodes, np.full(21, 0.6), (("diagonal",), ("diagonal",))


FD_FAMILIES = ("robin/robin", "dirichlet/robin", "dirichlet/dirichlet", "degenerate", "diagonal")


@pytest.mark.parametrize("family", FD_FAMILIES)
def test_fd_solve_is_bitwise_solve_banded(family):
    spec, nodes, c0, (left, right) = fd_case(family)
    system = resolvent.fd_system(spec, nodes, c0, left, right)
    rng = np.random.default_rng(7)
    for rhs in (np.ones(nodes.size), rng.standard_normal(nodes.size), 1e3 * rng.random(nodes.size)):
        got = system.solve(rhs)  # factored on the first rhs, reused after
        assert got.tobytes() == banded_oracle(system, rhs).tobytes()
    if family == "dirichlet/robin":
        # at h = 0.002 the entry below the Dirichlet row outweighs its unit
        # pivot, so partial pivoting swaps rows 0 and 1
        assert system._factors[-1][0] == 2


@pytest.mark.parametrize("family", FD_FAMILIES)
def test_fd_stencil_folds_any_boundary_rules(family):
    # one stencil, assembled under other rules, gives each rule pair the
    # system that fd_system assembles for that pair alone, array for array
    spec, nodes, c0, bcs = fd_case(family)
    other = (("diagonal",), ("diagonal",)) if bcs[0][0] != "diagonal" else (("dirichlet", 0.0), ("dirichlet", 0.0))
    op = resolvent.FDOperator(spec, nodes, other)
    own = resolvent.fd_system(spec, nodes, c0, *bcs)
    for got in (op.system(c0, bcs), op.system(c0, bcs)):
        assert [a.tobytes() for a in (got.sub, got.diag, got.sup)] == [a.tobytes() for a in (own.sub, own.diag, own.sup)]
        assert (got.dirichlet_left, got.dirichlet_right) == (own.dirichlet_left, own.dirichlet_right)
    assert op.system(c0).diag.tobytes() == resolvent.fd_system(spec, nodes, c0, *other).diag.tobytes()


def test_fd_drift_dominated_stencil_refused_at_every_lambda():
    # with the degenerate rule on a Vasicek window whose drift points out at
    # the left end, that row's off-diagonal is positive; the sign check runs
    # once per stencil and still refuses every lambda's system
    nodes = np.linspace(0.1, 0.2, 101)
    op = resolvent.FDOperator(PAPER, nodes, (("degenerate",), ("robin", resolvent.robin_rate(PAPER))))
    psi = np.ones(nodes.size)
    for lam in (LAM1, 1.0, 10.0, 1e3, 1e6):
        with pytest.raises(ValueError, match="not an M-matrix"):
            op.apply(lam, psi)
    c0 = 1.0 + PAPER.gamma - PAPER.alpha * nodes
    with pytest.raises(ValueError, match="not an M-matrix"):
        resolvent.fd_system(PAPER, nodes, c0, ("degenerate",), ("robin", 1.0))
    # the same stencil under the Robin rule on the left is accepted
    rate = resolvent.robin_rate(PAPER)
    assert np.all(np.isfinite(op.system(c0, (("robin", -rate), ("robin", rate))).solve(psi)))


def test_fd_singular_system_raises():
    system = resolvent.TridiagSystem(sub=np.zeros(3), diag=np.array([1.0, 0.0, 1.0]), sup=np.zeros(3))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        system.solve(np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        banded_oracle(system, np.ones(3))


def test_fd_solve_rejects_nonfinite_rhs():
    spec, nodes, c0, (left, right) = fd_case("robin/robin")
    system = resolvent.fd_system(spec, nodes, c0, left, right)
    rhs = np.ones(nodes.size)
    rhs[3] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        system.solve(rhs)


def test_fd_operator_factors_once_per_lambda(monkeypatch):
    calls = []

    def counting_dgttrf(*args, **kwargs):
        calls.append(args[1].size)
        return scipy.linalg.lapack.dgttrf(*args, **kwargs)

    monkeypatch.setattr(resolvent, "dgttrf", counting_dgttrf)
    nodes = problem_b_nodes(0.002)
    op = resolvent.FDOperator(PAPER, nodes, (("dirichlet", 1.0), ("robin", resolvent.robin_rate(PAPER))))
    psi = np.linspace(1.0, 2.0, nodes.size)
    first = op.apply(1.0, psi)
    for _ in range(9):
        assert op.apply(1.0, psi).tobytes() == first.tobytes()
    assert calls == [nodes.size]
    op.apply(1.5, psi)
    assert len(calls) == 2
    c0 = 1.0 + PAPER.gamma - PAPER.alpha * nodes
    reference = resolvent.fd_system(PAPER, nodes, c0, *op.bcs)
    assert first.tobytes() == banded_oracle(reference, psi).tobytes()
