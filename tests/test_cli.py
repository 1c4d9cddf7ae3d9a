import os
import subprocess
import sys

import numpy as np
import pytest

from tests.conftest import child_env
from consrate import cli, gaussian, resolvent, simulate
from consrate.cli import DEFAULTS, read_csv, resolve_config

FAST_SOLVE = [
    "--set",
    "grid.n=39",
    "--set",
    "quad.dt=0.02",
    "--set",
    "quad.dy=0.0028",
]


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "consrate", *args],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
    )


def test_feasibility_exit_codes(tmp_path):
    assert run_cli("--output", "o", "feasibility", cwd=tmp_path).returncode == 0
    r = run_cli("--output", "o", "--set", "model.kind=bm", "feasibility", cwd=tmp_path)
    assert r.returncode == 2
    assert "t^3" in r.stdout
    r = run_cli("--output", "o", "--set", "model.kind=gbm", "--set", "model.mu=0.01", "feasibility", cwd=tmp_path)
    assert r.returncode == 2
    r = run_cli("--output", "o", "--set", "problem.gamma=0.05", "feasibility", cwd=tmp_path)
    assert r.returncode == 3
    r = run_cli(
        "--output", "o", "--set", "model.kind=constant", "--set", "problem.gamma=0.025", "feasibility",
        cwd=tmp_path,
    )
    assert r.returncode == 2  # boundary gamma = alpha r


def test_feasibility_prints_thresholds(tmp_path):
    r = run_cli("--output", "o", "feasibility", cwd=tmp_path)
    assert "gamma_1=0.0308" in r.stdout
    assert "gamma_2=0.060848528" in r.stdout
    record = (tmp_path / "o" / "feasibility.txt").read_text()
    assert "verdict=finite" in record


def test_interval_boundary_verdict_agrees_between_commands(tmp_path):
    # gamma = alpha b = 0.27 up to rounding: the gate and the supersolution
    # must take the same side of the rule
    interval = [
        "--set", "model.kind=interval", "--set", "model.a=0", "--set", "model.b=0.9",
        "--set", "model.kappa=1", "--set", "model.sigma=1",
        "--set", "problem.alpha=0.3", "--set", "problem.gamma=0.27",
    ]
    feas = run_cli("--output", "o", *interval, "feasibility", cwd=tmp_path)
    solve = run_cli("--output", "o", *interval, "solve-c", cwd=tmp_path)
    assert feas.returncode == solve.returncode == 3, feas.stdout + solve.stdout


def test_solve_writes_artifacts_and_invariants(tmp_path):
    r = run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    out = tmp_path / "o"
    data = read_csv(out / "solution.csv")
    assert set(data) == {"r", "K", "N_pow", "c_hat"}
    assert np.all(data["K"] > 0)
    assert np.all(data["K"] <= data["N_pow"] + 1e-5)
    assert np.allclose(data["c_hat"], data["K"] ** -2.0, rtol=1e-12)
    trace = read_csv(out / "trace.csv")
    assert np.min(trace["min_increment"]) >= -1e-5
    assert (out / "figure1.svg").read_text().startswith("<svg")
    assert (out / "run_record.txt").exists()


def test_solve_gate_and_force(tmp_path):
    r = run_cli("--output", "o", "--set", "problem.gamma=0.05", *FAST_SOLVE, "solve", cwd=tmp_path)
    assert r.returncode == 3
    assert not (tmp_path / "o" / "solution.csv").exists()
    r = run_cli("--output", "o", "--force", "--set", "problem.gamma=0.05", *FAST_SOLVE, "solve", cwd=tmp_path)
    assert r.returncode == 0


def test_solve_constant_column(tmp_path):
    r = run_cli(
        "--output", "o",
        "--set", "model.kind=constant", "--set", "problem.gamma=0.1",
        "--set", "solver.backend=fd", "--set", "solver.n_max=200", "--set", "solver.tol_n=1e-9",
        "solve",
        cwd=tmp_path,
    )
    assert r.returncode == 0, r.stdout
    data = read_csv(tmp_path / "o" / "solution.csv")
    truth = 0.15**-0.5
    assert np.max(np.abs(data["K"] - truth)) <= 1e-6 * truth


def test_solve_b_first_row_pinned(tmp_path):
    r = run_cli("--output", "o", "--set", "grid.n=39", "--set", "solver.backend=fd", "solve-b", cwd=tmp_path)
    assert r.returncode == 0, r.stdout
    data = read_csv(tmp_path / "o" / "solution.csv")
    assert data["r"][0] == 0.0
    assert data["K"][0] == 1.0
    # Problem B always runs the FD resolvent, whatever solver.backend says
    assert "\nvariant=B\nresolvent=fd\n" in (tmp_path / "o" / "run_record.txt").read_text()


def test_solve_c_profile(tmp_path):
    r = run_cli("--output", "o", "--set", "grid.n=39", "solve-c", cwd=tmp_path)
    assert r.returncode == 0, r.stdout
    assert "upsilon=-0.666666666667" in r.stdout
    assert "\nvariant=C\nresolvent=none\n" in (tmp_path / "o" / "run_record.txt").read_text()
    data = read_csv(tmp_path / "o" / "solution.csv")
    assert np.allclose(data["K"], data["N_pow"])


def test_simulate_requires_solution(tmp_path):
    assert run_cli("--output", "o", "simulate", cwd=tmp_path).returncode == 5


def test_estimate_requires_solution(tmp_path):
    assert run_cli("--output", "o", "estimate", cwd=tmp_path).returncode == 5


def test_simulate_and_feedback_identity(tmp_path):
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    r = run_cli(
        "--output", "o",
        "--set", "paths.dt=0.01", "--set", "paths.t_max=10", "--set", "paths.n_paths=50",
        "simulate",
        cwd=tmp_path,
    )
    assert r.returncode == 0, r.stdout
    out = tmp_path / "o"
    traj = read_csv(out / "trajectory.csv")
    sol = read_csv(out / "solution.csv")
    assert np.all(traj["V"] > 0)
    # the relative consumption column is the feedback policy evaluated on r
    expect_c = np.interp(traj["r"], sol["r"], sol["c_hat"])
    assert np.allclose(traj["c"], expect_c, rtol=1e-10)
    assert np.allclose(traj["C"], traj["c"] * traj["V"], rtol=1e-10)
    assert (out / "figure2.svg").exists()


def test_estimate_z_gate(tmp_path):
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    r = run_cli(
        "--output", "o",
        "--set", "paths.dt=0.01", "--set", "paths.t_max=30", "--set", "paths.n_paths=500",
        "estimate",
        cwd=tmp_path,
    )
    assert r.returncode == 0, r.stdout
    assert "z=" in r.stdout


def test_estimate_records_horizon(tmp_path):
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    r = run_cli(
        "--output", "o",
        "--set", "paths.dt=0.01", "--set", "paths.t_max=30", "--set", "paths.n_paths=200",
        "estimate",
        cwd=tmp_path,
    )
    assert "horizon=" in r.stdout, r.stdout
    record = dict(
        line.split("=", 1) for line in (tmp_path / "o" / "estimate.txt").read_text().splitlines()
    )
    assert 0.0 < float(record["horizon"]) <= float(record["paths.t_max"])
    assert float(record["tail_bound"]) >= 0.0


def test_residual_command(tmp_path):
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    r = run_cli("--output", "o", "residual", cwd=tmp_path)
    assert r.returncode == 0
    res = read_csv(tmp_path / "o" / "residual.csv")
    assert set(res) == {"r", "residual", "residual_rel"}
    assert "sup relative residual" in r.stdout


def test_csv_round_trip_12_digits(tmp_path):
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    path = tmp_path / "o" / "solution.csv"
    data = read_csv(path)
    from consrate.cli import write_csv

    write_csv(tmp_path / "o" / "roundtrip.csv", list(data), list(data.values()))
    again = read_csv(tmp_path / "o" / "roundtrip.csv")
    for k in data:
        assert np.array_equal(data[k], again[k])


def test_config_file_and_set_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("problem.gamma = 1.2  # overridden below\ngrid.n = 21\n")

    class Args:
        config = str(cfg_file)
        set = ["problem.gamma=1.4"]
        profile = "desk"
        seed = 7
        threads = None

    cfg = resolve_config(Args())
    assert cfg["problem.gamma"] == 1.4
    assert cfg["grid.n"] == 21
    assert cfg["seed"] == 7


def test_profiles_match_reference_settings():
    class Args:
        config = None
        set = None
        profile = "paper"
        seed = None
        threads = None

    cfg = resolve_config(Args())
    assert cfg["quad.dt"] == 0.001
    assert cfg["quad.dy"] == 0.0002
    assert cfg["solver.m_max"] == 65
    assert cfg["solver.n_max"] == 25

    class ArgsDesk(Args):
        profile = "desk"

    desk = resolve_config(ArgsDesk())
    assert desk["quad.dt"] == 0.01
    assert desk["solver.m_max"] == 16


def test_unknown_key_rejected(tmp_path):
    r = run_cli("--output", "o", "--set", "nope=1", "feasibility", cwd=tmp_path)
    assert r.returncode != 0
    assert "unknown configuration key 'nope'" in r.stdout


def test_mc_solver_backend_rejected(tmp_path):
    r = run_cli("--output", "o", "--set", "solver.backend=mc", "solve", cwd=tmp_path)
    assert r.returncode == 2
    assert "solver.backend must be 'quadrature' or 'fd', got 'mc'" in r.stdout
    assert not (tmp_path / "o" / "solution.csv").exists()


def test_removed_keys_are_unknown_before_solving(tmp_path):
    # the y mesh's reach and the paper's theta branch of the lambda schedule
    # are worked out by the solver, not set
    for key in ("quad.y_halfwidth", "solver.theta", "solver.eps1"):
        r = run_cli("--output", "o", "--set", f"{key}=0.1", "solve", cwd=tmp_path)
        assert r.returncode == 2, r.stdout + r.stderr
        assert f"unknown configuration key '{key}'" in r.stdout
        assert not (tmp_path / "o").exists()


def test_run_record_reports_operator_and_peak_rss(tmp_path):
    r = run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    keys, values = zip(*(line.split("=", 1) for line in (tmp_path / "o" / "run_record.txt").read_text().splitlines()))
    record = dict(zip(keys, values))
    added = ["operator.n_r", "operator.n_y", "operator.time_cells", "operator.node_tile",
             "operator.lambda_levels", "operator.build_s", "peak_rss_mb"]
    assert not set(added) & set(DEFAULTS)
    # after the configuration keys, in this order
    assert max(keys.index(k) for k in DEFAULTS) < keys.index(added[0])
    assert [k for k in keys if k in added] == added
    assert int(record["operator.time_cells"]) == 600  # quad.t_max / quad.dt
    assert int(record["operator.lambda_levels"]) == 16  # solver.m_max
    assert 1 <= int(record["operator.node_tile"]) <= int(record["operator.n_r"])
    assert int(record["operator.n_r"]) > 39  # the reporting grid plus its padding
    assert float(record["operator.build_s"]) > 0 and float(record["peak_rss_mb"]) > 0
    assert record["resolvent"] == "quadrature" and keys.index("resolvent") == keys.index("variant") + 1


def test_determinism_across_threads(tmp_path):
    for out, threads in (("d1", "1"), ("d2", "4")):
        assert (
            run_cli("--output", out, "--threads", threads, "--seed", "99", *FAST_SOLVE, "solve", cwd=tmp_path).returncode
            == 0
        )
        assert (
            run_cli(
                "--output", out, "--threads", threads, "--seed", "99",
                "--set", "paths.dt=0.01", "--set", "paths.t_max=5", "--set", "paths.n_paths=40",
                "simulate",
                cwd=tmp_path,
            ).returncode
            == 0
        )
    for name in ("solution.csv", "trajectory.csv"):
        assert (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()
    # the trace's wall-time column is the one inherently non-reproducible field
    t1 = read_csv(tmp_path / "d1" / "trace.csv")
    t2 = read_csv(tmp_path / "d2" / "trace.csv")
    for col in ("m", "n", "sup_increment", "min_increment", "max_bound_violation"):
        assert np.array_equal(t1[col], t2[col])


def test_cli_import_does_not_load_scipy_signal(tmp_path):
    # the path engine runs without scipy.signal, which was most of the CLI's
    # import time. The standard library's process pool modules load only when
    # a fork_map worker dies, to raise BrokenProcessPool.
    names = ["scipy.signal", "multiprocessing", "concurrent.futures.process"]
    code = f"import sys, consrate.cli; print([name for name in {names!r} if name in sys.modules])"
    r = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
    # an estimate on one worker runs inline, so what it imports is in this process
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    argv = ["--output", "o", "--threads", "1", "--set", "paths.n_paths=20", "--set", "paths.t_max=5", "estimate"]
    code = f"import sys, consrate.cli; print(consrate.cli.main({argv!r}), 'scipy.signal' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split()[-2:] in (["0", "False"], ["1", "False"]), r.stdout
    assert (tmp_path / "o" / "estimate.txt").exists()


def test_commands_load_only_scipys_blas_and_lapack_modules(tmp_path):
    # consrate takes its four BLAS and LAPACK routines from scipy's two f2py
    # modules, its AR(1) filter from scipy.signal._sigtools and its extension
    # product from scipy.sparse._sparsetools; the scipy.linalg, scipy.signal
    # and scipy.sparse packages are never imported.
    # On one worker every command runs inline, so what it imports is here.
    runs = [
        ["--output", "q", "feasibility"],
        ["--output", "q", *FAST_SOLVE, "solve"],
        ["--output", "fd", *FAST_SOLVE, "--set", "solver.backend=fd", "solve"],
        ["--output", "b", *FAST_SOLVE, "solve-b"],
        ["--output", "q", "--set", "paths.n_paths=20", "--set", "paths.t_max=5", "estimate"],
    ]
    code = (
        "import sys, consrate.cli\n"
        "loaded = lambda: sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        f"for argv in {runs!r}:\n"
        "    print(consrate.cli.main(['--threads', '1', *argv]))\n"
        "print(loaded())"
    )
    r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    modules = "['scipy.linalg._fblas', 'scipy.linalg._flapack', 'scipy.signal._sigtools', 'scipy.sparse._sparsetools']"
    assert lines[0] == modules and lines[-1] == modules, r.stdout
    codes = [line for line in lines if line in ("0", "1")]
    assert codes[:4] == ["0"] * 4 and len(codes) == 5, r.stdout  # estimate exits 1 when |z| > 3
    for name in ("q/solution.csv", "fd/solution.csv", "b/solution.csv", "q/estimate.txt"):
        assert (tmp_path / name).exists()


def test_trace_csv_records_lambda(tmp_path):
    r = run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    header = (tmp_path / "o" / "trace.csv").read_text().splitlines()[0].split(",")
    assert header[:3] == ["m", "n", "lam"]
    trace = read_csv(tmp_path / "o" / "trace.csv")
    # desk schedule: lambda_m = alpha m + eps2 with alpha = 0.5, eps2 = 1e-5
    assert np.allclose(trace["lam"], 0.5 * trace["m"] + 1e-5, rtol=1e-12, atol=0.0)


def test_negative_threads_rejected_before_any_work(tmp_path):
    # no solution.csv: a load before the check would exit 5
    for flags in (["--threads", "-1"], ["--set", "threads=-3"]):
        r = run_cli("--output", "o", *flags, "estimate", cwd=tmp_path)
        assert r.returncode == 2, r.stdout + r.stderr
        assert f"got {flags[-1].split('=')[-1]}" in r.stdout
        assert not (tmp_path / "o").exists()


def test_estimate_with_zero_se_fails_on_any_gap(tmp_path):
    # one path has SE = 0, so z cannot measure the gap: a doubled K column
    # must still fail the |z| <= 3 gate
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    path = tmp_path / "o" / "solution.csv"
    data = read_csv(path)
    data["K"] = 2.0 * data["K"]
    cli.write_csv(path, list(data), list(data.values()))
    r = run_cli(
        "--output", "o", "--set", "paths.n_paths=1", "--set", "paths.dt=0.01", "--set", "paths.t_max=30",
        "estimate",
        cwd=tmp_path,
    )
    assert r.returncode == 1, r.stdout + r.stderr
    assert " SE=0 " in r.stdout and " z=-inf " in r.stdout
    assert "\nz=-inf\n" in (tmp_path / "o" / "estimate.txt").read_text()


def test_estimate_same_record_across_threads(tmp_path):
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    records = {}
    for threads in ("1", "2"):
        r = run_cli(
            "--output", "o", "--threads", threads, "--seed", "99",
            "--set", "paths.dt=0.01", "--set", "paths.t_max=30", "--set", "paths.n_paths=600",
            "estimate",
            cwd=tmp_path,
        )
        assert r.returncode in (0, 1), r.stdout + r.stderr
        assert f"workers={min(int(threads), len(os.sched_getaffinity(0)))} " in r.stdout
        assert float(r.stdout.split("paths_per_s=")[1].split()[0]) > 0
        text = (tmp_path / "o" / "estimate.txt").read_text()
        assert "workers=" not in text and "paths_per_s=" not in text
        records[threads] = [line for line in text.splitlines() if not line.startswith("threads=")]
    assert records["1"] == records["2"]


def test_solve_same_answers_across_threads(tmp_path):
    # the desk grid with FAST_SOLVE's steps: 126 operator nodes in two tiles
    grid = ["--set", "grid.n=76", *FAST_SOLVE[2:]]
    records = {}
    for threads in ("1", "2"):
        r = run_cli("--output", threads, "--threads", threads, *grid, "solve", cwd=tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        records[threads] = dict(
            line.split("=", 1) for line in (tmp_path / threads / "run_record.txt").read_text().splitlines()
        )
    assert int(records["1"]["operator.node_tile"]) < int(records["1"]["operator.n_r"])
    assert records["1"]["operator.workers"] == "1"
    assert 1 <= int(records["2"]["operator.workers"]) <= 2
    for name in ("solution.csv", "figure1.svg"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    assert records["1"].keys() == records["2"].keys()
    # the keys that may differ: the setting, the worker count and what is timed
    free = {"threads", "operator.workers", "operator.build_s", "operator.kernel_s", "operator.gemm_s", "peak_rss_mb",
            "peak_rss_children_mb"}
    assert free <= records["1"].keys()
    assert {k: v for k, v in records["1"].items() if k not in free} == {
        k: v for k, v in records["2"].items() if k not in free
    }


def test_solve_exits_6_when_the_operator_does_not_fit(tmp_path, monkeypatch, capsys):
    # in process, so that the memory budget can be patched
    monkeypatch.setattr(resolvent, "memory_budget", lambda: 2**20)
    code = cli.main(["--output", str(tmp_path / "o"), *FAST_SOLVE, "solve"])
    out = capsys.readouterr().out
    assert code == 6, out
    assert "out of memory: the quadrature operator needs" in out and "MiB of R(lambda)" in out
    assert "only 1.0 MiB is available" in out
    assert not (tmp_path / "o" / "solution.csv").exists()


def test_solve_exits_6_when_the_supersolution_does_not_fit(tmp_path, monkeypatch, capsys):
    # in process, so that the memory budget can be patched
    monkeypatch.setattr(gaussian, "memory_budget", lambda: 2**19)
    code = cli.main(["--output", str(tmp_path / "o"), *FAST_SOLVE, "solve"])
    out = capsys.readouterr().out
    assert code == 6, out
    assert "out of memory: the supersolution N needs" in out and "sub-block arrays of" in out
    assert "only 0.5 MiB is available" in out
    assert not (tmp_path / "o" / "solution.csv").exists()


def test_estimate_exits_6_when_the_paths_do_not_fit(tmp_path, monkeypatch, capsys):
    # in process, so that the memory budget can be patched
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    monkeypatch.setattr(simulate, "memory_budget", lambda: 2**20)
    code = cli.main(["--output", str(tmp_path / "o"), "estimate"])
    out = capsys.readouterr().out
    assert code == 6, out
    assert "out of memory: estimate needs" in out and "MiB of path arrays for each of" in out
    assert "only 1.0 MiB is available" in out
    assert not (tmp_path / "o" / "estimate.txt").exists()


def test_simulate_exits_6_when_the_path_does_not_fit(tmp_path, monkeypatch, capsys):
    # in process, so that the memory budget can be patched; the desk path of
    # 16001 steps needs 1.0 MiB, so nothing large is allocated either way
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    monkeypatch.setattr(simulate, "memory_budget", lambda: 2**19)
    code = cli.main(["--output", str(tmp_path / "o"), "simulate"])
    out = capsys.readouterr().out
    assert code == 6, out
    assert "out of memory: the sampled path needs 1.0 MiB for 8 arrays of 16001 time steps" in out
    assert "only 0.5 MiB is available; lower paths.t_max / paths.dt" in out
    assert not (tmp_path / "o" / "trajectory.csv").exists()


def test_run_record_reports_worker_peak_rss(tmp_path):
    # the desk grid with FAST_SOLVE's steps: two node tiles, so two workers where there are two cores
    r = run_cli("--output", "o", "--threads", "2", "--set", "grid.n=76", *FAST_SOLVE[2:], "solve", cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    keys, values = zip(*(line.split("=", 1) for line in (tmp_path / "o" / "run_record.txt").read_text().splitlines()))
    record = dict(zip(keys, values))
    assert keys[-2:] == ("peak_rss_mb", "peak_rss_children_mb")
    children = float(record["peak_rss_children_mb"])
    assert children > 0 if int(record["operator.workers"]) > 1 else children >= 0


def test_interval_solve_on_a_grid_that_reaches_the_endpoint(tmp_path):
    # the padded grid's last node rounds to 0.20000000000000004 unless kept in [a, b]
    interval = [
        "--set", "model.kind=interval", "--set", "model.a=0.0", "--set", "model.b=0.2",
        "--set", "model.kappa=1.0", "--set", "model.sigma=1.0",
        "--set", "grid.r_min=0.0", "--set", "grid.r_max=0.2",
    ]
    solve = run_cli("--output", "o", *interval, "solve", cwd=tmp_path)
    assert solve.returncode == 0, solve.stdout + solve.stderr
    residual = run_cli("--output", "o", *interval, "residual", cwd=tmp_path)
    assert residual.returncode == 0, residual.stdout + residual.stderr
    assert float(residual.stdout.split(":")[-1]) < 1e-5


def test_commands_read_a_forced_solution_without_N(tmp_path):
    # gamma <= alpha b: N is infinite, so a forced solve writes N_pow=nan,
    # a column that simulate, estimate and residual do not read
    interval = [
        "--set", "model.kind=interval", "--set", "model.a=0.0", "--set", "model.b=0.2",
        "--set", "model.kappa=1.0", "--set", "model.sigma=1.0",
        "--set", "grid.r_min=0.0", "--set", "grid.r_max=0.2", "--set", "problem.gamma=0.05",
    ]
    solve = run_cli("--output", "o", *interval, "--force", "solve", cwd=tmp_path)
    assert solve.returncode == 0, solve.stdout + solve.stderr
    assert np.all(np.isnan(read_csv(tmp_path / "o" / "solution.csv")["N_pow"]))
    paths = ["--set", "paths.dt=0.01", "--set", "paths.t_max=5", "--set", "paths.n_paths=20"]
    for command in ("residual", "simulate"):
        r = run_cli("--output", "o", *interval, *paths, command, cwd=tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
    r = run_cli("--output", "o", *interval, *paths, "estimate", cwd=tmp_path)
    assert "J_estimate=" in r.stdout, r.stdout + r.stderr


def test_simulate_keeps_the_solve_record(tmp_path):
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    paths = ["--set", "paths.dt=0.01", "--set", "paths.t_max=5", "--set", "paths.n_paths=20"]
    assert run_cli("--output", "o", *paths, "simulate", cwd=tmp_path).returncode == 0
    record = (tmp_path / "o" / "run_record.txt").read_text()
    assert "\nvariant=A\nresolvent=quadrature\n" in record and "command=" not in record
    simulated = (tmp_path / "o" / "simulate.txt").read_text()
    assert "\ncommand=simulate\ntau_hit=" in simulated and "\nV_min=" in simulated


def test_boolean_keys_take_two_sets_of_spellings_and_reject_others(tmp_path):
    for spelling in ("1", "true", "Yes", "ON"):
        assert cli._coerce("output.emit_plots", spelling) is True
    for spelling in ("0", "False", "no", "OFF"):
        assert cli._coerce("output.emit_plots", spelling) is False
    r = run_cli("--output", "o", "--set", "output.emit_plots=ture", *FAST_SOLVE, "solve", cwd=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "error: output.emit_plots must be one of" in r.stdout and "'ture'" in r.stdout
    assert not (tmp_path / "o" / "solution.csv").exists()


def test_a_bad_number_names_its_key(tmp_path):
    for setting, message in (
        ("grid.n=7.5", "grid.n must be an integer, got '7.5'"),
        ("quad.dt=abc", "quad.dt must be a number, got 'abc'"),
    ):
        r = run_cli("--output", "o", "--set", setting, "solve", cwd=tmp_path)
        assert r.returncode == 2, r.stdout + r.stderr
        assert f"error: {message}" in r.stdout
    (tmp_path / "bad.cfg").write_text("paths.n_paths = many\n")
    r = run_cli("--output", "o", "--config", "bad.cfg", "estimate", cwd=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "error: paths.n_paths must be an integer, got 'many'" in r.stdout
    assert not (tmp_path / "o").exists()


def test_plots_off_deletes_each_commands_earlier_figure(tmp_path):
    paths = ["--set", "paths.dt=0.01", "--set", "paths.t_max=5", "--set", "paths.n_paths=20"]
    off = ["--set", "output.emit_plots=0"]
    out = tmp_path / "o"
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    assert run_cli("--output", "o", *paths, "simulate", cwd=tmp_path).returncode == 0
    assert (out / "figure1.svg").exists() and (out / "figure2.svg").exists()
    assert run_cli("--output", "o", *off, *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    assert not (out / "figure1.svg").exists() and (out / "figure2.svg").exists()
    assert run_cli("--output", "o", *off, *paths, "simulate", cwd=tmp_path).returncode == 0
    assert not (out / "figure2.svg").exists()


def test_model_kind_ignores_case_for_the_path_scheme(tmp_path):
    # exact Vasicek paths stop at the discount horizon; Euler paths would run to paths.t_max
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=tmp_path).returncode == 0
    records, trajectories = {}, {}
    for kind in ("vasicek", "Vasicek"):
        common = ["--output", "o", "--threads", "1", "--set", f"model.kind={kind}"]
        r = run_cli(*common, "--set", "paths.n_paths=300", "estimate", cwd=tmp_path)
        assert r.returncode in (0, 1), r.stdout + r.stderr
        lines = (tmp_path / "o" / "estimate.txt").read_text().splitlines()
        records[kind] = [line for line in lines if line.split("=", 1)[0] in ("J", "SE", "horizon")]
        assert run_cli(*common, "--set", "paths.t_max=5", "simulate", cwd=tmp_path).returncode == 0
        trajectories[kind] = (tmp_path / "o" / "trajectory.csv").read_bytes()
    assert len(records["vasicek"]) == 3
    assert records["Vasicek"] == records["vasicek"]
    assert float(records["vasicek"][2].split("=")[1]) < 40.0
    assert trajectories["Vasicek"] == trajectories["vasicek"]


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_path_scheme_is_an_unknown_key(tmp_path, command):
    # the model picks the path engine, so there is no scheme to set
    r = run_cli("--output", "o", "--set", "paths.scheme=exact", command, cwd=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "error: unknown configuration key 'paths.scheme'\n" in r.stdout
    assert not (tmp_path / "o").exists()


# bad values that the library's settings objects reject: six on solve, and
# two on simulate and estimate, which read a solution first
SOLVE_PROBES = ["quad.dt=-0.01", "grid.n=1", "problem.alpha=1.5", "grid.r_max=-1", "solver.m_max=0", "model.sigma=0"]
PATH_PROBES = ["paths.n_paths=0", "paths.dt=0"]


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("solved")
    assert run_cli("--output", "o", *FAST_SOLVE, "solve", cwd=cwd).returncode == 0
    return cwd


@pytest.mark.parametrize(
    "command, setting",
    [("solve", s) for s in SOLVE_PROBES] + [(c, s) for c in ("simulate", "estimate") for s in PATH_PROBES],
)
def test_every_bad_value_names_its_key_before_writing(request, tmp_path, command, setting):
    cwd = tmp_path if command == "solve" else request.getfixturevalue("solved")
    out = cwd / "o"
    before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()} if out.exists() else None
    r = run_cli("--output", "o", "--set", setting, command, cwd=cwd)
    assert r.returncode == 2, r.stdout + r.stderr
    error = [line for line in r.stdout.splitlines() if line.startswith("error: ")]
    assert len(error) == 1 and setting.split("=")[0] in error[0], r.stdout
    after = {p.name: p.stat().st_mtime_ns for p in out.iterdir()} if out.exists() else None
    assert after == before


def test_a_bad_value_leaves_no_output_directory(tmp_path):
    r = run_cli("--output", "o", "--set", "model.sigma=0", "solve", cwd=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "error: model.a, model.b, model.sigma: " in r.stdout
    assert not (tmp_path / "o").exists()


def test_a_bad_value_is_reported_before_a_missing_solution(tmp_path):
    # no solution.csv: a load before the check would exit 5 and hide the bad value
    r = run_cli("--output", "o", "--set", "paths.dt=0", "estimate", cwd=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "error: paths.dt, paths.t_max: " in r.stdout and not (tmp_path / "o").exists()
    assert run_cli("--output", "o", "--set", "paths.dt=0.01", "estimate", cwd=tmp_path).returncode == 5


# the keys that feed no library settings object, each on a command that reads it
@pytest.mark.parametrize(
    "command, setting",
    [("estimate", "sim.v=-1"), ("simulate", "sim.v=-1"), ("simulate", "sim.r0=nan"), ("solve-c", "portfolio.varsigma=0")],
)
def test_a_bad_start_or_portfolio_value_names_its_key_before_writing(tmp_path, command, setting):
    # no solution.csv: a check after the load would exit 5, and solve-c would
    # write its results before the portfolio step rejected the value
    r = run_cli("--output", "o", "--set", "grid.n=39", "--set", setting, command, cwd=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    error = [line for line in r.stdout.splitlines() if line.startswith("error: ")]
    assert len(error) == 1 and error[0].startswith(f"error: {setting.split('=')[0]}: "), r.stdout
    assert not (tmp_path / "o").exists()


def test_estimate_refuses_a_start_rate_outside_the_solved_grid(solved, monkeypatch, capsys):
    # K is held at its edge value beyond the grid, so the |z| gate would blame the Monte Carlo
    monkeypatch.setattr(simulate, "estimate_J", lambda *args: pytest.fail("estimate drew paths"))
    out = solved / "o"
    before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
    code = cli.main(["--output", str(out), "--set", "sim.r0=5", "--set", "paths.n_paths=200", "estimate"])
    printed = capsys.readouterr().out
    assert code == 2, printed
    assert "error: sim.r0=5 lies outside the solved grid [0, 0.15]" in printed
    assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == before


def test_simulate_refuses_a_start_rate_outside_the_solved_grid(solved, monkeypatch, capsys):
    # c_hat is held at its edge value beyond the grid: such a path would
    # consume at one constant rate throughout
    monkeypatch.setattr(simulate, "sample_path", lambda *args: pytest.fail("simulate drew a path"))
    out = solved / "o"
    before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
    code = cli.main(["--output", str(out), "--set", "sim.r0=5", "--set", "paths.t_max=1", "simulate"])
    printed = capsys.readouterr().out
    assert code == 2, printed
    assert "error: sim.r0=5 lies outside the solved grid [0, 0.15]" in printed
    assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == before
