"""Command-line front end: flat key=value configuration, solve/check/simulate
orchestration, and CSV/SVG artifact emission.

Exit codes: feasibility 0=finite 2=infinite 3=unknown; solve 4 on a solver
abort (2/3 when the feasibility gate blocks an infeasible/unknown spec);
simulate/estimate/residual 5 when no solution file is present; estimate 0 when
|z| <= 3, 1 otherwise, 2 on a divergence signal; solve 6 when the quadrature
operator would need more memory than the process may still take.
"""

from __future__ import annotations

import argparse
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import feasibility as feas
from . import hjb, portfolio, simulate
from .errors import DivergenceError, InfeasibleProblem, InsufficientMemory, MonotonicityError
from .gaussian import supersolution_N
from .grids import GridFunction
from .models import Constant, DriftedBM, GeometricBM, InvariantInterval, ProblemSpec, Vasicek
from .resolvent import FiniteDifference, Quadrature
from .svgfig import Panel, write_figure

DEFAULTS: dict = {
    "model.kind": "vasicek",
    "model.a": 0.03,
    "model.b": 0.5,
    "model.sigma": 0.02,
    "model.kappa": 1.0,
    "model.mu": 0.0,
    "model.r": 0.05,
    "problem.alpha": 0.5,
    "problem.gamma": 1.5304,
    "grid.r_min": 0.0,
    "grid.r_max": 0.15,
    "grid.n": 76,
    "solver.backend": "quadrature",
    "solver.m_max": 16,
    "solver.n_max": 10,
    "solver.eps1": 1e-3,
    "solver.eps2": 1e-5,
    "solver.theta": "",
    "solver.tol_n": 1e-6,
    "solver.tol_m": 1e-4,
    "solver.pad": 0.05,
    "quad.dt": 0.01,
    "quad.t_max": 12.0,
    "quad.dy": 0.002,
    "quad.y_halfwidth": "",
    "paths.scheme": "exact",
    "paths.dt": 0.0025,
    "paths.t_max": 40.0,
    "paths.n_paths": 10000,
    "sim.r0": 0.05,
    "sim.v": 3.0,
    "portfolio.varsigma": 1.0,
    "seed": 20240501,
    "threads": 0,
    "output.emit_plots": True,
}

# the defaults above are the desk profile; paper matches the reference run
PROFILES = {
    "desk": {},
    "paper": {
        "solver.m_max": 65,
        "solver.n_max": 25,
        "solver.tol_n": 1e-15,
        "solver.tol_m": 1e-15,
        "quad.dt": 0.001,
        "quad.dy": 0.0002,
        "grid.n": 751,
        "paths.dt": 0.001,
    },
}


def _coerce(key: str, raw):
    if key not in DEFAULTS:
        raise KeyError(f"unknown configuration key {key!r}")
    ref = DEFAULTS[key]
    if isinstance(raw, str):
        raw = raw.strip()
        if isinstance(ref, bool):
            return raw.lower() in ("1", "true", "yes", "on")
        if isinstance(ref, int) and not isinstance(ref, bool):
            return int(raw)
        if isinstance(ref, float):
            return float(raw)
        return raw
    return raw


def parse_config_file(path: str) -> dict:
    """Flat key=value text; '#' starts a comment."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve_config(args) -> dict:
    cfg = dict(DEFAULTS)
    cfg.update(PROFILES[args.profile])
    if args.config:
        for k, v in parse_config_file(args.config).items():
            cfg[k] = _coerce(k, v)
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        cfg[k.strip()] = _coerce(k.strip(), v)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.threads is not None:
        cfg["threads"] = args.threads
    if cfg["threads"] < 0:
        raise ValueError(f"threads must be >= 0 (0 means one per available core), got {cfg['threads']}")
    return cfg


def build_model(cfg: dict):
    kind = cfg["model.kind"].lower()
    if kind == "vasicek":
        return Vasicek(cfg["model.a"], cfg["model.b"], cfg["model.sigma"])
    if kind == "interval":
        return InvariantInterval(cfg["model.a"], cfg["model.b"], cfg["model.kappa"], cfg["model.sigma"])
    if kind == "bm":
        return DriftedBM(cfg["model.mu"], cfg["model.sigma"])
    if kind == "gbm":
        return GeometricBM(cfg["model.mu"], cfg["model.sigma"])
    if kind == "constant":
        return Constant(cfg["model.r"])
    raise ValueError(f"unknown model kind {kind!r}")


def build_spec(cfg: dict, variant: str) -> ProblemSpec:
    return ProblemSpec(build_model(cfg), cfg["problem.alpha"], cfg["problem.gamma"], variant)


def build_backend(cfg: dict):
    name = cfg["solver.backend"].lower()
    if name == "quadrature":
        hw = cfg["quad.y_halfwidth"]
        return Quadrature(
            dt=cfg["quad.dt"],
            t_max=cfg["quad.t_max"],
            dy=cfg["quad.dy"],
            y_halfwidth=None if hw in ("", None) else float(hw),
            workers=cfg["threads"],
        )
    if name == "fd":
        return FiniteDifference()
    raise ValueError(f"unknown backend {name!r}")


def build_solver_config(cfg: dict, model) -> hjb.SolverConfig:
    grid = GridFunction.zeros(cfg["grid.r_min"], cfg["grid.r_max"], cfg["grid.n"])
    backend = build_backend(cfg)
    if not isinstance(model, Vasicek) and isinstance(backend, Quadrature):
        backend = FiniteDifference()  # the kernel quadrature is Vasicek-only
    theta = cfg["solver.theta"]
    return hjb.SolverConfig(
        grid=grid,
        backend=backend,
        m_max=cfg["solver.m_max"],
        n_max=cfg["solver.n_max"],
        eps1=cfg["solver.eps1"],
        eps2=cfg["solver.eps2"],
        theta_bound=None if theta in ("", None) else float(theta),
        tol_n=cfg["solver.tol_n"],
        tol_m=cfg["solver.tol_m"],
        pad=cfg["solver.pad"],
    )


def build_path_config(cfg: dict) -> simulate.PathConfig:
    return simulate.PathConfig(
        dt=cfg["paths.dt"],
        t_max=cfg["paths.t_max"],
        n_paths=cfg["paths.n_paths"],
        seed=cfg["seed"],
        scheme=cfg["paths.scheme"] if cfg["model.kind"] == "vasicek" else "euler",
        workers=cfg["threads"],
    )


# ---------------------------------------------------------------------------
# file I/O


def fmt(x) -> str:
    return f"{float(x):.12g}"


def write_csv(path: Path, header: list[str], cols: list[np.ndarray]) -> None:
    rows = zip(*[np.atleast_1d(c) for c in cols])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def read_csv(path: Path) -> dict[str, np.ndarray]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(header)}


def write_record(path: Path, cfg: dict, extra: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for k in sorted(cfg):
            fh.write(f"{k}={cfg[k]}\n")
        for k, v in extra.items():
            fh.write(f"{k}={v}\n")


def _outdir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_feasibility(args) -> int:
    cfg = resolve_config(args)
    spec = build_spec(cfg, "A")
    report = feas.classify(spec)
    print(f"verdict: {report.verdict.value}")
    print(f"reason: {report.reason}")
    extra = {"verdict": report.verdict.value, "reason": report.reason}
    if report.thresholds is not None:
        g1, g2 = report.thresholds
        print(f"gamma_1={fmt(g1)} gamma_2={fmt(g2)}")
        extra["gamma_1"], extra["gamma_2"] = fmt(g1), fmt(g2)
    if report.rho is not None:
        print(f"rho={fmt(report.rho)}")
        extra["rho"] = fmt(report.rho)
    if report.divergence_witness is not None:
        c1, c2, c3 = report.divergence_witness
        print(f"divergence exponent: ({fmt(c1)}) t + ({fmt(c2)}) t^2 + ({fmt(c3)}) t^3")
        extra["witness"] = ",".join(fmt(c) for c in report.divergence_witness)
    if report.sufficient_pair is not None:
        extra["delta"], extra["p"] = (fmt(v) for v in report.sufficient_pair)
    out = _outdir(args)
    write_record(out / "feasibility.txt", cfg, extra)
    return {feas.Feasibility.FINITE: 0, feas.Feasibility.INFINITE: 2, feas.Feasibility.UNKNOWN: 3}[
        report.verdict
    ]


def _emit_solution(out: Path, cfg: dict, sol: hjb.Solution, emit_plots: bool) -> None:
    grid = sol.K
    n_pow = sol.N_pow.values if sol.N_pow is not None else np.full(grid.n_nodes, np.nan)
    write_csv(
        out / "solution.csv",
        ["r", "K", "N_pow", "c_hat"],
        [grid.nodes, grid.values, n_pow, sol.policy_c.values],
    )
    cols = ["m", "n", "lam", "sup_increment", "min_increment", "max_bound_violation", "seconds"]
    write_csv(out / "trace.csv", cols, [np.array([getattr(step, c) for step in sol.trace.steps]) for c in cols])
    if emit_plots:
        panel = Panel(title="value profile iterates", xlabel="r", ylabel="K")
        shown = sol.iterates
        if len(shown) > 24:  # keep the figure light; thin evenly, keep the last
            idx = np.unique(np.linspace(0, len(shown) - 1, 24).astype(int))
            shown = [shown[i] for i in idx]
        for it in shown:
            panel.add(it.nodes, it.values, stroke="#1f4e8c", width=1.0)
        if sol.N_pow is not None:
            panel.add(grid.nodes, n_pow, stroke="#b03a2e", width=1.4, dash="6,4")
        write_figure(out / "figure1.svg", [panel])


def cmd_solve(args, variant: str) -> int:
    cfg = resolve_config(args)
    out = _outdir(args)
    spec = build_spec(cfg, variant)
    report = feas.classify(spec)
    if report.verdict is not feas.Feasibility.FINITE and not args.force:
        print(f"feasibility gate: {report.verdict.value} ({report.reason}); use --force to override")
        return 2 if report.verdict is feas.Feasibility.INFINITE else 3
    solver_cfg = build_solver_config(cfg, spec.model)
    try:
        if variant == "A":
            sol = hjb.solve_problem_a(spec, solver_cfg, force=args.force)
        elif variant == "B":
            sol = hjb.solve_problem_b(spec, solver_cfg, force=args.force)
        else:
            sol = _solve_c(spec, solver_cfg)
    except MonotonicityError as exc:
        print(f"solver aborted: {exc}")
        return 4
    _emit_solution(out, cfg, sol, cfg["output.emit_plots"])
    # the resolvent that ran: only the quadrature operator leaves telemetry,
    # and Problem B and the non-Vasicek models use FD whatever solver.backend says
    ran = "none" if variant == "C" else "quadrature" if sol.operator else "fd"
    extra = {"variant": variant, "resolvent": ran, "K_min": fmt(sol.K.values.min()), "K_max": fmt(sol.K.values.max())}
    if variant == "C" and isinstance(spec.model, Vasicek):
        # bank-weight recovery needs the affine bond loading, so Vasicek only
        pol = portfolio.eta_from_beta(
            portfolio.beta_hat(spec, 0.5 * (sol.K.r_min + sol.K.r_max)),
            cfg["portfolio.varsigma"],
            spec.model.b,
        )
        extra.update(
            beta_mid=fmt(pol.beta), eta_mid=fmt(pol.eta), upsilon=fmt(pol.upsilon), varsigma=fmt(pol.varsigma)
        )
        print(f"upsilon={fmt(pol.upsilon)} beta(mid)={fmt(pol.beta)} eta(mid)={fmt(pol.eta)}")
    extra.update({f"operator.{k}": v for k, v in sol.operator.items()})
    extra["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    extra["peak_rss_children_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    write_record(out / "run_record.txt", cfg, extra)
    print(f"solution written to {out / 'solution.csv'} ({sol.K.n_nodes} nodes)")
    return 0


def _peak_rss_mb(who) -> str:
    """Peak resident set size in MB of this process (RUSAGE_SELF) or of its
    largest finished worker process (RUSAGE_CHILDREN), as a record value."""
    return f"{resource.getrusage(who).ru_maxrss / 1024:.1f}"


def _solve_c(spec: ProblemSpec, solver_cfg: hjb.SolverConfig) -> hjb.Solution:
    """Problem C has the closed-form profile K = N^{1-alpha}; no iteration."""
    grid = solver_cfg.grid
    n_vals = supersolution_N(spec, grid.nodes)
    k = grid.with_values(np.power(n_vals, 1.0 - spec.alpha))
    policy = k.with_values(np.power(k.values, 1.0 / (spec.alpha - 1.0)))
    return hjb.Solution(
        K=k, N_pow=k.copy(), policy_c=policy, trace=hjb.IterationTrace(), spec=spec, iterates=[k]
    )


def _load_solution(out: Path):
    path = out / "solution.csv"
    if not path.exists():
        return None
    data = read_csv(path)
    r = data["r"]
    mk = lambda col: GridFunction(float(r[0]), float(r[-1]), data[col])
    return {"r": r, "K": mk("K"), "N_pow": mk("N_pow"), "c_hat": mk("c_hat")}


def cmd_simulate(args) -> int:
    cfg = resolve_config(args)
    out = _outdir(args)
    sol = _load_solution(out)
    if sol is None:
        print(f"no solution.csv in {out}; run solve first")
        return 5
    model = build_model(cfg)
    pcfg = build_path_config(cfg)
    path = simulate.sample_path(model, cfg["sim.r0"], pcfg)
    traj = simulate.wealth_trajectory(path, sol["c_hat"], cfg["sim.v"])
    write_csv(
        out / "trajectory.csv",
        ["t", "r", "V", "C", "c"],
        [traj.times, traj.r, traj.V, traj.C, traj.c],
    )
    if cfg["output.emit_plots"]:
        panels = []
        for name, series in (("r", traj.r), ("V", traj.V), ("C", traj.C), ("c", traj.c)):
            panels.append(Panel(title=name, xlabel="t", ylabel=name).add(traj.times, series))
        write_figure(out / "figure2.svg", panels, ncols=2)
    write_record(
        out / "run_record.txt",
        cfg,
        {
            "command": "simulate",
            "tau_hit": "" if traj.tau_hit is None else fmt(traj.tau_hit),
            "V_min": fmt(traj.V.min()),
        },
    )
    print(f"trajectory written to {out / 'trajectory.csv'}")
    return 0


def cmd_estimate(args) -> int:
    cfg = resolve_config(args)
    out = _outdir(args)
    sol = _load_solution(out)
    if sol is None:
        print(f"no solution.csv in {out}; run solve first")
        return 5
    spec = build_spec(cfg, "A")
    pcfg = build_path_config(cfg)
    t0 = time.perf_counter()
    try:
        est = simulate.estimate_J(spec, sol["c_hat"], cfg["sim.r0"], cfg["sim.v"], pcfg)
    except DivergenceError as exc:
        print(f"divergence guard: {exc}")
        return 2
    seconds = time.perf_counter() - t0
    pde_value = float(sol["K"](cfg["sim.r0"])) * cfg["sim.v"] ** spec.alpha
    gap = est.mean - pde_value
    # with SE = 0 (one path, or deterministic paths) any gap at all fails the |z| gate
    z = gap / est.se if est.se > 0 else math.copysign(math.inf, gap) if gap else 0.0
    print(
        f"J_estimate={fmt(est.mean)} SE={fmt(est.se)} pde_value={fmt(pde_value)} "
        f"z={fmt(z)} tail_bound={fmt(est.tail_bound)} horizon={fmt(est.horizon)} "
        # wall-clock figures go to stdout only: estimate.txt is reproducible
        f"workers={pcfg.pool_workers} paths_per_s={pcfg.n_paths / seconds:.0f} "
        f"peak_rss_children_mb={_peak_rss_mb(resource.RUSAGE_CHILDREN)}"
    )
    write_record(
        out / "estimate.txt",
        cfg,
        {
            "J": fmt(est.mean),
            "SE": fmt(est.se),
            "pde_value": fmt(pde_value),
            "z": fmt(z),
            "horizon": fmt(est.horizon),
            "tail_bound": fmt(est.tail_bound),
        },
    )
    return 0 if abs(z) <= 3.0 else 1


def cmd_residual(args) -> int:
    cfg = resolve_config(args)
    out = _outdir(args)
    sol = _load_solution(out)
    if sol is None:
        print(f"no solution.csv in {out}; run solve first")
        return 5
    variant = args.variant.upper()
    spec = build_spec(cfg, "A" if variant == "B" else variant)
    res_fn = portfolio.bonds_hjb_residual if variant == "C" else hjb.hjb_residual
    raw, rel = res_fn(spec, sol["K"])
    write_csv(out / "residual.csv", ["r", "residual", "residual_rel"], [raw.nodes, raw.values, rel.values])
    central = hjb.central_window(rel)
    sup = float(np.max(np.abs(central.values)))
    print(f"sup relative residual on the central half-window: {fmt(sup)}")
    return 0


def _add_common(parser, suppress: bool) -> None:
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--config", default=d(None), help="flat key=value configuration file")
    parser.add_argument("--set", action="append", default=d(None), metavar="KEY=VALUE", help="override one configuration key")
    parser.add_argument("--profile", choices=sorted(PROFILES), default=d("desk"))
    parser.add_argument("--seed", type=int, default=d(None))
    parser.add_argument("--threads", type=int, default=d(None), help="worker processes of estimate and of solve's quadrature operator build (0, the default: one per available core); no effect on other commands")
    parser.add_argument("--output", default=d("out"), help="artifact directory")
    parser.add_argument("--force", action="store_true", default=d(False), help="solve despite a non-finite feasibility verdict")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="consrate",
        description="Optimal consumption under diffusion short rates: solve, classify, simulate, estimate.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # flags are also accepted after the subcommand
    for name in ("feasibility", "solve", "solve-b", "solve-c", "simulate", "estimate"):
        _add_common(sub.add_parser(name), suppress=True)
    res = sub.add_parser("residual")
    _add_common(res, suppress=True)
    res.add_argument("--variant", default="A", choices=["A", "B", "C", "a", "b", "c"])
    args = parser.parse_args(argv)

    try:
        if args.command == "feasibility":
            code = cmd_feasibility(args)
        elif args.command == "solve":
            code = cmd_solve(args, "A")
        elif args.command == "solve-b":
            code = cmd_solve(args, "B")
        elif args.command == "solve-c":
            code = cmd_solve(args, "C")
        elif args.command == "simulate":
            code = cmd_simulate(args)
        elif args.command == "estimate":
            code = cmd_estimate(args)
        else:
            code = cmd_residual(args)
    except InfeasibleProblem as exc:
        print(f"infeasible: {exc}")
        code = 2
    except InsufficientMemory as exc:
        print(f"out of memory: {exc}")
        code = 6
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}")
        code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
