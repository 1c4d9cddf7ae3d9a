"""Command-line front end: flat key=value configuration, solve/check/simulate
orchestration, and CSV/SVG artifact emission.

Exit codes: feasibility 0=finite 2=infinite 3=unknown; solve 4 on a solver
abort (2/3 when the feasibility gate blocks an infeasible/unknown spec);
simulate/estimate/residual 5 when their configuration is valid but no solution
file is present; simulate and estimate 2 on a sim.r0 outside the solved
grid; estimate 0 when |z| <= 3, 1 otherwise, 2 on a divergence signal; 6 when
solve's quadrature operator, estimate's or simulate's path arrays would need
more memory than the process may still take. A bad value of a key that feeds
a field (see KEYS) exits 2 with an error that names the key, before the
command creates --output or reads solution.csv.
"""

from __future__ import annotations

import argparse
import inspect
import math
import re
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import feasibility as feas
from . import hjb, portfolio, simulate
from .errors import DivergenceError, InfeasibleProblem, InsufficientMemory, MonotonicityError
from .grids import GridFunction
from .models import Constant, DriftedBM, GeometricBM, InvariantInterval, ProblemSpec, Vasicek, domain
from .resolvent import FiniteDifference, Quadrature
from .svgfig import Panel, write_figure

MODELS = {"vasicek": Vasicek, "interval": InvariantInterval, "bm": DriftedBM, "gbm": GeometricBM, "constant": Constant}
BACKENDS = {"quadrature": Quadrature, "fd": FiniteDifference}

# Every configuration key: its default, its kind, and the settings fields it
# feeds. A kind is bool (yes/no), int, float (a number), or the allowed
# values of a choice, which ignores case. A field is object.field, where the
# objects are the model, spec (ProblemSpec), grid (GridFunction.zeros), quad
# (Quadrature), solver (hjb.SolverConfig), paths (simulate.PathConfig), sim
# (the start state, _check_start) and portfolio (portfolio.eta_from_beta). A
# key that feeds no field is read by its command.
KEYS: dict = {
    "model.kind": ("vasicek", tuple(MODELS), "spec.model"),
    "model.a": (0.03, float, "model.a"),
    "model.b": (0.5, float, "model.b"),
    "model.sigma": (0.02, float, "model.sigma"),
    "model.kappa": (1.0, float, "model.kappa"),
    "model.mu": (0.0, float, "model.mu"),
    "model.r": (0.05, float, "model.r"),
    "problem.alpha": (0.5, float, "spec.alpha"),
    "problem.gamma": (1.5304, float, "spec.gamma"),
    "grid.r_min": (0.0, float, "grid.r_min"),
    "grid.r_max": (0.15, float, "grid.r_max"),
    "grid.n": (76, int, "grid.n_nodes"),
    "solver.backend": ("quadrature", tuple(BACKENDS), "solver.backend"),
    "solver.m_max": (16, int, "solver.m_max"),
    "solver.n_max": (10, int, "solver.n_max"),
    "solver.eps2": (1e-5, float, "solver.eps2"),
    "solver.tol_n": (1e-6, float, "solver.tol_n"),
    "solver.tol_m": (1e-4, float, "solver.tol_m"),
    "solver.pad": (0.05, float, "solver.pad"),
    "quad.dt": (0.01, float, "quad.dt"),
    "quad.t_max": (12.0, float, "quad.t_max"),
    "quad.dy": (0.002, float, "quad.dy"),
    "paths.dt": (0.0025, float, "paths.dt"),
    "paths.t_max": (40.0, float, "paths.t_max"),
    "paths.n_paths": (10000, int, "paths.n_paths"),
    "sim.r0": (0.05, float, "sim.r0"),
    "sim.v": (3.0, float, "sim.v"),
    "portfolio.varsigma": (1.0, float, "portfolio.varsigma"),
    "seed": (20240501, int, "paths.seed"),
    "threads": (0, int, "quad.workers paths.workers"),
    "output.emit_plots": (True, bool, ""),
}
DEFAULTS: dict = {key: default for key, (default, _, _) in KEYS.items()}
YES, NO = ("1", "true", "yes", "on"), ("0", "false", "no", "off")

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


def _coerce(key: str, raw: str):
    """The value of key that the text raw spells, by the key's kind."""
    if key not in KEYS:
        raise KeyError(f"unknown configuration key {key!r}")
    kind = KEYS[key][1]
    raw = raw.strip()
    if kind is bool:
        if raw.lower() not in YES + NO:
            raise ValueError(f"{key} must be one of 1/true/yes/on or 0/false/no/off, got {raw!r}")
        return raw.lower() in YES
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {raw!r}") from None
    if raw.lower() not in kind:
        raise ValueError(f"{key} must be {', '.join(map(repr, kind[:-1]))} or {kind[-1]!r}, got {raw!r}")
    return raw.lower()


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
    pairs = list(parse_config_file(args.config).items()) if args.config else []
    for item in args.set or []:  # after the file, so that --set wins
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        pairs.append(item.split("=", 1))
    cfg.update((k.strip(), _coerce(k.strip(), v)) for k, v in pairs)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.threads is not None:
        cfg["threads"] = args.threads
    if cfg["threads"] < 0:
        raise ValueError(f"threads must be >= 0 (0 means one per available core), got {cfg['threads']}")
    return cfg


def _fed(objs: str, params=None) -> dict:
    """{field: key} for each key that feeds a field (in params, if given) of one of objs."""
    return {f: key for key, (_, _, feeds) in KEYS.items() for o, f in (t.split(".") for t in feeds.split())
            if o in objs.split() and (params is None or f in params)}


def _naming(fed: dict, run):
    """run(). A ValueError from it is re-raised naming the keys of fed whose
    fields it mentions, or all of them if it mentions none, unless it names
    one already."""
    try:
        return run()
    except ValueError as exc:
        words = set(re.findall(r"\w+", str(exc)))
        keys = [key for f, key in fed.items() if f in words] or list(fed.values())
        if any(key in str(exc) for key in keys):
            raise
        raise type(exc)(f"{', '.join(keys)}: {exc}") from None


def _fill(make, cfg: dict, obj: str, **given):
    """make(**given), with each other parameter of make from the key that
    feeds obj.<parameter>, through _naming."""
    fed = _fed(obj, inspect.signature(make).parameters)
    return _naming(fed, lambda: make(**{f: cfg[key] for f, key in fed.items() if f not in given}, **given))


def build_model(cfg: dict):
    """The model that model.kind names, each field from its model.<field> key."""
    return _fill(MODELS[cfg["model.kind"]], cfg, "model")


def build_spec(cfg: dict, variant: str) -> ProblemSpec:
    return _fill(ProblemSpec, cfg, "spec", model=build_model(cfg), variant=variant)


def build_solver_config(cfg: dict, model) -> hjb.SolverConfig:
    """The solver settings, with the resolvent that solver.backend names and
    the quadrature's settings from the quad.* keys."""
    backend = _fill(BACKENDS[cfg["solver.backend"]], cfg, "quad")
    if not isinstance(model, Vasicek) and isinstance(backend, Quadrature):
        backend = FiniteDifference()  # the kernel quadrature is Vasicek-only
    return _fill(hjb.SolverConfig, cfg, "solver", grid=_fill(GridFunction.zeros, cfg, "grid"), backend=backend)


def _check_start(model, r0: float, v: float) -> None:
    """The checks of the start rate and wealth that sample_path,
    wealth_trajectory and estimate_J make, so that simulate and estimate
    can make them before reading solution.csv."""
    if not isinstance(model, Constant) and not domain(model).contains_closure(r0):
        raise ValueError("r0 outside the model domain")
    if not v > 0:
        raise ValueError("the initial wealth v must be positive")


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
        for k, v in [*sorted(cfg.items()), *extra.items()]:
            fh.write(f"{k}={v}\n")


def _outdir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_feasibility(args, cfg: dict) -> int:
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


def _emit_solution(out: Path, sol: hjb.Solution, emit_plots: bool) -> None:
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
        for values in shown:
            panel.add(grid.nodes, values, stroke="#1f4e8c", width=1.0)
        if sol.N_pow is not None:
            panel.add(grid.nodes, n_pow, stroke="#b03a2e", width=1.4, dash="6,4")
        write_figure(out / "figure1.svg", [panel])
    else:  # an earlier run's figure would not match these results
        (out / "figure1.svg").unlink(missing_ok=True)


def cmd_solve(args, cfg: dict, variant: str) -> int:
    spec = build_spec(cfg, variant)
    solver_cfg = build_solver_config(cfg, spec.model)
    if variant == "C" and isinstance(spec.model, Vasicek):
        # bank-weight recovery needs the affine bond loading, so Vasicek only
        grid = solver_cfg.grid
        beta = portfolio.beta_hat(spec, 0.5 * (grid.r_min + grid.r_max))
        pol = _fill(portfolio.eta_from_beta, cfg, "portfolio", beta=beta, b=spec.model.b)
    report = feas.classify(spec)
    if report.verdict is not feas.Feasibility.FINITE and not args.force:
        print(f"feasibility gate: {report.verdict.value} ({report.reason}); use --force to override")
        return 2 if report.verdict is feas.Feasibility.INFINITE else 3
    _naming(_fed("spec grid solver"), lambda: hjb.check_solvable(spec, solver_cfg))
    out = _outdir(args)
    solve = {"A": hjb.solve_problem_a, "B": hjb.solve_problem_b, "C": hjb.solve_problem_c}[variant]
    try:
        sol = solve(spec, solver_cfg, force=args.force)
    except MonotonicityError as exc:
        print(f"solver aborted: {exc}")
        return 4
    _emit_solution(out, sol, cfg["output.emit_plots"])
    # the resolvent that ran: only the quadrature operator leaves telemetry,
    # and Problem B and the non-Vasicek models use FD whatever solver.backend says
    ran = "none" if variant == "C" else "quadrature" if sol.operator else "fd"
    extra = {"variant": variant, "resolvent": ran, "K_min": fmt(sol.K.values.min()), "K_max": fmt(sol.K.values.max())}
    if variant == "C" and isinstance(spec.model, Vasicek):
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


def _load_solution(args, r0=None):
    """The output directory, and K and c_hat of its solution.csv as grid
    functions; None for them, with a note, if the file is missing. Refuses
    (ValueError) a start rate r0 outside the solved grid, where K and c_hat
    would be read at the grid's edge."""
    out = _outdir(args)
    if not (out / "solution.csv").exists():
        print(f"no solution.csv in {out}; run solve first")
        return out, None
    data = read_csv(out / "solution.csv")
    r = data["r"]
    if r0 is not None and not r[0] <= r0 <= r[-1]:
        raise ValueError(f"sim.r0={fmt(r0)} lies outside the solved grid [{fmt(r[0])}, {fmt(r[-1])}]")
    return out, {col: GridFunction(float(r[0]), float(r[-1]), data[col]) for col in ("K", "c_hat")}


def cmd_simulate(args, cfg: dict) -> int:
    model = build_model(cfg)
    pcfg = _fill(simulate.PathConfig, cfg, "paths")
    _fill(_check_start, cfg, "sim", model=model)
    out, sol = _load_solution(args, cfg["sim.r0"])
    if sol is None:
        return 5
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
    else:
        (out / "figure2.svg").unlink(missing_ok=True)
    # a record of its own: run_record.txt keeps the solve's
    write_record(
        out / "simulate.txt",
        cfg,
        {
            "command": "simulate",
            "tau_hit": "" if traj.tau_hit is None else fmt(traj.tau_hit),
            "V_min": fmt(traj.V.min()),
        },
    )
    print(f"trajectory written to {out / 'trajectory.csv'}")
    return 0


def cmd_estimate(args, cfg: dict) -> int:
    spec = build_spec(cfg, "A")
    pcfg = _fill(simulate.PathConfig, cfg, "paths")
    _fill(_check_start, cfg, "sim", model=spec.model)
    out, sol = _load_solution(args, cfg["sim.r0"])
    if sol is None:
        return 5
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


def cmd_residual(args, cfg: dict) -> int:
    variant = args.variant.upper()
    spec = build_spec(cfg, "A" if variant == "B" else variant)
    out, sol = _load_solution(args)
    if sol is None:
        return 5
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


COMMANDS = {
    "feasibility": cmd_feasibility,
    "solve": lambda args, cfg: cmd_solve(args, cfg, "A"),
    "solve-b": lambda args, cfg: cmd_solve(args, cfg, "B"),
    "solve-c": lambda args, cfg: cmd_solve(args, cfg, "C"),
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "residual": cmd_residual,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="consrate",
        description="Optimal consumption under diffusion short rates: solve, classify, simulate, estimate.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # flags are also accepted after the subcommand
    for name in COMMANDS:
        _add_common(sub.add_parser(name), suppress=True)
    sub.choices["residual"].add_argument("--variant", default="A", choices=["A", "B", "C", "a", "b", "c"])
    args = parser.parse_args(argv)

    try:
        code = COMMANDS[args.command](args, resolve_config(args))
    except InfeasibleProblem as exc:
        print(f"infeasible: {exc}")
        code = 2
    except InsufficientMemory as exc:
        print(f"out of memory: {exc}")
        code = 6
    except (ValueError, KeyError) as exc:
        # str() of a KeyError quotes its message; print the message itself
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}")
        code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
