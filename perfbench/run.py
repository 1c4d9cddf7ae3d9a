"""consrate benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one caller: ops one after another,
each in a fresh interpreter (``op.py``), as each ``consrate`` CLI launch is,
for about S seconds: the run ends at the op boundary nearest to S. Every op's
output is checked: an op fails on a nonzero exit, an exception, a failed
accuracy check, or an output that differs from the first op's of the run. A
workload whose op takes two thirds of S or more runs one op; its determinism
is checked in the trace runs, which alternate untraced and traced ops and so
always hold two. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``).

The program is run from ``src/`` of the checkout this file sits in, through an
absolute ``PYTHONPATH``; scratch output goes to ``.bench_work/`` there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from metrics import PER_LAYER_UNITS, hjb_residual, op_metrics, parse_importtime, profile_gap, read_columns, read_record

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REF = HERE / "ref"  # outputs of the seed code; rate-stopped.csv keeps the rows at r = 0, 0.03, ..., 0.15
WORK = ROOT / ".bench_work"

NPROC = len(os.sched_getaffinity(0))
# one BLAS thread (at most nproc, as required): on a shared 2-vCPU machine a
# two-thread BLAS made the mid-solve op about twice as noisy for ~12% speed
BLAS_THREADS = 1
MIN_SETUPS = 3  # set-up-only launches top up the untraced ops, so setup_s is a median of at least three
RUN_LIMIT_S = 170.0  # a run must end within 180 s; no op starts that could overrun this

PAPER_EXCLUDED = (
    "the paper profile (grid.n=751, quad.dt=0.001, quad.dy=0.0002, m_max=65) is not a workload: "
    "every clamp level rebuilds 12000 propagators, projected at about 2.7 days"
)


# ---------------------------------------------------------------------------
# output checks: (op directory) -> (failures, accuracy values)


def _check_profile(op_dir: Path, ref_name: str):
    cols = read_columns(op_dir / "solution.csv")
    ref = read_columns(REF / ref_name)
    gap = profile_gap(cols["r"], cols["K"], ref["r"], ref["K"])
    res = hjb_residual(cols["r"], cols["K"])
    failures = []
    if not gap <= 1e-6:
        failures.append(f"K is {gap:.3g} relative from the pinned profile (limit 1e-6)")
    if not res <= 1e-3:
        failures.append(f"central HJB residual {res:.3g} (limit 1e-3)")
    return failures, {"hjb_residual": res}


def _check_estimate(op_dir: Path):
    rec = read_record(op_dir / "estimate.txt")
    z = float(rec["z"])
    failures = [] if abs(z) <= 3.0 else [f"MC vs PDE |z| = {abs(z):.3g} (limit 3)"]
    return failures, {"mc_se": float(rec["SE"]), "mc_z": z}


def _check_rate_stopped(op_dir: Path):
    table = np.load(op_dir / "solution.npy")
    cols = {name: table[name] for name in table.dtype.names}
    ref = read_columns(REF / "rate-stopped.csv")
    k, kl = cols["K"], cols["K_L"]
    low = float(np.max(kl - k))
    high = float(np.max(k - cols["N_pow"]))
    pinned = cols["i"] % ((cols["n"] - 1) // 5) == 0  # r = 0, 0.03, ..., 0.15 on every grid
    got = {name: values[pinned] for name, values in cols.items()}
    gap = float("inf")  # unless every pinned solve and node is there
    if all(np.array_equal(got[c], ref[c]) for c in ("n", "gamma", "i")):
        gap = max(profile_gap(got["r"], got[name], ref["r"], ref[name]) for name in ("K", "K_L"))
    failures = []
    if not np.all(k[cols["i"] == 0] == 1.0):
        failures.append("K(0) is not pinned to 1 in every solve")
    if not (low <= 1e-5 and high <= 1e-5):
        failures.append(f"bracket slack low {low:.3g} / high {high:.3g} (limit 1e-5)")
    if not gap <= 1e-6:
        failures.append(f"K or K_L is {gap:.3g} relative from the pinned profiles (limit 1e-6)")
    return failures, {}


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    why: str
    kind: str  # op kind in op.py
    args: tuple[str, ...]  # op arguments; "{seed}" is replaced by the workload seed
    check: Callable[[Path], tuple[list[str], dict]]  # op directory -> (failures, accuracy values)
    artifacts: tuple[str, ...]  # outputs that must be byte-identical across ops
    prepare: bool = False  # needs a desk solution.csv, written once before the ops

    def op_args(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.args]


CLI = ("--output", ".", "--seed", "{seed}")

WORKLOADS = {
    "desk-solve": Workload(
        "CLI solve at the desk profile, the command users run most; the cached propagator stack "
        "(1200 kernels) dominates",
        "cli", CLI + ("solve",), partial(_check_profile, ref_name="desk-solve.csv"), ("solution.csv",),
    ),
    "mid-solve": Workload(
        "CLI solve halfway to the paper profile; the stack no longer fits the cache, so each of 4 "
        "lambda levels rebuilds 2400 propagators",
        "cli", CLI + ("--set", "grid.n=151", "--set", "quad.dt=0.005", "--set", "quad.dy=0.0014", "solve"),
        partial(_check_profile, ref_name="mid-solve.csv"), ("solution.csv",),
    ),
    "desk-estimate": Workload(
        "CLI estimate at the desk profile (10k paths x 16000 steps): path simulation and grid "
        "interpolation do the work, the resolvent is idle",
        "cli", CLI + ("estimate",), _check_estimate, ("estimate.txt",), prepare=True,
    ),
    "rate-stopped": Workload(
        "library Problem B and K_L (criterion 6) over 51 discount rates and 4 grids: the only "
        "FD-resolvent and Problem-B code",
        "rate-stopped", (), _check_rate_stopped, ("solution.npy",),
    ),
}


# ---------------------------------------------------------------------------
# op launch


@dataclass
class Launch:
    code: int
    wall_s: float
    rss_mb: float
    record: dict | None
    stderr: str
    timed_out: bool
    spawned_at: float

    @property
    def setup_s(self) -> float:
        """Spawn to ``import consrate.cli`` returning."""
        return self.record["imported_at"] - self.spawned_at


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def launch(op_dir: Path, kind: str, args, traced: bool, timeout: float) -> Launch:
    """Run one op process to completion (killing it at ``timeout``) and
    measure it from outside: spawn-to-exit wall time and its own peak RSS."""
    op_dir.mkdir(parents=True, exist_ok=True)
    result = op_dir / "op.json"
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(HERE / "op.py")]
    cmd += [str(result), "1" if traced else "0", kind, *args]
    with open(op_dir / "stdout.txt", "wb") as out, open(op_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=op_dir, env=_env(), stdout=out, stderr=err)
        exited = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited = bool(select.select([pidfd], [], [], max(timeout, 0.0))[0])
            finally:
                os.close(pidfd)
        finally:
            if not exited:
                proc.kill()  # timed out or interrupted; not yet reaped, so the pid is still this child's
            _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(result.read_text())
    except (OSError, ValueError):  # the op died before writing its record
        record = None
    return Launch(
        code=proc.returncode,
        wall_s=ended - spawned,
        rss_mb=usage.ru_maxrss / 1024.0,
        record=record,
        stderr=(op_dir / "stderr.txt").read_text(errors="replace"),
        timed_out=not exited,
        spawned_at=spawned,
    )


@dataclass
class Op:
    index: int
    traced: bool
    run: Launch
    failures: list[str] = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)


def run_op(work: Workload, seed: int, index: int, traced: bool, timeout: float, prepared: Path | None, reference: dict) -> Op:
    op_dir = WORK / f"op{index:03d}"
    op_dir.mkdir(parents=True)
    if prepared is not None:
        shutil.copyfile(prepared, op_dir / "solution.csv")
    op = Op(index, traced, launch(op_dir, work.kind, work.op_args(seed), traced, timeout))
    if op.run.timed_out:
        op.failures.append(f"killed after {timeout:.0f} s")
    if op.run.record is None:
        op.failures.append("no result record (the op process died)")
    if op.run.code != 0:
        tail = op.run.stderr.strip().splitlines()[-1:] or [""]
        op.failures.append(f"exit code {op.run.code} {tail[0]}".rstrip())
        return op
    try:
        failures, op.accuracy = work.check(op_dir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        failures = [f"output unreadable: {exc!r}"]
    op.failures += failures
    for name in work.artifacts:
        path = op_dir / name
        data = path.read_bytes() if path.exists() else None
        first = reference.setdefault(name, (index, data))
        if first[1] != data:
            op.failures.append(f"{name} differs from op {first[0]} of the same seed")
    return op


# ---------------------------------------------------------------------------
# context record


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def context(workload: str, seed: int) -> dict:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{index}/size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    # identifies the code under test where there is no git history
    sources = hashlib.sha256()
    for path in sorted((SRC / "consrate").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "sources_sha256": sources.hexdigest(),
        "machine": {"nproc": NPROC, "cpu": cpu, "caches": caches},
        "software": {
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "blas": blas,
            "blas_threads": BLAS_THREADS,
        },
        "loop": "closed, one caller; every op is a fresh interpreter",
        "why": WORKLOADS[workload].why,
        "excluded": PAPER_EXCLUDED,
    }


# ---------------------------------------------------------------------------
# the run


def _median(values) -> float:
    return float(statistics.median(values))


# the end-to-end metrics every workload reports (BENCHMARK.json); the
# accuracy metrics and failed_frac are printed beside them
E2E = ("setup_s", "op_s", "wall_s", "peak_rss_mb")


def timed(ops: list[Op], traced: bool) -> list[Op]:
    return [o for o in ops if o.traced == traced and o.run.record is not None and "op_s" in o.run.record]


def end_to_end(ops: list[Op], setups: list[float]) -> dict[str, tuple[float, str]]:
    """(value, unit) per end-to-end metric, timings from the untraced ops;
    hjb_residual and the Monte Carlo metrics only where the workload has them."""
    out = {}
    plain = timed(ops, False)
    if plain:
        op_s = _median([o.run.record["op_s"] for o in plain])
        out["setup_s"] = (_median(setups), "s")
        out["op_s"] = (op_s, "s")
        out["wall_s"] = (_median([o.run.wall_s for o in plain]), "s")
        out["peak_rss_mb"] = (_median([o.run.rss_mb for o in plain]), "MB")
        for key in ("hjb_residual", "mc_se"):
            values = [o.accuracy[key] for o in plain if key in o.accuracy]
            if values:
                out[key] = (_median(values), "1")
        if "mc_se" in out:
            out["mc_wnv"] = (out["mc_se"][0] ** 2 * op_s, "s")
    out["failed_frac"] = (sum(bool(o.failures) for o in ops) / len(ops), "1")
    return out


def per_layer(plain: list[Op], traced: list[Op]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    per_op, missing = [], set()
    for op in traced:
        rec = op.run.record
        values, gone = op_metrics(rec.get("spans", []), parse_importtime(op.run.stderr), rec.get("missing_hooks", []))
        per_op.append(values)
        missing.update(gone)
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in missing or name.startswith("trace."):
            continue
        out[name] = (_median([values[name] for values in per_op]), unit)
    overhead = _median([o.run.record["op_s"] for o in traced]) - _median([o.run.record["op_s"] for o in plain])
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.missing_hooks"] = (float(len(traced[0].run.record.get("missing_hooks", []))), "count")
    return out, sorted(missing)


def _summary(op: Op) -> dict:
    rec = op.run.record or {}
    return {
        "op": op.index,
        "traced": op.traced,
        "code": op.run.code,
        "setup_s": op.run.setup_s if rec else None,
        "op_s": rec.get("op_s"),
        "wall_s": op.run.wall_s,
        "peak_rss_mb": op.run.rss_mb,
        "failures": op.failures,
        **op.accuracy,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through launch, which reaps the op
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "consrate" / "__init__.py").is_file():
        print(f"error: no consrate sources under {SRC}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    trace = bool(args.trace)
    started = time.monotonic()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    setups = []
    prepared = None
    if work.prepare:
        prep_dir = WORK / "prepare"
        desk = WORKLOADS["desk-solve"]
        solve = launch(prep_dir, desk.kind, desk.op_args(args.seed), False, remaining())
        failures = [f"exit code {solve.code}"] if solve.code != 0 else desk.check(prep_dir)[0]
        if failures:
            print(f"error: the desk solve the workload estimates against failed: {failures}", file=sys.stderr)
            return 1
        prepared = prep_dir / "solution.csv"
        setups.append(solve.setup_s)

    ops: list[Op] = []
    reference: dict = {}
    min_ops = 2 if trace else 1  # a trace run needs an untraced and a traced op
    ops_started = time.monotonic()
    while True:
        if ops:
            longest = max(o.run.wall_s for o in ops)
            elapsed = time.monotonic() - ops_started
            # end at the op boundary nearest to the requested seconds
            if len(ops) >= min_ops and (elapsed + elapsed / len(ops) / 2 >= args.seconds or remaining() < 1.2 * longest):
                break
            if remaining() < longest:
                break
        traced = trace and len(ops) % 2 == 1
        ops.append(run_op(work, args.seed, len(ops), traced, remaining(), prepared, reference))

    plain = timed(ops, False)
    setups += [o.run.setup_s for o in plain]
    while not trace and len(setups) < MIN_SETUPS:
        probe = launch(WORK / f"setup{len(setups)}", "import", [], False, remaining())
        if probe.code != 0 or probe.record is None:
            print(f"error: importing consrate failed:\n{probe.stderr}", file=sys.stderr)
            return 1
        setups.append(probe.setup_s)
    e2e = end_to_end(ops, setups)
    failed = [o for o in ops if o.failures]

    lines = [f"consrate benchmark: workload {args.workload}, seed {args.seed}, {len(ops)} ops, {len(failed)} failed"]
    for name, (value, unit) in e2e.items():
        lines.append(f"  {name:<14} {value:.6g} {unit}")
    for op in failed:
        lines.append(f"  op {op.index} failed: {'; '.join(op.failures)}")
    if len(ops) < 2:
        lines.append("  one op: determinism is checked in runs of two or more ops, such as the trace runs")

    metrics = {name: e2e[name] for name in E2E if name in e2e}
    complete = len(metrics) == len(E2E)
    if trace:
        traced_ops = timed(ops, True)
        complete = bool(plain and traced_ops)
        metrics = {}
        if complete:
            metrics, missing = per_layer(plain, traced_ops)
            if missing:
                lines.append(f"  missing per-layer metrics: {', '.join(missing)}")
            spans = [{"op": o.index, "spans": o.run.record.get("spans", [])} for o in traced_ops]
            (WORK / "spans.json").write_text(json.dumps(spans))
        for name, (value, unit) in metrics.items():
            lines.append(f"  {name:<32} {value:.6g} {unit}")

    (WORK / "ops.json").write_text(json.dumps([_summary(o) for o in ops], indent=1))
    ctx = context(args.workload, args.seed)
    (WORK / "context.json").write_text(json.dumps(ctx, indent=1))
    print("\n".join(lines))
    print("context: " + json.dumps(ctx))
    result = {
        "correct": not failed and complete,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
