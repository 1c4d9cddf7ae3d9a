"""Per-layer metrics from an op's spans, and the benchmark's own accuracy checks.

Nothing here imports consrate: run.py computes every metric and gate from
what the op process wrote, so the numbers do not depend on the code under test
reporting on itself.
"""

from __future__ import annotations

import re
from collections import defaultdict

import numpy as np

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# the desk model and problem (consrate's configuration defaults); the solve
# workloads change only the grid and quadrature steps
A, B, SIGMA, ALPHA, GAMMA = 0.03, 0.5, 0.02, 0.5, 1.5304


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children.

    A span is ``[id, name, start, end, parent, attrs]``."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    out = {}
    for span in spans:
        start, end = span[2], span[3]
        covered, cursor = 0.0, start
        for a, b in sorted(children[span[0]]):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[span[0]] = (end - start) - covered
    return out


class OpTrace:
    """Queries over the spans and import times of one traced op."""

    def __init__(self, spans, imports: dict[str, float]):
        self.spans = spans
        self.imports = imports
        self._self = self_times(spans)

    def named(self, *names):
        return [s for s in self.spans if s[1] in names]

    def duration(self, *names) -> float:
        return sum(s[3] - s[2] for s in self.named(*names))

    def count(self, *names) -> int:
        return len(self.named(*names))

    def attr(self, name: str, key: str) -> list:
        return [s[5][key] for s in self.named(name)]

    def layer_self(self, layer: str) -> float:
        return sum(self._self[s[0]] for s in self.spans if s[1].split(".", 1)[0] == layer)

    def import_s(self, module: str) -> float:
        return self.imports[module]


def _steps_per_s(t: OpTrace) -> float:
    seconds = t.duration("simulate.estimate_J")
    return sum(t.attr("simulate.estimate_J", "path_steps")) / seconds if seconds > 0 else 0.0


ALL = "*"  # self time needs every hook: a missing child would be booked to its parent

# name -> (unit, hooks the metric needs, computation); an idle layer reads 0
PER_OP = {
    "cli.import_s": ("s", (), lambda t: t.import_s("consrate.cli")),
    "resolvent.import_s": ("s", (), lambda t: t.import_s("consrate.resolvent")),
    "simulate.import_s": ("s", (), lambda t: t.import_s("consrate.simulate")),
    "cli.emit_s": ("s", ("cli.write_csv", "cli.write_figure"), lambda t: t.duration("cli.write_csv", "cli.write_figure")),
    "feasibility.classify_s": ("s", ("feasibility.classify",), lambda t: t.duration("feasibility.classify")),
    "feasibility.classify_calls": ("count", ("feasibility.classify",), lambda t: t.count("feasibility.classify")),
    "gaussian.kernel_s": ("s", ("gaussian.kernel",), lambda t: t.duration("gaussian.kernel")),
    "gaussian.kernel_calls": ("count", ("gaussian.kernel",), lambda t: t.count("gaussian.kernel")),
    "gaussian.kernel_points": ("count", ("gaussian.kernel",), lambda t: sum(t.attr("gaussian.kernel", "points"))),
    "gaussian.supersolution_N_s": ("s", ("gaussian.supersolution_N",), lambda t: t.duration("gaussian.supersolution_N")),
    "gaussian.supersolution_N_calls": ("count", ("gaussian.supersolution_N",), lambda t: t.count("gaussian.supersolution_N")),
    "resolvent.build_s": ("s", ("resolvent.build",), lambda t: t.duration("resolvent.build")),
    "resolvent.builds": ("count", ("resolvent.build",), lambda t: t.count("resolvent.build")),
    "resolvent.matrix_s": ("s", ("resolvent.matrix",), lambda t: t.duration("resolvent.matrix")),
    "resolvent.matrix_calls": ("count", ("resolvent.matrix",), lambda t: t.count("resolvent.matrix")),
    "resolvent.apply_s": ("s", ("resolvent.apply",), lambda t: t.duration("resolvent.apply")),
    "resolvent.apply_calls": ("count", ("resolvent.apply",), lambda t: t.count("resolvent.apply")),
    "resolvent.self_s": ("s", ALL, lambda t: t.layer_self("resolvent")),
    "resolvent.n_r": ("count", ("resolvent.build",), lambda t: max(t.attr("resolvent.build", "n_r"), default=0)),
    "resolvent.n_y": ("count", ("resolvent.build",), lambda t: max(t.attr("resolvent.build", "n_y"), default=0)),
    "resolvent.n_steps": ("count", ("resolvent.build",), lambda t: max(t.attr("resolvent.build", "n_steps"), default=0)),
    "resolvent.fd_assemble_s": ("s", ("resolvent.fd_assemble",), lambda t: t.duration("resolvent.fd_assemble")),
    "resolvent.fd_assembles": ("count", ("resolvent.fd_assemble",), lambda t: t.count("resolvent.fd_assemble")),
    "resolvent.fd_solve_s": ("s", ("resolvent.fd_solve",), lambda t: t.duration("resolvent.fd_solve")),
    "resolvent.fd_solves": ("count", ("resolvent.fd_solve",), lambda t: t.count("resolvent.fd_solve")),
    "hjb.solve_s": ("s", ("hjb.solve_a", "hjb.solve_b"), lambda t: t.duration("hjb.solve_a", "hjb.solve_b")),
    "hjb.self_s": ("s", ALL, lambda t: t.layer_self("hjb")),
    "hjb.steps": ("count", ("hjb.clamp",), lambda t: t.count("hjb.clamp")),
    "hjb.lambda_levels": ("count", ("hjb.clamp",), lambda t: len(set(t.attr("hjb.clamp", "m")))),
    "hjb.kl_s": ("s", ("hjb.kl",), lambda t: t.duration("hjb.kl")),
    "simulate.estimate_s": ("s", ("simulate.estimate_J",), lambda t: t.duration("simulate.estimate_J")),
    "simulate.self_s": ("s", ALL, lambda t: t.layer_self("simulate")),
    "simulate.paths": ("count", ("simulate.estimate_J",), lambda t: sum(t.attr("simulate.estimate_J", "paths"))),
    "simulate.path_steps": ("count", ("simulate.estimate_J",), lambda t: sum(t.attr("simulate.estimate_J", "path_steps"))),
    "simulate.path_steps_per_s": ("1/s", ("simulate.estimate_J",), _steps_per_s),
    "simulate.tail_bound": ("1", ("simulate.estimate_J",), lambda t: max(t.attr("simulate.estimate_J", "tail_bound"), default=0.0)),
    "grids.interp_s": ("s", ("grids.interp",), lambda t: t.duration("grids.interp")),
    "grids.interp_calls": ("count", ("grids.interp",), lambda t: t.count("grids.interp")),
    "grids.interp_points": ("count", ("grids.interp",), lambda t: sum(t.attr("grids.interp", "points"))),
}

# measured over the whole traced run rather than per op
PER_RUN = {"trace.overhead_s": "s", "trace.missing_hooks": "count"}

PER_LAYER_UNITS = {name: unit for name, (unit, _, _) in PER_OP.items()} | PER_RUN


def op_metrics(spans, imports: dict[str, float], missing_hooks) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced op, and the names of those that could
    not be measured (a hook whose entry point is gone, a counter a renamed
    field no longer yields, a module that was not imported)."""
    trace = OpTrace(spans, imports)
    values, missing = {}, []
    for name, (_, needs, compute) in PER_OP.items():
        if missing_hooks and (needs == ALL or set(needs) & set(missing_hooks)):
            missing.append(name)
            continue
        try:
            values[name] = float(compute(trace))
        except KeyError:
            missing.append(name)
    return values, missing


def parse_importtime(stderr_text: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:") :].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out[parts[2].strip()] = int(parts[1]) * 1e-6
    return out


# ---------------------------------------------------------------------------
# accuracy checks


def read_columns(path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def read_record(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def hjb_residual(r: np.ndarray, k: np.ndarray) -> float:
    """Sup over the central half of the window of the relative residual of
    0.5 sigma^2 K'' + (a - b r) K' + (alpha r - gamma) K + (1 - alpha) K^(alpha/(alpha-1)),
    with central differences on the interior nodes, relative to 1 + |K|."""
    h = (r[-1] - r[0]) / (r.size - 1)
    x, mid = r[1:-1], k[1:-1]
    d1 = (k[2:] - k[:-2]) / (2.0 * h)
    d2 = (k[2:] - 2.0 * mid + k[:-2]) / h**2
    raw = 0.5 * SIGMA**2 * d2 + (A - B * x) * d1 + (ALPHA * x - GAMMA) * mid
    raw += (1.0 - ALPHA) * np.power(mid, ALPHA / (ALPHA - 1.0))
    rel = raw / (1.0 + np.abs(mid))
    span = x[-1] - x[0]
    central = (x >= x[0] + 0.25 * span - 1e-12) & (x <= x[-1] - 0.25 * span + 1e-12)
    return float(np.max(np.abs(rel[central])))


def profile_gap(r, k, r_ref, k_ref) -> float:
    """Largest relative gap between a K profile and its pinned reference; inf
    when the nodes differ."""
    if r.shape != r_ref.shape or not np.allclose(r, r_ref, rtol=0.0, atol=1e-12):
        return float("inf")
    return float(np.max(np.abs(k - k_ref) / np.abs(k_ref)))
