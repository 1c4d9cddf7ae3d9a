"""Spans around calls into consrate's public entry points, installed from outside.

An op process imports consrate, then calls :func:`install`, which replaces each
entry point in ``HOOKS`` by a timing wrapper. A module-level function is found
by identity and rebound at every binding in the ``consrate.*`` modules, so calls
through imported names (``hjb.classify``, ``resolvent.fk_kernel_weight``) are
caught as well as calls through the defining module. A method is wrapped on
its class. An entry point that no longer exists is returned as missing; the
metrics that need it are then reported missing instead of failing the run.

Spans are kept in memory as ``[id, name, start, end, parent, attrs]`` lists and
written out by the op process when the op ends. The parent is the innermost
span open at call time, which is exact because consrate runs one thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """``target`` is ``"function"`` or ``"Class.method"`` in ``module``; the span
    is called ``name``, whose prefix before the first dot is its layer.
    ``attrs(args, kwargs, result)`` returns counters recorded on the span."""

    name: str
    module: str
    target: str
    attrs: Callable | None = None


def _points(args, kwargs, result):
    return {"points": int(result.size)}


def _operator_sizes(args, kwargs, result):
    op = args[0]
    return {"n_r": int(op.nodes.size), "n_y": int(op.y.size), "n_steps": int(op.n_steps)}


def _clamp_level(args, kwargs, result):
    return {"m": float(args[0])}


def _j_estimate(args, kwargs, result):
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    steps = int(round(cfg.t_max / cfg.dt))
    return {"paths": cfg.n_paths, "path_steps": cfg.n_paths * steps, "tail_bound": float(result.tail_bound)}


HOOKS = (
    Hook("cli.write_csv", "consrate.cli", "write_csv"),
    Hook("cli.write_figure", "consrate.svgfig", "write_figure"),
    Hook("feasibility.classify", "consrate.feasibility", "classify"),
    Hook("gaussian.kernel", "consrate.gaussian", "fk_kernel_weight", _points),
    Hook("gaussian.supersolution_N", "consrate.gaussian", "supersolution_N"),
    Hook("resolvent.build", "consrate.resolvent", "QuadratureOperator.__init__", _operator_sizes),
    Hook("resolvent.matrix", "consrate.resolvent", "QuadratureOperator.resolvent_matrix"),
    Hook("resolvent.apply", "consrate.resolvent", "QuadratureOperator.apply"),
    Hook("resolvent.fd_assemble", "consrate.resolvent", "fd_system"),
    Hook("resolvent.fd_solve", "consrate.resolvent", "TridiagSystem.solve"),
    Hook("hjb.solve_a", "consrate.hjb", "solve_problem_a"),
    Hook("hjb.solve_b", "consrate.hjb", "solve_problem_b"),
    Hook("hjb.kl", "consrate.hjb", "compute_KL"),
    Hook("hjb.clamp", "consrate.hjb", "clamp_F", _clamp_level),
    Hook("simulate.estimate_J", "consrate.simulate", "estimate_J", _j_estimate),
    Hook("grids.interp", "consrate.grids", "GridFunction.__call__", _points),
)


class Tracer:
    """In-memory span recorder for one op."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, open_ids = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0, open_ids[-1] if open_ids else None, {}]
            spans.append(span)
            open_ids.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_ids.pop()
            if attrs is not None:
                try:
                    span[5] = attrs(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass  # a renamed field leaves the counters absent, so their metrics go missing
            return result

        return traced


def _namespaces(package: str):
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == package or name.startswith(package + "."))]


def install(tracer: Tracer, hooks=HOOKS, package: str = "consrate") -> list[str]:
    """Wrap every hook; return the names of hooks whose entry point is gone."""
    missing = []
    for hook in hooks:
        try:
            module = importlib.import_module(hook.module)
            owner_name, _, attr = hook.target.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attr, tracer.wrap(hook.name, owner.__dict__[attr], hook.attrs))
                continue
            fn = getattr(module, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(hook.name)
            continue
        wrapped = tracer.wrap(hook.name, fn, hook.attrs)
        for ns in _namespaces(package):
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapped)
    return missing
