"""Tests of the benchmark itself: span arithmetic, gates, hooks and names.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import sys
import types
from pathlib import Path

import consrate
import numpy as np
import pytest

import metrics
import run
from tracing import HOOKS, Hook, Tracer, _operator_sizes, install

ROOT = Path(__file__).resolve().parents[2]
UNIT_RE = r"[A-Za-z0-9_/%.-]{1,16}"


def span(i, name, start, end, parent=None, attrs=None):
    return [i, name, start, end, parent, attrs or {}]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, "hjb.solve_a", 0.0, 10.0),
        span(1, "resolvent.build", 1.0, 3.0, 0),
        span(2, "resolvent.apply", 2.0, 4.0, 0),  # overlaps its sibling: 1..4 is covered once
        span(3, "resolvent.matrix", 2.5, 3.5, 2),
        span(4, "gaussian.kernel", 8.0, 12.0, 0),  # runs past its parent: only 8..10 counts
    ]
    self_s = metrics.self_times(spans)
    assert self_s == pytest.approx({0: 10.0 - 3.0 - 2.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 4.0})
    trace = metrics.OpTrace(spans, {})
    assert trace.layer_self("resolvent") == pytest.approx(4.0)
    assert trace.layer_self("hjb") == pytest.approx(5.0)
    assert trace.duration("resolvent.apply", "resolvent.matrix") == pytest.approx(3.0)


def _launch(op_s=1.0):
    return run.Launch(
        code=0, wall_s=2.0, rss_mb=100.0, record={"imported_at": 1.5, "op_s": op_s},
        stderr="", timed_out=False, spawned_at=1.0,
    )


def _write_profile(directory: Path, scale: float) -> None:
    ref = metrics.read_columns(run.REF / "desk-solve.csv")
    with open(directory / "solution.csv", "w") as fh:
        fh.write("r,K\n")
        for r, k in zip(ref["r"], ref["K"] * scale):
            fh.write(f"{float(r)!r},{float(k)!r}\n")


def test_failed_gate_raises_failed_frac(tmp_path):
    good, bad = tmp_path / "good", tmp_path / "bad"
    good.mkdir()
    bad.mkdir()
    _write_profile(good, 1.0)
    _write_profile(bad, 1.0 + 1e-5)  # ten times the 1e-6 tolerance
    ops = []
    for i, directory in enumerate((good, bad)):
        failures, accuracy = run.WORKLOADS["desk-solve"].check(directory)
        ops.append(run.Op(i, False, _launch(), failures, accuracy))
    assert ops[0].failures == [] and ops[0].accuracy["hjb_residual"] <= 1e-3
    assert "pinned profile" in ops[1].failures[0]
    e2e = run.end_to_end(ops, [0.5, 0.5, 0.5])
    assert e2e["failed_frac"] == (0.5, "1")
    assert set(run.E2E) <= set(e2e)


def test_estimate_gate_reads_z(tmp_path):
    (tmp_path / "estimate.txt").write_text("J=1\nSE=1e-05\npde_value=1\nz=3.5\n")
    failures, accuracy = run.WORKLOADS["desk-estimate"].check(tmp_path)
    assert failures and accuracy == {"mc_se": 1e-05, "mc_z": 3.5}


def test_rate_stopped_gate_reads_the_pinned_sweep(tmp_path):
    ref = metrics.read_columns(run.REF / "rate-stopped.csv")

    def write(k_l):
        columns = [ref["n"], ref["gamma"], ref["i"], ref["r"], ref["K"], ref["K"], k_l]
        np.save(tmp_path / "solution.npy", np.rec.fromarrays(columns, names="n,gamma,i,r,K,N_pow,K_L"))

    write(ref["K_L"])
    assert run.WORKLOADS["rate-stopped"].check(tmp_path) == ([], {})
    write(ref["K_L"] * (1.0 - 1e-5))  # ten times the 1e-6 tolerance, still inside the bracket
    failures, _ = run.WORKLOADS["rate-stopped"].check(tmp_path)
    assert len(failures) == 1 and "pinned profiles" in failures[0]


@pytest.fixture
def fake_package(monkeypatch):
    """A stand-in for consrate: a function imported into a second module, a
    class whose constructor lost a field the counters read."""
    pkg = types.ModuleType("fakepkg")
    feas = types.ModuleType("fakepkg.feasibility")
    hjb = types.ModuleType("fakepkg.hjb")
    res = types.ModuleType("fakepkg.resolvent")

    def classify(x):
        return x

    class QuadratureOperator:
        def __init__(self):
            self.nodes = np.zeros(3)  # no ``y`` and ``n_steps`` any more

    feas.classify = hjb.classify = classify
    res.QuadratureOperator = QuadratureOperator
    for module in (pkg, feas, hjb, res):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return types.SimpleNamespace(feas=feas, hjb=hjb, res=res)


def test_missing_hook_gives_missing_metric(fake_package):
    hooks = (
        Hook("feasibility.classify", "fakepkg.feasibility", "classify"),
        Hook("gaussian.kernel", "fakepkg.gaussian", "fk_kernel_weight"),  # module gone
        Hook("hjb.solve_a", "fakepkg.hjb", "solve_problem_a"),  # renamed
        Hook("resolvent.build", "fakepkg.resolvent", "QuadratureOperator.__init__", _operator_sizes),
    )
    tracer = Tracer()
    missing = install(tracer, hooks, package="fakepkg")
    assert missing == ["gaussian.kernel", "hjb.solve_a"]

    fake_package.hjb.classify(1)  # through the imported name
    fake_package.feas.classify(2)
    fake_package.res.QuadratureOperator()  # wrapped on the class
    assert [s[1] for s in tracer.spans] == ["feasibility.classify"] * 2 + ["resolvent.build"]

    values, gone = metrics.op_metrics(tracer.spans, {}, missing)
    assert values["feasibility.classify_calls"] == 2.0
    assert values["resolvent.builds"] == 1.0
    for name in ("gaussian.kernel_calls", "hjb.solve_s", "resolvent.self_s", "resolvent.n_r", "cli.import_s"):
        assert name in gone and name not in values
    assert set(values) | set(gone) == set(metrics.PER_OP)


def test_hooks_resolve_on_this_tree():
    import consrate.cli  # noqa: F401  (the op process imports it before installing)

    tracer = Tracer()
    assert install(tracer, HOOKS) == []
    spec = consrate.ProblemSpec(consrate.Vasicek(0.03, 0.5, 0.02), 0.5, 1.5304, "A")
    consrate.hjb.classify(spec)  # the name hjb imported, not feasibility's own
    assert [s[1] for s in tracer.spans] == ["feasibility.classify"]


def test_hjb_residual_matches_the_package_audit():
    from consrate.grids import GridFunction
    from consrate.hjb import central_window, hjb_residual

    ref = metrics.read_columns(run.REF / "desk-solve.csv")
    spec = consrate.ProblemSpec(consrate.Vasicek(0.03, 0.5, 0.02), 0.5, 1.5304, "A")
    _, rel = hjb_residual(spec, GridFunction(ref["r"][0], ref["r"][-1], ref["K"]))
    expected = float(np.max(np.abs(central_window(rel).values)))
    assert metrics.hjb_residual(ref["r"], ref["K"]) == pytest.approx(expected, rel=1e-9)


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       751 |     960826 |   consrate\n"
        "import time:      6820 |     969888 | consrate.cli\n"
        "unrelated line\n"
    )
    assert metrics.parse_importtime(text) == {"consrate": 0.960826, "consrate.cli": 0.969888}


def test_metric_names_and_units():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name) and len(name) <= 64, name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(UNIT_RE, m["unit"]), m
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
