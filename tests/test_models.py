import math

import numpy as np
import pytest

from consrate import (
    Constant,
    DriftedBM,
    GeometricBM,
    InvariantInterval,
    ProblemSpec,
    Vasicek,
    diffusion,
    domain,
    drift,
    generator_apply,
    invariance_check,
)
from consrate.models import scale_partial_integrals, state_rate

VAS = Vasicek(0.03, 0.5, 0.02)
BOX = InvariantInterval(0.0, 0.1, 1.0, 10.0)


def test_drift_examples():
    assert drift(VAS, 0.05) == pytest.approx(0.03 - 0.5 * 0.05)
    assert drift(Constant(0.05), 0.123) == 0.0
    assert drift(BOX, 0.05) == 0.0
    assert drift(DriftedBM(0.01, 0.2), -3.0) == 0.01
    assert drift(GeometricBM(0.01, 0.2), 2.0) == pytest.approx(0.02)


def test_diffusion_examples():
    assert diffusion(VAS, 0.05) == 0.02
    assert diffusion(BOX, 0.0) == 0.0
    assert diffusion(BOX, 0.05) == pytest.approx(10.0 * 0.05 * 0.05)


def test_diffusion_nonnegative_everywhere():
    r = np.linspace(0.0, 0.1, 101)
    vals = diffusion(BOX, r)
    assert np.all(vals >= 0)
    assert np.all(vals[1:-1] > 0)  # zero only at the endpoints
    assert np.all(np.asarray(diffusion(VAS, np.linspace(-5, 5, 41))) > 0)


def test_domains():
    assert domain(VAS).lo == -math.inf and domain(VAS).hi == math.inf
    box = domain(BOX)
    assert (box.lo, box.hi) == (0.0, 0.1)
    gbm = domain(GeometricBM(0.01, 0.2))
    assert gbm.lo == 0.0 and gbm.hi == math.inf
    const = domain(Constant(0.05))
    assert const.degenerate and const.contains_closure(0.05)


def test_domain_violations_rejected():
    with pytest.raises(ValueError):
        drift(GeometricBM(0.01, 0.2), -1.0)
    with pytest.raises(ValueError):
        diffusion(BOX, 0.2)


def test_model_invariants_validated():
    with pytest.raises(ValueError):
        Vasicek(0.03, -0.5, 0.02)
    with pytest.raises(ValueError):
        InvariantInterval(0.1, 0.1, 1.0, 10.0)  # degenerate a = b
    with pytest.raises(ValueError):
        DriftedBM(0.0, 0.0)


def test_generator_examples():
    assert generator_apply(Constant(0.05), 3.0, -7.0, 0.2) == 0.0
    assert generator_apply(VAS, 0.0, 2.0, 0.0) == pytest.approx(0.5 * 0.02**2 * 2.0)
    assert generator_apply(VAS, 1.0, 0.0, 0.05) == pytest.approx(drift(VAS, 0.05))


def test_generator_linearity():
    rng = np.random.default_rng(7)
    r = np.linspace(-1.0, 1.0, 9)
    for _ in range(20):
        f1, fp1, fpp1 = rng.standard_normal((3, r.size))
        f2, fp2, fpp2 = rng.standard_normal((3, r.size))
        a, b = rng.standard_normal(2)
        lhs = generator_apply(VAS, a * fp1 + b * fp2, a * fpp1 + b * fpp2, r)
        rhs = a * generator_apply(VAS, fp1, fpp1, r) + b * generator_apply(VAS, fp2, fpp2, r)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-13)


def test_state_rate_constant_model():
    assert state_rate(Constant(0.05), np.array([0.0, 0.1])).tolist() == [0.05, 0.05]
    assert state_rate(VAS, 0.07) == 0.07


def test_invariance_check_true_and_mesh_stable():
    rep = invariance_check(BOX)
    assert rep.invariant
    assert rep.lower_partial > rep.threshold and rep.upper_partial > rep.threshold
    refined = invariance_check(BOX, points_per_segment=64)
    assert refined.invariant == rep.invariant


def test_scale_function_finite_for_constant_volatility():
    # constant sigma with bounded inward drift: the scale integral converges
    lo, up = scale_partial_integrals(
        lambda y: 1.0 * (0.05 - np.asarray(y)),
        lambda y: np.full_like(np.asarray(y, dtype=float), 0.3),
        0.0,
        0.1,
    )
    assert lo < 1.0 and up < 1.0


def test_invariance_check_rejects_degenerate_interior():
    class _Fake(InvariantInterval):
        pass

    with pytest.raises(ValueError):
        invariance_check(Vasicek(0.03, 0.5, 0.02))


def test_problem_spec_validation():
    ProblemSpec(VAS, 0.5, 1.5304, "A")
    with pytest.raises(ValueError):
        ProblemSpec(VAS, 1.0, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(VAS, 0.5, -0.1)
    with pytest.raises(ValueError):
        ProblemSpec(VAS, 0.5, 1.0, "D")


def test_variant_b_needs_zero_interior():
    ProblemSpec(VAS, 0.5, 1.5304, "B")  # domain is the whole line
    with pytest.raises(ValueError, match="reduces to variant A"):
        ProblemSpec(GeometricBM(0.01, 0.2), 0.5, 1.0, "B")
    with pytest.raises(ValueError):
        ProblemSpec(BOX, 0.5, 0.1, "B")  # 0 is the boundary, not interior
    with pytest.raises(ValueError):
        ProblemSpec(Constant(0.05), 0.5, 0.1, "B")
