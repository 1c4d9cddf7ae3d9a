import pytest

from consrate import (
    Constant,
    DriftedBM,
    Feasibility,
    GeometricBM,
    InfeasibleProblem,
    InvariantInterval,
    ProblemSpec,
    Vasicek,
    classify,
    constant_rate_solution,
    necessary_condition_probe,
    solve_linear_fk_ode,
    sufficient_condition_search,
    supersolution_N,
)

VAS = Vasicek(0.03, 0.5, 0.02)


def test_classify_vasicek_paper_finite():
    rep = classify(ProblemSpec(VAS, 0.5, 1.5304, "A"))
    assert rep.verdict is Feasibility.FINITE
    g1, g2 = rep.thresholds
    assert g1 == pytest.approx(0.0308, abs=1e-12)
    assert g2 == pytest.approx(0.0608485281374239, abs=1e-12)
    assert rep.rho == pytest.approx(3.0, abs=1e-12)
    assert rep.sufficient_pair is not None


def test_classify_vasicek_between_thresholds_unknown():
    rep = classify(ProblemSpec(VAS, 0.5, 0.05, "A"))
    assert rep.verdict is Feasibility.UNKNOWN
    assert rep.thresholds is not None


def test_classify_constant():
    assert classify(ProblemSpec(Constant(0.05), 0.5, 0.1, "A")).verdict is Feasibility.FINITE
    rep = classify(ProblemSpec(Constant(0.05), 0.5, 0.02, "A"))
    assert rep.verdict is Feasibility.INFINITE
    assert rep.divergence_witness[0] == pytest.approx(0.5 * 0.05 - 0.02)
    # the boundary gamma = alpha r is already infinite (sup over c -> 0)
    assert classify(ProblemSpec(Constant(0.05), 0.5, 0.025, "A")).verdict is Feasibility.INFINITE


def test_classify_interval():
    box = InvariantInterval(0.0, 0.1, 1.0, 10.0)
    assert classify(ProblemSpec(box, 0.5, 0.1, "A")).verdict is Feasibility.FINITE
    assert classify(ProblemSpec(box, 0.5, 0.04, "A")).verdict is Feasibility.UNKNOWN


def test_classify_bm_gbm_infinite_with_cubic_witness():
    for model in (DriftedBM(0.01, 0.2), GeometricBM(0.01, 0.2)):
        rep = classify(ProblemSpec(model, 0.5, 5.0, "A"))
        assert rep.verdict is Feasibility.INFINITE
        assert rep.divergence_witness[2] == pytest.approx(0.25 * 0.04 / 6.0)
        assert rep.divergence_witness[2] > 0


def test_constant_rate_solution_examples():
    value, rate = constant_rate_solution(0.5, 0.1, 0.05, 4.0)
    assert value == pytest.approx(0.15**-0.5 * 2.0, rel=1e-12)
    assert rate == pytest.approx(0.15)
    value2, rate2 = constant_rate_solution(0.5, 1.0, 0.0, 1.0)
    assert rate2 == pytest.approx(2.0)
    assert value2 == pytest.approx(2.0**-0.5, rel=1e-12)


def test_constant_rate_homogeneity():
    v1, _ = constant_rate_solution(0.5, 0.1, 0.05, 1.0)
    v4, _ = constant_rate_solution(0.5, 0.1, 0.05, 4.0)
    assert v4 == pytest.approx(2.0 * v1, rel=1e-12)


def test_constant_rate_infeasible_signal():
    with pytest.raises(InfeasibleProblem):
        constant_rate_solution(0.5, 0.02, 0.05, 1.0)


def test_constant_rate_satisfies_scalar_hjb():
    alpha, gamma, r = 0.5, 0.1, 0.05
    value, _ = constant_rate_solution(alpha, gamma, r, 1.0)
    K = value  # v = 1
    res = (alpha * r - gamma) * K + (1 - alpha) * K ** (alpha / (alpha - 1))
    assert abs(res) <= 1e-15


def test_probe_examples():
    assert necessary_condition_probe(ProblemSpec(DriftedBM(0.01, 0.2), 0.5, 9.0, "A"), 1.0) == "divergent"
    assert necessary_condition_probe(ProblemSpec(GeometricBM(0.01, 0.2), 0.5, 9.0, "A"), 5.0) == "divergent"
    assert necessary_condition_probe(ProblemSpec(Constant(0.05), 0.5, 0.1, "A"), 1.0) == "finite"
    # Vasicek below its mean-growth rate diverges even for small consumption
    assert necessary_condition_probe(ProblemSpec(VAS, 0.5, 0.01, "A"), 0.001) == "divergent"
    assert necessary_condition_probe(ProblemSpec(VAS, 0.5, 1.5304, "A"), 0.001) == "finite"


def test_probe_requires_positive_consumption():
    with pytest.raises(ValueError):
        necessary_condition_probe(ProblemSpec(VAS, 0.5, 1.0, "A"), 0.0)


def test_infinite_verdicts_imply_divergent_probe():
    specs = [
        ProblemSpec(Constant(0.5), 0.5, 0.1, "A"),
        ProblemSpec(DriftedBM(0.0, 0.3), 0.5, 2.0, "A"),
        ProblemSpec(GeometricBM(0.05, 0.3), 0.5, 2.0, "A"),
    ]
    for spec in specs:
        if classify(spec).verdict is Feasibility.INFINITE:
            assert necessary_condition_probe(spec, 1.0) in ("divergent",) or isinstance(
                spec.model, Constant
            )
    # constant case with c = 1: rate alpha*r - gamma - alpha*c = 0.25 - 0.1 - 0.5 < 0,
    # so the certificate needs smaller c
    assert necessary_condition_probe(ProblemSpec(Constant(0.5), 0.5, 0.1, "A"), 0.1) == "divergent"


def test_classify_is_deterministic():
    spec = ProblemSpec(VAS, 0.5, 1.5304, "A")
    assert classify(spec) == classify(spec)


def test_sufficient_search_finds_pair_at_paper_parameters():
    delta, p = sufficient_condition_search(ProblemSpec(VAS, 0.5, 1.5304, "A"))
    assert delta > 0
    assert 1.0 < p < 2.0
    q = p / (p - 1.0)
    rate = 0.5 * q * 0.03 / 0.5 + (0.5 * q) ** 2 * 0.02**2 / (2 * 0.25) - (1.5304 - delta) * q
    assert rate < 0


def test_sufficient_search_collapses_near_alpha_one():
    spec = ProblemSpec(Vasicek(0.03, 0.5, 0.5), 0.999, 0.5, "A")
    assert sufficient_condition_search(spec) is None


# (alpha, b, gamma) with gamma = alpha b up to one rounding, on either side
INTERVAL_BOUNDARY = [(0.3, 0.9, 0.27), (0.21, 0.59, 0.1239), (0.8, 0.57, 0.456)]


def _returns(fn) -> bool:
    try:
        fn()
    except InfeasibleProblem:
        return False
    return True


@pytest.mark.parametrize("alpha, b, gamma", INTERVAL_BOUNDARY)
def test_interval_verdict_agrees_with_supersolution_at_the_boundary(alpha, b, gamma):
    spec = ProblemSpec(InvariantInterval(0.0, b, 1.0, 1.0), alpha, gamma, "C")
    finite = classify(spec).verdict is Feasibility.FINITE
    assert _returns(lambda: supersolution_N(spec, 0.5 * b)) is finite
    assert _returns(lambda: solve_linear_fk_ode(spec, n_nodes=201)) is finite


def test_interval_reason_shows_the_compared_values():
    box = InvariantInterval(0.0, 0.9, 1.0, 1.0)
    rep = classify(ProblemSpec(box, 0.3, 0.27, "A"))
    assert rep.verdict is Feasibility.UNKNOWN
    assert "gamma = 0.27 <= alpha b = 0.27" in rep.reason
    box = InvariantInterval(0.0, 0.59, 1.0, 1.0)
    rep = classify(ProblemSpec(box, 0.21, 0.1239, "A"))
    assert rep.verdict is Feasibility.FINITE
    assert "gamma = 0.1239 > alpha b = 0.12389999999999998" in rep.reason


def test_require_lets_through_only_what_the_policy_allows():
    finite = classify(ProblemSpec(VAS, 0.5, 1.5304, "A"))
    unknown = classify(ProblemSpec(VAS, 0.5, 0.05, "A"))
    infinite = classify(ProblemSpec(DriftedBM(0.01, 0.2), 0.5, 3.0, "A"))
    finite.require()
    unknown.require(allow_unknown=True)
    with pytest.raises(InfeasibleProblem, match="UNKNOWN"):
        unknown.require()
    for allow in (False, True):
        with pytest.raises(InfeasibleProblem, match="INFINITE"):
            infinite.require(allow_unknown=allow)
