import math

import numpy as np
import pytest

from finslerlab import catalog, geometry, jets, verify
from finslerlab.verify import (
    SamplePlan,
    SamplerStarvationError,
    SpecialFormError,
    TolProfile,
    check_metrizability,
    classify,
    compare_sprays,
    decide_verdict,
    landsberg_via_p,
    perturbed_projective_factor,
    report_to_json,
)

from conftest import default_spec

PLAN = SamplePlan(n_points=20, seed=7)


def alpha_field(setup):
    def ev(xs, ys):
        return setup.f(xs[0]) * jets.sqrt(ys[0] * ys[0] + setup.phi_jet(ys))

    def guard(x, y):
        yhat = np.asarray(y)[1:]
        return setup.phi_value(yhat) > 0.05 * float(yhat @ yhat)

    return geometry.FinslerField(setup.n, ev, guard, "alpha")


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(n_points=0)
    with pytest.raises(ValueError):
        SamplePlan(exclusion_angle=2.0)
    with pytest.raises(ValueError):
        SamplePlan(x_range=(0.5, -0.5))
    for bad in (
        {"x_range": (-math.inf, 0.5)},
        {"x_range": (-0.5, math.nan)},
        {"exclusion_angle": math.nan},
        {"exclusion_angle": math.inf},
    ):
        with pytest.raises(ValueError, match="finite"):
            SamplePlan(**bad)


def test_sampler_determinism_and_exclusion():
    field = catalog.build_finsler(default_spec("class1"))
    a = verify.draw_samples(field.domain_guard, 3, PLAN)
    b = verify.draw_samples(field.domain_guard, 3, PLAN)
    for (xa, ya), (xb, yb) in zip(a, b):
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    for x, y in a:
        assert abs(y[0]) <= np.cos(PLAN.exclusion_angle) + 1e-15
        assert field.domain_guard(x, y)


def test_sampler_starvation():
    with pytest.raises(SamplerStarvationError) as err:
        verify.draw_samples(
            lambda x, y: False, 3, SamplePlan(n_points=3, guard_retries=25)
        )
    assert err.value.rejection_rate == 1.0


def test_classify_riemannian_alpha_is_berwald():
    field = alpha_field(catalog.make_setup("product"))
    report = classify(field, None, PLAN)
    assert report.verdict == "Berwald"
    assert report.residuals["landsberg"]["max"] <= 1e-9
    assert report.residuals["berwald"]["max"] <= 1e-9


def test_classify_catalog_entry():
    spec = default_spec("class1")
    field = catalog.build_finsler(spec)
    spray = catalog.closed_form_spray(spec).as_spray_field()
    report = classify(field, spray, PLAN, params=spec.params)
    assert report.verdict == "Landsberg, non-Berwald"
    res = report.residuals
    assert res["landsberg"]["max"] <= 1e-9
    assert res["berwald"]["max"] >= res["berwald_floor_effective"]
    assert res["metrizability"]["max"] <= 1e-9
    assert res["euler"]["max"] <= 1e-10
    assert res["spray_mismatch"]["max"] <= 1e-8


def test_classify_constant_f_is_berwald():
    spec = catalog.make_spec("class1", f=lambda t: t.space.constant(3.0))
    field = catalog.build_finsler(spec)
    spray = catalog.closed_form_spray(spec).as_spray_field()
    report = classify(field, spray, PLAN)
    assert report.verdict == "Berwald"
    for row in report.samples:
        assert max(abs(g) for g in row["G"]) <= 1e-12


def test_report_bytes_deterministic():
    spec = default_spec("example31")
    field = catalog.build_finsler(spec)
    spray = catalog.closed_form_spray(spec).as_spray_field()
    doc1 = report_to_json(classify(field, spray, PLAN, params=spec.params))
    doc2 = report_to_json(classify(field, spray, PLAN, params=spec.params))
    assert doc1 == doc2
    assert "wall" not in doc1  # volatile data stays out of the document


def test_verdict_monotone_in_landsberg_tol():
    rank = {
        "Berwald": 0,
        "Landsberg, non-Berwald": 1,
        "indeterminate": 2,
        "non-Landsberg": 3,
    }
    rng = np.random.default_rng(55)
    for _ in range(200):
        lmax = 10.0 ** rng.uniform(-14, -2)
        bmax = 10.0 ** rng.uniform(-14, -1)
        floor = 10.0 ** rng.uniform(-8, -4)
        tols = sorted(10.0 ** rng.uniform(-12, -4, size=6), reverse=True)
        prev = None
        for tol in tols:  # tightening
            v = decide_verdict(
                lmax, bmax, floor, TolProfile(landsberg_tol=tol)
            )
            if prev is not None:
                assert rank[v] >= rank[prev]
            prev = v


def test_metrizability_own_spray_vs_foreign_spray():
    spec1 = default_spec("class1")
    spec2 = default_spec("class2")
    f1 = catalog.build_finsler(spec1)
    s1 = catalog.closed_form_spray(spec1).as_spray_field()
    s2 = catalog.closed_form_spray(spec2).as_spray_field()
    own = check_metrizability(f1, s1, PLAN)
    assert own["metrizability"]["max"] <= 1e-9
    assert own["euler"]["max"] <= 1e-10
    cross = check_metrizability(f1, s2, PLAN)
    assert cross["metrizability"]["max"] > 1e-3


def test_landsberg_via_p_agreement():
    for metric_id in ("class1", "class4"):
        spec = default_spec(metric_id)
        field = catalog.build_finsler(spec)
        cfs = catalog.closed_form_spray(spec)
        out = landsberg_via_p(cfs, field, PLAN)
        assert out["via_p"]["max"] <= 1e-9
        assert out["general"]["max"] <= 1e-9
        assert out["agreement"]["max"] <= 1e-9


def test_landsberg_via_p_rejects_cubic_g1():
    spec = default_spec("class1")
    field = catalog.build_finsler(spec)
    cfs = catalog.closed_form_spray(spec)

    def bad_g1(x, y_jets):
        base = cfs.g1(x, y_jets)
        return base + y_jets[1] * y_jets[1] * y_jets[1] * 1e-3

    from finslerlab.catalog import ClosedFormSpray

    bad = ClosedFormSpray(3, bad_g1, cfs.p, "cubic", cfs.domain_guard)
    with pytest.raises(SpecialFormError):
        landsberg_via_p(bad, field, SamplePlan(n_points=3, seed=1))


def test_landsberg_via_p_perturbation_control():
    spec = default_spec("class1")
    field = catalog.build_finsler(spec)
    cfs = catalog.closed_form_spray(spec)
    maxima = []
    for eps in (1e-3, 1e-5):
        out = landsberg_via_p(
            perturbed_projective_factor(cfs, eps), field, PLAN
        )
        assert out["via_p"]["max"] >= 1e-3 * eps
        maxima.append(out["via_p"]["max"])
    # linear scaling in the perturbation size
    assert maxima[0] / maxima[1] == pytest.approx(100.0, rel=1e-3)


def test_compare_sprays_identity_and_oracles():
    spec = default_spec("class3")
    field = catalog.build_finsler(spec)
    closed = catalog.closed_form_spray(spec).as_spray_field()
    assert compare_sprays(closed, closed, PLAN) == 0.0
    from finslerlab.alphabeta import ab_spray_field

    phi = catalog.phi_function(spec)
    eq5 = ab_spray_field(phi, spec.setup, domain_guard=field.domain_guard)
    assert compare_sprays(closed, eq5, PLAN) <= 1e-8
    with pytest.raises(ValueError):
        compare_sprays(closed, catalog.closed_form_spray(
            default_spec("example33")).as_spray_field(), PLAN)


@pytest.mark.parametrize(
    "metric_id",
    ["class1", "class2", "class3", "class4", "shen_eq8", "asanov_eq9",
     "example31", "example32", "example33", "shen_r3_eq1"],
)
def test_catalog_trichotomy_at_default_plan(metric_id):
    # every entry: Landsberg residual at the tolerance, Berwald component
    # at least 1e-3 times the conformal rate, metrizable by its own spray
    spec = default_spec(metric_id)
    field = catalog.build_finsler(spec)
    if spec.entry.has_closed_form:
        spray = catalog.closed_form_spray(spec).as_spray_field()
    else:
        spray = geometry.ad_spray_field(field)
    report = classify(field, spray, SamplePlan(n_points=20, seed=61))
    res = report.residuals
    assert res["landsberg"]["max"] <= 1e-9
    assert res["metrizability"]["max"] <= 1e-9
    rate = min(row["conformal_rate"] for row in report.samples)
    assert res["berwald"]["max"] >= 1e-3 * rate
    assert report.verdict == "Landsberg, non-Berwald"


def test_positivity_enforced():
    setup = catalog.make_setup("product")

    def ev(xs, ys):
        return setup.f(xs[0]) * ys[0]  # vanishes and changes sign

    bad = geometry.FinslerField(
        3, ev, lambda x, y: y[1] * y[2] > 0.05 and y[0] < -0.2, "signed"
    )
    with pytest.raises(ValueError):
        classify(bad, None, SamplePlan(n_points=3, seed=2))
