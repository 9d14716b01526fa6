import dataclasses
import gc
import json
import logging
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from finslerlab import alphabeta, catalog, geometry, jets, verify
from finslerlab.catalog import ClosedFormSpray
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

from conftest import admissible_points, default_spec

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
    for bad, field_name in (
        ({"n_points": 2.5}, "n_points"),
        ({"n_points": True}, "n_points"),
        ({"guard_retries": 0}, "guard_retries"),
        ({"guard_retries": -3}, "guard_retries"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
    ):
        with pytest.raises(ValueError, match=field_name):
            SamplePlan(**bad)
    assert SamplePlan(n_points=np.int64(4)).n_points == 4
    assert SamplePlan(seed=np.int64(3)).seed == 3
    for bad in (
        {"x_range": (-math.inf, 0.5)},
        {"x_range": (-0.5, math.nan)},
        {"exclusion_angle": math.nan},
        {"exclusion_angle": math.inf},
    ):
        with pytest.raises(ValueError, match="finite"):
            SamplePlan(**bad)
    for bad in ((0.0,), (0.0, 0.1, 5.0), 0.5):
        with pytest.raises(ValueError, match="x_range"):
            SamplePlan(x_range=bad)


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


def test_landsberg_via_p_warns_nothing_of_its_own_on_an_overflowed_tensor():
    # f = 1e200 exp(x^1) overflows L: the jet products and the general L
    # still warn, but the shortcut's tensor and the difference of the two
    # are formed under np.errstate.
    spec = catalog.make_spec("class1", f=lambda t: jets.exp(t) * 1e200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = landsberg_via_p(catalog.closed_form_spray(spec), catalog.build_finsler(spec),
                              SamplePlan(n_points=10, seed=0))
    assert out["via_p"] == out["general"] == {"max": math.inf, "at_sample": 0}
    assert caught
    own = Path(verify.__file__).resolve()
    assert not [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning) and Path(w.filename).resolve() == own]


def test_every_space_built_by_the_spray_routes_is_canonical():
    spec = default_spec("class1")
    field = catalog.build_finsler(spec)
    plan = SamplePlan(n_points=3, seed=5)
    eq5 = alphabeta.ab_spray_field(catalog.phi_function(spec), spec.setup,
                                   domain_guard=field.domain_guard)
    for spray in (catalog.closed_form_spray(spec).as_spray_field(), None, eq5):
        classify(field, spray, plan)
    landsberg_via_p(catalog.closed_form_spray(spec), field, plan)
    for space in (o for o in gc.get_objects() if isinstance(o, jets.JetSpace)):
        assert (space.n_x == 0) == (space.x_cap == 0), space
        assert (space.n_y == 0) == (space.y_cap == 0), space


def test_landsberg_via_p_rejects_cubic_g1():
    spec = default_spec("class1")
    field = catalog.build_finsler(spec)
    cfs = catalog.closed_form_spray(spec)

    def bad_g1(rate, phi, y_jets):
        base = cfs.g1(rate, phi, y_jets)
        return base + y_jets[1] * y_jets[1] * y_jets[1] * 1e-3

    from finslerlab.catalog import ClosedFormSpray

    bad = ClosedFormSpray(cfs.setup, bad_g1, cfs.p, "cubic", cfs.domain_guard)
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


def _spray_singular_at_sample_3():
    """A plan, its samples, a field to wrap and a closed-form spray whose
    P takes the ln of a zero constant term at sample 3 (and only there)."""
    setup = catalog.make_setup("product")
    base = alpha_field(setup)
    plan = SamplePlan(n_points=12, seed=5)
    pts = verify.draw_samples(base.domain_guard, 3, plan)
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    c_spray = y[3, 0]

    def g1(rate, phi, y_jets):
        return y_jets[0] * y_jets[0] * 0.1

    def p(rate, phi, y_jets):
        d = y_jets[0] - c_spray
        return y_jets[0] * 0.1 + jets.ln(d * d) * 0.0

    from finslerlab.catalog import ClosedFormSpray

    cfs = ClosedFormSpray(setup, g1, p, "singular-spray", base.domain_guard)
    return plan, x, y, base, cfs


def _assert_entry_points_raise_per_sample_error(field, cfs, plan, x, y):
    """The entry points raise the exception of the first failing sample,
    type and message, as a point-by-point pass over the plan does."""
    spray = cfs.as_spray_field()
    with pytest.raises(jets.SingularPointError) as first:
        for s in range(len(x)):
            geometry.point_tensors(field, spray, x[s], y[s])
    assert str(first.value).startswith("ln of non-positive constant term")
    for call in (
        lambda: classify(field, spray, plan),
        lambda: check_metrizability(field, spray, plan),
        lambda: landsberg_via_p(cfs, field, plan),
    ):
        with pytest.raises(jets.SingularPointError) as err:
            call()
        assert str(err.value) == str(first.value)


def test_batched_entry_points_raise_the_per_sample_error():
    # Sample 3 makes the spray singular (an ln of a zero constant term),
    # sample 8 the field (a zero divisor).  One point at a time, sample 3
    # raises first; a batched pass meets the field's error first, so the
    # entry points must fall back to per-sample order.
    plan, x, y, base, cfs = _spray_singular_at_sample_3()
    c_field = y[8, 0]

    def ev(xs, ys):
        d = ys[0] - c_field
        return base.evaluate(xs, ys) * (1.0 + (d * d).reciprocal())

    field = geometry.FinslerField(3, ev, base.domain_guard, "singular")
    with pytest.raises(jets.SingularPointError) as batched:
        geometry.point_tensors(field, cfs.as_spray_field(), x, y)
    assert "division" in str(batched.value)
    _assert_entry_points_raise_per_sample_error(field, cfs, plan, x, y)


def test_batched_overflow_falls_back_to_the_per_sample_error():
    # As above, but sample 8 overflows the scalar series code of exp
    # (exp(1000)) instead of meeting a singular point: the batched pass
    # raises OverflowError, and the entry points must still raise sample
    # 3's SingularPointError.
    plan, x, y, base, cfs = _spray_singular_at_sample_3()
    c_field = y[8, 0]

    def ev(xs, ys):
        d = ys[0] - c_field
        return base.evaluate(xs, ys) * jets.exp(1e-3 / (d * d + 1e-6))

    field = geometry.FinslerField(3, ev, base.domain_guard, "overflowing")
    with pytest.raises(OverflowError):
        geometry.point_tensors(field, cfs.as_spray_field(), x, y)
    _assert_entry_points_raise_per_sample_error(field, cfs, plan, x, y)


@pytest.mark.parametrize(
    "entry_point",
    ["classify", "check_metrizability", "landsberg_via_p", "compare_sprays"],
)
def test_entry_points_refuse_parts_of_different_dimensions(entry_point, monkeypatch):
    # a class1 field on product (n = 3) against class1's spray on mixed4
    # (n = 4): refused before a single sample is drawn
    spec3 = default_spec("class1")
    field3 = catalog.build_finsler(spec3)
    spray3 = catalog.closed_form_spray(spec3).as_spray_field()
    cfs4 = catalog.closed_form_spray(catalog.make_spec("class1", quadratic="mixed4"))
    spray4 = cfs4.as_spray_field()
    call = {
        "classify": lambda: classify(field3, spray4, PLAN),
        "check_metrizability": lambda: check_metrizability(field3, spray4, PLAN),
        "landsberg_via_p": lambda: landsberg_via_p(cfs4, field3, PLAN),
        "compare_sprays": lambda: compare_sprays(spray3, spray4, PLAN),
    }[entry_point]

    def no_sampling(*args):
        raise AssertionError("samples drawn before the dimension check")

    monkeypatch.setattr(verify, "draw_samples", no_sampling)
    with pytest.raises(ValueError, match="different dimensions") as err:
        call()
    assert "n = 3" in str(err.value) and "n = 4" in str(err.value)


def _hand_reduction(rows, key):
    """The first index whose value reaches the maximum, None skipped; a
    maximum of 0.0 names no sample."""
    values = [(i, row[key]) for i, row in enumerate(rows) if row[key] is not None]
    top = max([0.0] + [v for _, v in values])
    at = next((i for i, v in values if v == top), None) if top > 0.0 else None
    return {"max": top, "at_sample": at}


@pytest.mark.parametrize("oracle_ad", [False, True], ids=["closed", "derived"])
def test_report_maxima_name_their_first_worst_sample(oracle_ad):
    spec = default_spec("class3")
    field = catalog.build_finsler(spec)
    spray = None if oracle_ad else catalog.closed_form_spray(spec).as_spray_field()
    report = classify(field, spray, PLAN)
    assert [row["index"] for row in report.samples] == list(range(PLAN.n_points))
    for key in verify.RESIDUAL_KEYS:
        if oracle_ad and key == "spray_mismatch":
            assert report.residuals[key] == {"max": None, "at_sample": None}
            continue
        assert report.residuals[key] == _hand_reduction(report.samples, key)
    assert report.residuals["berwald"]["at_sample"] is not None


@pytest.mark.parametrize("spray_id", ["class2", "class3"], ids=["own", "foreign"])
def test_check_metrizability_equals_the_classify_entries(spray_id):
    # same guard, same samples, same formulas: equal to the last bit
    field = catalog.build_finsler(default_spec("class2"))
    spray = catalog.closed_form_spray(default_spec(spray_id)).as_spray_field()
    report = classify(field, spray, PLAN)
    out = check_metrizability(field, spray, PLAN)
    assert out == {k: report.residuals[k] for k in ("metrizability", "euler")}


def test_reduction_keeps_the_first_maximum_and_ignores_nan():
    values = np.array([1.0, math.nan, 2.0, None, 2.0, 0.5], dtype=object)
    part = geometry.SprayField(3, None, label="fake")
    columns, maxima = verify._run_plan(
        lambda x, y: True, (part,), SamplePlan(n_points=len(values)),
        lambda x, y: {"r": values[:len(x)], "zero": np.zeros(len(x))},
        ("r", "zero"),
    )
    assert len(columns["r"]) == len(values)
    assert maxima == {
        "r": {"max": 2.0, "at_sample": 2},
        "zero": {"max": 0.0, "at_sample": None},
    }


def test_compare_sprays_falls_back_to_the_per_sample_error():
    # spray_a divides by a zero constant term at sample 8, spray_b takes
    # the ln of one at sample 3: the batched pass meets the division
    # first, the per-sample order the ln
    plan, x, y, base, cfs = _spray_singular_at_sample_3()
    c_a = y[8, 0]

    def p(rate, phi, y_jets):
        d = y_jets[0] - c_a
        return y_jets[0] * 0.1 + (d * d).reciprocal() * 0.0

    from finslerlab.catalog import ClosedFormSpray

    spray_a = ClosedFormSpray(cfs.setup, cfs.g1, p, "divides-at-8", base.domain_guard)
    spray_a = spray_a.as_spray_field()
    spray_b = cfs.as_spray_field()
    with pytest.raises(jets.SingularPointError) as batched:
        spray_a.values(x, y)
    assert "division" in str(batched.value)
    with pytest.raises(jets.SingularPointError) as err:
        compare_sprays(spray_a, spray_b, plan)
    assert str(err.value).startswith("ln of non-positive constant term")


def test_a_batch_error_that_no_sample_raises_alone_escapes():
    # the batch contract broken on purpose: every sample evaluates alone,
    # their batch raises, and the plan driver raises the batch's error
    closed = catalog.closed_form_spray(default_spec("class1"))

    def jets_fn(x, y, order):
        if len(x) > 1:
            raise jets.SingularPointError(f"a batch of {len(x)}", 0.0)
        return closed.jets(x, y, order)

    broken = geometry.SprayField(3, jets_fn, "batch-only", closed.domain_guard)
    with pytest.raises(jets.SingularPointError, match=r"^a batch of 6 \("):
        compare_sprays(broken, closed, SamplePlan(n_points=6, seed=3))


# ---------------------------------------------------------------------------
# batched residuals: one pass over the plan equals one pass per sample
# ---------------------------------------------------------------------------


def _plan_passes(monkeypatch, *calls):
    """(guard, n, plan, columns_of) of every plan the entry point calls
    hand to the plan driver."""
    passes = []
    run_plan = verify._run_plan

    def recording(guard, parts, plan, columns_of, keys):
        passes.append((guard, parts[0].n, plan, columns_of))
        return run_plan(guard, parts, plan, columns_of, keys)

    monkeypatch.setattr(verify, "_run_plan", recording)
    for call in calls:
        call()
    monkeypatch.setattr(verify, "_run_plan", run_plan)
    return passes


def _assert_batch_equals_samples(passes):
    """columns_of on the whole plan gives the columns of its one-sample
    calls joined, with the same keys, float for float (repr tells -0.0, nan
    and the last bit apart)."""
    for guard, n, plan, columns_of in passes:
        pts = verify.draw_samples(guard, n, plan)
        x = np.array([p for p, _ in pts])
        y = np.array([q for _, q in pts])
        batched = columns_of(x, y)
        singles = [columns_of(x[s:s + 1], y[s:s + 1]) for s in range(len(x))]
        for single in singles:
            assert list(single) == list(batched)
        for key, column in batched.items():
            joined = np.concatenate([single[key] for single in singles])
            assert repr(column.tolist()) == repr(joined.tolist()), key


BATCH_PLAN = SamplePlan(n_points=6, seed=11)


@pytest.mark.parametrize(
    "metric_id, quadratic",
    [(m, q) for m in ("class1", "class3", "shen_eq8") for q in ("product", "mixed4")]
    + [("example33", None)],
)
def test_batched_rows_equal_per_sample_rows(metric_id, quadratic, monkeypatch):
    spec = catalog.make_spec(metric_id, quadratic=quadratic)
    field = catalog.build_finsler(spec)
    cfs = catalog.closed_form_spray(spec)
    closed = cfs.as_spray_field()
    variational = geometry.ad_spray_field(field)
    passes = _plan_passes(
        monkeypatch,
        lambda: classify(field, closed, BATCH_PLAN),
        lambda: classify(field, None, BATCH_PLAN),
        lambda: check_metrizability(field, closed, BATCH_PLAN),
        lambda: check_metrizability(field, variational, BATCH_PLAN),
        lambda: landsberg_via_p(cfs, field, BATCH_PLAN),
        lambda: compare_sprays(closed, variational, BATCH_PLAN),
    )
    assert len(passes) == 6
    _assert_batch_equals_samples(passes)


def _key(x, y):
    return (*x.tolist(), *y.tolist())


def _stub_parts():
    """class1 on product, with a spray whose G^2 is nan, +inf, -inf or
    -0.0 at samples 0-3 of the plan, and a field whose F(0.5 y) is nan at
    sample 4 and whose F(2 y) is +inf at sample 5; elsewhere both are the
    catalog's.  The special values depend on the point, not on its place
    in a batch."""
    spec = default_spec("class1")
    base = catalog.build_finsler(spec)
    closed = catalog.closed_form_spray(spec).as_spray_field()
    pts = verify.draw_samples(base.domain_guard, base.n, BATCH_PLAN)
    g_special = {_key(*pts[s]): v for s, v in enumerate(
        (math.nan, math.inf, -math.inf, -0.0))}
    f_special = {
        _key(pts[4][0], 0.5 * pts[4][1]): math.nan,
        _key(pts[5][0], 2.0 * pts[5][1]): math.inf,
    }

    def spray_jets(x, y, order):
        out = closed.jets(x, y, order)
        coeffs = out[1].coeffs.copy()
        for r in range(len(x)):
            coeffs[r, 0] = g_special.get(_key(x[r], y[r]), coeffs[r, 0])
        out[1] = jets.TaylorValue(out[1].space, coeffs)
        return out

    class StubField(geometry.FinslerField):
        def value(self, x, y):
            values = super().value(x, y).copy()
            for r in range(len(x)):
                values[r] = f_special.get(_key(x[r], y[r]), values[r])
            return values

    field = StubField(base.n, base.evaluate, base.domain_guard, "stub", base.x_deps)
    spray = geometry.SprayField(base.n, spray_jets, "stub", base.domain_guard)
    return field, spray


def test_batched_rows_keep_python_max_semantics_on_non_finite_values(monkeypatch):
    field, spray = _stub_parts()
    oracle = geometry.ad_spray_field(field)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no new RuntimeWarning
        passes = _plan_passes(
            monkeypatch,
            lambda: classify(field, spray, BATCH_PLAN),
            lambda: check_metrizability(field, spray, BATCH_PLAN),
            lambda: compare_sprays(spray, oracle, BATCH_PLAN),
        )
        _assert_batch_equals_samples(passes)
        rows = classify(field, spray, BATCH_PLAN).samples
    nan_g, inf_g, minus_inf_g, zero_g, nan_f, inf_f = rows[:6]
    # max(1, |F|, ||G||) starts from 1.0 and a nan never replaces a value
    assert math.isfinite(nan_g["metrizability"]) and math.isfinite(nan_g["euler"])
    for row in (inf_g, minus_inf_g):
        assert row["metrizability"] == row["euler"] == row["berwald"] == 0.0
        # inf / inf in _deviation and in the spray homogeneity: nan, silently
        assert math.isnan(row["spray_mismatch"])
        assert row["spray_homogeneity"] == 0.0
    assert math.isnan(nan_g["spray_mismatch"]) and nan_g["spray_homogeneity"] == 0.0
    assert math.copysign(1.0, zero_g["G"][1]) == -1.0
    # the homogeneity maximum skips the nan at lam = 0.5 and keeps lam = 2
    x, y = np.zeros(3), np.array(nan_f["y"])
    x[0] = nan_f["x1"]
    f2 = float(field.value(x[None], 2.0 * y[None])[0])
    assert nan_f["homogeneity"] == abs(f2 - 2.0 * nan_f["F"]) / (2.0 * nan_f["F"])
    assert inf_f["homogeneity"] == math.inf


@pytest.mark.parametrize("oracle_ad", [False, True], ids=["closed", "derived"])
def test_classify_evaluates_both_scalings_in_one_batch(oracle_ad, monkeypatch):
    # one FinslerField.value call and one order-0 spray call for the
    # scaled points, each on 2N rows; the closed route adds the oracle's
    # order-0 call on the N plan points
    spec = default_spec("class3")
    field = catalog.build_finsler(spec)
    spray = None if oracle_ad else catalog.closed_form_spray(spec).as_spray_field()
    calls = []
    value, spray_jets = geometry.FinslerField.value, geometry.SprayField.jets

    def counting_value(self, x, y):
        calls.append(("value", np.shape(x)))
        return value(self, x, y)

    def counting_jets(self, x, y, order):
        if order == 0:
            calls.append((self.label, np.shape(x)))
        return spray_jets(self, x, y, order)

    monkeypatch.setattr(geometry.FinslerField, "value", counting_value)
    monkeypatch.setattr(geometry.SprayField, "jets", counting_jets)
    report = classify(field, spray, PLAN)
    n, N = field.n, PLAN.n_points
    want = [("value", (2 * N, n)), (report.spray_label, (2 * N, n))]
    if not oracle_ad:
        want.append((f"ad:{field.label}", (N, n)))
    assert calls == want


def test_fallback_to_per_sample_evaluation_logs_one_debug_record(caplog):
    assert any(isinstance(h, logging.NullHandler)
               for h in logging.getLogger("finslerlab").handlers)
    plan, x, y, base, cfs = _spray_singular_at_sample_3()
    spray = catalog.closed_form_spray(default_spec("class1")).as_spray_field()
    with caplog.at_level(logging.DEBUG, logger="finslerlab"):
        check_metrizability(base, spray, plan)  # no fallback, no record
        assert caplog.records == []
        with pytest.raises(jets.SingularPointError):
            check_metrizability(base, cfs.as_spray_field(), plan)
    [record] = caplog.records
    assert (record.name, record.levelno) == ("finslerlab.verify", logging.DEBUG)
    message = record.getMessage()
    assert message.startswith("check_metrizability: ")
    assert f"over {plan.n_points} samples raised SingularPointError: " in message


# ---------------------------------------------------------------------------
# report JSON: the column writer equals json.dumps byte for byte
# ---------------------------------------------------------------------------


def _reference_json(report):
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


SMALL_PLAN = SamplePlan(n_points=8, seed=5)


@pytest.mark.parametrize("metric_id, quadratic", [
    ("class1", "mixed4"), ("class2", "euclid"), ("class4", "product"),
    ("shen_eq8", "mixed4"), ("example33", None), ("shen_r3_eq1", None),
])
def test_report_json_equals_json_dumps_on_classify_reports(metric_id, quadratic):
    spec = catalog.make_spec(metric_id, quadratic=quadratic)
    field = catalog.build_finsler(spec)
    sprays = [None]  # the variational route: spray_mismatch is None throughout
    if spec.entry.has_closed_form:
        sprays.append(catalog.closed_form_spray(spec).as_spray_field())
    for spray in sprays:
        report = classify(field, spray, SMALL_PLAN, params=spec.params)
        assert (spray is None) == all(
            row["spray_mismatch"] is None for row in report.samples)
        assert next(iter(report.columns)) == "index"
        assert report_to_json(report) == _reference_json(report)


def _hand_built(columns):
    return verify.ClassificationReport(
        metric="hand-built", params={"a": 2}, plan=SamplePlan(n_points=3),
        residuals={"r": {"max": math.nan, "at_sample": None}, "q": -math.inf},
        verdict="indeterminate", columns=columns, spray_label="s%d", wall_time=1.0,
    )


SPECIAL_ROWS = [
    {"index": 0, "x1": math.nan, "y": [math.inf, -math.inf, -0.0], "F": None,
     "big": 10**30, "flag": True, "np": np.float64(0.1)},
    {"index": 1, "x1": -0.0, "y": [np.float64(-1e-300), 1e300, 5e-324],
     "F": 2.5, "big": -7, "flag": False, "np": np.float64(math.nan)},
    {"index": 2, "x1": 1.0, "y": [0.1, 0.2, 0.30000000000000004], "F": math.inf,
     "big": 0, "flag": None, "np": np.float64(-math.inf)},
]


SPECIAL_COLUMNS = {
    "index": np.arange(4),
    "x1": np.array([math.nan, math.inf, -math.inf, -0.0]),
    "y": np.array([[5e-324, 1e300], [-1e300, 0.1], [-0.0, -5e-324],
                   [0.30000000000000004, math.nan]]),
    "big": np.full(4, 1e308),  # finite values, overflowing sums
    "spray_mismatch": np.full(4, None),
    "F": np.array([None, 2.5, -7, 10**30], dtype=object),
}


@pytest.mark.parametrize("key", [None, *SPECIAL_COLUMNS])
def test_report_json_equals_json_dumps_on_special_columns(key):
    columns = SPECIAL_COLUMNS if key is None else {key: SPECIAL_COLUMNS[key]}
    report = _hand_built(columns)
    assert report_to_json(report) == _reference_json(report)


@pytest.mark.parametrize("columns", [
    {"index": np.arange(0), "y": np.zeros((0, 3))},  # columns without rows
    {},  # no columns
], ids=["no-rows", "no-columns"])
def test_report_json_of_a_report_without_rows_equals_json_dumps(columns):
    report = _hand_built(columns)
    text = report_to_json(report)
    assert text == _reference_json(report)
    assert json.loads(text)["samples"] == []


def test_a_replace_copy_of_a_classify_report_writes_its_bytes():
    spec = default_spec("class3")
    report = classify(catalog.build_finsler(spec), None, SMALL_PLAN, spec.params)
    copy = dataclasses.replace(report)
    assert copy.columns is report.columns
    assert report_to_json(copy) == report_to_json(report) == _reference_json(report)


@pytest.mark.parametrize("samples", [
    SPECIAL_ROWS,
    [{"a%s\"é": 1.5, "empty": [], "v": [1.0]}] * 2,  # escaped keys
    [{"v": 1e308, "w": [-1e308]}] * 3,  # finite values, overflowing sums
])
def test_report_json_equals_json_dumps_on_hand_built_rows(samples):
    # rows of one shape, written from their columns, give json.dumps's bytes
    columns = {key: np.array([row[key] for row in samples]) for key in samples[0]}
    report = _hand_built(columns)
    doc = {**report.to_dict(), "samples": samples}
    assert report_to_json(report) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# sampling: the draw equals rng.uniform / np.linalg.norm bit for bit
# ---------------------------------------------------------------------------


def _reference_draw_samples(domain_guard, n, plan):
    """draw_samples written with Generator.uniform and np.linalg.norm."""
    cos_excl = math.cos(plan.exclusion_angle)
    points = []
    attempts = 0
    for index in range(plan.n_points):
        rng = np.random.default_rng([int(plan.seed), index])
        for _ in range(plan.guard_retries):
            attempts += 1
            x = np.zeros(n)
            x[0] = rng.uniform(plan.x_range[0], plan.x_range[1])
            y = rng.normal(size=n)
            norm = np.linalg.norm(y)
            if norm == 0.0:
                continue
            y /= norm
            if abs(y[0]) > cos_excl:
                continue
            if not domain_guard(x, y):
                continue
            points.append((x, y))
            break
        else:
            raise SamplerStarvationError(len(points), plan.n_points, attempts)
    return points


def _catalog_fields():
    for metric_id, entry in catalog.CATALOG.items():
        fixed = entry.profile is None or entry.fixed
        for quadratic in [None] if fixed else sorted(catalog.QUADRATIC_PRESETS):
            spec = catalog.make_spec(metric_id, quadratic=quadratic)
            yield catalog.build_finsler(spec)


def _draw_bytes(points):
    return [(x.tobytes(), y.tobytes()) for x, y in points]


def test_draw_samples_equals_the_numpy_reference_bitwise():
    plans = [
        SamplePlan(n_points=20, seed=seed, x_range=x_range)
        for seed in (0, 3, 1000)
        for x_range in ((-0.5, 0.5), (0, 2), (-1e300, 1e300), (0.25, 0.25))
    ]
    for field in _catalog_fields():
        for plan in plans:
            got = verify.draw_samples(field.domain_guard, field.n, plan)
            want = _reference_draw_samples(field.domain_guard, field.n, plan)
            assert _draw_bytes(got) == _draw_bytes(want), (field.label, plan)


@pytest.mark.parametrize("threshold, retries", [(0.45, 3), (2.0, 25), (0.3, 1)])
def test_draw_samples_starves_like_the_numpy_reference(threshold, retries):
    plan = SamplePlan(n_points=12, seed=2, guard_retries=retries)

    def guard(x, y):
        return x[0] > threshold

    errors = []
    for draw in (verify.draw_samples, _reference_draw_samples):
        with pytest.raises(SamplerStarvationError) as err:
            draw(guard, 3, plan)
        errors.append((str(err.value), err.value.rejection_rate))
    assert errors[0] == errors[1]
    assert "sampler starved: " in errors[0][0]


def test_x_range_whose_width_overflows_is_refused():
    for x_range in ((-1e308, 1e308), (-1.7e308, 1.7e308)):
        with pytest.raises(ValueError, match=r"x_range .* hi - lo overflows"):
            SamplePlan(x_range=x_range)
    assert SamplePlan(x_range=(-8e307, 8e307)).x_range == (-8e307, 8e307)


# ---------------------------------------------------------------------------
# known answers of the verdict path and of the report columns
# ---------------------------------------------------------------------------

KNOWN_PLAN = SamplePlan(n_points=20, seed=0)


def _norm_jet(ys):
    """|y| as a jet of the fiber arguments."""
    acc = None
    for yj in ys:
        acc = yj * yj if acc is None else acc + yj * yj
    return jets.sqrt(acc)


def test_landsberg_gate_reads_a_residual_linear_in_eps_as_non_landsberg():
    # For a fixed F, L is linear in G and so in eps: L at eps = 1e-8 is
    # 1e-6 times L at eps = 1e-2 (about 2.2e-8, above the 1e-9 gate)
    spec = default_spec("class1")
    field = catalog.build_finsler(spec)
    cfs = catalog.closed_form_spray(spec)
    reports = {
        eps: classify(field, perturbed_projective_factor(cfs, eps).as_spray_field(),
                      KNOWN_PLAN)
        for eps in (1e-2, 1e-8)
    }
    large, small = (reports[eps].residuals["landsberg"] for eps in (1e-2, 1e-8))
    assert small["at_sample"] == large["at_sample"]
    assert small["max"] == pytest.approx(1e-6 * large["max"], rel=1e-6)
    assert small["max"] > KNOWN_PLAN.tolerances.landsberg_tol
    assert reports[1e-8].verdict == "non-Landsberg"


def test_berwald_maximum_between_gate_and_floor_is_indeterminate():
    assert decide_verdict(1e-12, 1e-8, 1e-6, TolProfile()) == "indeterminate"


def test_small_real_berwald_curvature_reads_indeterminate():
    # shen_eq8 at c3 = 1e7: B lies between the 1e-9 gate and the floor;
    # with f = exp(x^1) the conformal rate is 1, so the effective floor
    # is berwald_floor itself
    spec = catalog.make_spec("shen_eq8", {"c3": 1e7})
    field = catalog.build_finsler(spec)
    spray = catalog.closed_form_spray(spec).as_spray_field()
    report = classify(field, spray, KNOWN_PLAN, params=spec.params)
    res, tol = report.residuals, KNOWN_PLAN.tolerances
    assert res["berwald_floor_effective"] == pytest.approx(tol.berwald_floor, rel=1e-12)
    assert tol.landsberg_tol < res["berwald"]["max"] < res["berwald_floor_effective"]
    assert res["landsberg"]["max"] <= tol.landsberg_tol
    assert report.verdict == "indeterminate"


@pytest.mark.parametrize("metric_id, quadratic", [
    *[(m, q) for m in ("class1", "class3") for q in ("product", "euclid", "mixed4")],
    ("example31", None),
])
def test_berwald_column_bounds_the_published_component(metric_id, quadratic):
    # the column is max |G^i_jkh| over max(1, |F|, ||G||), so at every
    # sample it is at least the published G^2_222 over that scale
    spec = catalog.make_spec(metric_id, quadratic=quadratic)
    field = catalog.build_finsler(spec)
    spray = catalog.closed_form_spray(spec).as_spray_field()
    for row in classify(field, spray, KNOWN_PLAN).samples:
        x = np.zeros(field.n)
        x[0] = row["x1"]
        witness = catalog.expected_berwald_component(spec, x, np.array(row["y"]))
        scale = max(1.0, abs(row["F"]), *map(abs, row["G"]))
        assert row["berwald"] >= (1.0 - 1e-12) * abs(witness) / scale, row["index"]


def test_homogeneity_column_of_a_degree_two_field_is_one():
    # F(lam y) = lam^2 F(y), so |F(lam y) - lam F| / (lam F) = |lam - 1|:
    # 0.5 at lam = 0.5 and 1 at lam = 2
    spec = default_spec("class1")
    base = catalog.build_finsler(spec)
    field = geometry.FinslerField(
        base.n, lambda xs, ys: base.evaluate(xs, ys) * _norm_jet(ys),
        base.domain_guard, "F|y|", base.x_deps,
    )
    spray = catalog.closed_form_spray(spec).as_spray_field()
    for row in classify(field, spray, KNOWN_PLAN).samples:
        assert row["homogeneity"] == pytest.approx(1.0, abs=1e-12), row["index"]


def test_spray_homogeneity_column_of_a_degree_three_spray():
    # G|y| at |y| = 1: its value is G, and at lam y it is lam^3 G, so the
    # column is max over lam of lam^2 |lam - 1| m / max(1, lam^2 m) with
    # m = max_i |G^i|
    spec = default_spec("class1")
    field = catalog.build_finsler(spec)
    cfs = catalog.closed_form_spray(spec)
    cubic = ClosedFormSpray(
        cfs.setup, lambda *formula: cfs.g1(*formula) * _norm_jet(formula[-1]),
        lambda *formula: cfs.p(*formula) * _norm_jet(formula[-1]), "G|y|",
        cfs.domain_guard,
    )
    for row in classify(field, cubic.as_spray_field(), KNOWN_PLAN).samples:
        assert np.linalg.norm(row["y"]) == pytest.approx(1.0, abs=1e-15)
        m = max(map(abs, row["G"]))
        want = max(lam**2 * abs(lam - 1.0) * m / max(1.0, lam**2 * m)
                   for lam in (0.5, 2.0))
        assert row["spray_homogeneity"] == pytest.approx(want, rel=1e-12), row["index"]


@pytest.mark.parametrize("quadratic", ["product", "mixed4"])
def test_g_rcond_column_of_a_riemannian_field(quadratic):
    # F = f(x^1) sqrt((y^1)^2 + phi(yhat)) has g = f^2 blockdiag(1, c); the
    # singular values of c are 0.5 and 0.5 (product), 0.5, 0.5 and 1
    # (mixed4), so sigma_min / sigma_max is 0.5
    setup = catalog.make_setup(quadratic)
    report = classify(alpha_field(setup), setup.riemann_spray_field(), KNOWN_PLAN)
    for row in report.samples:
        assert row["g_rcond"] == pytest.approx(0.5, abs=1e-12), row["index"]
    assert report.residuals["g_rcond_min"] == pytest.approx(0.5, abs=1e-12)


def test_verify_imports_jets_and_geometry_alone():
    # verify builds on jets and geometry alone; the perturbed spray is a copy
    src = Path(verify.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, finslerlab.verify; "
         "print(sorted(m for m in sys.modules if m.startswith('finslerlab.')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.strip() == str(
        ["finslerlab.geometry", "finslerlab.jets", "finslerlab.verify"])


def test_perturbed_projective_factor_copies_the_rest_of_the_spray():
    cfs = catalog.closed_form_spray(default_spec("class1"))
    pert = perturbed_projective_factor(cfs, 0.1)
    assert type(pert) is ClosedFormSpray
    assert (pert.n, pert.g1, pert.domain_guard) == (cfs.n, cfs.g1, cfs.domain_guard)
    assert pert.label == f"{cfs.label}+eps*(y2)^2/|y|"


# ---------------------------------------------------------------------------
# one job evaluates once: a shared draw, and kept field and spray jets
# ---------------------------------------------------------------------------


def _job_parts(spec):
    field = catalog.build_finsler(spec)
    cfs = catalog.closed_form_spray(spec)
    eq5 = alphabeta.ab_spray_field(catalog.phi_function(spec), spec.setup,
                                   domain_guard=field.domain_guard)
    return {"field": field, "cfs": cfs, "closed": cfs.as_spray_field(),
            "variational": geometry.ad_spray_field(field), "eq5": eq5}


def _cross_job(spec, fresh=False):
    """The calls of one cross-oracle benchmark job: the spray triple on a
    20-point plan, then the Landsberg-via-P and metrizability checks on 15
    points of the same seed.  ``fresh`` builds every call's parts anew,
    from a copy of ``spec``."""
    compare, check = SamplePlan(n_points=20, seed=5), SamplePlan(n_points=15, seed=5)
    shared = _job_parts(spec)

    def parts():
        return _job_parts(dataclasses.replace(spec)) if fresh else shared

    return (
        compare_sprays(parts()["closed"], parts()["variational"], compare),
        compare_sprays(parts()["closed"], parts()["eq5"], compare),
        compare_sprays(parts()["variational"], parts()["eq5"], compare),
        landsberg_via_p(parts()["cfs"], parts()["field"], check),
        check_metrizability(parts()["field"], parts()["closed"], check),
    )


def _batch_of(values):
    return tuple(v.value.tobytes() for v in values)


@pytest.mark.parametrize("metric_id, quadratic", [("class2", "product"),
                                                  ("shen_eq8", "mixed4")])
def test_one_cross_oracle_job_draws_once_and_evaluates_each_batch_once(
        metric_id, quadratic, monkeypatch):
    spec = catalog.make_spec(metric_id, quadratic=quadratic)
    want = _cross_job(spec, fresh=True)
    draws, evaluations, components, f_reads, phi_reads = [], [], [], [], []
    draw = verify.draw_samples
    evaluate = geometry.FinslerField.evaluate
    closed_components = ClosedFormSpray.components
    f_values, phi_jet = alphabeta.RiemannSetup.f_values, alphabeta.RiemannSetup.phi_jet

    def counting_draw(guard, n, plan):
        draws.append(plan.n_points)
        return draw(guard, n, plan)

    def counting_evaluate(self, xs, ys):
        caps = (xs[0].space.x_cap, ys[0].space.y_cap)
        evaluations.append((_batch_of(xs) + _batch_of(ys), caps))
        return evaluate(self, xs, ys)

    def counting_components(self, rate, phi, y_jets):
        components.append((rate.tobytes(), _batch_of(y_jets), y_jets[0].space.y_cap))
        return closed_components(self, rate, phi, y_jets)

    def counting_f_values(self, x1):
        f_reads.append(len(x1))
        return f_values(self, x1)

    def counting_phi_jet(self, y_jets):
        phi_reads.append((len(y_jets[0].value), y_jets[0].space.y_cap))
        return phi_jet(self, y_jets)

    monkeypatch.setattr(verify, "draw_samples", counting_draw)
    monkeypatch.setattr(geometry.FinslerField, "evaluate", counting_evaluate)
    monkeypatch.setattr(ClosedFormSpray, "components", counting_components)
    monkeypatch.setattr(alphabeta.RiemannSetup, "f_values", counting_f_values)
    monkeypatch.setattr(alphabeta.RiemannSetup, "phi_jet", counting_phi_jet)
    assert _cross_job(spec) == want
    assert draws == [20]
    # F at caps (1, 2) on the 20 and the 15 points; G^i at order 0 on the
    # 20 points and at order 3 on the 15
    assert sorted(caps for _, caps in evaluations) == [(1, 2), (1, 2)]
    assert len(set(evaluations)) == 2
    assert sorted(order for *_, order in components) == [0, 3]
    assert len(set(components)) == 2
    # the setup is read once per batch: phi(yhat) by each F evaluation and
    # each spray batch (the closed spray at orders 0 and 3, the eq. (5)
    # spray at order 0, P in landsberg_via_p at order 3), f and f' by each
    # spray batch
    assert sorted(phi_reads) == [(15, 2), (15, 3), (15, 3), (20, 0), (20, 0), (20, 2)]
    assert sorted(f_reads) == [15, 15, 20, 20]


def _drawn(guard, n, plan):
    """The (x, y) arrays ``_run_plan`` evaluates for (guard, n, plan)."""
    got = []
    verify._run_plan(guard, (geometry.SprayField(n, None, "part"),), plan,
                     lambda x, y: got.append((x, y)) or {}, ())
    return got[0]


def _admits_y2(x, y):
    return y[1] > -0.5


def _admits_y3(x, y):
    return y[2] > 0.0


def test_a_draw_serves_only_its_guard_settings_and_length(monkeypatch):
    same_test = lambda x, y: y[1] > -0.5  # noqa: E731 - _admits_y2, another object
    plan = SamplePlan(n_points=8, seed=3)
    calls = [
        (_admits_y2, 3, plan, True),
        (_admits_y2, 3, SamplePlan(n_points=5, seed=3), False),  # a prefix
        (_admits_y3, 3, SamplePlan(n_points=5, seed=3), True),   # another guard
        (_admits_y2, 3, SamplePlan(n_points=5, seed=3), True),
        (_admits_y2, 3, plan, True),                             # longer
        (same_test, 3, plan, True),
        (_admits_y2, 3, plan, True),
        (_admits_y2, 4, plan, True),
        (_admits_y2, 3, SamplePlan(n_points=8, seed=4), True),
        (_admits_y2, 3, SamplePlan(n_points=8, seed=4, x_range=(0.0, 1.0)), True),
        (_admits_y2, 3, SamplePlan(n_points=8, seed=4, exclusion_angle=0.3), True),
        (_admits_y2, 3, SamplePlan(n_points=8, seed=4, exclusion_angle=0.3,
                                   guard_retries=300), True),
        (_admits_y2, 3, SamplePlan(n_points=7, seed=4, exclusion_angle=0.3,
                                   guard_retries=300), False),
    ]
    draws = []
    draw = verify.draw_samples
    monkeypatch.setattr(verify, "draw_samples",
                        lambda *args: draws.append(1) or draw(*args))
    for guard, n, plan_, drawn in calls:
        before = len(draws)
        x, y = _drawn(guard, n, plan_)
        pts = draw(guard, n, plan_)
        assert x.tobytes() == np.array([p for p, _ in pts]).tobytes()
        assert y.tobytes() == np.array([q for _, q in pts]).tobytes()
        assert len(draws) - before == drawn


def test_a_draw_is_not_served_to_fewer_guard_retries():
    def rare(x, y):  # about one attempt in five
        return y[1] > 0.5

    assert len(_drawn(rare, 3, SamplePlan(n_points=6, seed=1))[0]) == 6
    with pytest.raises(SamplerStarvationError):
        _drawn(rare, 3, SamplePlan(n_points=6, seed=1, guard_retries=1))


def test_a_draw_is_forgotten_with_its_guard():
    guard = lambda x, y: True  # noqa: E731
    _drawn(guard, 3, SamplePlan(n_points=4))
    assert list(verify._last_draw) == [guard]
    del guard
    assert len(verify._last_draw) == 0


def test_a_guard_without_weak_references_draws_afresh(monkeypatch):
    class NoWeakReferences:
        __slots__ = ()

        def __call__(self, x, y):
            return y[1] > -0.5

    draws = []
    draw = verify.draw_samples
    monkeypatch.setattr(verify, "draw_samples",
                        lambda *args: draws.append(1) or draw(*args))
    plan = SamplePlan(n_points=5, seed=2)
    want = np.array([p for p, _ in draw(_admits_y2, 3, plan)])
    guard = NoWeakReferences()
    for _ in range(2):
        x, _ = _drawn(guard, 3, plan)
        assert x.tobytes() == want.tobytes()
    assert len(draws) == 2


def test_an_unhashable_guard_gets_the_points_of_its_plan():
    # such a guard shares no draw (see the verify module docstring); it
    # only has to get the right points, which no cache may change
    class NoHash:
        __hash__ = None

        def __call__(self, x, y):
            return y[1] > -0.5

    plan = SamplePlan(n_points=5, seed=2)
    want = np.array([p for p, _ in verify.draw_samples(_admits_y2, 3, plan)])
    guard = NoHash()
    for n_points in (5, 3, 5):
        x, _ = _drawn(guard, 3, dataclasses.replace(plan, n_points=n_points))
        assert x.tobytes() == want[:n_points].tobytes()


def test_a_spec_has_one_guard_and_a_closed_spray_one_spray_field():
    for metric_id in ("class1", "shen_eq8", "example33"):
        spec = default_spec(metric_id)
        cfs = catalog.closed_form_spray(spec)
        assert cfs.domain_guard is catalog.build_finsler(spec).domain_guard
        assert cfs.as_spray_field() is cfs.as_spray_field()
    spec = default_spec("shen_r3_eq1")
    assert catalog.build_finsler(spec).domain_guard is \
        catalog.build_finsler(spec).domain_guard


def test_compare_sprays_calls_a_shared_guard_once_per_attempt():
    spec = default_spec("class1")
    calls = []
    guard = catalog.build_finsler(spec).domain_guard

    def counted(x, y):
        calls.append(1)
        return guard(x, y)

    plan = SamplePlan(n_points=10, seed=2)
    cfs = dataclasses.replace(catalog.closed_form_spray(spec), domain_guard=counted)
    compare_sprays(cfs.as_spray_field(), cfs.as_spray_field(), plan)
    attempts = len(calls)
    calls.clear()
    verify.draw_samples(counted, 3, plan)
    assert attempts == len(calls) >= plan.n_points


def test_a_closed_spray_copy_evaluates_a_batch_its_original_keeps(monkeypatch):
    spec = default_spec("class2")
    cfs = catalog.closed_form_spray(spec)
    pts = admissible_points(catalog.build_finsler(spec), 8)
    x, y = np.array([p for p, _ in pts]), np.array([q for _, q in pts])
    calls = []
    components = ClosedFormSpray.components

    def counting(self, rate, phi, y_jets):
        calls.append(self.label)
        return components(self, rate, phi, y_jets)

    monkeypatch.setattr(ClosedFormSpray, "components", counting)
    original = cfs.jets(x, y, 3)
    cfs.jets(x, y, 3)
    assert calls == [cfs.label]  # the second call is served the kept jets
    copies = [perturbed_projective_factor(cfs, 1e-3),
              dataclasses.replace(cfs, label="copy")]
    for copy in copies:
        calls.clear()
        got = copy.jets(x, y, 3)
        assert calls == [copy.label]  # a copy keeps nothing of its original
        fresh = copy._jets_fn(x, y, 3)  # the program itself, nothing kept
        assert all(np.array_equal(g.coeffs, f.coeffs) for g, f in zip(got, fresh))
    # the perturbed P differs from the original's; the relabelled copy does not
    perturbed = copies[0].jets(x, y, 3)
    assert not np.array_equal(perturbed[1].coeffs, original[1].coeffs)
    assert all(np.array_equal(g.coeffs, o.coeffs)
               for g, o in zip(copies[1].jets(x, y, 3), original))


def test_a_closed_spray_with_kept_jets_is_freed_by_reference_counting():
    spec = default_spec("class1")
    field = catalog.build_finsler(spec)
    cfs = catalog.closed_form_spray(spec)
    landsberg_via_p(cfs, field, SamplePlan(n_points=6, seed=0))
    assert cfs._kept  # the job's jets are kept
    ref = weakref.ref(cfs)
    gc.disable()
    try:
        del cfs  # no cycle holds the spray or its jets
        assert ref() is None
    finally:
        gc.enable()


def test_a_closed_spray_is_its_own_spray_field():
    for metric_id in ("class1", "shen_eq8", "example33"):
        cfs = catalog.closed_form_spray(default_spec(metric_id))
        assert isinstance(cfs, geometry.SprayField)
        assert cfs.as_spray_field() is cfs
