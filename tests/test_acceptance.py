"""Acceptance suite: one test group per numbered criterion.

Each group's PASS/FAIL line is printed by the conftest terminal summary.
Criterion 2 includes the class4 grid point (p, q) = (2, -1), which sits
exactly on the 1+q = 0 locus where the published Theta has no value: F
becomes 2 beta + sqrt(alpha^2 - beta^2), the excluded a = 1 member of
class2, with det(g) = 0 identically, so there is no spray to classify.
At that point the grid checks what the library promises instead of the
residual bounds: make_spec refuses it with a det(g) error, the
unvalidated field equals that closed form, and g is singular (with a
DegenerateMetricWarning) at every sample of the criterion's plan.
"""

import math
import time

import numpy as np
import pytest

from finslerlab import alphabeta, catalog, geometry, jets, verify
from finslerlab.alphabeta import ab_spray_field, q_aux
from finslerlab.catalog import (
    build_finsler,
    closed_form_spray,
    make_spec,
    phi_function,
)
from finslerlab.cli import main as cli_main
from finslerlab.exprlang import parse_expr, pretty_print
from finslerlab.geometry import DegenerateMetricError, ad_spray_field
from finslerlab.verify import SamplePlan, classify, draw_samples

from conftest import DEFAULT_IDS, admissible_points, default_spec
from oracles import richardson_partial
from test_exprlang import random_ast

X0 = np.zeros(3)
Y111 = np.ones(3)

CLOSED_FORM_IDS = [m for m in DEFAULT_IDS if m != "shen_r3_eq1"]

_timings = {}


# ---------------------------------------------------------------------------
# 1. reproduction of the first worked example
# ---------------------------------------------------------------------------


def test_criterion_1_worked_example_reproduction():
    t0 = time.perf_counter()
    spec = make_spec("example31")
    field = build_finsler(spec)
    spray = closed_form_spray(spec).as_spray_field()
    plan = SamplePlan(n_points=50, seed=2024)
    worst = 0.0
    for x, y in draw_samples(field.domain_guard, 3, plan):
        lt = geometry.point_tensors(field, spray, x, y).L
        worst = max(worst, np.abs(lt).max() / max(1.0, field.value(x, y)))
    assert worst <= 1e-9
    b2222 = geometry.point_tensors(field, spray, X0, Y111).Gijkh[1, 1, 1, 1]
    assert abs(b2222 - (-3.0 / 16.0)) <= 1e-10
    elapsed = time.perf_counter() - t0
    _timings["criterion1"] = elapsed
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. the four classes over the parameter grids and all three setups
# ---------------------------------------------------------------------------

GRID = (
    [("class1", {"a": a}) for a in (-2.0, -0.5, 0.5, 2.0)]
    + [("class2", {"a": a}) for a in (-3.0, 2.0, 0.5)]
    + [("class3", {"a": a}) for a in (-2.0, -0.5, 0.5, 2.0)]
    + [
        ("class4", {"p": p, "q": q})
        for p, q in ((1.0, 0.0), (3.0, 1.0), (2.0, -1.0), (-2.0, 3.0))
    ]
)


def _grid_id(case):
    mid, params = case
    inner = ",".join(f"{k}={v:g}" for k, v in params.items())
    return f"{mid}({inner})"


def _on_class4_singular_locus(metric_id, params):
    """Whether a grid point lies where the published class4
    Theta = p / (2(1+q) sqrt(alpha^2 - beta^2)) has no value."""
    return metric_id == "class4" and 1.0 + params["q"] == 0.0


def _check_class4_degenerate(params, setup_kind, plan):
    """What the library promises on the 1+q = 0 locus: make_spec refuses
    the point, and F is p beta + sqrt(alpha^2 - beta^2) (at p = 2 the
    excluded class2 a = 1 member), whose g is singular everywhere."""
    with pytest.raises(DegenerateMetricError) as err:
        make_spec("class4", params, quadratic=setup_kind)
    assert "det(g)" in str(err.value)
    # The refused point, built without validation.
    setup = catalog.make_setup(setup_kind)
    field = build_finsler(catalog.MetricClassSpec("class4", params, setup))
    p = params["p"]
    for x, y in draw_samples(field.domain_guard, field.n, plan):
        # f is the default conformal factor exp(x^1).
        r = math.sqrt(setup.phi_value(y[1:]))
        closed = math.exp(x[0]) * (p * y[0] + r)
        assert abs(field.value(x, y) - closed) <= 1e-12 * abs(closed)
        with pytest.warns(geometry.DegenerateMetricWarning):
            g = geometry.metric_tensor(field, x, y)
        sv = np.linalg.svd(g, compute_uv=False)
        assert sv.min() <= 1e-10 * sv.max()


@pytest.mark.parametrize("setup_kind", ("product", "euclid", "mixed4"))
@pytest.mark.parametrize("case", GRID, ids=_grid_id)
def test_criterion_2_four_class_grid(case, setup_kind):
    metric_id, params = case
    t0 = time.perf_counter()
    plan = SamplePlan(n_points=50, seed=11)
    if _on_class4_singular_locus(metric_id, params):
        _check_class4_degenerate(params, setup_kind, plan)
    else:
        spec = make_spec(metric_id, params, quadratic=setup_kind)
        field = build_finsler(spec)
        spray = closed_form_spray(spec).as_spray_field()
        report = classify(field, spray, plan, params=spec.params)
        res = report.residuals
        assert res["landsberg"]["max"] <= 1e-9
        assert res["berwald"]["max"] >= 1e-4
        assert res["metrizability"]["max"] <= 1e-9
        assert res["euler"]["max"] <= 1e-10
    _timings["criterion2"] = _timings.get("criterion2", 0.0) + (
        time.perf_counter() - t0
    )


def test_criterion_2_total_runtime():
    assert _timings.get("criterion2", 0.0) < 60.0


# Shen's class, and so every (alpha, beta) entry, is Landsberg and
# non-Berwald in every dimension n >= 3 (Z. Shen, Canad. J. Math. 61, 2009).
AB_IDS = ["class1", "class2", "class3", "class4", "shen_eq8", "asanov_eq9"]


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("dim", (5, 6))
@pytest.mark.parametrize("metric_id", AB_IDS)
def test_criterion_2_every_ab_entry_beyond_the_presets(metric_id, dim, seed):
    # The closed route only: the variational route's rounding reaches the
    # Landsberg gate for class3 here, as at the presets (ROADMAP item 1).
    spec = make_spec(metric_id, quadratic="euclid", dim=dim)
    spray = closed_form_spray(spec).as_spray_field()
    report = classify(build_finsler(spec), spray, SamplePlan(seed=seed))
    assert report.verdict == "Landsberg, non-Berwald"


# ---------------------------------------------------------------------------
# 3. pairwise spray cross-oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("metric_id", CLOSED_FORM_IDS)
def test_criterion_3_spray_cross_oracle(metric_id):
    spec = default_spec(metric_id)
    field = build_finsler(spec)
    closed = closed_form_spray(spec).as_spray_field()
    variational = ad_spray_field(field)
    eq5 = ab_spray_field(
        phi_function(spec), spec.setup, domain_guard=field.domain_guard
    )
    plan = SamplePlan(n_points=20, seed=13)
    assert verify.compare_sprays(closed, variational, plan) <= 1e-8
    assert verify.compare_sprays(closed, eq5, plan) <= 1e-8
    assert verify.compare_sprays(variational, eq5, plan) <= 1e-8


# ---------------------------------------------------------------------------
# 4. Q / Theta / projective-ratio oracle against the published closed forms
# ---------------------------------------------------------------------------


def _published_q(metric_id, prm):
    a = prm.get("a")
    p, q = prm.get("p"), prm.get("q")
    if metric_id == "class1":
        return (
            lambda s, r: 2 * a * r + (a * a - 1) * s,
            lambda s, r: ((a * a - 1) * r - 2 * a * s) / (2 * a),
            lambda s, r: 1 / (a * r),
        )
    if metric_id == "class2":
        return (
            lambda s, r: 2 * a * r + (a * a - 2) * s,
            lambda s, r: ((a * a - 2) * r - 2 * a * s) / (2 * a),
            lambda s, r: a / ((a * a - 1) * r),
        )
    if metric_id == "class3":
        return (
            lambda s, r: 1.5 * a * r + 0.5 * (a * a - 2) * s,
            lambda s, r: -s + (a * a - 2) * r / (3 * a),
            lambda s, r: 3 / (2 * a * r),
        )
    return (
        lambda s, r: p * r + q * s,
        lambda s, r: -s + q * r / p,
        lambda s, r: p / (2 * (1 + q) * r),
    )


@pytest.mark.parametrize(
    "case",
    [c for c in GRID if c[1] != {"p": 2.0, "q": -1.0}],
    ids=_grid_id,
)
def test_criterion_4_q_theta_oracle(case):
    metric_id, params = case
    spec = make_spec(metric_id, params)
    phi = phi_function(spec)
    fq, fw, ft = _published_q(metric_id, params)
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 50:
        s = rng.uniform(-0.95, 0.95)
        if not phi.admissible(s):
            continue
        checked += 1
        r = math.sqrt(1.0 - s * s)
        q, qp, w, theta = q_aux(phi, s)
        assert abs(q - fq(s, r)) <= 1e-10 * max(1.0, abs(q))
        assert abs(w - fw(s, r)) <= 1e-10 * max(1.0, abs(w))
        assert abs(theta - ft(s, r)) <= 1e-10 * max(1.0, abs(theta))


# ---------------------------------------------------------------------------
# 5. Landsberg via the projective factor, with a perturbation control
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("metric_id", CLOSED_FORM_IDS)
def test_criterion_5_landsberg_via_p(metric_id):
    spec = default_spec(metric_id)
    field = build_finsler(spec)
    cfs = closed_form_spray(spec)
    out = verify.landsberg_via_p(cfs, field, SamplePlan(n_points=15, seed=19))
    assert out["via_p"]["max"] <= 1e-9
    assert out["general"]["max"] <= 1e-9
    assert out["agreement"]["max"] <= 1e-9


def test_criterion_5_perturbation_control():
    spec = default_spec("class1")
    field = build_finsler(spec)
    cfs = closed_form_spray(spec)
    plan = SamplePlan(n_points=15, seed=19)
    for eps in (1e-3, 1e-5):
        pert = verify.perturbed_projective_factor(cfs, eps)
        out = verify.landsberg_via_p(pert, field, plan)
        assert out["via_p"]["max"] >= 1e-3 * eps


# ---------------------------------------------------------------------------
# 6. degeneration suite
# ---------------------------------------------------------------------------


def test_criterion_6_constant_f_is_berwald():
    spec = make_spec("class1", {"a": 2.0}, f=lambda t: t.space.constant(3.0))
    field = build_finsler(spec)
    spray = closed_form_spray(spec).as_spray_field()
    report = classify(field, spray, SamplePlan(n_points=25, seed=23))
    assert report.verdict == "Berwald"
    for row in report.samples:
        assert max(abs(g) for g in row["G"]) <= 1e-12


@pytest.mark.parametrize(
    "metric_id,params",
    [
        ("class2", {"a": 1.0}),
        ("class2", {"a": -1.0}),
        ("class3", {"a": 0.0}),
    ],
)
def test_criterion_6_singular_parameters(metric_id, params):
    with pytest.raises(DegenerateMetricError) as err:
        make_spec(metric_id, params)
    assert "det(g)" in str(err.value)


# ---------------------------------------------------------------------------
# 7. class equivalences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", (2.0, 0.5, -2.0))
def test_criterion_7_fourth_class_reduces_to_first(a):
    f1 = build_finsler(make_spec("class1", {"a": a}))
    f4 = build_finsler(make_spec("class4", {"p": 2 * a, "q": a * a - 1.0}))
    for x, y in admissible_points(f1, 20, seed=29):
        assert f4.value(x, y) == f1.value(x, y)


@pytest.mark.parametrize("a", (2.0, 0.5, -2.0))
def test_criterion_7_second_vs_fourth_energy_ratio(a):
    f2 = build_finsler(make_spec("class2", {"a": a}))
    f4 = build_finsler(make_spec("class4", {"p": 2 * a, "q": a * a - 2.0}))
    ratios = _energy_ratios(f2, f4, 50)
    spread = np.ptp(ratios) / abs(np.mean(ratios))
    assert spread <= 1e-8
    sign = math.copysign(1.0, float(np.mean(ratios)))
    print(f"second/fourth energy ratio at a={a}: {np.mean(ratios):.12g} "
          f"(sign {sign:+.0f})")


@pytest.mark.parametrize("a", (2.0, 0.5, -2.0))
def test_criterion_7_third_vs_fourth_energy_proportionality(a):
    f3 = build_finsler(make_spec("class3", {"a": a}))
    f4 = build_finsler(
        make_spec("class4", {"p": 1.5 * a, "q": (a * a - 2.0) / 2.0})
    )
    ratios = _energy_ratios(f3, f4, 50)
    spread = np.ptp(ratios) / abs(np.mean(ratios))
    assert spread <= 1e-8
    print(f"third/fourth energy ratio at a={a}: {np.mean(ratios):.12g}")


def _energy_ratios(fa, fb, want):
    plan = SamplePlan(n_points=want, seed=31, guard_retries=500)

    def guard(x, y):
        return fa.domain_guard(x, y) and fb.domain_guard(x, y)

    out = []
    for x, y in draw_samples(guard, fa.n, plan):
        out.append(fb.value(x, y) ** 2 / fa.value(x, y) ** 2)
    return np.array(out)


# ---------------------------------------------------------------------------
# 8. the jet core against finite differences, plus algebra properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("metric_id", DEFAULT_IDS)
def test_criterion_8_partials_up_to_order_three(metric_id):
    spec = default_spec(metric_id)
    field = build_finsler(spec)
    n = field.n
    pts = admissible_points(field, 2, seed=37)
    for x, y in pts:
        fj = field.jet(x, y, 1, 3)

        def value_at_y(z):
            return field.value(x, z)

        def value_at_x1(z):
            xx = np.array(x)
            xx[0] = z[0]
            return field.value(xx, y)

        # all fiber partials through order 3
        for order in (1, 2, 3):
            for combo in _combos(n, order):
                idx = [0] * n
                for c in combo:
                    idx[c] += 1
                got = fj.extract((0,) * n + tuple(idx))
                ref = richardson_partial(
                    value_at_y, y, combo, 3e-3 if order == 3 else 1e-3
                )
                assert abs(got - ref) <= 1e-6 * max(1.0, abs(got), abs(ref))
        # base derivative and one mixed base-fiber derivative
        got = fj.extract((1,) + (0,) * (2 * n - 1))
        ref = richardson_partial(value_at_x1, [x[0]], (0,), 1e-3)
        assert abs(got - ref) <= 1e-6 * max(1.0, abs(got), abs(ref))
        for i in range(n):
            idx = [0] * (2 * n)
            idx[0] = 1
            idx[n + i] = 1
            got = fj.extract(tuple(idx))

            def dldy(z):
                xx = np.array(x)
                xx[0] = z[0]
                fj1 = field.jet(xx, y, 0, 1)
                e = [0] * n
                e[i] = 1
                return fj1.extract(e)

            ref = richardson_partial(dldy, [x[0]], (0,), 1e-3)
            assert abs(got - ref) <= 1e-6 * max(1.0, abs(got), abs(ref))


def _combos(n, order):
    if order == 1:
        return [(i,) for i in range(n)]
    if order == 2:
        return [(i, j) for i in range(n) for j in range(i, n)]
    return [
        (i, j, k)
        for i in range(n)
        for j in range(i, n)
        for k in range(j, n)
    ]


def test_criterion_8_jet_algebra_randomized_suite():
    big = jets.jet_space(1, 2, 1, 4)
    rng = np.random.default_rng(41)
    e_y1 = (0, 1, 0)
    for _ in range(1000):
        ca = rng.normal(size=big.size)
        cb = rng.normal(size=big.size)
        ca[0] = abs(ca[0]) + 0.6
        cb[0] = abs(cb[0]) + 0.6
        a = jets.TaylorValue(big, ca)
        b = jets.TaylorValue(big, cb)
        # product rule
        lhs = (a * b).extract(e_y1)
        rhs = a.value * b.extract(e_y1) + a.extract(e_y1) * b.value
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        # chain rule / exp(ln(a)) identity, termwise
        back = jets.exp(jets.ln(a))
        assert np.abs(back.coeffs - a.coeffs).max() <= 1e-12 * max(
            1.0, np.abs(a.coeffs).max()
        )
        # truncation consistency, bit-identical retained coefficients
        expr = jets.sqrt(a) / b + a * b
        small = (
            jets.sqrt(a.truncate(1, 2)) / b.truncate(1, 2)
            + a.truncate(1, 2) * b.truncate(1, 2)
        )
        assert np.array_equal(expr.truncate(1, 2).coeffs, small.coeffs)


# ---------------------------------------------------------------------------
# 9. determinism, CLI exit contract, parser round-trip
# ---------------------------------------------------------------------------


def test_criterion_9_reports_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = cli_main(
            ["classify", "--metric", "class1", "--param", "a=2",
             "--points", "25", "--seed", "99", "--out", str(p)]
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_criterion_9_exit_code_contract(tmp_path):
    out = str(tmp_path / "r.json")
    # declared verdict matches -> 0
    assert cli_main(
        ["classify", "--metric", "example31", "--points", "10", "--out", out]
    ) == 0
    # Berwald degeneration with matching expectation -> 0
    assert cli_main(
        ["classify", "--metric", "class1", "--param", "a=2", "--f", "3",
         "--points", "8", "--expect", "berwald", "--out", out]
    ) == 0
    # verdict mismatch -> 2
    assert cli_main(
        ["classify", "--metric", "class1", "--param", "a=2", "--f", "3",
         "--points", "8", "--out", out]
    ) == 2
    # singular parameters -> 1
    assert cli_main(["classify", "--metric", "class2", "--param", "a=1"]) == 1


def test_criterion_9_non_landsberg_verdict_reachable():
    # a perturbed projective factor breaks the Landsberg identity
    spec = default_spec("class1")
    field = build_finsler(spec)
    broken = verify.perturbed_projective_factor(
        closed_form_spray(spec), 1e-2
    ).as_spray_field()
    report = classify(field, broken, SamplePlan(n_points=15, seed=43))
    assert report.verdict == "non-Landsberg"


def test_criterion_9_parser_roundtrip_500():
    rng = np.random.default_rng(47)
    for _ in range(500):
        ast = random_ast(rng, int(rng.integers(1, 5)))
        assert parse_expr(pretty_print(ast)) == ast
