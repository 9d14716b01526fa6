import math

import numpy as np
import pytest

from finslerlab import catalog, geometry
from finslerlab.catalog import (
    CATALOG,
    CatalogError,
    build_finsler,
    class_equivalence_pairs,
    closed_form_spray,
    expected_berwald_component,
    make_setup,
    make_spec,
)
from finslerlab.geometry import DegenerateMetricError, ad_spray_field
from finslerlab.jets import jet_space

from conftest import DEFAULT_IDS, admissible_points, default_spec

X0 = np.zeros(3)
Y111 = np.ones(3)


def test_catalog_census():
    assert len(CATALOG) == 10
    assert set(CATALOG) == set(DEFAULT_IDS)


def test_field_value_class1_a1():
    spec = make_spec("class1", {"a": 1.0})
    field = build_finsler(spec)
    assert field.value(X0, Y111) == pytest.approx(2.0 * math.exp(0.5), rel=1e-14)


def test_field_value_first_worked_example():
    field = build_finsler(make_spec("example31"))
    expected = math.sqrt(3.0) * math.exp(math.pi / (3.0 * math.sqrt(3.0)))
    assert field.value(X0, Y111) == pytest.approx(expected, rel=1e-14)


def test_class4_degenerate_discriminant_delegates():
    a = 2.0
    f4 = build_finsler(make_spec("class4", {"p": 2 * a, "q": a * a - 1.0}))
    f1 = build_finsler(make_spec("class1", {"a": a}))
    rng = np.random.default_rng(1)
    for _ in range(10):
        y = rng.normal(size=3)
        y[1:] = np.abs(y[1:]) + 0.2
        x = np.array([rng.uniform(-0.5, 0.5), 0, 0])
        assert f4.value(x, y) == f1.value(x, y)  # same code path, same bits


@pytest.mark.parametrize(
    "metric_id,params,exc",
    [
        ("class1", {"a": 0.0}, CatalogError),
        ("class2", {"a": 0.0}, CatalogError),
        ("class2", {"a": 1.0}, DegenerateMetricError),
        ("class2", {"a": -1.0}, DegenerateMetricError),
        ("class3", {"a": 0.0}, DegenerateMetricError),
        ("class4", {"p": 0.0, "q": 1.0}, CatalogError),
        ("class4", {"p": 2.0, "q": -1.0}, DegenerateMetricError),
        ("shen_eq8", {"c1": 0.0}, CatalogError),
        ("shen_eq8", {"c3": -1.5}, CatalogError),
        ("shen_eq8", {"c4": 0.0}, CatalogError),
        ("shen_eq8", {"c1": 3.0, "c3": 0.0}, CatalogError),
        ("asanov_eq9", {"g": 2.5}, CatalogError),
        ("asanov_eq9", {"g": 0.0}, CatalogError),
        ("class1", {"a": math.nan}, CatalogError),
        ("class1", {"a": math.inf}, CatalogError),
        ("class4", {"p": 1.0, "q": math.nan}, CatalogError),
        ("class4", {"p": -math.inf, "q": 1.0}, CatalogError),
        ("shen_eq8", {"c4": math.inf}, CatalogError),
    ],
)
def test_parameter_validation(metric_id, params, exc):
    with pytest.raises(exc):
        make_spec(metric_id, params)


@pytest.mark.parametrize("call, message", [
    (lambda: make_setup("nope"),
     "unknown quadratic preset 'nope'; choose from ['euclid', 'mixed4', 'product']"),
    (lambda: make_setup(np.eye(2), dim=4), "matrix implies dimension 3, got --dim 4"),
    (lambda: make_spec("shen_r3_eq1", quadratic="euclid"),
     "shen_r3_eq1 fixes its own Riemannian data"),
    (lambda: make_spec("example31", dim=4), "example31 fixes dimension 3"),
    (lambda: catalog.phi_function(make_spec("shen_r3_eq1")),
     "no block-setup (alpha, beta) profile for 'shen_r3_eq1'"),
    (lambda: expected_berwald_component(
        make_spec("class1", quadratic=np.array([[2.0, 0.3], [0.3, 1.0]])),
        np.zeros(3), np.ones(3)),
     "no published Berwald component for the quadratic form of class1(a=2)"),
], ids=["preset", "dim", "fixed-setup", "fixed-dim", "phi", "witness"])
def test_catalog_boundary_errors_name_their_cause(call, message):
    with pytest.raises(CatalogError) as err:
        call()
    assert str(err.value) == message


def test_unknown_entry_and_params():
    with pytest.raises(CatalogError):
        make_spec("class9")
    with pytest.raises(CatalogError):
        make_spec("class1", {"zeta": 1.0})
    with pytest.raises(CatalogError):
        make_spec("example31", quadratic="euclid")
    with pytest.raises(CatalogError):
        make_setup("product", dim=4)


def test_closed_form_spray_hand_values_example33():
    spec = make_spec("example33")
    spray = closed_form_spray(spec).as_spray_field()
    g = spray.values(np.zeros(4), np.ones(4))
    mu = (2.0 + math.sqrt(2.0)) / 2.0
    assert g == pytest.approx([-0.5, mu, mu, mu], abs=1e-14)


def test_closed_form_spray_class2_projective_factor():
    spec = make_spec("class2", {"a": 2.0})
    cfs = closed_form_spray(spec)
    assert cfs.setup.spray_jets(cfs.p, X0, Y111, 0).value == pytest.approx(
        5.0 / 3.0, rel=1e-14)


def test_class4_kappa_reduces_to_class1():
    for a in (2.0, 0.5, -2.0):
        spec4 = make_spec("class4", {"p": 2 * a, "q": a * a - 1.0})
        spec1 = make_spec("class1", {"a": a})
        cfs4 = closed_form_spray(spec4)
        cfs1 = closed_form_spray(spec1)
        x = np.array([0.2, 0, 0])
        y = np.array([0.4, 1.1, 0.8])
        assert cfs4.setup.spray_jets(cfs4.p, x, y, 0).value == pytest.approx(
            cfs1.setup.spray_jets(cfs1.p, x, y, 0).value, rel=1e-14
        )
        assert cfs4.setup.spray_jets(cfs4.g1, x, y, 0).value == pytest.approx(
            cfs1.setup.spray_jets(cfs1.g1, x, y, 0).value, rel=1e-14
        )


def test_no_closed_form_for_warped_entry():
    with pytest.raises(CatalogError):
        closed_form_spray(make_spec("shen_r3_eq1"))


def _spray_for(spec, field):
    if spec.entry.has_closed_form:
        return closed_form_spray(spec).as_spray_field()
    return ad_spray_field(field)


def test_closed_form_agrees_with_variational_spray(catalog_spec):
    if not catalog_spec.entry.has_closed_form:
        pytest.skip("entry is verified through the variational route only")
    field = build_finsler(catalog_spec)
    closed = closed_form_spray(catalog_spec).as_spray_field()
    variational = geometry.ad_spray_field(field)
    for x, y in admissible_points(field, 20, seed=40):
        ref = variational.values(x, y)
        got = closed.values(x, y)
        assert np.abs(got - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())


def test_landsberg_zero_berwald_nonzero(catalog_spec):
    field = build_finsler(catalog_spec)
    spray = _spray_for(catalog_spec, field)
    worst_l = 0.0
    best_b = 0.0
    for x, y in admissible_points(field, 20, seed=41):
        pt = geometry.point_tensors(field, spray, x, y)
        lt, bt = pt.L, pt.Gijkh
        worst_l = max(worst_l, np.abs(lt).max() / max(1.0, field.value(x, y)))
        if catalog_spec.setup is not None:
            fv, fp = catalog_spec.setup.f_values(x[0])
            rate = abs(fp / fv)
        else:
            rate = 1.0
        best_b = max(best_b, np.abs(bt).max() / max(rate, 1e-30))
    assert worst_l <= 1e-9
    assert best_b >= 1e-3


def test_projective_factor_structure(catalog_spec):
    if not catalog_spec.entry.has_closed_form:
        pytest.skip("no closed form")
    field = build_finsler(catalog_spec)
    cfs = closed_form_spray(catalog_spec)
    n = field.n
    for x, y in admissible_points(field, 10, seed=42):
        pj = cfs.setup.spray_jets(cfs.p, x, y, 2)
        # 1-homogeneity: P(x, 2y) = 2 P(x, y)
        p2y = cfs.setup.spray_jets(cfs.p, x, 2.0 * y, 0)
        assert p2y.value == pytest.approx(2.0 * pj.value, rel=1e-12)
        # P_{1j} = 0: mixed derivatives with the first fiber slot vanish
        for j in range(n):
            idx = [0] * n
            idx[0] += 1
            idx[j] += 1
            assert abs(pj.extract(idx)) <= 1e-12 * max(1.0, abs(pj.value))


def test_expected_berwald_matches_tensor(catalog_spec):
    if catalog_spec.setup is None:
        pytest.skip("no published component")
    field = build_finsler(catalog_spec)
    spray = _spray_for(catalog_spec, field)
    for x, y in admissible_points(field, 10, seed=43):
        ref = expected_berwald_component(catalog_spec, x, y)
        got = geometry.point_tensors(field, spray, x, y).Gijkh[1, 1, 1, 1]
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


@pytest.mark.parametrize(
    "metric_id,params,expected",
    [
        ("example31", None, -3.0 / 16.0),
        ("class1", {"a": 1.0}, -3.0 / 8.0),
        ("class3", {"a": 2.0}, -9.0 / 32.0),
    ],
)
def test_expected_berwald_published_values(metric_id, params, expected):
    spec = make_spec(metric_id, params)
    assert expected_berwald_component(spec, X0, Y111) == pytest.approx(
        expected, abs=1e-15
    )


def test_shen_psi_second_chart_agrees():
    # the class has two interchangeable published psi charts; the field uses
    # the first, so evaluate the second here and compare the resulting F
    spec = default_spec("shen_eq8")
    c1, c3, c4 = (spec.params[k] for k in ("c1", "c3", "c4"))
    r = math.hypot(c1, c3)
    kk = (2.0 + c3) ** 2 - c1**2 - c3**2
    field = build_finsler(spec)

    def f_via_psi2(x, y):
        fv, _ = spec.setup.f_values(x[0])
        y1 = y[0]
        phi = spec.setup.phi_value(y[1:])
        v = math.sqrt(phi)
        rad = (1.0 + c3) * y1**2 + c1 * y1 * v + phi
        num = ((2.0 + c3) * c3 + r * (r - c1)) * y1 + (
            c3 * r - (2.0 + c3) * (r - c1)
        ) * v
        den = (c3 * v + (r - c1) * y1) * math.sqrt(kk)
        expo = c1 * math.atan(num / den) / math.sqrt(kk)
        return fv * c4 * math.sqrt(rad) * math.exp(expo)

    for x, y in admissible_points(field, 20, seed=44):
        got = field.value(x, y)
        ref = f_via_psi2(x, y)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


def test_equivalence_pair_relations():
    pairs = class_equivalence_pairs(a_values=(2.0, 0.5, -2.0))
    assert {rel for _, _, rel in pairs} == {
        "equal",
        "equal-up-to-sign",
        "equal-up-to-constant-factor",
    }
    for spec_a, spec_b, rel in pairs:
        fa = build_finsler(spec_a)
        fb = build_finsler(spec_b)
        ratios = []
        for x, y in admissible_points(fa, 15, seed=45):
            if not fb.domain_guard(x, y):
                continue
            ratios.append(fb.value(x, y) ** 2 / fa.value(x, y) ** 2)
        assert len(ratios) >= 8
        ratios = np.array(ratios)
        spread = np.ptp(ratios) / abs(ratios.mean())
        assert spread <= 1e-8
        if rel == "equal":
            assert ratios.mean() == pytest.approx(1.0, abs=1e-12)


# Every (alpha, beta) entry on every setup it supports, with a negative-a,
# a negative-g and a zero-discriminant class4 point besides the defaults.
AB_CASES = [
    (metric_id, params, quadratic)
    for metric_id, params in (
        ("class1", {}), ("class1", {"a": -2.0}), ("class2", {}),
        ("class3", {}), ("class3", {"a": -0.5}), ("class4", {}),
        ("class4", {"p": 2.0, "q": 0.0}), ("shen_eq8", {}),
        ("asanov_eq9", {}), ("asanov_eq9", {"g": -1.0}),
    )
    for quadratic in sorted(catalog.QUADRATIC_PRESETS)
] + [(metric_id, {}, None) for metric_id in ("example31", "example32", "example33")]


def _ab_id(case):
    metric_id, params, quadratic = case
    return make_spec(metric_id, params).label + f"-{quadratic or 'fixed'}"


def _beta_over_alpha(spec, y):
    """(s, w) with s = beta/alpha = y^1/w and alpha = f(x^1) w."""
    w = math.sqrt(y[0] ** 2 + spec.setup.phi_value(y[1:]))
    return y[0] / w, w


@pytest.mark.parametrize("case", AB_CASES, ids=_ab_id)
def test_field_equals_alpha_phi_of_beta_over_alpha(case):
    metric_id, params, quadratic = case
    spec = make_spec(metric_id, params, quadratic=quadratic)
    field = build_finsler(spec)
    phi = catalog.phi_function(spec)
    space = jet_space(0, 1, 0, 1)
    for x, y in admissible_points(field, 10, seed=46):
        s, w = _beta_over_alpha(spec, y)
        fv, _ = spec.setup.f_values(x[0])
        ref = fv * w * phi(space.seed_y(0, s)).value
        assert abs(field.value(x, y) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("case", AB_CASES, ids=_ab_id)
def test_phi_admissible_wherever_field_is_sampled(case):
    metric_id, params, quadratic = case
    spec = make_spec(metric_id, params, quadratic=quadratic)
    phi = catalog.phi_function(spec)
    for x, y in admissible_points(build_finsler(spec), 50, seed=47):
        assert phi.admissible(_beta_over_alpha(spec, y)[0])


# Metrizability of the catalog spray with constants (kappa, c = 1 + c3)
# by F = f(x^1) v h(y^1 / v), v = sqrt(phi(yhat)), is one linear ODE in the
# profile h(t) = psi(t, 1) (Z. Shen, Canad. J. Math. 61 (2009) 1357-1374):
#     (c t^2 + 2 c kappa t + 1) h'(t) = (c t + 2 c kappa) h(t),
# linear in (c, c kappa).  Solving it at two admissible t derives the
# constants from psi alone, so Profile.spray() is a checked output.
ODE_CASES = [
    (metric_id, {}) for metric_id in (
        "class1", "class2", "class3", "class4", "shen_eq8", "asanov_eq9",
        "example31", "example32", "example33",
    )
] + [
    ("class1", {"a": -0.5}),
    ("class2", {"a": -3.0}),
    ("class3", {"a": -0.5}),
    ("class4", {"p": 1.0, "q": 0.0}),
    ("class4", {"p": -2.0, "q": 3.0}),
    ("class4", {"p": 2.0, "q": 0.0}),  # d = 0: delegates to class1
    ("asanov_eq9", {"g": -1.0}),
]


def _profile_and_slope(prof, t):
    """h(t) = psi(t, 1) and h'(t), from an order-1 jet in t."""
    hj = prof.psi(1.0, jet_space(0, 1, 0, 1).seed_y(0, t), 1.0, 1.0)
    return hj.value, hj.dy(0).value


@pytest.mark.parametrize(
    "metric_id,params", ODE_CASES, ids=[make_spec(*c).label for c in ODE_CASES]
)
def test_spray_constants_derived_from_psi(metric_id, params):
    prof = catalog._profile(make_spec(metric_id, params))
    grid = [
        t for t in np.linspace(-3.0, 3.0, 121)
        if prof.admits(t, 1.0, 1.0, 1.0 + t * t)
    ]
    system, rhs = [], []
    for t in (grid[len(grid) // 3], grid[2 * len(grid) // 3]):
        h, dh = _profile_and_slope(prof, t)
        system.append([t * t * dh - t * h, 2.0 * (t * dh - h)])
        rhs.append(-dh)
    c, c_kappa = np.linalg.solve(system, rhs)
    kappa0, c0 = prof.spray()
    assert c == pytest.approx(c0, rel=1e-10)
    assert c_kappa / c == pytest.approx(kappa0, rel=1e-10)
    for t in grid:
        h, dh = _profile_and_slope(prof, t)
        lhs = (c0 * t * t + 2.0 * c0 * kappa0 * t + 1.0) * dh
        rhs_t = (c0 * t + 2.0 * c0 * kappa0) * h
        assert abs(lhs - rhs_t) <= 1e-12 * max(1.0, abs(lhs), abs(rhs_t))


@pytest.mark.parametrize(
    "metric_id,params",
    [("class2", {"a": 1.0}), ("class2", {"a": -1.0}), ("class3", {"a": 0.0}),
     ("class4", {"p": 2.0, "q": -1.0})],
)
def test_singular_parameters_name_det_g(metric_id, params):
    # the DegenerateMetricError cases of test_parameter_validation
    with pytest.raises(DegenerateMetricError, match=r"det\(g\)"):
        make_spec(metric_id, params)


@pytest.mark.parametrize("quadratic, dim", [
    ("euclid", 4.5), ("product", 3.5), ("euclid", math.nan), ("euclid", math.inf),
    ("euclid", np.float64(5.5)),
])
def test_a_non_integral_dimension_is_refused_naming_it(quadratic, dim):
    # 4.5 would build n = 4, 3.5 would pass as the product preset's 3
    with pytest.raises(CatalogError) as err:
        make_spec("class3", quadratic=quadratic, dim=dim)
    assert str(err.value) == f"dimension must be an integer, got {dim!r}"


def test_an_integral_float_or_numpy_dimension_is_its_integer():
    for dim in (5.0, np.int64(5), np.float64(5.0)):
        setup = make_spec("class3", quadratic="euclid", dim=dim).setup
        assert setup.n == 5 and type(setup.n) is int
    assert make_spec("class3", quadratic="product", dim=3.0).setup.n == 3
    with pytest.raises(CatalogError, match="fixes dimension 3, got --dim 4"):
        make_spec("class3", quadratic="product", dim=np.int64(4))


def test_make_spec_refuses_setup_conflicts():
    euclid5 = make_setup("euclid", dim=5)
    for metric_id in ("example31", "example33", "shen_r3_eq1"):
        with pytest.raises(CatalogError, match="fixes its own setup"):
            make_spec(metric_id, setup=euclid5)
    with pytest.raises(CatalogError, match="quadratic, f"):
        make_spec("class1", quadratic="mixed4", f=lambda t: t, setup=euclid5)
    with pytest.raises(CatalogError, match="dim"):
        make_spec("class1", dim=5, setup=euclid5)
    assert make_spec("class1", setup=euclid5).setup is euclid5
    # a matrix for an entry with a fixed preset
    with pytest.raises(CatalogError, match="fixes the quadratic form 'product'"):
        make_spec("example31", quadratic=np.array([[0.0, 0.5], [0.5, 0.0]]))
