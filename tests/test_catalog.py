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
    from finslerlab.jets import fiber_arguments

    _, yj = fiber_arguments(3, Y111, 0)
    assert cfs.p(X0, yj).value == pytest.approx(5.0 / 3.0, rel=1e-14)


def test_class4_kappa_reduces_to_class1():
    for a in (2.0, 0.5, -2.0):
        spec4 = make_spec("class4", {"p": 2 * a, "q": a * a - 1.0})
        spec1 = make_spec("class1", {"a": a})
        cfs4 = closed_form_spray(spec4)
        cfs1 = closed_form_spray(spec1)
        from finslerlab.jets import fiber_arguments

        _, yj = fiber_arguments(3, np.array([0.4, 1.1, 0.8]), 0)
        x = np.array([0.2, 0, 0])
        assert cfs4.p(x, yj).value == pytest.approx(
            cfs1.p(x, yj).value, rel=1e-14
        )
        assert cfs4.g1(x, yj).value == pytest.approx(
            cfs1.g1(x, yj).value, rel=1e-14
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
    for x, y in admissible_points(field, 20, seed=40):
        ref = geometry.geodesic_spray(field, x, y)
        got = closed.values(x, y)
        assert np.abs(got - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())


def test_landsberg_zero_berwald_nonzero(catalog_spec):
    field = build_finsler(catalog_spec)
    spray = _spray_for(catalog_spec, field)
    worst_l = 0.0
    best_b = 0.0
    for x, y in admissible_points(field, 20, seed=41):
        lt = geometry.landsberg_tensor(field, spray, x, y)
        bt = geometry.berwald_tensor(spray, x, y)
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
    from finslerlab.jets import fiber_arguments

    for x, y in admissible_points(field, 10, seed=42):
        _, yj2 = fiber_arguments(n, y, 2)
        pj = cfs.p(x, yj2)
        # 1-homogeneity: P(x, 2y) = 2 P(x, y)
        _, yj0 = fiber_arguments(n, 2.0 * y, 0)
        assert cfs.p(x, yj0).value == pytest.approx(2.0 * pj.value, rel=1e-12)
        # P_{1j} = 0: mixed derivatives with the first fiber slot vanish
        for j in range(n):
            idx = [0] * n
            idx[0] += 1
            idx[j] += 1
            assert abs(pj.extract_y(idx)) <= 1e-12 * max(1.0, abs(pj.value))


def test_expected_berwald_matches_tensor(catalog_spec):
    if catalog_spec.setup is None:
        pytest.skip("no published component")
    field = build_finsler(catalog_spec)
    spray = _spray_for(catalog_spec, field)
    for x, y in admissible_points(field, 10, seed=43):
        ref = expected_berwald_component(catalog_spec, x, y)
        got = geometry.berwald_tensor(spray, x, y)[1, 1, 1, 1]
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
