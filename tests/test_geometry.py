import dataclasses
import math
import warnings

import numpy as np
import pytest

from finslerlab import alphabeta, catalog, cli, exprlang, geometry, jets, verify
from finslerlab.geometry import (
    DegenerateMetricError,
    DegenerateMetricWarning,
    FinslerField,
    ad_spray_field,
    metric_tensor,
    point_tensors,
)
from finslerlab.verify import SamplePlan, draw_samples

from conftest import DEFAULT_IDS, admissible_points, default_spec
from oracles import richardson_partial

X0 = np.zeros(3)
Y111 = np.ones(3)


def euclidean_field(n=3):
    def ev(xs, ys):
        acc = None
        for yj in ys:
            acc = yj * yj if acc is None else acc + yj * yj
        return jets.sqrt(acc)

    return FinslerField(n, ev, lambda x, y: np.linalg.norm(y) > 0, "euclidean")


def flat_spray(n=3):
    def jfn(x, y, order):
        space = jets.jet_space(0, n, 0, order)
        return [space.constant(0.0) for _ in range(n)]

    return geometry.SprayField(n, jfn, label="flat")


def alpha_field(setup):
    def ev(xs, ys):
        fj = setup.f(xs[0])
        return fj * jets.sqrt(ys[0] * ys[0] + setup.phi_jet(ys))

    def guard(x, y):
        yhat = np.asarray(y)[1:]
        return setup.phi_value(yhat) > 0.05 * float(yhat @ yhat)

    return FinslerField(setup.n, ev, guard, "alpha")


def test_metric_of_euclidean_norm_is_identity():
    g = metric_tensor(euclidean_field(), X0, np.array([0.3, -1.2, 0.7]))
    assert np.allclose(g, np.eye(3), atol=1e-12)


def test_metric_of_block_alpha_with_unit_f():
    setup = catalog.make_setup("euclid", f=lambda t: t.space.constant(1.0))
    g = metric_tensor(alpha_field(setup), X0, np.array([0.5, 1.0, -0.4]))
    assert np.allclose(g, np.eye(3), atol=1e-12)


def test_metric_matches_fd_hessian_of_energy():
    spec = default_spec("class1")
    spec = catalog.make_spec("class1", {"a": 1.0}, setup=spec.setup)
    field = catalog.build_finsler(spec)
    y = Y111.copy()
    g = metric_tensor(field, X0, y)

    def energy(z):
        return 0.5 * field.value(X0, z) ** 2

    for i in range(3):
        for j in range(3):
            ref = richardson_partial(energy, y, (i, j), 1e-3)
            assert abs(g[i, j] - ref) < 1e-6 * max(1.0, abs(ref))


def test_spray_vanishes_for_constant_f():
    spec = catalog.make_spec("class1", f=lambda t: t.space.constant(3.0))
    field = catalog.build_finsler(spec)
    spray = ad_spray_field(field)
    for x, y in admissible_points(field, 5, seed=2):
        assert np.abs(spray.values(x, y)).max() < 1e-13


def test_spray_hand_values_first_worked_example():
    field = catalog.build_finsler(default_spec("example31"))
    g = ad_spray_field(field).values(X0, Y111)
    assert g == pytest.approx([0.0, 1.5, 1.5], abs=1e-12)


def test_spray_hand_values_class1_a2():
    field = catalog.build_finsler(default_spec("class1"))  # a = 2
    g = ad_spray_field(field).values(X0, Y111)
    assert g == pytest.approx([3.0 / 8.0, 1.5, 1.5], abs=1e-12)


def test_berwald_vanishes_for_quadratic_spray():
    setup = catalog.make_setup("product")
    spray = setup.riemann_spray_field()
    b = point_tensors(
        alpha_field(setup), spray, np.array([0.2, 0, 0]), np.array([0.4, 0.8, 0.6])
    ).Gijkh
    assert np.abs(b).max() < 1e-13


@pytest.mark.parametrize(
    "metric_id,params,expected",
    [
        ("example31", None, -3.0 / 16.0),
        ("class1", {"a": 1.0}, -3.0 / 8.0),
    ],
)
def test_berwald_published_components(metric_id, params, expected):
    spec = catalog.make_spec(metric_id, params)
    spray = catalog.closed_form_spray(spec).as_spray_field()
    b = point_tensors(catalog.build_finsler(spec), spray, X0, Y111).Gijkh
    assert b[1, 1, 1, 1] == pytest.approx(expected, abs=1e-12)


def test_landsberg_zero_for_berwald_spray():
    setup = catalog.make_setup("product")
    field = alpha_field(setup)
    lt = point_tensors(
        field, setup.riemann_spray_field(), np.array([0.1, 0, 0]),
        np.array([0.2, 0.9, 0.5])
    ).L
    assert np.abs(lt).max() < 1e-12


@pytest.mark.parametrize("metric_id", ["example31", "class1"])
def test_landsberg_vanishes_on_catalog_entries(metric_id):
    spec = default_spec(metric_id)
    field = catalog.build_finsler(spec)
    spray = catalog.closed_form_spray(spec).as_spray_field()
    for x, y in admissible_points(field, 10, seed=5):
        lt = point_tensors(field, spray, x, y).L
        assert np.abs(lt).max() <= 1e-9 * max(1.0, field.value(x, y))


def test_horizontal_differential_of_alpha_with_own_spray():
    setup = catalog.make_setup("product")
    field = alpha_field(setup)
    spray = setup.riemann_spray_field()
    for x, y in admissible_points(field, 10, seed=6):
        pt = point_tensors(field, spray, x[None], y[None])
        assert np.abs(verify._horizontal(pt.dxF, pt.Gij, pt.ell)).max() < 1e-9


def test_horizontal_differential_catalog_entry_with_own_spray():
    spec = catalog.make_spec("class1", {"a": 1.0})
    field = catalog.build_finsler(spec)
    spray = catalog.closed_form_spray(spec).as_spray_field()
    for x, y in admissible_points(field, 10, seed=7):
        pt = point_tensors(field, spray, x[None], y[None])
        assert np.abs(verify._horizontal(pt.dxF, pt.Gij, pt.ell)).max() < 1e-9


def test_horizontal_differential_against_flat_spray():
    spec = catalog.make_spec("class1", {"a": 1.0})
    field = catalog.build_finsler(spec)
    worst = 0.0
    for x, y in admissible_points(field, 10, seed=8):
        pt = point_tensors(field, flat_spray(), x[None], y[None])
        worst = max(
            worst,
            np.abs(verify._horizontal(pt.dxF, pt.Gij, pt.ell)).max(),
        )
    assert worst > 1e-3


def test_euler_residual_zero_for_homogeneous_fields():
    spec = catalog.make_spec("class4", {"p": 1.0, "q": 0.0})
    field = catalog.build_finsler(spec)
    y = np.array([1.0, 2.0, 3.0])
    pt = point_tensors(field, flat_spray(), X0[None], y[None])
    assert verify._euler_defects(pt.y, pt.ell, pt.F)[0] < 1e-10
    for x, yy in admissible_points(field, 10, seed=9):
        pt = point_tensors(field, flat_spray(), x[None], yy[None])
        assert verify._euler_defects(pt.y, pt.ell, pt.F)[0] < 1e-10


def test_euler_residual_detects_wrong_degree():
    spec = default_spec("class1")
    base = catalog.build_finsler(spec)
    squared = FinslerField(
        3, lambda xs, ys: base.evaluate(xs, ys) ** 2, base.domain_guard, "F^2"
    )
    for x, y in admissible_points(base, 5, seed=10):
        val = squared.value(x, y)
        pt = point_tensors(squared, flat_spray(), x[None], y[None])
        euler = verify._euler_defects(pt.y, pt.ell, pt.F)[0]
        assert euler == pytest.approx(val, rel=1e-10)


def test_degenerate_metric_raises_in_spray():
    setup = catalog.make_setup("product")

    def ev(xs, ys):
        fj = setup.f(xs[0])
        return fj * (ys[0] * 2.0 + jets.sqrt(setup.phi_jet(ys)))

    degenerate = FinslerField(
        3, ev, lambda x, y: y[1] * y[2] > 0.05, "rank-deficient"
    )
    with pytest.raises(DegenerateMetricError) as err:
        ad_spray_field(degenerate).values(X0, np.array([0.3, 1.0, 0.8]))
    assert "det(g)" in str(err.value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        metric_tensor(degenerate, X0, np.array([0.3, 1.0, 0.8]))
    assert any(issubclass(w.category, DegenerateMetricWarning) for w in caught)


def test_non_finite_metric_not_called_a_small_det():
    sp = jets.jet_space(0, 1, 0, 1)
    one, zero = sp.constant(1.0), sp.constant(0.0)
    with pytest.raises(DegenerateMetricError) as err:
        geometry._solve_jet_system([[sp.constant(np.inf), zero], [zero, one]],
                                   [one, one], context=" for m")
    assert str(err.value) == "degenerate metric for m: g has non-finite entries (overflow)"
    huge = FinslerField(3, lambda xs, ys: jets.sqrt(ys[0] * ys[0] + ys[1] * ys[1]
                                                    + ys[2] * ys[2]) * 1e300,
                        lambda x, y: True, "huge")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        metric_tensor(huge, X0, np.array([0.3, 1.0, 0.8]))
    degenerate = [str(w.message) for w in caught
                  if issubclass(w.category, DegenerateMetricWarning)]
    assert degenerate == ["degenerate metric tensor: g has non-finite entries (overflow)"]


def test_underflowing_metric_named_as_underflow():
    tiny = FinslerField(3, lambda xs, ys: jets.sqrt(ys[0] * ys[0] + ys[1] * ys[1]
                                                    + ys[2] * ys[2]) * 1e-170,
                        lambda x, y: True, "tiny")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        metric_tensor(tiny, X0, np.array([0.3, 1.0, 0.8]))
    # F^2 ~ 1e-340 is below the smallest subnormal, so g is exactly 0
    assert [str(w.message) for w in caught] == [
        "degenerate metric tensor: g underflows (largest entry 0.000e+00)"]


def test_rcond_is_scale_free():
    m = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1e-3]])
    sv = np.linalg.svd(m, compute_uv=False)
    want = sv[-1] / sv[0]
    for scale in (1.0, 1e150, 1e-150):
        assert geometry.rcond(scale * m) == pytest.approx(want, rel=1e-14)
    assert geometry.rcond(np.eye(2)) == 1.0
    assert geometry.rcond(np.diag([1.0, 1e-12])) == 1e-12


def test_rcond_of_zero_and_non_finite_matrices():
    assert geometry.rcond(np.zeros((3, 3))) == 0.0
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(2)
        m[0, 1] = bad
        assert np.isnan(geometry.rcond(m))
        stack = geometry.rcond(np.stack([np.eye(2), m, np.zeros((2, 2))]))
        assert stack[0] == 1.0 and np.isnan(stack[1]) and stack[2] == 0.0


def test_rcond_stack_matches_single_calls_bitwise():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 4):
        stack = rng.normal(size=(40, k, k)) * 10.0 ** rng.uniform(-8, 8, (40, 1, 1))
        stack[3] = 0.0
        got = geometry.rcond(stack)
        assert got.shape == (40,)
        assert all(got[s] == geometry.rcond(stack[s]) for s in range(40))
        assert isinstance(geometry.rcond(stack[0]), float)


def test_c_is_judged_by_the_rcond_threshold():
    assert geometry.RCOND_MIN == 1e-10
    near = np.diag([1.0, 0.5e-10])
    with pytest.raises(ValueError, match="sigma_min/sigma_max = 5.000e-11"):
        alphabeta.RiemannSetup(3, catalog.default_f, near)
    alphabeta.RiemannSetup(3, catalog.default_f, np.diag([1.0, 2e-10]))


# ---------------------------------------------------------------------------
# pointwise tensor invariants over the whole catalog
# ---------------------------------------------------------------------------


def _spray_for(spec, field):
    if spec.entry.has_closed_form:
        return catalog.closed_form_spray(spec).as_spray_field()
    return ad_spray_field(field)


def test_point_tensor_invariants(catalog_spec):
    field = catalog.build_finsler(catalog_spec)
    spray = _spray_for(catalog_spec, field)
    n = field.n
    for x, y in admissible_points(field, 20, seed=20):
        pt = point_tensors(field, spray, x, y)
        assert np.allclose(pt.g, pt.g.T, atol=1e-12)
        assert np.abs(pt.g @ np.linalg.inv(pt.g) - np.eye(n)).max() < 1e-9
        assert np.abs(pt.g @ y / pt.F - pt.ell).max() < 1e-9 * max(1.0, pt.F)
        # ell_i = dot_i F and g_ij y^j = F ell_i
        assert np.abs(pt.g @ y - pt.F * pt.ell).max() < 1e-9 * max(1.0, pt.F)
        scale = max(1.0, float(np.abs(pt.Gijk).max()))
        assert np.abs(np.einsum("ijkh,h->ijk", pt.Gijkh, y)).max() < 1e-9 * scale
        lscale = max(1.0, float(np.abs(pt.L).max()))
        assert np.abs(np.einsum("jkh,h->jk", pt.L, y)).max() < 1e-9 * lscale
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.abs(pt.L - np.transpose(pt.L, perm)).max() < 1e-9 * lscale


def test_spray_two_homogeneity(catalog_spec):
    field = catalog.build_finsler(catalog_spec)
    spray = _spray_for(catalog_spec, field)
    for x, y in admissible_points(field, 8, seed=21):
        g1 = spray.values(x, y)
        for lam in (0.5, 2.0):
            gl = spray.values(x, lam * y)
            assert np.abs(gl - lam**2 * g1).max() <= 1e-10 * max(
                1.0, lam**2 * np.abs(g1).max()
            )


def test_field_homogeneity_and_positivity(catalog_spec):
    field = catalog.build_finsler(catalog_spec)
    for x, y in admissible_points(field, 20, seed=22):
        f1 = field.value(x, y)
        assert f1 > 0.0
        for lam in (0.5, 2.0):
            assert abs(field.value(x, lam * y) - lam * f1) <= 1e-10 * lam * f1


def test_landsberg_scale_invariance(catalog_spec):
    field = catalog.build_finsler(catalog_spec)
    spray = _spray_for(catalog_spec, field)
    for x, y in admissible_points(field, 5, seed=23):
        l1 = point_tensors(field, spray, x, y).L
        l2 = point_tensors(field, spray, x, 2.0 * y).L
        assert np.abs(l1 - l2).max() <= 1e-9 * max(1.0, np.abs(l1).max())


@pytest.mark.parametrize(
    "metric_id", [m for m in DEFAULT_IDS if m != "shen_r3_eq1"]
)
def test_berwald_ad_vs_closed_form(metric_id):
    spec = default_spec(metric_id)
    field = catalog.build_finsler(spec)
    closed = catalog.closed_form_spray(spec).as_spray_field()
    oracle = ad_spray_field(field)
    for x, y in admissible_points(field, 3, seed=24):
        b_closed = point_tensors(field, closed, x, y).Gijkh
        b_oracle = point_tensors(field, oracle, x, y).Gijkh
        scale = max(1.0, np.abs(b_closed).max())
        assert np.abs(b_closed - b_oracle).max() < 1e-7 * scale


# ---------------------------------------------------------------------------
# the sample axis: one batched pass equals the per-sample passes bit for bit
# ---------------------------------------------------------------------------

BATCH_CASES = [
    (metric_id, quadratic)
    for metric_id in ("class1", "class2", "class3", "class4", "shen_eq8",
                      "asanov_eq9")
    for quadratic in ("product", "euclid", "mixed4")
] + [(metric_id, None) for metric_id in ("example31", "example32",
                                         "example33", "shen_r3_eq1")]


def _plan_arrays(field, n_points=50, seed=41):
    pts = admissible_points(field, n_points, seed=seed)
    return np.array([x for x, _ in pts]), np.array([y for _, y in pts])


def _outcome(fn, *args):
    """fn(*args), or the domain error it raises."""
    try:
        return fn(*args)
    except (jets.SingularPointError, DegenerateMetricError) as exc:
        return exc


def _assert_row_matches(batched, single, s):
    for b, one in zip(batched, single):
        assert one.batch is None and b.batch == len(b.coeffs)
        assert np.array_equal(b.coeffs[s], one.coeffs)


@pytest.mark.parametrize("metric_id, quadratic", BATCH_CASES)
def test_batched_pass_matches_per_sample_bitwise(metric_id, quadratic):
    spec = catalog.make_spec(metric_id, quadratic=quadratic)
    field = catalog.build_finsler(spec)
    x, y = _plan_arrays(field)
    calls = {
        "field(1,2)": (lambda x, y: [field.jet(x, y, 1, 2)]),
        "field(0,1)": (lambda x, y: [field.jet(x, y, 0, 1)]),
    }
    sprays = {"variational": (ad_spray_field(field), (0, 3))}
    if spec.entry.has_closed_form:
        phi = catalog.phi_function(spec)
        sprays["closed"] = (catalog.closed_form_spray(spec).as_spray_field(), (3,))
        sprays["eq5"] = (alphabeta.ab_spray_field(phi, spec.setup), (0, 3))
        sprays["riemann"] = (spec.setup.riemann_spray_field(), (0, 3))
    if metric_id == "shen_eq8":
        c1, c3 = spec.params["c1"], spec.params["c3"]
        shen = alphabeta.shen_class_spray_field(c1, c3, spec.setup)
        sprays["shen_class"] = (shen, (0, 3))
    for name, (spray, orders) in sprays.items():
        for order in orders:
            calls[name, order] = (
                lambda x, y, spray=spray, order=order: spray.jets(x, y, order)
            )
    batched = {key: _outcome(fn, x, y) for key, fn in calls.items()}
    # a batched error must be the first error in sample order
    first_error = {}
    for s in range(len(x)):
        for key, fn in calls.items():
            failed = isinstance(batched[key], Exception)
            # the order-3 variational spray is slow one point at a time
            if key == ("variational", 3) and s % 5 and not failed:
                continue
            single = _outcome(fn, x[s], y[s])
            if isinstance(single, Exception):
                first_error.setdefault(key, single)
            elif not failed:
                _assert_row_matches(batched[key], single, s)
    for key, got in batched.items():
        want = first_error.get(key)
        assert isinstance(got, Exception) == (want is not None), key
        if want is not None:
            assert (type(got), str(got)) == (type(want), str(want))

    spray = sprays.get("closed", sprays["variational"])[0]
    record = point_tensors(field, spray, x, y)
    g_rcond = record.g_rcond
    for s in range(len(x)):
        one = point_tensors(field, spray, x[s], y[s])
        for f in dataclasses.fields(one):
            assert np.array_equal(getattr(record, f.name)[s], getattr(one, f.name))
            assert np.array_equal(getattr(record[s], f.name), getattr(one, f.name))
        assert g_rcond[s] == record[s].g_rcond == one.g_rcond


def test_class4_batch_across_the_arctan_chart_switch():
    spec = catalog.make_spec("class4", {"p": 1.0, "q": 0.0})  # d = -3 < 0
    field = catalog.build_finsler(spec)
    x, y = _plan_arrays(field, 50, seed=43)
    v = np.sqrt([spec.setup.phi_value(yi[1:]) for yi in y])
    # _class4_exponent's chart test: |y1 sqrt(-d)| <= |p y1 + 2 v|
    chart = np.abs(y[:, 0] * np.sqrt(3.0)) <= np.abs(y[:, 0] + v * 2.0)
    assert chart.any() and not chart.all()
    batched = field.jet(x, y, 1, 2)
    for s in range(len(x)):
        assert np.array_equal(batched.coeffs[s], field.jet(x[s], y[s], 1, 2).coeffs)
    # the same branch inside phi(s), on the univariate jets of eq. (5)
    phi = catalog.phi_function(spec)
    space = jets.jet_space(0, 1, 0, 3)
    s0 = y[:, 0] / np.sqrt(y[:, 0] ** 2 + v**2)
    batched = phi.fn(space.seed_y(0, s0))
    for s in range(len(x)):
        assert np.array_equal(batched.coeffs[s], phi.fn(space.seed_y(0, s0[s])).coeffs)


# ---------------------------------------------------------------------------
# declared base dependencies: x_deps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x_deps", [(5,), (3,), (-1,), (0.0,), ("0",), (True,),
                                    (0, 0), (2, 0, 2)])
def test_x_deps_checked_at_the_boundary(x_deps):
    with pytest.raises(ValueError, match="'euclidean'"):
        FinslerField(3, euclidean_field().evaluate, label="euclidean", x_deps=x_deps)


def test_x_deps_stored_sorted():
    ev = euclidean_field().evaluate
    assert FinslerField(3, ev).x_deps == (0, 1, 2)
    assert FinslerField(3, ev, x_deps=[2, np.int64(0)]).x_deps == (0, 2)
    assert FinslerField(3, ev, x_deps=()).x_deps == ()
    assert catalog.build_finsler(default_spec("class1")).x_deps == (0,)
    assert catalog.build_finsler(default_spec("shen_r3_eq1")).x_deps == (0,)


def test_minkowski_field_with_no_x_deps():
    full = euclidean_field()
    minkowski = FinslerField(3, full.evaluate, full.domain_guard, "euclidean",
                             x_deps=())
    x, y = _plan_arrays(full, 10, seed=44)
    spray = ad_spray_field(minkowski)
    for order in (0, 3):
        for gi in spray.jets(x, y, order) + spray.jets(x[0], y[0], order):
            assert np.all(gi.coeffs == 0.0)
    assert np.all(spray.values(x, y) == 0.0)
    for xs, ys in ((x, y), (x[0], y[0])):
        got = point_tensors(minkowski, spray, xs, ys)
        want = point_tensors(full, ad_spray_field(full), xs, ys)
        for f in dataclasses.fields(got):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


F_EXPRESSIONS = ("exp(x1)", "2+sin(x1)", "exp(-x1)")
DEPS_CASES = [
    (metric_id, quadratic, f)
    for metric_id, quadratic in BATCH_CASES if metric_id != "shen_r3_eq1"
    for f in F_EXPRESSIONS
] + [("shen_r3_eq1", None, None)]


def _catalog_field(metric_id, quadratic, f):
    f_fn = None if f is None else exprlang.compile_expr(f)
    return catalog.build_finsler(catalog.make_spec(metric_id, quadratic=quadratic, f=f_fn))


@pytest.mark.parametrize("metric_id, quadratic, f", DEPS_CASES)
def test_reduced_seeding_matches_full_seeding_bitwise(metric_id, quadratic, f):
    field = _catalog_field(metric_id, quadratic, f)
    full = FinslerField(field.n, field.evaluate, field.domain_guard, field.label)
    assert field.x_deps == (0,) and full.x_deps == tuple(range(field.n))
    x, y = _plan_arrays(field, 10, seed=45)
    flat = flat_spray(field.n)
    got, want = point_tensors(field, flat, x, y), point_tensors(full, flat, x, y)
    for fld in dataclasses.fields(got):
        assert np.array_equal(getattr(got, fld.name), getattr(want, fld.name)), fld.name
    for order in (0, 3):
        got = _outcome(ad_spray_field(field).jets, x, y, order)
        want = _outcome(ad_spray_field(full).jets, x, y, order)
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
            continue
        for g, w in zip(got, want):
            assert g.space is w.space and np.array_equal(g.coeffs, w.coeffs)


@pytest.mark.parametrize("metric_id, quadratic, f", DEPS_CASES)
def test_declared_x_deps_are_true(metric_id, quadratic, f):
    field = _catalog_field(metric_id, quadratic, f)
    x, y = _plan_arrays(field, 10, seed=45)
    fj = field.jet(x, y, 1, 2)
    assert fj.space.n_x == field.n  # .jet keeps the full layout
    for i in range(field.n):
        if i not in field.x_deps:
            assert np.all(fj.dx(i).coeffs == 0.0), i


def test_oracle_cli_run_seeds_only_declared_coordinates(monkeypatch, tmp_path):
    seeded = []

    def recording(n_x, n_y, x_cap, y_cap):
        if x_cap > 0:
            seeded.append((n_x, n_y, x_cap, y_cap))
        return jets.jet_space(n_x, n_y, x_cap, y_cap)

    monkeypatch.setattr(geometry, "jet_space", recording)
    code = cli.main(["classify", "--metric", "class1", "--quadratic", "mixed4",
                     "--oracle-ad", "--points", "3", "--seed", "0",
                     "--out", str(tmp_path / "report.json")])
    assert code == 0
    assert (1, 4, 1, 5) in seeded and (1, 4, 1, 2) in seeded
    assert all(space[0] == 1 for space in seeded), seeded


# ---------------------------------------------------------------------------
# one point is a batch of one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("metric_id", ["class1", "class3", "shen_eq8"])
@pytest.mark.parametrize("quadratic", ["product", "mixed4"])
def test_one_point_call_is_row_of_batched_call(metric_id, quadratic):
    spec = catalog.make_spec(metric_id, quadratic=quadratic)
    field = catalog.build_finsler(spec)
    closed = catalog.closed_form_spray(spec).as_spray_field()
    n = field.n
    calls = {
        "metric_tensor": (lambda x, y: metric_tensor(field, x, y), (n, n)),
        "closed values": (closed.values, (n,)),
        "variational values": (ad_spray_field(field).values, (n,)),
        "FinslerField.value": (field.value, ()),
    }
    x, y = _plan_arrays(field, 7, seed=46)
    for name, (fn, shape) in calls.items():
        batched = fn(x, y)
        assert batched.shape == (len(x), *shape), name
        for s in range(len(x)):
            one = fn(x[s], y[s])
            assert np.shape(one) == shape, name
            assert np.array_equal(one, batched[s]), (name, s)


def test_jet_solve_pivots_each_sample_as_a_batch_of_one():
    from scipy.linalg import lu_factor

    space = jets.jet_space(0, 1, 0, 1)  # constant + linear term
    const = np.array([
        [[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]],    # no exchange
        [[1.0, 2.0, 10.0], [10.0, 1.0, 2.0], [2.0, 10.0, 1.0]],  # two
        [[1.0, 10.0, 2.0], [10.0, 1.0, 2.0], [2.0, 2.0, 10.0]],  # one
    ])
    pivots = [lu_factor(m)[1].tolist() for m in const]
    assert pivots == [[0, 1, 2], [1, 2, 2], [1, 1, 2]]
    rng = np.random.default_rng(47)
    linear = rng.normal(size=const.shape)
    rhs = rng.normal(size=(3, 3, 2))  # sample, row, (constant, linear)
    a = [[jets.TaylorValue(space, np.stack([const[:, r, c], linear[:, r, c]], axis=1))
          for c in range(3)] for r in range(3)]
    b = [jets.TaylorValue(space, rhs[:, r]) for r in range(3)]
    sol = geometry._solve_jet_system(a, b)
    for s in range(3):
        one = geometry._solve_jet_system(
            [[jets.TaylorValue(space, v.coeffs[s:s + 1]) for v in row] for row in a],
            [jets.TaylorValue(space, v.coeffs[s:s + 1]) for v in b],
        )
        for got, want in zip(sol, one):
            assert want.batch == 1 and np.array_equal(got.coeffs[s], want.coeffs[0])
        ref = np.linalg.solve(const[s], rhs[s, :, 0])
        got = np.array([v.value[s] for v in sol])
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def test_jet_solve_runs_an_unbatched_system_as_a_batch_of_one():
    c = jets.jet_space(0, 1, 0, 1).constant
    sol = geometry._solve_jet_system([[c(2), c(1)], [c(1), c(3)]], [c(1), c(1)])
    assert [v.batch for v in sol] == [None, None]
    assert [v.coeffs.tolist() for v in sol] == [[0.4, 0.0], [0.2, 0.0]]


def _per_entry_jet_solve(a, b):
    # the per-entry elimination the stacked solve replaces, for one sample
    n = len(b)
    scale = 2.0 ** -math.frexp(max(abs(v.value) for row in a for v in row))[1]
    a = [[v * scale for v in row] for row in a]
    b = [v * scale for v in b]
    for col in range(n):
        piv = col + int(np.argmax([abs(a[r][col].value) for r in range(col, n)]))
        a[col], a[piv], b[col], b[piv] = a[piv], a[col], b[piv], b[col]
        inv = a[col][col].reciprocal()
        for r in range(n):
            if r != col:
                factor = a[r][col] * inv
                a[r] = a[r][:col + 1] + [a[r][c] - factor * a[col][c]
                                         for c in range(col + 1, n)]
                b[r] = b[r] - factor * b[col]
    return [b[i] * a[i][i].reciprocal() for i in range(n)]


def test_stacked_jet_solve_equals_the_per_entry_elimination_bitwise():
    space = jets.jet_space(0, 2, 0, 2)
    coeffs = np.random.default_rng(67).normal(size=(4, 5, 6, space.size))
    a = [[jets.TaylorValue(space, coeffs[r, c]) for c in range(4)] for r in range(4)]
    b = [jets.TaylorValue(space, coeffs[r, 4]) for r in range(4)]
    got = geometry._solve_jet_system(a, b)
    for s in range(6):
        want = _per_entry_jet_solve(
            [[jets.TaylorValue(space, v.coeffs[s]) for v in row] for row in a],
            [jets.TaylorValue(space, v.coeffs[s]) for v in b],
        )
        for g, w in zip(got, want):
            assert g.coeffs[s].tobytes() == w.coeffs.tobytes()


# ---------------------------------------------------------------------------
# faces: x in the base face, y in the fiber face
# ---------------------------------------------------------------------------


def _embedded_arguments(xs, ys):
    full = jets.joint_space(*(v.space for v in (*xs, *ys)))
    return [v.embed(full) for v in xs], [v.embed(full) for v in ys]


@pytest.mark.parametrize("metric_id, quadratic", BATCH_CASES)
@pytest.mark.parametrize("caps", [(1, 2), (1, 5)])
def test_face_seeds_match_embedded_seeds_bitwise(metric_id, quadratic, caps):
    field = catalog.build_finsler(catalog.make_spec(metric_id, quadratic=quadratic))
    x, y = _plan_arrays(field, 8, seed=48)
    xs, ys = geometry.seeded_arguments(field.n, x, y, *caps, field.x_deps)
    full = jets.jet_space(len(field.x_deps), field.n, *caps)
    assert {v.space for v in xs} == {full.base_face}
    assert {v.space for v in ys} == {full.fiber_face}
    got = _outcome(field.evaluate, xs, ys)
    want = _outcome(field.evaluate, *_embedded_arguments(xs, ys))
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert got.space is full and want.space is full
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


def _mixed_pairs(field, xs, ys, monkeypatch):
    """Pairs multiplied in spaces with both variable groups while
    ``field`` is evaluated on (xs, ys)."""
    counted = []
    product = jets._product

    def counting(space, a, b, table=None):
        if space.n_x and space.n_y:
            counted.append(len((space.mul_table if table is None else table)[2]))
        return product(space, a, b, table)

    monkeypatch.setattr(jets, "_product", counting)
    field.evaluate(xs, ys)
    monkeypatch.setattr(jets, "_product", product)
    return sum(counted)


def test_field_evaluation_work_budget(monkeypatch):
    field = catalog.build_finsler(catalog.make_spec("class3", quadratic="mixed4"))
    x, y = _plan_arrays(field, 1, seed=49)  # one sample: no product runs by levels
    xs, ys = geometry.seeded_arguments(field.n, x, y, 1, 5, field.x_deps)
    full = jets.jet_space(1, 4, 1, 5)
    # F = f(x^1) psi(y): the one product that combines the two groups is
    # an outer product of the base and fiber faces, with no pair table.
    budget = len(full.mul_table[0])
    assert _mixed_pairs(field, xs, ys, monkeypatch) == 0
    # y seeded into the mixed space multiplies all of psi there.
    ys_mixed = [v.embed(full) for v in ys]
    assert _mixed_pairs(field, xs, ys_mixed, monkeypatch) > 5 * budget


def _value_only_fields():
    """Every catalog entry on every preset it takes, plus the block entries
    with an exprlang f whose power varies per sample (x1^x1)."""
    x1_pow_x1 = exprlang.parse_expr("x1^x1")
    for metric_id, entry in catalog.CATALOG.items():
        fixed = entry.profile is None or entry.fixed
        for quadratic in [None] if fixed else sorted(catalog.QUADRATIC_PRESETS):
            yield catalog.make_spec(metric_id, quadratic=quadratic)
            if not fixed:
                yield catalog.make_spec(
                    metric_id, quadratic=quadratic,
                    f=lambda t: exprlang.evaluate(x1_pow_x1, t),
                )


def test_value_at_caps_0_0_equals_the_constant_term_of_a_fiber_jet():
    # x^1 > 0 keeps x1^x1 real
    plan = SamplePlan(n_points=12, seed=4, x_range=(0.05, 0.95))
    for spec in _value_only_fields():
        field = catalog.build_finsler(spec)
        pts = draw_samples(field.domain_guard, field.n, plan)
        x = np.array([p for p, _ in pts])
        y = np.array([q for _, q in pts])
        for scale in (1.0, 0.5, 2.0):
            got = field.value(x, scale * y)
            want = field.jet(x, scale * y, 0, 1).value
            assert got.tobytes() == want.tobytes(), (spec.label, scale)
        one = field.value(x[0], y[0])
        assert type(one) is float and one == field.jet(x[0], y[0], 0, 1).value


def test_seeded_arguments_refuse_a_wrong_coordinate_count():
    with pytest.raises(jets.JetUsageError, match="^expected 3 coordinates in each group$"):
        geometry.seeded_arguments(3, np.zeros(4), np.ones(4), 0, 1)


def test_seeded_arguments_enter_y_as_constants_at_y_cap_0():
    x, y = np.array([[0.1, 0.2, 0.3]]), np.array([[0.6, 0.0, -0.8]])
    xs, ys = geometry.seeded_arguments(3, x, y, 0, 0)
    for i, v in enumerate(ys):
        assert v.space == jets.jet_space(0, 3, 0, 0)
        assert v.coeffs.tolist() == [[y[0, i]]]
    assert [v.value.tolist() for v in xs] == [[0.1], [0.2], [0.3]]


# ---------------------------------------------------------------------------
# the batched contractions keep the bits of one BLAS call per sample
# ---------------------------------------------------------------------------


def _spread(rng, shape):
    """Normal entries scaled over twelve decades."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)


@pytest.mark.parametrize("n", [3, 4])
def test_contractions_equal_one_blas_call_per_sample_bitwise(n):
    rng = np.random.default_rng(n)
    N = 256
    dxF, ell, y = (_spread(rng, (N, n)) for _ in range(3))
    F = np.abs(_spread(rng, N))
    Gij, Gijkh = _spread(rng, (N, n, n)), _spread(rng, (N, n, n, n, n))
    # the per-sample loops that the stacked matmul calls replace
    horizontal = np.array([dxF[s] - Gij[s].T @ ell[s] for s in range(N)])
    euler = np.array([abs(float(y[s] @ ell[s]) - f) for s, f in enumerate(F.tolist())])
    gt = np.ascontiguousarray(np.moveaxis(Gijkh, 1, -1))
    landsberg = -0.5 * F[:, None, None, None] * np.array(
        [np.inner(gt[s], ell[s]) for s in range(N)]
    )
    assert verify._horizontal(dxF, Gij, ell).tobytes() == horizontal.tobytes()
    assert verify._euler_defects(y, ell, F).tobytes() == euler.tobytes()
    assert geometry._landsberg(F, ell, Gijkh).tobytes() == landsberg.tobytes()


def _random_jet_system(rng, n=3, batch=5):
    space = jets.jet_space(0, 2, 0, 2)
    const = rng.normal(size=(batch, n, n)) + 4.0 * np.eye(n)
    a = [[jets.TaylorValue(space, np.column_stack(
            [const[:, r, c], rng.normal(size=(batch, space.size - 1))]))
          for c in range(n)] for r in range(n)]
    b = [jets.TaylorValue(space, rng.normal(size=(batch, space.size)))
         for _ in range(n)]
    return a, b


def _scaled_system(a, b, factor):
    return [[v * factor for v in row] for row in a], [v * factor for v in b]


def test_jet_solve_does_not_depend_on_the_scale_of_the_system():
    a, b = _random_jet_system(np.random.default_rng(59))
    want = geometry._solve_jet_system(a, b)
    # a power of two scales every elimination step exactly
    got = geometry._solve_jet_system(*_scaled_system(a, b, 2.0**-60))
    for w, g in zip(want, got):
        assert g.coeffs.tobytes() == w.coeffs.tobytes()
    # far below the jets' near-zero pivot test, which the solve must not reach
    got = geometry._solve_jet_system(*_scaled_system(a, b, 1e-20))
    for w, g in zip(want, got):
        assert np.abs(g.coeffs - w.coeffs).max() <= 1e-12 * np.abs(w.coeffs).max()


def test_jet_solve_refuses_a_subnormal_system():
    a, b = _random_jet_system(np.random.default_rng(61))
    with pytest.raises(DegenerateMetricError, match="underflows"):
        geometry._solve_jet_system(*_scaled_system(a, b, 1e-310))


# ---------------------------------------------------------------------------
# kept batches: a field and a spray serve their last batch again
# ---------------------------------------------------------------------------


def _batches(field):
    """Named (x, y) batches: A, B with A's x and other directions, one
    point of A, and that point as a batch of one."""
    x, y = _plan_arrays(field, 8, seed=53)
    _, y_other = _plan_arrays(field, 8, seed=54)
    return {"A": (x, y), "B": (x, y_other), "one": (x[3], y[3]),
            "batch of one": (x[3:4], y[3:4])}


def _bytes(values):
    return [(v.space, v.coeffs.tobytes()) for v in values]


def _assert_kept_like_fresh(calls, kept_call, fresh_call, computed):
    """Each (batch, key) of ``calls`` gives through ``kept_call`` the bits
    ``fresh_call`` gives, and is computed again exactly when its batch is
    not the last one computed at its key (``computed`` counts)."""
    last = {}
    for name, key in calls:
        before = len(computed)
        got = kept_call(name, key)
        assert _bytes(got) == _bytes(fresh_call(name, key)), (name, key)
        assert len(computed) - before == (last.get(key) != name), (name, key)
        last[key] = name


@pytest.mark.parametrize("metric_id", ["class3", "shen_r3_eq1"])
def test_a_field_serves_its_last_batch_per_caps_and_recomputes_any_other(metric_id):
    spec = default_spec(metric_id)
    evaluated = []
    base = catalog.build_finsler(spec)

    def evaluate(xs, ys):
        evaluated.append(1)
        return base.evaluate(xs, ys)

    field = FinslerField(base.n, evaluate, base.domain_guard, "kept", base.x_deps)
    batches = _batches(field)
    deps, every = field.x_deps, tuple(range(field.n))
    calls = [("A", (1, 2, deps)), ("B", (1, 2, deps)), ("A", (1, 2, deps)),
             ("A", (1, 2, deps)), ("A", (0, 2, deps)), ("A", (1, 2, deps)),
             ("A", (1, 2, every)), ("one", (1, 2, deps)), ("A", (1, 2, deps)),
             ("batch of one", (1, 2, deps)), ("one", (1, 2, deps)),
             ("A", (1, 5, deps)), ("B", (1, 5, deps)), ("B", (1, 2, deps))]

    def jets_of(jet_fn):  # the fiber arguments and F
        def call(name, key):
            ys, f = jet_fn(*batches[name], *key)
            return [*ys, f]

        return call

    _assert_kept_like_fresh(
        calls, jets_of(field._jet),
        jets_of(lambda *a: catalog.build_finsler(spec)._jet(*a)), evaluated)


@pytest.mark.parametrize("route", ["closed", "variational"])
def test_a_spray_serves_its_last_batch_per_order_and_recomputes_any_other(route):
    spec = default_spec("class1")

    def fresh():
        if route == "closed":
            return catalog.closed_form_spray(spec).as_spray_field()
        return ad_spray_field(catalog.build_finsler(spec))

    computed = []

    def jets_fn(x, y, order):
        computed.append(1)
        return fresh().jets(x, y, order)

    spray = geometry.SprayField(3, jets_fn, "kept")
    batches = _batches(catalog.build_finsler(spec))
    calls = [("A", 0), ("B", 0), ("A", 0), ("A", 0), ("A", 3), ("A", 0),
             ("one", 0), ("A", 0), ("batch of one", 0), ("B", 3), ("A", 3)]
    _assert_kept_like_fresh(
        calls, lambda name, order: spray.jets(*batches[name], order),
        lambda name, order: fresh().jets(*batches[name], order), computed)


def test_a_kept_spray_hands_out_a_new_list_each_call():
    spray = catalog.closed_form_spray(default_spec("class1")).as_spray_field()
    x, y = _batches(catalog.build_finsler(default_spec("class1")))["A"]
    first = spray.jets(x, y, 2)
    want = _bytes(first)
    first[0] = first[1]  # a caller may edit its list
    assert _bytes(spray.jets(x, y, 2)) == want


def test_the_variational_spray_seeds_its_arguments_once(monkeypatch):
    field = catalog.build_finsler(default_spec("class3"))
    x, y = _plan_arrays(field, 5, seed=55)
    seeded = []
    seed = geometry.seeded_arguments
    monkeypatch.setattr(geometry, "seeded_arguments",
                        lambda *a, **k: seeded.append(a[3:5]) or seed(*a, **k))
    ad_spray_field(field).jets(x, y, 3)
    assert seeded == [(1, 5)]
    point_tensors(field, ad_spray_field(field), x, y)  # (1, 2) and the kept (1, 5)
    assert seeded == [(1, 5), (1, 2)]
