import dataclasses
import warnings

import numpy as np
import pytest

from finslerlab import alphabeta, catalog, geometry, jets
from finslerlab.geometry import (
    DegenerateMetricError,
    DegenerateMetricWarning,
    FinslerField,
    ad_spray_field,
    berwald_tensor,
    euler_residual,
    horizontal_differential,
    landsberg_tensor,
    metric_tensor,
    point_tensors,
)

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
    b = berwald_tensor(spray, np.array([0.2, 0, 0]), np.array([0.4, 0.8, 0.6]))
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
    b = berwald_tensor(spray, X0, Y111)
    assert b[1, 1, 1, 1] == pytest.approx(expected, abs=1e-12)


def test_landsberg_zero_for_berwald_spray():
    setup = catalog.make_setup("product")
    field = alpha_field(setup)
    lt = landsberg_tensor(
        field, setup.riemann_spray_field(), np.array([0.1, 0, 0]),
        np.array([0.2, 0.9, 0.5])
    )
    assert np.abs(lt).max() < 1e-12


@pytest.mark.parametrize("metric_id", ["example31", "class1"])
def test_landsberg_vanishes_on_catalog_entries(metric_id):
    spec = default_spec(metric_id)
    field = catalog.build_finsler(spec)
    spray = catalog.closed_form_spray(spec).as_spray_field()
    for x, y in admissible_points(field, 10, seed=5):
        lt = landsberg_tensor(field, spray, x, y)
        assert np.abs(lt).max() <= 1e-9 * max(1.0, field.value(x, y))


def test_horizontal_differential_of_alpha_with_own_spray():
    setup = catalog.make_setup("product")
    field = alpha_field(setup)
    spray = setup.riemann_spray_field()
    for x, y in admissible_points(field, 10, seed=6):
        assert np.abs(horizontal_differential(field, spray, x, y)).max() < 1e-9


def test_horizontal_differential_catalog_entry_with_own_spray():
    spec = catalog.make_spec("class1", {"a": 1.0})
    field = catalog.build_finsler(spec)
    spray = catalog.closed_form_spray(spec).as_spray_field()
    for x, y in admissible_points(field, 10, seed=7):
        assert np.abs(horizontal_differential(field, spray, x, y)).max() < 1e-9


def test_horizontal_differential_against_flat_spray():
    spec = catalog.make_spec("class1", {"a": 1.0})
    field = catalog.build_finsler(spec)
    worst = 0.0
    for x, y in admissible_points(field, 10, seed=8):
        worst = max(
            worst,
            np.abs(horizontal_differential(field, flat_spray(), x, y)).max(),
        )
    assert worst > 1e-3


def test_euler_residual_zero_for_homogeneous_fields():
    spec = catalog.make_spec("class4", {"p": 1.0, "q": 0.0})
    field = catalog.build_finsler(spec)
    y = np.array([1.0, 2.0, 3.0])
    assert euler_residual(field, X0, y) < 1e-10
    for x, yy in admissible_points(field, 10, seed=9):
        assert euler_residual(field, x, yy) < 1e-10


def test_euler_residual_detects_wrong_degree():
    spec = default_spec("class1")
    base = catalog.build_finsler(spec)
    squared = FinslerField(
        3, lambda xs, ys: base.evaluate(xs, ys) ** 2, base.domain_guard, "F^2"
    )
    for x, y in admissible_points(base, 5, seed=10):
        val = squared.value(x, y)
        assert euler_residual(squared, x, y) == pytest.approx(val, rel=1e-10)


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
        assert np.abs(pt.g @ pt.g_inv - np.eye(n)).max() < 1e-9
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
        l1 = landsberg_tensor(field, spray, x, y)
        l2 = landsberg_tensor(field, spray, x, 2.0 * y)
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
        b_closed = berwald_tensor(closed, x, y)
        b_oracle = berwald_tensor(oracle, x, y)
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
