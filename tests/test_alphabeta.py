import math

import numpy as np
import pytest

from finslerlab import alphabeta, catalog, geometry, jets
from finslerlab.alphabeta import (
    PhiFunction,
    RiemannSetup,
    ab_spray_field,
    q_aux,
    q_theta,
    shen_class_spray_field,
)
from finslerlab.jets import SingularPointError

from conftest import admissible_points, default_spec

X0 = np.zeros(3)
Y111 = np.ones(3)


def product_setup(f=None):
    return catalog.make_setup("product", f=f)


def test_setup_validation():
    with pytest.raises(ValueError):
        RiemannSetup(3, catalog.default_f, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        RiemannSetup(3, catalog.default_f, np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        RiemannSetup(2, catalog.default_f, np.eye(1))
    with pytest.raises(ValueError, match="c must be finite"):
        RiemannSetup(3, catalog.default_f, np.array([[np.inf, 0.0], [0.0, 1.0]]))
    # symmetry is judged relative to the size of c, not by an absolute 1e-12
    with pytest.raises(ValueError, match="c must be symmetric"):
        RiemannSetup(3, catalog.default_f, 1e-13 * np.array([[1.0, 5.0], [0.0, 1.0]]))
    big = np.array([[1.0, 0.0], [1e-24, 1.0]]) * 1e13
    big = RiemannSetup(3, catalog.default_f, big)
    assert big.c[0, 0] == 1e13 and big.c[0, 1] == big.c[1, 0]


def test_riemann_spray_constant_f():
    setup = product_setup(f=lambda t: t.space.constant(2.0))
    assert np.abs(setup.riemann_spray_field().values(X0, Y111)).max() == 0.0


def test_riemann_spray_hand_values():
    g = product_setup().riemann_spray_field().values(X0, Y111)
    assert g == pytest.approx([0.0, 1.0, 1.0], abs=1e-14)


def test_riemann_spray_matches_variational_route():
    setup = product_setup()

    def ev(xs, ys):
        fj = setup.f(xs[0])
        return fj * jets.sqrt(ys[0] * ys[0] + setup.phi_jet(ys))

    def guard(x, y):
        yhat = np.asarray(y)[1:]
        return setup.phi_value(yhat) > 0.05 * float(yhat @ yhat)

    field = geometry.FinslerField(3, ev, guard, "alpha")
    spray = setup.riemann_spray_field()
    variational = geometry.ad_spray_field(field)
    for x, y in admissible_points(field, 20, seed=31):
        got = spray.values(x, y)
        ref = variational.values(x, y)
        assert np.abs(got - ref).max() < 1e-9 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize(
    "metric_id,params,s,q_expect,theta_expect",
    [
        ("class1", {"a": 2.0}, 0.0, 4.0, 0.5),
        ("class4", {"p": 3.0, "q": 1.0}, 0.0, 3.0, 0.75),
        ("class3", {"a": 2.0}, 0.0, 3.0, 0.75),
    ],
)
def test_q_theta_hand_values(metric_id, params, s, q_expect, theta_expect):
    phi = catalog.phi_function(catalog.make_spec(metric_id, params))
    q, theta = q_theta(phi, s)
    assert q == pytest.approx(q_expect, rel=1e-12)
    assert theta == pytest.approx(theta_expect, rel=1e-12)


def test_q_theta_domain_and_singularities():
    phi = catalog.phi_function(default_spec("class1"))
    with pytest.raises(ValueError):
        q_theta(phi, 1.5)
    linear = PhiFunction(lambda t: t * 0.7, label="0.7 s")
    with pytest.raises(SingularPointError):
        q_theta(linear, 0.5)  # phi - s phi' vanishes identically


def _published_qwt(metric_id, params):
    a = params.get("a")
    p, q = params.get("p"), params.get("q")
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
        # the ratio follows from the published Q of this class
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
    "metric_id,params",
    [
        ("class1", {"a": 2.0}),
        ("class1", {"a": -0.5}),
        ("class2", {"a": 2.0}),
        ("class2", {"a": -3.0}),
        ("class3", {"a": 2.0}),
        ("class3", {"a": 0.5}),
        ("class4", {"p": 3.0, "q": 1.0}),
        ("class4", {"p": 1.0, "q": 0.0}),
        ("class4", {"p": -2.0, "q": 3.0}),
    ],
)
def test_projective_ratio_matches_published_expressions(metric_id, params):
    spec = catalog.make_spec(metric_id, params)
    phi = catalog.phi_function(spec)
    fq, fw, ft = _published_qwt(metric_id, params)
    rng = np.random.default_rng(33)
    checked = 0
    while checked < 50:
        s = rng.uniform(-0.95, 0.95)
        if not phi.admissible(s):
            continue
        checked += 1
        r = math.sqrt(1 - s * s)
        q, qp, w, theta = q_aux(phi, s)
        for got, ref in ((q, fq(s, r)), (w, fw(s, r)), (theta, ft(s, r))):
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(got), abs(ref))


def test_ab_spray_riemannian_limit_is_exact():
    setup = product_setup()
    phi_one = PhiFunction(lambda t: t.space.constant(1.0) + t * 0.0, "1")
    eq5 = ab_spray_field(phi_one, setup)
    riemann = setup.riemann_spray_field()
    for x, y in [(X0, Y111), (np.array([0.3, 0, 0]), np.array([0.4, 0.7, 0.9]))]:
        assert np.array_equal(eq5.values(x, y), riemann.values(x, y))


@pytest.mark.parametrize(
    "metric_id,params",
    [
        ("class1", {"a": 2.0}),
        ("class2", {"a": -3.0}),
        ("class3", {"a": 0.5}),
        ("class4", {"p": 3.0, "q": 1.0}),
        ("class4", {"p": -2.0, "q": 3.0}),
    ],
)
def test_ab_spray_matches_theorem_closed_form(metric_id, params):
    spec = catalog.make_spec(metric_id, params)
    field = catalog.build_finsler(spec)
    closed = catalog.closed_form_spray(spec).as_spray_field()
    eq5 = ab_spray_field(catalog.phi_function(spec), spec.setup)
    for x, y in admissible_points(field, 20, seed=34):
        got = eq5.values(x, y)
        ref = closed.values(x, y)
        assert np.abs(got - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


def test_shen_class_spray_zero_when_f_constant():
    setup = product_setup(f=lambda t: t.space.constant(1.5))
    g = shen_class_spray_field(2.0, 1.0, setup).values(X0, Y111)
    assert np.abs(g).max() == 0.0


def test_shen_class_spray_hand_values():
    g = shen_class_spray_field(2.0, 0.0, product_setup()).values(X0, Y111)
    assert g == pytest.approx([0.0, 2.0, 2.0], abs=1e-14)


def test_shen_class_spray_parameter_errors():
    setup = product_setup()
    # rejected when the spray is built, before any evaluation
    with pytest.raises(ValueError, match="c1 must be non-zero"):
        shen_class_spray_field(0.0, 0.5, setup)
    with pytest.raises(ValueError, match="1 \\+ c3 must be positive"):
        shen_class_spray_field(1.0, -1.0, setup)


def test_shen_class_spray_agrees_with_profile_route():
    spec = default_spec("shen_eq8")
    field = catalog.build_finsler(spec)
    c1, c3 = spec.params["c1"], spec.params["c3"]
    shen = shen_class_spray_field(c1, c3, spec.setup)
    eq5 = ab_spray_field(catalog.phi_function(spec), spec.setup)
    for x, y in admissible_points(field, 10, seed=35):
        got = shen.values(x, y)
        ref = eq5.values(x, y)
        assert np.abs(got - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())


def test_shen_class_spray_reproduces_class1():
    a = 2.0
    spec = catalog.make_spec("class1", {"a": a})
    field = catalog.build_finsler(spec)
    closed = catalog.closed_form_spray(spec).as_spray_field()
    shen = shen_class_spray_field(2 * a, a * a - 1.0, spec.setup)
    for x, y in admissible_points(field, 10, seed=36):
        got = shen.values(x, y)
        ref = closed.values(x, y)
        assert np.abs(got - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())


def test_ab_spray_jets_feed_berwald():
    spec = default_spec("class2")
    field = catalog.build_finsler(spec)
    phi = catalog.phi_function(spec)
    sfield = ab_spray_field(phi, spec.setup, domain_guard=field.domain_guard)
    closed = catalog.closed_form_spray(spec).as_spray_field()
    for x, y in admissible_points(field, 5, seed=37):
        b1 = geometry.berwald_tensor(sfield, x, y)
        b2 = geometry.berwald_tensor(closed, x, y)
        assert np.abs(b1 - b2).max() <= 1e-8 * max(1.0, np.abs(b2).max())
