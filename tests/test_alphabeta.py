import math
import re

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
from finslerlab.verify import SamplePlan, compare_sprays, draw_samples

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
    with pytest.raises(ValueError, match=re.escape("c must be (2, 2), got (3, 3)")):
        RiemannSetup(3, catalog.default_f, np.eye(3))
    with pytest.raises(ValueError, match="c must be finite"):
        RiemannSetup(3, catalog.default_f, np.array([[np.inf, 0.0], [0.0, 1.0]]))
    # symmetry is judged relative to the size of c, not by an absolute 1e-12
    with pytest.raises(ValueError, match="c must be symmetric"):
        RiemannSetup(3, catalog.default_f, 1e-13 * np.array([[1.0, 5.0], [0.0, 1.0]]))
    big = np.array([[1.0, 0.0], [1e-24, 1.0]]) * 1e13
    big = RiemannSetup(3, catalog.default_f, big)
    assert big.c[0, 0] == 1e13 and big.c[0, 1] == big.c[1, 0]


@pytest.mark.parametrize("quadratic, products",
                         [("product", 1), ("euclid", 2), ("mixed4", 2)])
def test_phi_jet_forms_one_product_per_pair_of_fiber_indices(
        quadratic, products, monkeypatch):
    setup = catalog.make_setup(quadratic)
    y = np.random.default_rng(11).normal(size=(7, setup.n))
    y_jets = geometry.seeded_arguments(setup.n, np.zeros_like(y), y, 0, 3)[1]
    want = None  # the sum over every ordered pair (lam, mu), row-major
    for lam in range(setup.n - 1):
        for mu in range(setup.n - 1):
            if setup.c[lam, mu] != 0.0:
                term = (y_jets[1 + lam] * y_jets[1 + mu]) * setup.c[lam, mu]
                want = term if want is None else want + term
    calls = []
    product = jets._product
    monkeypatch.setattr(jets, "_product",
                        lambda *args: calls.append(1) or product(*args))
    got = setup.phi_jet(y_jets)
    # one product per pair lam <= mu with c != 0; c[mu, lam] doubles it
    assert len(calls) == products
    assert got.space is want.space
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


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
        b1 = geometry.point_tensors(field, sfield, x, y).Gijkh
        b2 = geometry.point_tensors(field, closed, x, y).Gijkh
        assert np.abs(b1 - b2).max() <= 1e-8 * max(1.0, np.abs(b2).max())


def _block_sprays(spec):
    a = spec.params["a"]
    return {
        "closed": catalog.closed_form_spray(spec).as_spray_field(),
        "eq5": ab_spray_field(catalog.phi_function(spec), spec.setup),
        "riemann": spec.setup.riemann_spray_field(),
        "two-constant": shen_class_spray_field(2 * a, a * a - 1.0, spec.setup),
    }


@pytest.mark.parametrize("f", [catalog.default_f, lambda t: 2.0 + jets.sin(t)],
                         ids=["exp", "2+sin"])
@pytest.mark.parametrize("quadratic", ["product", "mixed4"])
def test_block_sprays_ignore_a_constant_factor_of_f(quadratic, f):
    # G depends on f only through f'/f, so f and 1e6 f give the same spray
    spec = catalog.make_spec("class1", {"a": 2.0}, quadratic=quadratic, f=f)
    scaled = catalog.make_spec("class1", {"a": 2.0}, quadratic=quadratic,
                               f=lambda t: f(t) * 1e6)
    pts = admissible_points(catalog.build_finsler(spec), 8, seed=53)
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    for (name, spray), other in zip(_block_sprays(spec).items(),
                                    _block_sprays(scaled).values()):
        for order in range(4):
            for want, got in zip(spray.jets(x, y, order), other.jets(x, y, order)):
                scale = np.abs(want.coeffs).max()
                assert np.abs(got.coeffs - want.coeffs).max() <= 1e-12 * scale, (
                    name, order)


#: The (alpha, beta) entries that take any quadratic preset.
AB_ENTRIES = [m for m, e in catalog.CATALOG.items() if e.profile and not e.fixed]


@pytest.mark.parametrize("spray", ["closed", "riemann", "eq5", "two-constant"])
@pytest.mark.parametrize("quadratic", ["product", "mixed4"])
@pytest.mark.parametrize("metric_id", AB_ENTRIES)
def test_a_block_spray_is_exactly_linear_in_the_conformal_rate(
        metric_id, quadratic, spray):
    # G = lambda(x^1) H(y) with lambda = f'/f: exp(2 x^1) has lambda = 2 and
    # exp(x^1) lambda = 1, both exact, so every coefficient doubles bit for
    # bit; a constant f has lambda = 0, so every coefficient is 0
    def jets_over(f):
        spec = catalog.make_spec(metric_id, quadratic=quadratic, f=f)
        sprays = {
            "closed": lambda: catalog.closed_form_spray(spec),
            "riemann": spec.setup.riemann_spray_field,
            "eq5": lambda: ab_spray_field(catalog.phi_function(spec), spec.setup),
            "two-constant": lambda: shen_class_spray_field(1.0, 0.5, spec.setup),
        }
        return [g.coeffs for g in sprays[spray]().jets(x, y, 3)]

    spec = catalog.make_spec(metric_id, quadratic=quadratic)
    pts = admissible_points(catalog.build_finsler(spec), 6, seed=61)
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    once = jets_over(jets.exp)
    for got, want in zip(jets_over(lambda t: jets.exp(t * 2.0)), once):
        assert got.tobytes() == (want * 2.0).tobytes()
    assert not any(c.any() for c in jets_over(lambda t: t.space.constant(1.5)))
    assert all(c.any() for c in once[1:])  # G^mu != 0: the doubling is tested


def _exp_nan_past(cut):
    """exp(x^1), but NaN wherever x^1 > cut."""
    def f(t):
        return jets.exp(t) * np.where(np.asarray(t.value) > cut, np.nan, 1.0)
    return f


def test_a_nan_f_is_refused_naming_the_first_nan_sample():
    setup = product_setup(_exp_nan_past(0.2))
    with pytest.raises(ValueError, match=r"got nan at x\^1=0\.5$"):
        setup.f_values(np.array([0.1, -0.3, 0.5, 0.7]))
    with pytest.raises(ValueError, match=r"got nan at x\^1=0\.25$"):
        setup.f_values(0.25)
    spec = catalog.make_spec("class3", f=_exp_nan_past(0.2))
    field = catalog.build_finsler(spec)
    closed = catalog.closed_form_spray(spec).as_spray_field()
    eq5 = ab_spray_field(catalog.phi_function(spec), spec.setup,
                         domain_guard=field.domain_guard)
    plan = SamplePlan(n_points=20, seed=7)
    x1 = np.array([x[0] for x, _ in draw_samples(field.domain_guard, 3, plan)])
    first = x1[x1 > 0.2][0]
    with pytest.raises(ValueError, match=re.escape(f"got nan at x^1={first}")):
        compare_sprays(closed, eq5, plan)


def test_q_aux_refuses_s_outside_the_unit_interval_as_q_theta_does():
    # class1's phi has no real value at s = 1.5: the refusal comes before
    # any jet, with q_theta's message
    phi = catalog.phi_function(default_spec("class1"))
    with pytest.raises(ValueError, match=re.escape("|s| = 1.5 outside (-1, 1)")):
        q_aux(phi, 1.5)
    # a profile defined everywhere is refused at |s| >= 1 all the same
    smooth = PhiFunction(lambda t: t * t * 0.1 + 1.0, label="1 + s^2/10")
    for s in (1.5, -1.0):
        with pytest.raises(ValueError, match="outside"):
            q_theta(smooth, s)
        with pytest.raises(ValueError, match=re.escape(f"|s| = {abs(s)} outside")):
            q_aux(smooth, s)
    q, qp, _, theta = q_aux(smooth, 0.5)
    assert (q, theta) == q_theta(smooth, 0.5)
    assert math.isfinite(qp)


@pytest.mark.parametrize("c1, c3", [
    (math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (1.0, math.inf), (-math.inf, 0.5)])
def test_shen_class_spray_refuses_non_finite_constants(c1, c3):
    with pytest.raises(ValueError, match="c1 and c3 must be finite"):
        shen_class_spray_field(c1, c3, product_setup())
