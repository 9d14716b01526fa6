import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import catalog, jets
from finslerlab.jets import JetUsageError, SingularPointError, jet_space

from conftest import DEFAULT_IDS, admissible_points, default_spec
from oracles import central_diff, rel_err, richardson_partial


def test_seed_variable_basic():
    sp = jet_space(1, 2, 1, 5)
    v = sp.seed_y(1, 3.0)  # the second fiber variable, value 3
    assert v.value == 3.0
    assert v.extract((0, 0, 1)) == 1.0
    assert np.count_nonzero(v.coeffs) == 2


def test_seed_x_at_zero():
    sp = jet_space(2, 2, 1, 2)
    v = sp.seed_x(0, 0.0)
    assert v.value == 0.0
    assert v.extract((1, 0, 0, 0)) == 1.0


def test_seed_errors():
    sp = jet_space(1, 2, 1, 5)
    with pytest.raises(JetUsageError):
        sp.seed_y(2, 1.0)
    sp0 = jet_space(1, 2, 0, 5)
    with pytest.raises(JetUsageError):
        sp0.seed_x(0, 1.0)


def test_square_of_shifted_variable():
    sp = jet_space(0, 1, 0, 5)
    y = sp.seed_y(0, 2.0)
    sq = y * y
    assert sq.value == 4.0
    assert sq.extract((1,)) == 4.0
    assert sq.extract((2,)) == 2.0  # second derivative of y^2


def test_division_identity():
    sp = jet_space(0, 2, 0, 4)
    rng = np.random.default_rng(3)
    c = rng.normal(size=sp.size)
    c[0] = 1.3
    a = jets.TaylorValue(sp, c)
    one = a / a
    assert abs(one.value - 1.0) < 1e-14
    assert np.abs(one.coeffs[1:]).max() < 1e-13


def test_fifth_derivative_by_repeated_mul():
    sp = jet_space(0, 1, 0, 5)
    y = sp.seed_y(0, 1.0)
    p = y * y * y * y * y
    assert p.extract((5,)) == pytest.approx(120.0, abs=0)


def test_division_by_near_zero_constant():
    sp = jet_space(0, 1, 0, 2)
    y = sp.seed_y(0, 0.0)
    with pytest.raises(SingularPointError) as err:
        (1.0 + y) / y
    assert err.value.constant_term == 0.0


def test_cap_mismatch_rejected():
    a = jet_space(0, 1, 0, 2).seed_y(0, 1.0)
    b = jet_space(0, 1, 0, 3).seed_y(0, 1.0)
    with pytest.raises(JetUsageError):
        a + b


def test_exp_of_base_seed():
    sp = jet_space(1, 0, 1, 0)
    e = jets.exp(sp.seed_x(0, 0.0))
    assert np.allclose(e.coeffs, [1.0, 1.0])


def test_sqrt_of_constant():
    sp = jet_space(0, 2, 0, 2)
    assert jets.sqrt(sp.constant(4.0)).value == 2.0


def test_sqrt_derivative_vs_central_difference():
    sp = jet_space(0, 2, 0, 2)
    y2 = sp.seed_y(0, 1.0)
    y3 = sp.seed_y(1, 1.0)
    got = jets.sqrt(y2 * y3).extract((1, 0))
    ref = central_diff(lambda z: math.sqrt(z[0] * z[1]), [1.0, 1.0], 0, 1e-6)
    assert got == pytest.approx(0.5, abs=1e-12)
    assert abs(got - ref) < 1e-8


def test_domain_errors_carry_constant():
    sp = jet_space(0, 1, 0, 3)
    y = sp.seed_y(0, -2.0)
    for fn in (jets.sqrt, jets.ln):
        with pytest.raises(SingularPointError) as err:
            fn(y)
        assert err.value.constant_term == -2.0
    with pytest.raises(SingularPointError):
        jets.arctanh(sp.seed_y(0, 1.0))


def test_extract_basics():
    sp = jet_space(0, 2, 0, 5)
    f = sp.seed_y(0, 7.0)
    assert f.extract((0, 0)) == 7.0  # zero index: the value
    assert f.extract((1, 0)) == 1.0
    y2 = sp.seed_y(1, 2.0)
    cubed = y2 * y2 * y2
    assert cubed.extract((0, 3)) == pytest.approx(6.0)  # 3! * coefficient 1
    with pytest.raises(JetUsageError):
        f.extract((6, 0))


@pytest.mark.parametrize("signature", [(0, 3, 0, 3), (4, 4, 1, 5)])
def test_fiber_tensor_matches_extract_y(signature):
    sp = jet_space(*signature)
    v = jets.TaylorValue(sp, np.random.default_rng(17).normal(size=sp.size))
    n = sp.n_y
    for k in range(1, sp.y_cap + 1):
        t = v.fiber_tensor(k)
        assert t.shape == (n,) * k
        for axes in np.ndindex(t.shape):
            idx = [0] * n
            for a in axes:
                idx[a] += 1
            assert t[axes] == v.extract_y(idx)
        for perm in itertools.permutations(range(k)):
            assert np.array_equal(np.transpose(t, perm), t)


def test_fiber_tensor_order_above_cap():
    v = jet_space(1, 2, 1, 3).seed_y(0, 1.0)
    with pytest.raises(JetUsageError):
        v.fiber_tensor(4)


def test_integer_power_with_nonpositive_base():
    sp = jet_space(0, 1, 0, 3)
    y = sp.seed_y(0, -1.5)
    p = jets.power(y, 3)
    assert p.value == pytest.approx((-1.5) ** 3)
    assert p.extract((1,)) == pytest.approx(3 * 1.5**2)
    with pytest.raises(SingularPointError):
        jets.power(y, 0.5)


def test_trig_against_math():
    sp = jet_space(0, 1, 0, 4)
    y = sp.seed_y(0, 0.3)
    assert jets.sin(y).value == pytest.approx(math.sin(0.3), rel=1e-15)
    assert jets.cos(y).extract((1,)) == pytest.approx(-math.sin(0.3), rel=1e-13)
    assert jets.sin(y).extract((2,)) == pytest.approx(-math.sin(0.3), rel=1e-13)


def test_arctan_series():
    sp = jet_space(0, 1, 0, 5)
    y = sp.seed_y(0, 0.7)
    at = jets.arctan(y)
    assert at.value == pytest.approx(math.atan(0.7), rel=1e-15)
    assert at.extract((1,)) == pytest.approx(1 / (1 + 0.49), rel=1e-13)
    ref = central_diff(lambda z: math.atan(z[0]), [0.7], 0, 1e-6)
    assert abs(at.extract((1,)) - ref) < 1e-9


def test_arctanh_both_branches():
    sp = jet_space(0, 1, 0, 3)
    inner = jets.arctanh(sp.seed_y(0, 0.4))
    assert inner.value == pytest.approx(math.atanh(0.4), rel=1e-15)
    outer = jets.arctanh(sp.seed_y(0, 2.5))
    assert outer.value == pytest.approx(0.5 * math.log(3.5 / 1.5), rel=1e-15)
    # both branches share the derivative 1/(1 - z^2)
    assert outer.extract((1,)) == pytest.approx(1 / (1 - 6.25), rel=1e-13)


def test_immutability():
    sp = jet_space(0, 1, 0, 2)
    v = sp.seed_y(0, 1.0)
    with pytest.raises(ValueError):
        v.coeffs[0] = 5.0
    with pytest.raises(AttributeError):
        v.space = None


# ---------------------------------------------------------------------------
# algebra properties
# ---------------------------------------------------------------------------


def _random_value(sp, rng, positive=False):
    c = rng.normal(size=sp.size)
    if positive:
        c[0] = abs(c[0]) + 0.5
    return jets.TaylorValue(sp, c)


def test_product_rule_randomized():
    sp = jet_space(0, 3, 0, 4)
    rng = np.random.default_rng(11)
    e1 = (1, 0, 0)
    for _ in range(400):
        a = _random_value(sp, rng)
        b = _random_value(sp, rng)
        lhs = (a * b).extract(e1)
        rhs = a.value * b.extract(e1) + a.extract(e1) * b.value
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_chain_rule_exp_ln():
    sp = jet_space(1, 2, 1, 4)
    rng = np.random.default_rng(12)
    for _ in range(400):
        a = _random_value(sp, rng, positive=True)
        back = jets.exp(jets.ln(a))
        assert np.abs(back.coeffs - a.coeffs).max() < 1e-12 * max(
            1.0, np.abs(a.coeffs).max()
        )


def test_truncation_consistency_bit_identical():
    big = jet_space(1, 2, 1, 5)
    rng = np.random.default_rng(13)
    for _ in range(200):
        ca = rng.normal(size=big.size)
        cb = rng.normal(size=big.size)
        ca[0] = abs(ca[0]) + 0.7
        cb[0] = abs(cb[0]) + 0.7
        a_big = jets.TaylorValue(big, ca)
        b_big = jets.TaylorValue(big, cb)
        expr_big = jets.sqrt(a_big) * b_big + jets.exp(b_big * 0.1) / a_big
        small = expr_big.truncate(1, 3)
        a_small = a_big.truncate(1, 3)
        b_small = b_big.truncate(1, 3)
        expr_small = (
            jets.sqrt(a_small) * b_small + jets.exp(b_small * 0.1) / a_small
        )
        assert np.array_equal(expr_small.coeffs, small.coeffs)


@given(
    v=st.floats(min_value=-3, max_value=3, allow_nan=False),
    w=st.floats(min_value=0.2, max_value=3, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_linearity_of_extract(v, w):
    sp = jet_space(0, 2, 0, 3)
    a = sp.seed_y(0, v)
    b = sp.seed_y(1, w)
    s = a * 2.0 + b * (-3.0)
    assert s.extract((1, 0)) == pytest.approx(2.0)
    assert s.extract((0, 1)) == pytest.approx(-3.0)
    assert s.value == pytest.approx(2 * v - 3 * w)


@given(st.floats(min_value=0.3, max_value=2.5))
@settings(max_examples=100, deadline=None)
def test_reciprocal_roundtrip(v):
    sp = jet_space(0, 1, 0, 5)
    a = sp.seed_y(0, v) + 0.1
    round_trip = a.reciprocal().reciprocal()
    assert np.abs(round_trip.coeffs - a.coeffs).max() < 1e-10


# ---------------------------------------------------------------------------
# finite-difference agreement on the catalog fields
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("metric_id", DEFAULT_IDS)
def test_first_and_second_partials_match_fd(metric_id):
    spec = default_spec(metric_id)
    field = catalog.build_finsler(spec)
    n = field.n
    pts = admissible_points(field, n_points=20, seed=101)

    def fy(x):
        def inner(z):
            return field.value(x, z)

        return inner

    for x, y in pts:
        fj = field.jet(x, y, 0, 2)
        f_of_y = fy(x)
        for i in range(n):
            idx = [0] * n
            idx[i] = 1
            got = fj.extract_y(idx)
            ref = central_diff(f_of_y, y, i, 1e-5 * max(1.0, abs(y[i])))
            assert rel_err(got, ref) < 1e-6
        for i in range(n):
            for j in range(i, n):
                idx = [0] * n
                idx[i] += 1
                idx[j] += 1
                got = fj.extract_y(idx)
                # second differences at h = 1e-5 sit at the float64 noise
                # floor, so the second-order check extrapolates instead
                ref = richardson_partial(f_of_y, y, (i, j), 1e-3)
                assert abs(got - ref) < 1e-6 * max(1.0, abs(got), abs(ref))
