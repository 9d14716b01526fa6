import gc
import itertools
import math
import operator
import re
import warnings

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


def test_usage_errors_name_their_cause():
    sp = jet_space(0, 1, 0, 2)
    with pytest.raises(JetUsageError, match=re.escape(
            "coefficient array has shape (5,), space needs (3,) or (N, 3)")):
        jets.TaylorValue(sp, np.zeros(5))
    with pytest.raises(JetUsageError, match="^truncation cannot increase caps$"):
        sp.seed_y(0, 1.0).truncate(0, 3)


def test_an_unbatched_jet_plus_a_per_sample_array_is_a_batch():
    t = jet_space(0, 1, 0, 2).seed_y(0, 1.0)
    got = t + np.array([1.0, 2.0, 3.0])
    assert got.coeffs.tolist() == [[2.0, 1.0, 0.0], [3.0, 1.0, 0.0], [4.0, 1.0, 0.0]]


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
            assert t[axes] == v.extract((0,) * sp.n_x + tuple(idx))
        for perm in itertools.permutations(range(k)):
            assert np.array_equal(np.transpose(t, perm), t)


def test_fiber_tensor_order_above_cap():
    v = jet_space(1, 2, 1, 3).seed_y(0, 1.0)
    with pytest.raises(JetUsageError):
        v.fiber_tensor(4)


def test_a_refused_table_or_space_is_refused_on_every_call():
    sp = jet_space(1, 2, 1, 3)
    for refused in (lambda: sp.diff_table("y", sp.n_y),
                    lambda: sp._fiber_table(sp.y_cap + 1),
                    lambda: jet_space(-1, 1, 1, 1)):
        for _ in range(2):
            with pytest.raises(JetUsageError):
                refused()


def test_each_index_table_is_built_once_per_space():
    sp = jet_space(1, 2, 1, 3)
    for table in (lambda: sp.mul_table, lambda: sp.series_table,
                  lambda: sp.diff_table("x", 0), lambda: sp.diff_table("y", 1),
                  lambda: sp._fiber_table(2), lambda: sp.fiber_face.embed_table(sp),
                  lambda: sp.base_face, lambda: sp.fiber_face):
        assert table() is table()


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
            got = fj.extract(idx)
            ref = central_diff(f_of_y, y, i, 1e-5 * max(1.0, abs(y[i])))
            assert rel_err(got, ref) < 1e-6
        for i in range(n):
            for j in range(i, n):
                idx = [0] * n
                idx[i] += 1
                idx[j] += 1
                got = fj.extract(idx)
                # second differences at h = 1e-5 sit at the float64 noise
                # floor, so the second-order check extrapolates instead
                ref = richardson_partial(f_of_y, y, (i, j), 1e-3)
                assert abs(got - ref) < 1e-6 * max(1.0, abs(got), abs(ref))


# ---------------------------------------------------------------------------
# index tables: the numpy builders against the monomial loops they replace
# ---------------------------------------------------------------------------

# Every JetSpace signature the catalog's verification routes build.
CATALOG_SIGNATURES = [
    (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 0, 2), (1, 0, 1, 0),
    *[(0, n, 0, k) for n in (3, 4) for k in range(6)],
    *[(n, n, 0, k) for n in (3, 4) for k in (1, 2, 4, 5)],
    *[(n, n, 1, k) for n in (3, 4) for k in range(6)],
]

# Every JetSpace signature the benchmark's three workloads build.
WORKLOAD_SIGNATURES = [
    (0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 0, 2), (1, 0, 1, 0),
    *[(0, n, 0, k) for n in (3, 4) for k in range(1, 6)],
    *[(1, n, 1, k) for n in (3, 4) for k in range(1, 6)],
]

# The index tables are checked on these, and on spaces beyond the presets:
# dimensions 5 and 6 at fiber order 5, and an x group of cap 2.
INDEX_SIGNATURES = CATALOG_SIGNATURES + [
    s for s in WORKLOAD_SIGNATURES + [(0, 5, 0, 5), (1, 6, 1, 5), (2, 2, 2, 2)]
    if s not in CATALOG_SIGNATURES
]


def _loop_monomials(nvars, cap):
    """Every exponent tuple within the cap, in graded-lex order."""
    monos = [t for t in itertools.product(range(cap + 1), repeat=nvars) if sum(t) <= cap]
    return sorted(monos, key=lambda t: (sum(t), t))


def _loop_mul_table(sp):
    nx = sp.n_x
    I, J, K = [], [], []
    for i, mi in enumerate(sp.monomials):
        for j, mj in enumerate(sp.monomials):
            s = tuple(a + b for a, b in zip(mi, mj))
            if sum(s[:nx]) > sp.x_cap or sum(s[nx:]) > sp.y_cap:
                continue
            I.append(i)
            J.append(j)
            K.append(sp.position[s])
    return [np.asarray(v, dtype=np.intp) for v in (I, J, K)]


def _in_variables_of(sp, target, m):
    """Monomial m of ``target`` written in the variables of ``sp``, which
    has every group of ``target``: a group ``target`` lacks is all zeros."""
    x, y = m[:target.n_x], m[target.n_x:]
    return (x or (0,) * sp.n_x) + (y or (0,) * sp.n_y)


def _loop_diff_table(sp, target, var):
    src = np.empty(target.size, dtype=np.intp)
    mult = np.empty(target.size)
    for t, m in enumerate(target.monomials):
        bumped = list(_in_variables_of(sp, target, m))
        bumped[var] += 1
        src[t] = sp.position[tuple(bumped)]
        mult[t] = bumped[var]
    return src, mult


def _loop_fiber_table(sp, k):
    pos = np.empty((sp.n_y,) * k, dtype=np.intp)
    for axes in np.ndindex(pos.shape):
        exps = tuple(map(axes.count, range(sp.n_y)))
        pos[axes] = sp.position[(0,) * sp.n_x + exps]
    return pos


@pytest.mark.parametrize("signature", INDEX_SIGNATURES)
def test_index_tables_match_monomial_loops(signature):
    sp = jet_space(*signature)
    assert len(sp.monomials) == (math.comb(sp.n_x + sp.x_cap, sp.x_cap)
                                 * math.comb(sp.n_y + sp.y_cap, sp.y_cap))
    assert sp.x_monomials == _loop_monomials(sp.n_x, sp.x_cap)
    assert sp.y_monomials == _loop_monomials(sp.n_y, sp.y_cap)
    assert sp.monomials == [xm + ym for xm in sp.x_monomials for ym in sp.y_monomials]
    assert np.array_equal(sp.exponents, sp.monomials)
    factorial = [math.prod(math.factorial(e) for e in m) for m in sp.monomials]
    assert np.array_equal(sp.factorial, factorial)
    for got, ref in zip(sp.mul_table, _loop_mul_table(sp)):
        assert got.dtype == np.intp and np.array_equal(got, ref)
    for group, n, cap, offset in (("x", sp.n_x, sp.x_cap, 0),
                                  ("y", sp.n_y, sp.y_cap, sp.n_x)):
        for index in range(n if cap else 0):
            target, src, mult = sp.diff_table(group, index)
            ref_src, ref_mult = _loop_diff_table(sp, target, offset + index)
            assert np.array_equal(src, ref_src)
            assert np.array_equal(mult, ref_mult)
    for x_cap in range(sp.x_cap + 1):
        for y_cap in range(sp.y_cap + 1):
            target = jet_space(sp.n_x, sp.n_y, x_cap, y_cap)
            space, src = target.embed_table(sp)
            assert space is sp
            assert np.array_equal(src, [sp.position[_in_variables_of(sp, target, m)]
                                        for m in target.monomials])
    for k in range(sp.y_cap + 1):
        pos, fact = sp._fiber_table(k)
        assert np.array_equal(pos, _loop_fiber_table(sp, k))
        assert np.array_equal(fact, sp.factorial[pos])


# ---------------------------------------------------------------------------
# the sample axis
# ---------------------------------------------------------------------------


def _rows_of(batch):
    return [jets.TaylorValue(batch.space, c) for c in batch.coeffs]


@pytest.mark.parametrize("signature", [(0, 3, 0, 3), (3, 3, 1, 2), (4, 4, 1, 5)])
def test_batched_operations_match_each_sample_bitwise(signature):
    sp = jet_space(*signature)
    rng = np.random.default_rng(29)
    ca = rng.normal(size=(7, sp.size))
    cb = rng.normal(size=(7, sp.size))
    ca[:, 0] = np.abs(ca[:, 0]) + 0.5
    cb[:, 0] = rng.uniform(-0.9, 0.9, size=7)
    shift = rng.normal(size=7)
    a, b = jets.TaylorValue(sp, ca), jets.TaylorValue(sp, cb)

    def program(a, b, shift):
        c = a * b + jets.sqrt(a) / (a + 1.0) - jets.exp(b) * shift
        c = c + jets.ln(a) * jets.arctan(b) + jets.arctanh(b) - 2.0 / a
        c = c + jets.power(a, -1.5) * jets.sin(b) + jets.cos(a) * a**3
        return sp.constant(0.25) * c - shift + jets.power(b, 7) + jets.power(a, b)

    batched = program(a, b, shift)
    assert batched.batch == 7 and batched.value.shape == (7,)
    for s, (ai, bi) in enumerate(zip(_rows_of(a), _rows_of(b))):
        single = program(ai, bi, shift[s])
        assert np.array_equal(batched.coeffs[s], single.coeffs)
        one = program(jets.TaylorValue(sp, ca[s:s + 1]),
                      jets.TaylorValue(sp, cb[s:s + 1]), shift[s:s + 1])
        assert one.batch == 1 and np.array_equal(one.coeffs[0], single.coeffs)
        assert np.array_equal(one.coeffs[0], batched.coeffs[s])
        for k in range(min(sp.y_cap, 3) + 1):
            assert np.array_equal(batched.fiber_tensor(k)[s], single.fiber_tensor(k))


def test_batched_domain_check_names_first_bad_sample():
    sp = jet_space(0, 1, 0, 2)
    y = sp.seed_y(0, np.array([0.5, 1.0, -2.0, -3.0]))
    with pytest.raises(SingularPointError) as err:
        jets.sqrt(y)
    assert err.value.constant_term == -2.0
    with pytest.raises(SingularPointError) as err:
        (y - 1.0).reciprocal()
    assert err.value.constant_term == 0.0


def test_branch_evaluates_each_sample_on_its_own_side():
    sp = jet_space(0, 1, 0, 3)
    y = sp.seed_y(0, np.array([0.5, -2.0, 3.0, -0.1]))
    seen = []

    def positive(v):
        seen.append(("+", v.batch))
        return jets.sqrt(v)

    def negative(v):
        seen.append(("-", v.batch))
        return jets.sqrt(-v)

    out = jets.branch(y.value > 0, positive, negative, y)
    assert sorted(seen) == [("+", 2), ("-", 2)]
    for s, ys in enumerate(_rows_of(y)):
        ref = jets.sqrt(ys) if ys.value > 0 else jets.sqrt(-ys)
        assert np.array_equal(out.coeffs[s], ref.coeffs)


def test_batch_size_mismatch_rejected():
    sp = jet_space(0, 1, 0, 2)
    with pytest.raises(ValueError):
        sp.seed_y(0, np.ones(3)) * sp.seed_y(0, np.ones(4))
    one, four = sp.seed_y(0, np.ones(1)), sp.seed_y(0, np.ones(4))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(JetUsageError):
            op(one, four)
        with pytest.raises(JetUsageError):
            op(four, one)


# ---------------------------------------------------------------------------
# series composition: graded Horner against full products
# ---------------------------------------------------------------------------

SERIES_SIGNATURES = [(1, 3, 1, 5), (1, 4, 1, 5), (0, 4, 0, 3), (0, 1, 0, 2), (1, 0, 1, 0)]


def _full_horner(u, h):
    """sum u[k] h^k by Horner with plain TaylorValue products."""
    if isinstance(u, np.ndarray):
        u = list(u.T) if u.ndim == 2 else u.tolist()
    c = np.zeros(h.coeffs.shape)
    c[..., 0] = u[-1]
    acc = jets.TaylorValue(h.space, c)
    for term in reversed(u[:-1]):
        acc = acc * h + term
    return acc


@pytest.mark.parametrize("signature", SERIES_SIGNATURES)
@pytest.mark.parametrize("batch", [None, 1, 2, 50])
def test_compose_series_matches_full_horner_bitwise(signature, batch):
    sp = jet_space(*signature)
    top = sp.x_cap + sp.y_cap
    rng = np.random.default_rng(31)
    shape = (sp.size,) if batch is None else (batch, sp.size)
    c = rng.normal(size=shape)
    c[..., 0] = 0.0
    h = jets.TaylorValue(sp, c)
    # top + 3 terms: the first three steps keep no pair at all
    for terms in (1, 2, top + 1, top + 3):
        series = [rng.normal(size=terms)]
        if batch is not None:
            series.append(rng.normal(size=(batch, terms)))  # one per sample
            series.append([rng.normal(size=batch) for _ in range(terms)])
        for u in series:
            got = jets.compose_series(u, h)
            want = _full_horner(u, h)
            assert got.space is sp and got.coeffs.shape == want.coeffs.shape
            assert got.coeffs.tobytes() == want.coeffs.tobytes()


def test_compose_series_requires_zero_constant_term():
    sp = jet_space(1, 3, 1, 5)
    c = np.random.default_rng(3).normal(size=(4, sp.size))
    c[:, 0] = 0.0
    c[2, 0] = 1e-300
    with pytest.raises(JetUsageError, match="sample 2 has 1e-300"):
        jets.compose_series([1.0, 2.0, 3.0], jets.TaylorValue(sp, c))
    with pytest.raises(JetUsageError, match="zero constant term"):
        jets.compose_series([1.0, 2.0], sp.seed_y(0, 0.5))


def _loop_series_pairs(sp, terms):
    """Pairs a graded Horner pass over ``terms`` coefficients multiplies:
    (i, j) within the caps, j not the constant monomial, and the output
    of total degree at most x_cap + y_cap minus the steps still to come."""
    nx = sp.n_x
    degrees = []
    for mi in sp.monomials:
        for mj in sp.monomials[1:]:
            s = tuple(a + b for a, b in zip(mi, mj))
            if sum(s[:nx]) <= sp.x_cap and sum(s[nx:]) <= sp.y_cap:
                degrees.append(sum(s))
    top = sp.x_cap + sp.y_cap
    return sum(d <= top - k for k in range(terms - 1) for d in degrees)


@pytest.mark.parametrize("signature", [(1, 3, 1, 5), (1, 4, 1, 5), (0, 4, 0, 3)])
def test_compose_series_work_budget(signature, monkeypatch):
    sp = jet_space(*signature)
    top = sp.x_cap + sp.y_cap
    counted = []
    product = jets._product

    def counting(space, a, b, table=None):
        counted.append(len((space.mul_table if table is None else table)[2]))
        return product(space, a, b, table)

    monkeypatch.setattr(jets, "_product", counting)
    c = np.random.default_rng(4).normal(size=sp.size)
    c[0] = 0.0
    jets.compose_series(np.ones(top + 1), jets.TaylorValue(sp, c))
    assert len(counted) == top
    assert sum(counted) == _loop_series_pairs(sp, top + 1)
    assert sum(counted) < top * len(sp.mul_table[0])


# The per-sample series coefficients the array recurrences replace: each
# function ran its whole recurrence in Python floats at one constant term
# a0, up to order m, and inverted 1 + sign t^2 with a per-sample np.dot.


def _reference_inverse_square(a0, m, sign, u0):
    g = np.zeros(m + 1)
    g[0] = 1.0 + sign * (a0 * a0)
    if m >= 1:
        g[1] = sign * (2.0 * a0)
    if m >= 2:
        g[2] = sign
    c = np.empty(m + 1)  # the series of 1/g
    c[0] = 1.0 / g[0]
    for k in range(1, m + 1):
        c[k] = -np.dot(g[1:k + 1], c[k - 1::-1]) / g[0]
    u = np.empty(m + 1)
    u[0] = u0
    for k in range(1, m + 1):
        u[k] = c[k - 1] / k
    return u


def _reference_ln(a0, m):
    u = np.empty(m + 1)
    u[0] = math.log(a0)
    for k in range(1, m + 1):
        u[k] = (-1.0) ** (k + 1) / (k * a0**k)
    return u


def _reference_trig(a0, m, phase):
    s0, c0 = math.sin(a0), math.cos(a0)
    cycle = (s0, c0, -s0, -c0)
    return np.array([cycle[(k + phase) % 4] / math.factorial(k) for k in range(m + 1)])


REFERENCE_SERIES = {
    "ln": (jets.ln, _reference_ln),
    "arctan": (jets.arctan, lambda a0, m: _reference_inverse_square(
        a0, m, 1.0, math.atan(a0))),
    "arctanh": (jets.arctanh, lambda a0, m: _reference_inverse_square(
        a0, m, -1.0, math.atanh(a0) if abs(a0) < 1.0
        else 0.5 * math.log((a0 + 1.0) / (a0 - 1.0)))),
    "sin": (jets.sin, lambda a0, m: _reference_trig(a0, m, 0)),
    "cos": (jets.cos, lambda a0, m: _reference_trig(a0, m, 1)),
}


def _reference_series(name, a):
    coefficients = REFERENCE_SERIES[name][1]
    m = a.space.x_cap + a.space.y_cap
    u = jets.scalar_map(lambda a0: coefficients(a0, m), a.value)
    return jets.compose_series(u, a._nilpotent())


def _series_operand(sp, batch, constant_terms, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(sp.size,) if batch is None else (batch, sp.size))
    c[..., 0] = constant_terms(rng, c[..., 0].shape)
    return jets.TaylorValue(sp, c)


SERIES_CONSTANT_TERMS = {
    "ln": lambda rng, shape: rng.uniform(0.05, 4.0, size=shape),
    "arctan": lambda rng, shape: rng.normal(scale=2.0, size=shape),
    "arctanh": lambda rng, shape: rng.uniform(-0.95, 0.95, size=shape),
    "sin": lambda rng, shape: rng.normal(scale=3.0, size=shape),
    "cos": lambda rng, shape: rng.normal(scale=3.0, size=shape),
}


@pytest.mark.parametrize("signature", [(0, 0, 0, 0), (1, 0, 1, 0), (0, 3, 0, 3),
                                       (1, 4, 1, 2), (1, 3, 1, 5), (0, 4, 0, 5)])
@pytest.mark.parametrize("batch", [None, 1, 7, 64])
def test_elementary_functions_match_the_per_sample_coefficients_bitwise(
        signature, batch):
    sp = jet_space(*signature)
    for seed, (name, (fn, _)) in enumerate(REFERENCE_SERIES.items()):
        a = _series_operand(sp, batch, SERIES_CONSTANT_TERMS[name], seed)
        got, want = fn(a), _reference_series(name, a)
        assert got.space is sp and got.coeffs.shape == a.coeffs.shape
        assert got.coeffs.tobytes() == want.coeffs.tobytes(), name


def test_arctanh_mixed_branches_match_the_per_sample_coefficients_bitwise():
    sp = jet_space(1, 4, 1, 2)
    inside = [0.0, -0.0, 0.3, -0.7, 0.999]
    outside = [1.001, -1.5, 2.5, -40.0, 1e8]

    def mixed(rng, shape):
        return rng.permutation(np.resize(inside + outside, shape))

    a = _series_operand(sp, 64, mixed, 73)
    assert (np.abs(a.value) < 1.0).any() and (np.abs(a.value) > 1.0).any()
    got = jets.arctanh(a)
    assert got.coeffs.tobytes() == _reference_series("arctanh", a).coeffs.tobytes()


# ---------------------------------------------------------------------------
# faces: y-only and x-only values in their own small spaces
# ---------------------------------------------------------------------------

FACE_UNARY = {
    "reciprocal": lambda a: a.reciprocal(),
    "sqrt": jets.sqrt,
    "exp": jets.exp,
    "ln": jets.ln,
    "real power": lambda a: jets.power(a, -1.5),
    "integer power": lambda a: jets.power(a, 3),
    "negative integer power": lambda a: jets.power(a, -2),
    "large integer power": lambda a: jets.power(a, 7),
    "arctan": jets.arctan,
    "arctanh": lambda a: jets.arctanh(a - 1.0),  # |constant term| < 1
    "sin": jets.sin,
    "cos": jets.cos,
}
FACE_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
}


def _face_operands(face, batch, seed):
    """Two dense values of ``face`` with constant terms in (0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    shape = (face.size,) if batch is None else (batch, face.size)
    out = []
    for _ in range(2):
        c = rng.normal(scale=0.3, size=shape)
        c[..., 0] = rng.uniform(0.5, 1.5, size=shape[:-1])
        out.append(jets.TaylorValue(face, c))
    return out


@pytest.mark.parametrize("full", [(1, 3, 1, 5), (1, 4, 1, 2), (2, 3, 1, 3)])
@pytest.mark.parametrize("group", ["fiber", "base"])
@pytest.mark.parametrize("batch", [None, 1, 16])
def test_face_operations_match_embedded_operands_bitwise(full, group, batch):
    full = jet_space(*full)
    face = full.fiber_face if group == "fiber" else full.base_face
    a, b = _face_operands(face, batch, seed=53)
    ops = {**FACE_UNARY, **FACE_BINARY}
    mask = a.value > 1.0
    assert batch != 16 or 0 < mask.sum() < batch  # both sides taken
    ops["branch"] = lambda a, b: jets.branch(
        mask, lambda u, v: jets.sqrt(u) * v, lambda u, v: jets.arctan(u - v), a, b
    )
    for name, fn in ops.items():
        operands = (a,) if name in FACE_UNARY else (a, b)
        got = fn(*operands)
        assert got.space is face, name
        want = fn(*(v.embed(full) for v in operands))
        assert want.space is full, name
        assert got.embed(full).coeffs.tobytes() == want.coeffs.tobytes(), name


@pytest.mark.parametrize("batch", [None, 1, 16])
def test_operations_across_faces_embed_into_the_joint_space(batch):
    full = jet_space(1, 3, 1, 5)
    x, _ = _face_operands(full.base_face, batch, seed=59)
    y, _ = _face_operands(full.fiber_face, batch, seed=61)
    mixed = x * y + y
    for name, fn in FACE_BINARY.items():
        for a, b in ((x, y), (y, x), (mixed, y), (x, mixed), (y, full.constant(2.0))):
            got = fn(a, b)
            assert got.space is full, name
            want = fn(a.embed(full), b.embed(full))
            assert got.coeffs.tobytes() == want.coeffs.tobytes(), name


def test_incompatible_spaces_are_rejected():
    mixed = jet_space(1, 3, 1, 5).seed_y(0, 1.0)
    incompatible = [
        jet_space(0, 3, 0, 4).seed_y(0, 1.0),  # another y cap
        jet_space(0, 2, 0, 5).seed_y(0, 1.0),  # another n_y
        jet_space(2, 0, 1, 0).seed_x(0, 1.0),  # a base face of another n_x
        jet_space(1, 0, 2, 0).seed_x(0, 1.0),  # a base face of another x cap
    ]
    for other in incompatible:
        for op in FACE_BINARY.values():
            with pytest.raises(JetUsageError, match="incompatible jet spaces"):
                op(mixed, other)
            with pytest.raises(JetUsageError, match="incompatible jet spaces"):
                op(other, mixed)
        with pytest.raises(JetUsageError):
            other.embed(mixed.space)
    with pytest.raises(JetUsageError):
        mixed.embed(jet_space(0, 3, 0, 5))  # a face cannot hold a mixed value
    assert mixed.space.fiber_face.seed_y(0, 1.0).embed(mixed.space).space is mixed.space


def test_branch_merges_parts_from_different_spaces():
    full = jet_space(1, 2, 1, 3)
    y = full.fiber_face.seed_y(0, np.array([0.5, -2.0, 3.0]))
    x = full.base_face.seed_x(0, np.array([1.0, 2.0, 3.0]))
    out = jets.branch(y.value > 0, lambda y, x: y * 2.0, lambda y, x: y * x, y, x)
    assert out.space is full
    for s, sign in enumerate(y.value > 0):
        ys = jets.TaylorValue(y.space, y.coeffs[s])
        xs = jets.TaylorValue(x.space, x.coeffs[s])
        ref = (ys * 2.0).embed(full) if sign else ys * xs
        assert np.array_equal(out.coeffs[s], ref.coeffs)


# ---------------------------------------------------------------------------
# canonical spaces: a group with no variables or cap 0 is absent
# ---------------------------------------------------------------------------


def test_a_group_with_no_variables_or_cap_0_is_absent():
    assert jet_space(1, 3, 0, 4) is jet_space(0, 3, 0, 4)
    assert jet_space(2, 3, 1, 0) is jet_space(2, 0, 1, 0)
    assert jet_space(0, 3, 2, 4) is jet_space(0, 3, 0, 4)
    assert jet_space(3, 3, 0, 0) is jet_space(0, 0, 0, 0)
    assert jet_space(1, 3, 0, 4) is jet_space(1, 3, 0, 4) is jet_space(0, 3, 0, 4)
    with pytest.raises(JetUsageError, match="non-negative"):
        jet_space(0, 3, -1, 4)


def test_every_signature_of_a_space_returns_its_one_canonical_object():
    fiber = jet_space(0, 2, 0, 3)
    for signature in ((5, 2, 0, 3), (0, 2, 7, 3), (np.int64(0), 2, 0, np.int32(3)),
                      (0.0, 2.0, 0, 3.0), (np.intp(4), np.int64(2), 0.0, 3)):
        assert jet_space(*signature) is fiber, signature
    # a signature no other test uses: numpy and float arguments first
    full = jet_space(np.int64(3), 1, 2.0, 1)
    assert jet_space(3.0, np.int32(1), 2, 1) is full is jet_space(3, 1, 2, 1)
    for space in (fiber, full):
        assert all(type(v) is int for v in (space.n_x, space.n_y, space.x_cap, space.y_cap))
    signatures = [(o.n_x, o.n_y, o.x_cap, o.y_cap)
                  for o in gc.get_objects() if isinstance(o, jets.JetSpace)]
    assert len(signatures) == len(set(signatures))


@pytest.mark.parametrize("position, value", [
    (0, 0.9), (0, 1.5), (3, np.float64(2.5)), (1, math.nan), (2, math.inf), (3, -math.inf),
])
def test_a_non_integral_argument_is_refused_naming_it(position, value):
    # 0.9 would truncate to the fiber face, 1.5 to jet_space(1, 2, 1, 3)
    signature = [1, 2, 1, 3]
    signature[position] = value
    name = ("n_x", "n_y", "x_cap", "y_cap")[position]
    with pytest.raises(JetUsageError) as err:
        jet_space(*signature)
    assert str(err.value) == f"{name} must be an integer, got {value!r}"


def test_a_space_whose_monomial_codes_would_overflow_is_refused_naming_it():
    # A monomial's code has n_x + n_y digits in base max cap + 1; a code
    # that wrapped around would silently corrupt every table.
    bits = np.iinfo(np.intp).bits - 1
    for signature in [(0, bits, 0, 1), (1, 24, 1, 5)]:  # 2**63 and 6**25
        name = "JetSpace(n_x={}, n_y={}, x_cap={}, y_cap={})".format(*signature)
        with pytest.raises(JetUsageError, match=re.escape(f"codes of {name} overflow")):
            jet_space(*signature)
    # One variable fewer, the largest code 2**62 - 1 fits.
    sp = jet_space(0, bits - 1, 0, 1)
    for got, ref in zip(sp.mul_table, _loop_mul_table(sp)):
        assert np.array_equal(got, ref)
    for index in (0, bits // 2, bits - 2):
        target, src, mult = sp.diff_table("y", index)
        ref_src, ref_mult = _loop_diff_table(sp, target, index)
        assert np.array_equal(src, ref_src) and np.array_equal(mult, ref_mult)


@pytest.mark.parametrize("batch", [None, 4])
def test_a_derivative_that_takes_a_cap_to_0_lands_in_a_face(batch):
    rng = np.random.default_rng(67)
    for full, d, face in ((jet_space(1, 3, 1, 4), "dx", jet_space(0, 3, 0, 4)),
                          (jet_space(2, 3, 1, 1), "dy", jet_space(2, 0, 1, 0))):
        shape = (full.size,) if batch is None else (batch, full.size)
        v = jets.TaylorValue(full, rng.normal(size=shape))
        assert getattr(v, d)(0).space is face


@pytest.mark.parametrize("batch", [None, 5])
def test_truncate_to_x_cap_0_is_the_pure_y_slice(batch):
    sp = jet_space(1, 3, 1, 4)
    shape = (sp.size,) if batch is None else (batch, sp.size)
    v = jets.TaylorValue(sp, np.random.default_rng(71).normal(size=shape))
    for c in range(sp.y_cap + 1):
        face = jet_space(0, 3, 0, c)
        got = v.truncate(0, c)
        assert got.space is face
        # at c = 0 the face has no y variables: its one monomial is ()
        pos = [sp.position[(0,) * sp.n_x + (m or (0,) * sp.n_y)]
               for m in face.monomials]
        assert got.coeffs.tobytes() == v.coeffs[..., pos].tobytes()


def test_a_group_the_space_lacks_is_refused_naming_the_space():
    fiber = jet_space(1, 3, 0, 4)  # the fiber face (0, 3, 0, 4)
    base = jet_space(2, 3, 1, 0)  # the base face (2, 0, 1, 0)
    for space, use in ((fiber, lambda: fiber.seed_x(0, 1.0)),
                       (fiber, lambda: fiber.seed_y(0, 1.0).dx(0)),
                       (base, lambda: base.seed_y(0, 1.0)),
                       (base, lambda: base.seed_x(0, 1.0).dy(0))):
        with pytest.raises(JetUsageError, match=re.escape(repr(space))):
            use()


# ---------------------------------------------------------------------------
# product kernels: level by level, and in the faces
# ---------------------------------------------------------------------------


def _bincount_product(space, a, b, table, monkeypatch):
    """``jets._product`` held to its ``bincount`` path."""
    monkeypatch.setattr(jets, "MUL_CHUNK_ELEMENTS", math.inf)
    try:
        return jets._product(space, a, b, table)
    finally:
        monkeypatch.undo()


# Operand batches: (a's, b's); None is an unbatched operand.
LEVEL_BATCHES = [(None, None), (1, 1), (50, 50), (256, 256), (600, 600),
                 (None, 50), (50, None)]


@pytest.mark.parametrize("signature", CATALOG_SIGNATURES)
def test_level_products_equal_bincount_products_bitwise(signature, monkeypatch):
    sp = jet_space(*signature)
    rng = np.random.default_rng(67)
    for table in (sp.mul_table, *sp.series_table):
        if not len(table[2]):
            continue
        for batches in LEVEL_BATCHES:
            a, b = (rng.normal(size=(sp.size,) if n is None else (n, sp.size))
                    for n in batches)
            n = max(c.shape[0] if c.ndim == 2 else 1 for c in (a, b))
            for finite in (True, False):
                if not finite:  # non-finite entries sum in the same order
                    for c in (a, b):
                        c.flat[rng.integers(c.size, size=3)] = (np.inf, -np.inf, np.nan)
                want = _bincount_product(sp, a, b, table, monkeypatch)
                with np.errstate(over="ignore", invalid="ignore"):
                    got = jets._level_product(a, b, n, *table[3]).reshape(want.shape)
                case = (batches, len(table[2]), finite)
                # The same sums: a NaN where bincount has one, every other
                # bit equal.  The sign of a NaN may differ, so _product
                # returns bincount's bits for a non-finite result.
                assert np.array_equal(np.isnan(got), np.isnan(want)), case
                assert np.nan_to_num(got).tobytes() == np.nan_to_num(want).tobytes(), case


@pytest.mark.parametrize("coefficient", [np.inf, np.nan, 1e200])
def test_a_non_finite_product_has_the_bits_and_warnings_of_bincount(
        coefficient, monkeypatch):
    sp = jet_space(1, 4, 1, 5)
    a, b = np.random.default_rng(73).normal(size=(2, 50, sp.size))
    a[3, 7] = b[5, 0] = coefficient
    a[6, 2], b[6, 9] = np.inf, -np.inf  # an inf - inf sum, with its NaN
    b[3, 0] = 0.0  # inf * 0.0 is invalid; 1e200 * 1e200 overflows
    results = []
    for chunk in (math.inf, 0):  # the bincount path, then the level path
        monkeypatch.setattr(jets, "MUL_CHUNK_ELEMENTS", chunk)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = (jets.TaylorValue(sp, a) * jets.TaylorValue(sp, b)).coeffs
        results.append((out.tobytes(), [str(w.message) for w in caught]))
    assert results[0] == results[1]
    assert not np.isfinite(out).all()


@pytest.mark.parametrize("full", [(1, 3, 1, 5), (1, 4, 1, 5), (4, 4, 1, 2)])
@pytest.mark.parametrize("batches", [(None, None), (1, 1), (7, 7), (50, 50),
                                     (None, 50), (50, None)])
def test_face_products_equal_embedded_products_bitwise(full, batches, monkeypatch):
    full = jet_space(*full)
    rng = np.random.default_rng(71)

    def value(space, batch):
        c = rng.normal(size=(space.size,) if batch is None else (batch, space.size))
        c[..., 1] = -0.0  # a -0.0 coefficient
        return jets.TaylorValue(space, c)

    na, nb = batches
    x, y = value(full.base_face, na), value(full.fiber_face, nb)
    pairs = [(x, y), (value(full.fiber_face, na), value(full.base_face, nb)),
             (value(full, na), y), (value(full.fiber_face, na), value(full, nb))]
    for a, b in pairs:
        got = a * b
        assert got.space is full
        want = _bincount_product(full, a.embed(full).coeffs, b.embed(full).coeffs,
                                 None, monkeypatch)
        assert got.coeffs.tobytes() == want.tobytes(), (a.space, b.space)
