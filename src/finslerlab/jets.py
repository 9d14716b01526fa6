"""Truncated multivariate Taylor arithmetic (forward-mode, fixed order).

A :class:`TaylorValue` holds the Taylor coefficients of a scalar function
around an expansion point, for two groups of variables: a "base" group
(``x``, default total order 1) and a "fiber" group (``y``, default total
order 5).  Arithmetic and elementary functions propagate the coefficients
exactly up to the caps, so mixed partial derivatives come out to machine
precision instead of finite-difference accuracy.

Coefficient layout
------------------
Monomials are enumerated in graded lexicographic order (ascending total
degree, then ascending exponent tuple) separately for the x-group and the
y-group; the combined index is ``(x_monomial, y_monomial)`` with the
y-index varying fastest.  The layout is fixed per :class:`JetSpace`, and
spaces are cached, so coefficient positions are deterministic.

Stored coefficients are Taylor coefficients, i.e. ``coeff(kappa) =
(d^kappa f)(point) / kappa!``; :meth:`TaylorValue.extract` multiplies the
factorial back in exactly once and returns the derivative, and
:meth:`TaylorValue.fiber_tensor` does the same for every order-k fiber
derivative at once.

All values are immutable after construction and every operation is pure,
so evaluation at many sample points can run concurrently.
"""

from __future__ import annotations

import math
from itertools import product as _iproduct

import numpy as np

__all__ = [
    "JetSpace",
    "TaylorValue",
    "JetUsageError",
    "SingularPointError",
    "jet_space",
    "seed_variable",
    "sqrt",
    "exp",
    "ln",
    "arctan",
    "arctanh",
    "power",
    "sin",
    "cos",
]

#: Divisors, roots and log arguments whose constant term is closer to the
#: singular locus than this raise instead of returning noise.
SINGULAR_TOL = 1e-14


class JetUsageError(ValueError):
    """Raised on cap/dimension mismatches and out-of-range indices."""


class SingularPointError(ArithmeticError):
    """An operation hit the boundary of its real domain.

    Carries the offending constant term so callers can report which
    direction was singular.
    """

    def __init__(self, message, constant_term):
        super().__init__(f"{message} (constant term {constant_term!r})")
        self.constant_term = constant_term


def _graded_monomials(nvars, cap):
    """All exponent tuples with ``sum <= cap`` in graded-lex order."""
    if nvars == 0:
        return [()]
    monos = [t for t in _iproduct(range(cap + 1), repeat=nvars) if sum(t) <= cap]
    monos.sort(key=lambda t: (sum(t), t))
    return monos


_SPACE_CACHE: dict[tuple[int, int, int, int], "JetSpace"] = {}


def jet_space(n_x, n_y, x_cap, y_cap):
    """Return the cached :class:`JetSpace` for the given signature."""
    key = (int(n_x), int(n_y), int(x_cap), int(y_cap))
    space = _SPACE_CACHE.get(key)
    if space is None:
        space = JetSpace(*key)
        _SPACE_CACHE[key] = space
    return space


class JetSpace:
    """Monomial tables for one (n_x, n_y, x_cap, y_cap) signature.

    Do not construct directly; use :func:`jet_space` so identical
    signatures share one table set (and so space identity checks work).
    """

    def __init__(self, n_x, n_y, x_cap, y_cap):
        if min(n_x, n_y, x_cap, y_cap) < 0:
            raise JetUsageError("dimensions and caps must be non-negative")
        self.n_x = n_x
        self.n_y = n_y
        self.x_cap = x_cap
        self.y_cap = y_cap
        self.x_monomials = _graded_monomials(n_x, x_cap)
        self.y_monomials = _graded_monomials(n_y, y_cap)
        self.monomials = [
            xm + ym for xm in self.x_monomials for ym in self.y_monomials
        ]
        self.size = len(self.monomials)
        self.position = {m: i for i, m in enumerate(self.monomials)}
        self.factorial = np.array(
            [math.prod(math.factorial(e) for e in m) for m in self.monomials]
        )
        self._mul_table = None
        self._diff_tables = {}
        self._truncate_tables = {}
        self._drop_x_table = None
        self._fiber_tables = {}

    def __repr__(self):
        return (
            f"JetSpace(n_x={self.n_x}, n_y={self.n_y}, "
            f"x_cap={self.x_cap}, y_cap={self.y_cap})"
        )

    # -- lazily built index tables -------------------------------------

    @property
    def mul_table(self):
        if self._mul_table is None:
            nx = self.n_x
            I, J, K = [], [], []
            # Pair enumeration is sorted by (i, j); together with
            # bincount's in-order accumulation this makes products (and
            # hence truncation consistency) bit-reproducible.
            for i, mi in enumerate(self.monomials):
                for j, mj in enumerate(self.monomials):
                    s = tuple(a + b for a, b in zip(mi, mj))
                    if sum(s[:nx]) > self.x_cap or sum(s[nx:]) > self.y_cap:
                        continue
                    I.append(i)
                    J.append(j)
                    K.append(self.position[s])
            self._mul_table = (
                np.asarray(I, dtype=np.intp),
                np.asarray(J, dtype=np.intp),
                np.asarray(K, dtype=np.intp),
            )
        return self._mul_table

    def diff_table(self, group, index):
        """(target_space, src_positions, multipliers) for one d/dv."""
        key = (group, index)
        tab = self._diff_tables.get(key)
        if tab is None:
            if group == "x":
                if not 0 <= index < self.n_x:
                    raise JetUsageError(f"x index {index} out of range")
                if self.x_cap == 0:
                    raise JetUsageError("cannot differentiate: x_cap is 0")
                target = jet_space(self.n_x, self.n_y, self.x_cap - 1, self.y_cap)
                var = index
            else:
                if not 0 <= index < self.n_y:
                    raise JetUsageError(f"y index {index} out of range")
                if self.y_cap == 0:
                    raise JetUsageError("cannot differentiate: y_cap is 0")
                target = jet_space(self.n_x, self.n_y, self.x_cap, self.y_cap - 1)
                var = self.n_x + index
            src = np.empty(target.size, dtype=np.intp)
            mult = np.empty(target.size)
            for t, m in enumerate(target.monomials):
                bumped = list(m)
                bumped[var] += 1
                src[t] = self.position[tuple(bumped)]
                mult[t] = bumped[var]
            tab = (target, src, mult)
            self._diff_tables[key] = tab
        return tab

    def truncate_table(self, x_cap, y_cap):
        key = (x_cap, y_cap)
        tab = self._truncate_tables.get(key)
        if tab is None:
            if x_cap > self.x_cap or y_cap > self.y_cap:
                raise JetUsageError("truncation cannot increase caps")
            target = jet_space(self.n_x, self.n_y, x_cap, y_cap)
            src = np.asarray(
                [self.position[m] for m in target.monomials], dtype=np.intp
            )
            tab = (target, src)
            self._truncate_tables[key] = tab
        return tab

    @property
    def drop_x_table(self):
        """Project onto the pure-y subspace (x exponents all zero)."""
        if self._drop_x_table is None:
            target = jet_space(0, self.n_y, 0, self.y_cap)
            zeros = (0,) * self.n_x
            src = np.asarray(
                [self.position[zeros + m] for m in target.monomials],
                dtype=np.intp,
            )
            self._drop_x_table = (target, src)
        return self._drop_x_table

    def _fiber_table(self, k):
        """(positions, factorials), each of shape (n_y,)*k: entry ``axes``
        is the pure-y monomial that counts how often each y index occurs."""
        tab = self._fiber_tables.get(k)
        if tab is None:
            if not 0 <= k <= self.y_cap:
                raise JetUsageError(f"fiber order {k} exceeds y_cap of {self}")
            pos = np.empty((self.n_y,) * k, dtype=np.intp)
            for axes in np.ndindex(pos.shape):
                exps = tuple(map(axes.count, range(self.n_y)))
                pos[axes] = self.position[(0,) * self.n_x + exps]
            tab = (pos, self.factorial[pos])
            self._fiber_tables[k] = tab
        return tab

    # -- constructors ----------------------------------------------------

    def constant(self, value):
        c = np.zeros(self.size)
        c[0] = float(value)
        return TaylorValue(self, c)

    def seed_x(self, index, value):
        return seed_variable(self, "x", index, value)

    def seed_y(self, index, value):
        return seed_variable(self, "y", index, value)


def seed_variable(space, group, index, value):
    """Taylor expansion of one coordinate function: value + h, rest 0."""
    if group not in ("x", "y"):
        raise JetUsageError(f"group must be 'x' or 'y', got {group!r}")
    n = space.n_x if group == "x" else space.n_y
    cap = space.x_cap if group == "x" else space.y_cap
    if not 0 <= index < n:
        raise JetUsageError(f"{group} index {index} out of range for n={n}")
    if cap < 1:
        raise JetUsageError(f"cannot seed {group} variable: {group}_cap is 0")
    c = np.zeros(space.size)
    c[0] = float(value)
    exps = [0] * (space.n_x + space.n_y)
    exps[index if group == "x" else space.n_x + index] = 1
    c[space.position[tuple(exps)]] = 1.0
    return TaylorValue(space, c)


def fiber_arguments(n, y, order):
    """Pure-fiber jet space of the given order with y seeded into it.

    At order 0 the coordinates enter as constants (there is no linear
    slot to seed).
    """
    space = jet_space(0, n, 0, order)
    if order >= 1:
        ys = [space.seed_y(i, y[i]) for i in range(n)]
    else:
        ys = [space.constant(y[i]) for i in range(n)]
    return space, ys


def _check_same_space(a, b):
    if a.space is not b.space:
        raise JetUsageError(
            f"operands live in different jet spaces: {a.space} vs {b.space}"
        )


class TaylorValue:
    """One truncated Taylor expansion; immutable value object."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.size,):
            raise JetUsageError(
                f"coefficient vector has length {coeffs.shape}, "
                f"space needs {space.size}"
            )
        coeffs.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TaylorValue is immutable")

    @property
    def value(self):
        """Function value at the expansion point (the constant term)."""
        return float(self.coeffs[0])

    def extract(self, idx):
        """Mixed partial derivative for the multi-index ``idx``.

        ``idx`` lists exponents for all n_x + n_y variables, x-group
        first.  The stored Taylor coefficient is multiplied by the
        multi-index factorial exactly once.
        """
        idx = tuple(int(e) for e in idx)
        pos = self.space.position.get(idx)
        if pos is None:
            raise JetUsageError(f"multi-index {idx} exceeds caps of {self.space}")
        return float(self.coeffs[pos] * self.space.factorial[pos])

    def extract_y(self, y_idx):
        """Derivative w.r.t. y variables only (x exponents zero)."""
        return self.extract((0,) * self.space.n_x + tuple(y_idx))

    def fiber_tensor(self, k):
        """All order-k pure-y derivatives as a symmetric (n_y,)*k array.

        Entry ``[a, b, ...]`` is the derivative by y^a, y^b, ...; it equals
        :meth:`extract_y` of the matching multi-index, bit for bit.
        """
        pos, fact = self.space._fiber_table(k)
        return self.coeffs[pos] * fact

    def __repr__(self):
        return f"TaylorValue({self.space}, value={self.value:.6g})"

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TaylorValue):
            _check_same_space(self, other)
            return TaylorValue(self.space, self.coeffs + other.coeffs)
        c = self.coeffs.copy()
        c[0] += float(other)
        return TaylorValue(self.space, c)

    __radd__ = __add__

    def __neg__(self):
        return TaylorValue(self.space, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, TaylorValue):
            _check_same_space(self, other)
            return TaylorValue(self.space, self.coeffs - other.coeffs)
        c = self.coeffs.copy()
        c[0] -= float(other)
        return TaylorValue(self.space, c)

    def __rsub__(self, other):
        c = -self.coeffs
        c[0] += float(other)
        return TaylorValue(self.space, c)

    def __mul__(self, other):
        if isinstance(other, TaylorValue):
            _check_same_space(self, other)
            I, J, K = self.space.mul_table
            w = self.coeffs[I] * other.coeffs[J]
            return TaylorValue(
                self.space, np.bincount(K, weights=w, minlength=self.space.size)
            )
        return TaylorValue(self.space, self.coeffs * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TaylorValue):
            _check_same_space(self, other)
            return self * other.reciprocal()
        return TaylorValue(self.space, self.coeffs / float(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def reciprocal(self):
        b0 = self.value
        if abs(b0) <= SINGULAR_TOL:
            raise SingularPointError("division by (near-)zero constant term", b0)
        m = self.space.x_cap + self.space.y_cap
        u = np.empty(m + 1)
        u[0] = 1.0 / b0
        for k in range(1, m + 1):
            u[k] = -u[k - 1] / b0
        return _compose_series(u, self._nilpotent())

    # -- helpers ----------------------------------------------------------

    def _nilpotent(self):
        """This value minus its constant term."""
        c = self.coeffs.copy()
        c[0] = 0.0
        return TaylorValue(self.space, c)

    def truncate(self, x_cap, y_cap):
        """Retain only coefficients within smaller caps."""
        target, src = self.space.truncate_table(x_cap, y_cap)
        return TaylorValue(target, self.coeffs[src])

    def drop_x(self):
        """Forget x variables (keep the pure-y coefficient slice)."""
        target, src = self.space.drop_x_table
        return TaylorValue(target, self.coeffs[src])

    def dx(self, index):
        """Partial derivative w.r.t. x[index]; x_cap drops by one."""
        target, src, mult = self.space.diff_table("x", index)
        return TaylorValue(target, self.coeffs[src] * mult)

    def dy(self, index):
        """Partial derivative w.r.t. y[index]; y_cap drops by one."""
        target, src, mult = self.space.diff_table("y", index)
        return TaylorValue(target, self.coeffs[src] * mult)


def compose_series(u, h):
    """Evaluate sum u[m] * h^m by Horner; h must have zero constant term.

    Used both internally (elementary functions) and by callers that
    re-expand a univariate function of an intermediate variable into a
    multivariate jet of that variable.
    """
    space = h.space
    acc = space.constant(u[-1])
    for m in range(len(u) - 2, -1, -1):
        acc = acc * h + u[m]
    return acc


_compose_series = compose_series


def _series_order(space):
    # h^m vanishes identically beyond total degree x_cap + y_cap.
    return space.x_cap + space.y_cap


def _univariate_reciprocal(b):
    """Coefficients of 1/p(t) given coefficients of p(t), p(0) != 0."""
    m = len(b) - 1
    c = np.empty(m + 1)
    c[0] = 1.0 / b[0]
    for k in range(1, m + 1):
        c[k] = -np.dot(b[1 : k + 1], c[k - 1 :: -1]) / b[0]
    return c


def sqrt(a):
    if a.value <= SINGULAR_TOL:
        raise SingularPointError("sqrt of non-positive constant term", a.value)
    return power(a, 0.5)


def exp(a):
    m = _series_order(a.space)
    e0 = math.exp(a.value)
    u = np.array([e0 / math.factorial(k) for k in range(m + 1)])
    return _compose_series(u, a._nilpotent())


def ln(a):
    a0 = a.value
    if a0 <= SINGULAR_TOL:
        raise SingularPointError("ln of non-positive constant term", a0)
    m = _series_order(a.space)
    u = np.empty(m + 1)
    u[0] = math.log(a0)
    for k in range(1, m + 1):
        u[k] = (-1.0) ** (k + 1) / (k * a0**k)
    return _compose_series(u, a._nilpotent())


def power(a, r):
    """a**r for real r; integer exponents work for any constant term."""
    if isinstance(r, TaylorValue):
        if np.any(r.coeffs[1:] != 0.0):
            # Genuinely varying exponent: a^r = exp(r ln a).
            return exp(r * ln(a))
        r = r.value
    r = float(r)
    a0 = a.value
    if r == round(r) and (a0 <= SINGULAR_TOL or abs(r) <= 6):
        n = int(round(r))
        if n < 0:
            return _int_power(a, -n).reciprocal()
        return _int_power(a, n)
    if a0 <= SINGULAR_TOL:
        raise SingularPointError(
            f"power {r} needs a positive constant term", a0
        )
    m = _series_order(a.space)
    u = np.empty(m + 1)
    u[0] = a0**r
    for k in range(1, m + 1):
        u[k] = u[k - 1] * (r - k + 1) / (k * a0)
    return _compose_series(u, a._nilpotent())


def _int_power(a, n):
    if n == 0:
        return a.space.constant(1.0)
    acc = None
    base = a
    while n:
        if n & 1:
            acc = base if acc is None else acc * base
        n >>= 1
        if n:
            base = base * base
    return acc


def arctan(a):
    a0 = a.value
    m = _series_order(a.space)
    g = np.zeros(m + 1)
    g[0] = 1.0 + a0 * a0
    if m >= 1:
        g[1] = 2.0 * a0
    if m >= 2:
        g[2] = 1.0
    g = _univariate_reciprocal(g)  # series of 1/(1+t^2) at a0
    u = np.empty(m + 1)
    u[0] = math.atan(a0)
    for k in range(1, m + 1):
        u[k] = g[k - 1] / k
    return _compose_series(u, a._nilpotent())


def arctanh(a):
    """Real arctanh; for |constant term| > 1 uses the branch
    (1/2) ln((z+1)/(z-1)), which shares the derivative 1/(1-z^2)."""
    a0 = a.value
    if abs(abs(a0) - 1.0) <= SINGULAR_TOL:
        raise SingularPointError("arctanh at |constant term| = 1", a0)
    m = _series_order(a.space)
    g = np.zeros(m + 1)
    g[0] = 1.0 - a0 * a0
    if m >= 1:
        g[1] = -2.0 * a0
    if m >= 2:
        g[2] = -1.0
    g = _univariate_reciprocal(g)  # series of 1/(1-t^2) at a0
    u = np.empty(m + 1)
    if abs(a0) < 1.0:
        u[0] = math.atanh(a0)
    else:
        u[0] = 0.5 * math.log((a0 + 1.0) / (a0 - 1.0))
    for k in range(1, m + 1):
        u[k] = g[k - 1] / k
    return _compose_series(u, a._nilpotent())


def sin(a):
    m = _series_order(a.space)
    s0, c0 = math.sin(a.value), math.cos(a.value)
    cycle = (s0, c0, -s0, -c0)
    u = np.array([cycle[k % 4] / math.factorial(k) for k in range(m + 1)])
    return _compose_series(u, a._nilpotent())


def cos(a):
    m = _series_order(a.space)
    s0, c0 = math.sin(a.value), math.cos(a.value)
    cycle = (c0, -s0, -c0, s0)
    u = np.array([cycle[k % 4] / math.factorial(k) for k in range(m + 1)])
    return _compose_series(u, a._nilpotent())
