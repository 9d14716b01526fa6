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

Sample axis
-----------
Coefficients have shape ``(size,)`` for one expansion point, or
``(N, size)`` for a batch: the same program expanded at N points, one row
per sample.  Every operation acts on each row exactly as it acts on an
unbatched value, with the same floating-point operations in the same
order, so row k of a batched result is bit-identical to the unbatched
result at point k.  That is the batch contract: it lets callers evaluate
all samples of a plan in one pass and still get per-sample results.  One
code path serves a single point, a batch of one and N samples: the
kernels run an unbatched value as one sample.

* An unbatched operand (a constant, say) broadcasts against a batch, and
  scalar operands may be per-sample arrays of shape ``(N,)``.  Two batched
  operands must have the same number of samples; a batch of one does not
  broadcast against a larger one (:class:`JetUsageError`).
* Every elementary function follows one recipe: its scalar values (the
  ``math`` transcendentals and ``**``) run per sample in Python floats
  through :func:`scalar_map`, since numpy's SIMD transcendentals and
  array ``**`` may round differently; the recurrence of its series
  coefficients (``+ - * /``) runs on whole arrays, and
  :func:`compose_series` composes the series with the nilpotent part.
* Domain checks run over the whole batch and raise for the first sample
  that fails, with that sample's constant term.
* Where the computation branches on a sample's value, :func:`branch`
  splits the batch by index, so no sample evaluates the branch it would
  not take.

A product gathers its pair products one chunk of samples at a
time, at most :data:`MUL_CHUNK_ELEMENTS` pair products per chunk (see
there for why), and accumulates them with one ``bincount`` over keys
offset by ``sample * size``.  Pairs stay in sample-major, (i, j)-sorted
order, so each coefficient accumulates exactly the per-sample sequence.

Series composition
------------------
:func:`compose_series` evaluates ``sum u[k] * h^k`` by Horner for a
nilpotent h (zero constant term).  A step that leaves k more steps to go
feeds coefficients of total degree d only into degrees >= d + k, and
every degree above ``x_cap + y_cap`` lies outside the caps; so the step
keeps only the product pairs whose output has total degree <=
``x_cap + y_cap - k``, and of those only the pairs with h index j != 0,
since h's constant term is 0.  The kept pairs come from
:attr:`JetSpace.series_table`, a stable sort of ``mul_table`` by output
degree, so each kept coefficient still sums the same pairs in the same
order, and each dropped pair either feeds a coefficient that a later
truncation discards or adds a zero product, which leaves a ``bincount``
sum unchanged.  With finite coefficients the result is bit-identical to
a Horner loop of full products.

Faces
-----
A space (n_x, n_y, x_cap, y_cap) has two faces: its base face (n_x, 0,
x_cap, 0) and its fiber face (0, n_y, 0, y_cap).  A group is absent from
a space iff it has no variables or cap 0, and :func:`jet_space` stores
it as (0, 0): (k, n, 0, c) *is* the fiber face (0, n, 0, c), so a
derivative or truncation that takes a cap to 0 lands in a face.  A value
that depends on one group only lives in that group's face, so an x-free
program runs on the pure-y monomials alone: in (1, 4, 1, 5) a product of
two x-free values multiplies 1287 pairs in the fiber face instead of
3861.  ``+ - * /`` between values of two spaces run in their
:func:`joint_space`, the smallest space holding the groups of both, and
first lay each operand out there (:meth:`JetSpace.embed_table`, one
cached position table per pair of spaces, which truncation reads the
other way), giving the monomials of the other group exact zero
coefficients; :func:`branch` merges its parts the same way.  Spaces that
both have a group but disagree on its size or cap raise
:class:`JetUsageError`.

A face computes what the joint space would compute on the embedded
operands.  Within the face's monomials a face product sums the same
pairs in the same (i, j) order; every pair it leaves out either has a
zero factor or feeds a monomial outside the face, which on embedded
operands only ever receives zero products.  A series needs fewer terms
in a face (its order is ``x_cap + y_cap``), but ``u[k]`` does not depend
on the order, and the extra Horner steps of the joint space only feed
degrees beyond the face's caps (see "Series composition").  With finite
coefficients, the embedded face result is bit-identical to the result on
embedded operands, up to the sign of a zero coefficient.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import functools
import math
from itertools import product as _iproduct

import numpy as np

__all__ = [
    "JetSpace",
    "TaylorValue",
    "JetUsageError",
    "SingularPointError",
    "jet_space",
    "joint_space",
    "scalar_map",
    "raise_if_singular",
    "branch",
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

#: Pair products gathered at once by one chunk of a batched product: 64 KB
#: of float64, half of glibc's default 128 KB mmap threshold.  Past that
#: threshold every gather and ``bincount`` temporary is a fresh mapping
#: and the batched product loses its lead over a per-sample loop.
#: Measured for 50 samples against that loop: 6.6x at (0,3,0,3) and 4.3x
#: at (3,3,1,2); 2.9x at (4,4,1,2), but 1.0x unchunked; 1.6x at (3,3,1,5)
#: and 1.2x at (4,4,1,5), but 0.5x unchunked.  Order-5 products therefore
#: run in chunks of one to two samples, which also bounds their memory.
MUL_CHUNK_ELEMENTS = 1 << 13


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
    monos = [t for t in _iproduct(range(cap + 1), repeat=nvars) if sum(t) <= cap]
    monos.sort(key=lambda t: (sum(t), t))
    return monos


class _MonomialIndex:
    """Exponent rows of one variable group and their inverse: a dense
    lookup from the base-(cap+1) code of an exponent row to its index."""

    def __init__(self, monomials, nvars, cap):
        self.cap = cap
        self.exps = np.array(monomials, dtype=np.intp).reshape(len(monomials), nvars)
        self.weights = (cap + 1) ** np.arange(nvars, dtype=np.intp)
        self.lookup = np.full((cap + 1) ** nvars, -1, dtype=np.intp)
        self.lookup[self.exps @ self.weights] = np.arange(len(monomials))

    def find(self, exps):
        """Indices of exponent rows that lie within the cap."""
        return self.lookup[exps @ self.weights]

    def pair_sums(self):
        """(count, count) index of exps[i] + exps[j], -1 beyond the cap."""
        sums = self.exps[:, None, :] + self.exps[None, :, :]
        ok = sums.sum(axis=-1) <= self.cap
        return np.where(ok, self.find(np.where(ok[..., None], sums, 0)), -1)


@functools.cache
def jet_space(n_x, n_y, x_cap, y_cap):
    """Return the cached :class:`JetSpace` for the given signature, with
    a group that has no variables or cap 0 stored as (0, 0) (see "Faces").
    One space exists per canonical signature: any other signature returns
    ``jet_space`` of its canonical one, so a repeated call is one lookup."""
    given = (n_x, n_y, x_cap, y_cap)
    n_x, n_y, x_cap, y_cap = map(int, given)
    if min(n_x, n_y, x_cap, y_cap) < 0:
        raise JetUsageError("dimensions and caps must be non-negative")
    if not (n_x and x_cap):
        n_x = x_cap = 0
    if not (n_y and y_cap):
        n_y = y_cap = 0
    canonical = (n_x, n_y, x_cap, y_cap)
    return JetSpace(*canonical) if given == canonical else jet_space(*canonical)


class JetSpace:
    """Monomial tables for one (n_x, n_y, x_cap, y_cap) signature.

    Do not construct directly; use :func:`jet_space` so identical
    signatures share one table set (and so space identity checks work).
    """

    def __init__(self, n_x, n_y, x_cap, y_cap):
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
        self._x_index = _MonomialIndex(self.x_monomials, n_x, x_cap)
        self._y_index = _MonomialIndex(self.y_monomials, n_y, y_cap)
        n_ym = len(self.y_monomials)
        #: (size, n_x + n_y) exponent rows in layout order.
        self.exponents = np.hstack([
            np.repeat(self._x_index.exps, n_ym, axis=0),
            np.tile(self._y_index.exps, (len(self.x_monomials), 1)),
        ])
        facts = np.array([math.factorial(e) for e in range(max(x_cap, y_cap) + 1)])
        self.factorial = np.prod(facts[self.exponents], axis=1)
        self._mul_table = None
        self._diff_tables = {}
        self._fiber_tables = {}
        self._embed_tables = {}

    def __repr__(self):
        return (
            f"JetSpace(n_x={self.n_x}, n_y={self.n_y}, "
            f"x_cap={self.x_cap}, y_cap={self.y_cap})"
        )

    def _positions(self, exps):
        """Layout positions of (k, n_x + n_y) exponent rows within the caps."""
        exps = np.asarray(exps, dtype=np.intp)
        xi = self._x_index.find(exps[:, : self.n_x])
        yi = self._y_index.find(exps[:, self.n_x:])
        return xi * len(self.y_monomials) + yi

    def _variable(self, group, index):
        """Variable ``index`` of ``group`` ("x" or "y") as an index into
        all n_x + n_y variables, x first."""
        x = group == "x"
        if not 0 <= index < (self.n_x if x else self.n_y):
            raise JetUsageError(f"{group} index {index} out of range for {self}")
        return index if x else self.n_x + index

    def _exponents_in(self, space):
        """This space's monomials as exponent rows in the variables of
        ``space``, which has each group of this one: zeros for the rest."""
        exps = np.zeros((self.size, space.n_x + space.n_y), dtype=np.intp)
        exps[:, : self.n_x] = self.exponents[:, : self.n_x]
        exps[:, space.n_x: space.n_x + self.n_y] = self.exponents[:, self.n_x:]
        return exps

    # -- lazily built index tables, kept in the space's attributes --------
    # perfbench's untraced warm-up check counts the tuples it finds there.

    # A property, not a cached_property: perfbench's tracer wraps its getter.
    @property
    def mul_table(self):
        if self._mul_table is None:
            n_ym = len(self.y_monomials)
            xs = self._x_index.pair_sums()
            ys = self._y_index.pair_sums()
            valid = (xs[:, None, :, None] >= 0) & (ys[None, :, None, :] >= 0)
            # np.nonzero walks the (i, j) grid row-major, so pairs are
            # sorted by (i, j); together with bincount's in-order
            # accumulation this makes products (and hence truncation
            # consistency) bit-reproducible.
            I, J = np.nonzero(valid.reshape(self.size, self.size))
            (xi, yi), (xj, yj) = divmod(I, n_ym), divmod(J, n_ym)
            K = xs[xi, xj] * n_ym + ys[yi, yj]
            self._mul_table = (I, J, K)
        return self._mul_table

    @functools.cached_property
    def series_table(self):
        """(I, J, K, ends): the ``mul_table`` pairs with j != 0, stably
        sorted by the total degree of their output monomial K; the pairs
        whose output has degree <= d are the first ``ends[d]``."""
        I, J, K = self.mul_table
        keep = J != 0
        degree = self.exponents.sum(axis=1)[K[keep]]
        order = np.argsort(degree, kind="stable")
        ends = np.searchsorted(degree[order], np.arange(_series_order(self) + 1),
                               side="right")
        return I[keep][order], J[keep][order], K[keep][order], ends

    # Diff, fiber and embed tables: dicts on the space, which the check counts.
    def diff_table(self, group, index):
        """(target_space, src_positions, multipliers) for one d/dv; the
        target lacks the group when its cap drops to 0."""
        key = (group, index)
        tab = self._diff_tables.get(key)
        if tab is None:
            var = self._variable(group, index)
            x = group == "x"
            target = jet_space(self.n_x, self.n_y, self.x_cap - x, self.y_cap - (not x))
            bumped = target._exponents_in(self)
            bumped[:, var] += 1
            tab = (target, self._positions(bumped), bumped[:, var].astype(float))
            self._diff_tables[key] = tab
        return tab

    def _fiber_table(self, k):
        """(positions, factorials), each of shape (n_y,)*k: entry ``axes``
        is the pure-y monomial that counts how often each y index occurs."""
        tab = self._fiber_tables.get(k)
        if tab is None:
            if not 0 <= k <= self.y_cap:
                raise JetUsageError(f"fiber order {k} exceeds y_cap of {self}")
            shape = (self.n_y,) * k
            axes = np.indices(shape).reshape(k, self.n_y**k).T
            exps = np.zeros((len(axes), self.n_x + self.n_y), dtype=np.intp)
            exps[:, self.n_x:] = (axes[:, :, None] == np.arange(self.n_y)).sum(axis=1)
            pos = self._positions(exps).reshape(shape)
            tab = (pos, self.factorial[pos])
            self._fiber_tables[k] = tab
        return tab

    @functools.cached_property
    def base_face(self):
        """The space of this space's x group alone: (n_x, 0, x_cap, 0)."""
        return jet_space(self.n_x, 0, self.x_cap, 0)

    @functools.cached_property
    def fiber_face(self):
        """The space of this space's y group alone: (0, n_y, 0, y_cap)."""
        return jet_space(0, self.n_y, 0, self.y_cap)

    def embed_table(self, target):
        """(target, positions): where each monomial of this space sits in
        ``target``, a space holding every variable group of this one."""
        tab = self._embed_tables.get(target)
        if tab is None:
            tab = (target, target._positions(self._exponents_in(target)))
            self._embed_tables[target] = tab
        return tab

    # -- constructors ----------------------------------------------------

    def constant(self, value):
        """The constant ``value``: a float, or one per sample, shape (N,)."""
        return TaylorValue(self, _with_constant_term(self.size, value))

    def seed_x(self, index, value):
        """The coordinate x[index] expanded at ``value`` (a float, or one
        per sample, shape (N,)): ``value + h``, every other coefficient 0."""
        return self._seed(self._variable("x", index), value)

    def seed_y(self, index, value):
        """The coordinate y[index] expanded at ``value``; see :meth:`seed_x`."""
        return self._seed(self._variable("y", index), value)

    def _seed(self, var, value):
        exps = [0] * (self.n_x + self.n_y)
        exps[var] = 1
        c = _with_constant_term(self.size, value)
        c[..., self.position[tuple(exps)]] = 1.0
        return TaylorValue(self, c)


def _with_constant_term(size, value):
    """Zero coefficients of shape (size,), or (N, size) for a value per
    sample, with ``value`` as the constant term."""
    value = np.asarray(value, dtype=float)
    c = np.zeros(value.shape + (size,))
    c[..., 0] = value
    return c


def joint_space(*spaces):
    """The smallest space holding every variable group of ``spaces``.

    A space lacks a group whose size and cap are 0 (see :func:`jet_space`);
    spaces that both have a group must agree on its size and cap, else
    :class:`JetUsageError`.
    """
    head = spaces[0]
    if all(s is head for s in spaces):
        return head
    groups = []
    for present in ({(s.n_x, s.x_cap) for s in spaces},
                    {(s.n_y, s.y_cap) for s in spaces}):
        present.discard((0, 0))
        if len(present) > 1:
            raise JetUsageError(
                f"operands live in incompatible jet spaces: "
                f"{', '.join(map(str, spaces))}"
            )
        groups.append(present.pop() if present else (0, 0))
    (n_x, x_cap), (n_y, y_cap) = groups
    return jet_space(n_x, n_y, x_cap, y_cap)


def _embedded(value, space):
    """``value``'s coefficients laid out in ``space``, a joint space of
    ``value.space``: the other group's monomials get exact zeros."""
    if value.space is space:
        return value.coeffs
    _, pos = value.space.embed_table(space)
    c = np.zeros(value.coeffs.shape[:-1] + (space.size,))
    c[..., pos] = value.coeffs
    return c


def _operand_space(a, b):
    """The joint space of two operands whose batches match."""
    if a.batch is not None and b.batch is not None and a.batch != b.batch:
        raise JetUsageError(
            f"operands have batches of {a.batch} and {b.batch} samples"
        )
    return a.space if a.space is b.space else joint_space(a.space, b.space)


def _scalar(other):
    """A float operand, or a per-sample one of shape (N, 1) that
    broadcasts against (N, size) coefficients."""
    if isinstance(other, np.ndarray) and other.ndim == 1:
        return other.astype(float, copy=False)[:, None]
    return float(other)


def _shift(coeffs, other):
    """``coeffs`` with ``other`` (a float or one per sample) added to the
    constant term; unbatched ``coeffs`` broadcast against one per sample."""
    other = np.asarray(other, dtype=float)
    if coeffs.ndim <= other.ndim:
        coeffs = np.broadcast_to(coeffs, other.shape + coeffs.shape)
    c = coeffs.copy()
    c[..., 0] += other
    return c


def scalar_map(fn, values):
    """``fn`` applied to a float, or to each sample of a (N,) array, in
    Python floats: numpy's SIMD ``**`` and transcendentals may round
    differently from the scalar code a single point runs.  The one
    per-sample step of every elementary function: its ``math`` values
    and powers go through here, its recurrence runs on whole arrays."""
    if np.ndim(values) == 0:
        return fn(float(values))
    return np.array([fn(v) for v in np.asarray(values, dtype=float).tolist()])


def raise_if_singular(bad, message, constant_term):
    """Raise :class:`SingularPointError` for the first sample where ``bad``
    holds, naming that sample's constant term."""
    bad = np.asarray(bad)
    if bad.any():
        raise SingularPointError(message, float(np.ravel(constant_term)[bad.argmax()]))


def _take(value, index):
    if isinstance(value, TaylorValue) and value.coeffs.ndim == 2:
        return TaylorValue(value.space, value.coeffs[index])
    return value


def branch(mask, if_true, if_false, *values):
    """``if_true(*values)`` where ``mask`` holds, ``if_false(*values)``
    elsewhere, per sample.

    ``mask`` is a bool, or one per sample.  A mixed batch is split by
    index, each part evaluates only its own branch, and the results are
    merged back in sample order.
    """
    mask = np.asarray(mask)
    if mask.all():
        return if_true(*values)
    if not mask.any():
        return if_false(*values)
    parts = []
    for fn, index in ((if_true, np.flatnonzero(mask)),
                      (if_false, np.flatnonzero(~mask))):
        parts.append((index, fn(*(_take(v, index) for v in values))))
    space = joint_space(*(part.space for _, part in parts))
    out = np.empty((len(mask), space.size))
    for index, part in parts:
        out[index] = _embedded(part, space)
    return TaylorValue(space, out)


def _each_sample(fn, *values):
    """``fn`` on each sample separately, results stacked; for the rare
    programs whose shape depends on a sample's value."""
    n = max(v.batch or 0 for v in values)
    parts = [fn(*(_take(v, k) for v in values)) for k in range(n)]
    space = joint_space(*(p.space for p in parts))
    return TaylorValue(space, np.stack([_embedded(p, space) for p in parts]))


def _product(space, a, b, table=None):
    """Coefficients of the truncated product of coefficient arrays a, b,
    summed over the (I, J, K) pairs of ``table`` (default: ``mul_table``)."""
    I, J, K = space.mul_table if table is None else table
    shape = (a if a.ndim >= b.ndim else b).shape
    if not len(K):  # bincount of no weights would return integer zeros
        return np.zeros(shape)
    n = shape[0] if len(shape) == 2 else 1  # one point runs as one sample
    step = max(1, MUL_CHUNK_ELEMENTS // len(K))
    if n > step:
        return np.concatenate([
            _product(space, _rows(a, lo, step), _rows(b, lo, step), (I, J, K))
            for lo in range(0, n, step)
        ])
    w = a.take(I, axis=-1) * b.take(J, axis=-1)
    # Sample-major keys: row s accumulates into bins [s * size, (s + 1) *
    # size), in the same (i, j) order as one point.
    keys = (np.arange(0, n * space.size, space.size)[:, None] + K).ravel()
    return np.bincount(keys, weights=w.ravel(), minlength=n * space.size).reshape(shape)


def _rows(coeffs, lo, count):
    """Samples lo .. lo+count of a batch; an unbatched operand broadcasts."""
    return coeffs[lo:lo + count] if coeffs.ndim == 2 else coeffs


class TaylorValue:
    """One truncated Taylor expansion, or a batch of them; immutable."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != space.size:
            raise JetUsageError(
                f"coefficient array has shape {coeffs.shape}, "
                f"space needs ({space.size},) or (N, {space.size})"
            )
        coeffs.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TaylorValue is immutable")

    @property
    def batch(self):
        """Number of samples, or None for an unbatched value."""
        return len(self.coeffs) if self.coeffs.ndim == 2 else None

    @property
    def value(self):
        """Function value at the expansion point (the constant term); one
        per sample, shape (N,), for a batch."""
        c = self.coeffs
        return float(c[0]) if c.ndim == 1 else c[:, 0]

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
        d = self.coeffs[..., pos] * self.space.factorial[pos]
        return float(d) if self.coeffs.ndim == 1 else d

    def fiber_tensor(self, k):
        """All order-k pure-y derivatives as a symmetric (n_y,)*k array,
        behind the sample axis for a batch.

        Entry ``[a, b, ...]`` is the derivative by y^a, y^b, ...; it equals
        :meth:`extract` of the matching pure-y multi-index, bit for bit.
        """
        pos, fact = self.space._fiber_table(k)
        return self.coeffs.take(pos, axis=-1) * fact

    def __repr__(self):
        if self.coeffs.ndim == 2:
            return f"TaylorValue({self.space}, batch={len(self.coeffs)})"
        return f"TaylorValue({self.space}, value={self.value:.6g})"

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TaylorValue):
            space = _operand_space(self, other)
            return TaylorValue(space, _embedded(self, space) + _embedded(other, space))
        return TaylorValue(self.space, _shift(self.coeffs, other))

    __radd__ = __add__

    def __neg__(self):
        return TaylorValue(self.space, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, TaylorValue):
            space = _operand_space(self, other)
            return TaylorValue(space, _embedded(self, space) - _embedded(other, space))
        return TaylorValue(self.space, _shift(self.coeffs, -np.asarray(other, float)))

    def __rsub__(self, other):
        return TaylorValue(self.space, _shift(-self.coeffs, other))

    def __mul__(self, other):
        if isinstance(other, TaylorValue):
            space = _operand_space(self, other)
            return TaylorValue(
                space, _product(space, _embedded(self, space), _embedded(other, space))
            )
        return TaylorValue(self.space, self.coeffs * _scalar(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TaylorValue):
            _operand_space(self, other)
            return self * other.reciprocal()
        return TaylorValue(self.space, self.coeffs / _scalar(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        return power(self, exponent)

    def reciprocal(self):
        c0 = self.value
        raise_if_singular(
            abs(c0) <= SINGULAR_TOL, "division by (near-)zero constant term", c0
        )
        u = [1.0 / c0]
        for _ in range(_series_order(self.space)):
            u.append(-u[-1] / c0)
        return compose_series(u, self._nilpotent())

    # -- helpers ----------------------------------------------------------

    def _nilpotent(self):
        """This value minus its constant term."""
        c = self.coeffs.copy()
        c[..., 0] = 0.0
        return TaylorValue(self.space, c)

    def embed(self, space):
        """This value in ``space``, which must hold each of its variable
        groups with the same size and cap; the coefficients of monomials
        that involve a group this value lacks are exact zeros."""
        if joint_space(self.space, space) is not space:
            raise JetUsageError(f"{self.space} does not embed in {space}")
        return TaylorValue(space, _embedded(self, space))

    def truncate(self, x_cap, y_cap):
        """Retain only coefficients within smaller caps; a group cut to
        cap 0 is gone, so ``truncate(0, c)`` lands in the fiber face."""
        sp = self.space
        if x_cap > sp.x_cap or y_cap > sp.y_cap:
            raise JetUsageError("truncation cannot increase caps")
        target = jet_space(sp.n_x, sp.n_y, x_cap, y_cap)
        _, src = target.embed_table(sp)
        return TaylorValue(target, self.coeffs.take(src, axis=-1))

    def dx(self, index):
        """Partial derivative w.r.t. x[index]; x_cap drops by one, so at
        x_cap 1 the result lies in the fiber face."""
        target, src, mult = self.space.diff_table("x", index)
        return TaylorValue(target, self.coeffs.take(src, axis=-1) * mult)

    def dy(self, index):
        """Partial derivative w.r.t. y[index]; y_cap drops by one."""
        target, src, mult = self.space.diff_table("y", index)
        return TaylorValue(target, self.coeffs.take(src, axis=-1) * mult)


def compose_series(u, h):
    """Evaluate sum u[m] * h^m by Horner; h must have zero constant term.

    ``u`` is an array of shape (m+1,), or (N, m+1) for one series per
    sample, or a list of the m+1 terms, each a float or one per sample.
    Used both internally (elementary functions) and by callers that
    re-expand a univariate function of an intermediate variable into a
    multivariate jet of that variable.  The zero constant term is
    enforced: :class:`JetUsageError` names the first sample of h that has
    another one.  Each step multiplies only the pairs it needs (see
    "Series composition" in the module docstring).  The series runs in
    h's own space, a face for an x-only or y-only h, and so has order
    ``x_cap + y_cap`` of that space (see "Faces").
    """
    c0 = np.atleast_1d(h.coeffs[..., 0])
    bad = np.flatnonzero(c0 != 0.0)
    if len(bad):
        raise JetUsageError(
            f"compose_series needs h with zero constant term; "
            f"sample {bad[0]} has {float(c0[bad[0]])!r}"
        )
    if isinstance(u, np.ndarray):
        u = list(u.T) if u.ndim == 2 else u.tolist()
    space = h.space
    I, J, K, ends = space.series_table
    top = _series_order(space)
    acc = np.zeros(h.coeffs.shape)
    acc[..., 0] = u[-1]
    for k in range(len(u) - 2, -1, -1):
        # k steps follow this one; each raises the degree by at least 1.
        n = ends[max(top - k, 0)]
        acc = _shift(_product(space, acc, h.coeffs, (I[:n], J[:n], K[:n])), u[k])
    return TaylorValue(space, acc)


def _series_order(space):
    # h^m vanishes identically beyond total degree x_cap + y_cap.
    return space.x_cap + space.y_cap


def sqrt(a):
    a0 = a.value
    raise_if_singular(a0 <= SINGULAR_TOL, "sqrt of non-positive constant term", a0)
    return power(a, 0.5)


def exp(a):
    e0 = scalar_map(math.exp, a.value)
    u = [e0 / math.factorial(k) for k in range(_series_order(a.space) + 1)]
    return compose_series(u, a._nilpotent())


def ln(a):
    a0 = a.value
    raise_if_singular(a0 <= SINGULAR_TOL, "ln of non-positive constant term", a0)
    u = [scalar_map(math.log, a0)]
    for k in range(1, _series_order(a.space) + 1):
        u.append((-1.0) ** (k + 1) / (k * scalar_map(lambda v: v**k, a0)))
    return compose_series(u, a._nilpotent())


def power(a, r):
    """a**r for real r; integer exponents work for any constant term."""
    if isinstance(r, TaylorValue):
        if r.coeffs.ndim == 2:
            return _each_sample(power, a, r)
        if np.any(r.coeffs[1:] != 0.0):
            # Genuinely varying exponent: a^r = exp(r ln a).
            return exp(r * ln(a))
        r = r.value
    r = float(r)
    if r == round(r):
        n = int(round(r))
        if abs(r) <= 6:
            return _signed_int_power(a, n)
        return branch(a.value <= SINGULAR_TOL,
                      lambda v: _signed_int_power(v, n),
                      lambda v: _real_power(v, r), a)
    return _real_power(a, r)


def _real_power(a, r):
    a0 = a.value
    raise_if_singular(a0 <= SINGULAR_TOL, f"power {r} needs a positive constant term",
                      a0)
    u = [scalar_map(lambda v: v**r, a0)]
    for k in range(1, _series_order(a.space) + 1):
        u.append(u[-1] * (r - k + 1) / (k * a0))
    return compose_series(u, a._nilpotent())


def _signed_int_power(a, n):
    if n < 0:
        return _int_power(a, -n).reciprocal()
    return _int_power(a, n)


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


def _inverse_square(a, sign, u0):
    """arctan (sign 1) or arctanh (sign -1) of a, whose value at a's
    constant term a0 is u0.  Term k >= 1 is c[k-1]/k: c is the series of
    1/g, and g = 1 + sign t^2 at a0 has only the terms g0, g1 and sign."""
    a0 = a.value
    g0 = 1.0 + sign * (a0 * a0)
    g1 = sign * (2.0 * a0)
    u, c = [u0], [0.0, 1.0 / g0]  # c_{-1} = 0 and c_0
    for k in range(1, _series_order(a.space) + 1):
        u.append(c[-1] / k)
        c.append(-(g1 * c[-1] + sign * c[-2]) / g0)
    return compose_series(u, a._nilpotent())


def arctan(a):
    return _inverse_square(a, 1.0, scalar_map(math.atan, a.value))


def arctanh(a):
    """Real arctanh; for |constant term| > 1 uses the branch
    (1/2) ln((z+1)/(z-1)), which shares the derivative 1/(1-z^2)."""
    a0 = a.value
    raise_if_singular(abs(abs(a0) - 1.0) <= SINGULAR_TOL,
                      "arctanh at |constant term| = 1", a0)
    u0 = scalar_map(lambda v: math.atanh(v) if abs(v) < 1.0
                    else 0.5 * math.log((v + 1.0) / (v - 1.0)), a0)
    return _inverse_square(a, -1.0, u0)


def _trig(a, phase):
    """sin for phase 0, cos for phase 1; derivatives cycle sin, cos, -sin, -cos."""
    s0, c0 = scalar_map(math.sin, a.value), scalar_map(math.cos, a.value)
    cycle = (s0, c0, -s0, -c0)
    u = [cycle[(k + phase) % 4] / math.factorial(k)
         for k in range(_series_order(a.space) + 1)]
    return compose_series(u, a._nilpotent())


def sin(a):
    return _trig(a, 0)


def cos(a):
    return _trig(a, 1)
