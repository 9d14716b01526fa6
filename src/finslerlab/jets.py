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

Each group's monomials are enumerated within its cap, degree by degree.
Every monomial has one code, its exponents read as the digits of a
base-(max cap + 1) number, and every index table finds its positions by
one ``searchsorted`` in the space's sorted codes.

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

A product sums, for each output coefficient, its pair products in
(i, j) order, as one ``bincount`` over keys offset by ``sample * size``,
so each coefficient accumulates exactly the per-sample sequence.  A
product whose levels average more than :data:`MUL_CHUNK_ELEMENTS` pair
products runs level by level instead, on coefficient-major copies of its
operands: level r holds the r-th pair of every output coefficient with
more than r pairs, and with outputs ranked by their number of pairs its
outputs are a prefix of the rows, so a level is one row gather per
operand, one multiply and one add into that prefix.  Each coefficient
again starts at 0.0 and adds the same products in the same order; a
result with a non-finite coefficient is recomputed by ``bincount``, since
the sign of a NaN sum may differ and its warnings should not.  The levels
of a pair table are built with it (:func:`_pair_table`).

Series composition
------------------
:func:`compose_series` evaluates ``sum u[k] * h^k`` by Horner for a
nilpotent h (zero constant term).  A step that leaves k more steps to go
feeds coefficients of total degree d only into degrees >= d + k, and
every degree above ``x_cap + y_cap`` lies outside the caps; so the step
keeps only the product pairs whose output has total degree <=
``x_cap + y_cap - k``, and of those only the pairs with h index j != 0,
since h's constant term is 0.  The kept pairs come from
:attr:`JetSpace.series_table`, one pair table per step, filtered from
``mul_table`` in its order, so each kept coefficient still sums the same
pairs in the same order, and each dropped pair either feeds a
coefficient that a later truncation discards or adds a zero product,
which leaves a ``bincount`` sum unchanged.  With finite coefficients the
result is bit-identical to a Horner loop of full products.

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
coefficients (a product with a face operand need not, see below);
:func:`branch` merges its parts the same way.  Spaces that
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

A product with a face operand runs in that face.  A base-face value
times a fiber-face value is an outer product: each output monomial of
the joint space has exactly one pair with two non-zero factors, and the
sum's other pairs only add zeros, so it is ``x_i * y_j + 0.0`` (the
``+ 0.0`` gives the sum's +0.0 for a -0.0 product).  A value of the
joint space times a fiber-face value is one fiber-face product whose
rows are the joint operand's x blocks: for output (x_k, y), every pair
with two non-zero factors takes x block k, in the same (i, j) order,
and the pairs from other blocks come before or after with zero
products.  With finite coefficients both give the joint product's bits,
the sign of a zero included.  In (1, 4, 1, 5), F = f(x^1) * psi(y)
multiplies no pair, where the joint product multiplied 3861.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations_with_replacement

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

#: Pair products per level above which a product runs level by level
#: (one chunk of the level path).  A level costs four numpy calls, about
#: 3 us whatever its size, and saves about 4 ns per pair product over
#: ``bincount``'s scattered adds, so the two break even at 450-650 pair
#: products per level on every catalog signature (2 to 48 levels).
#: Measured with ``timeit`` on a shared 2-vCPU x86-64 VM (numpy 2.4.6),
#: level path / bincount at 50 samples: 0.36x at (1,4,1,5), 0.40x at
#: (0,4,0,5), 0.62x at (0,4,0,3), 1.0x at (0,3,0,3) (525 per level); 2.0x
#: at (1,4,1,5) with 3 samples (241 per level).  Below the threshold one
#: ``bincount`` takes the whole batch: up to 31k pair products it ran at
#: 0.7-1.0x the time of the sample chunks it replaces.
MUL_CHUNK_ELEMENTS = 640


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
    """All exponent tuples with ``sum <= cap`` in graded-lex order: the
    variable counts of each d-multiset, whose lex order reversed is ascending."""
    return [tuple(map(vs.count, range(nvars))) for d in range(cap + 1)
            for vs in reversed(list(combinations_with_replacement(range(nvars), d)))]


@functools.cache
def jet_space(n_x, n_y, x_cap, y_cap):
    """Return the cached :class:`JetSpace` for the given signature, with
    a group that has no variables or cap 0 stored as (0, 0) (see "Faces").
    One space exists per canonical signature: any other signature returns
    ``jet_space`` of its canonical one, so a repeated call is one lookup.
    Each argument must be integral (a float such as 2.0 or a numpy int
    will do); any other value, NaN and +-inf included, is refused."""
    given = (n_x, n_y, x_cap, y_cap)
    for name, value in zip(("n_x", "n_y", "x_cap", "y_cap"), given):
        if not (math.isfinite(value) and value == int(value)):
            raise JetUsageError(f"{name} must be an integer, got {value!r}")
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
        nvars, base = n_x + n_y, max(x_cap, y_cap) + 1
        if base**nvars > np.iinfo(np.intp).max:  # the largest code is base**nvars - 1
            raise JetUsageError(f"monomial codes of {self} overflow intp")
        self.x_monomials = _graded_monomials(n_x, x_cap)
        self.y_monomials = _graded_monomials(n_y, y_cap)
        self.monomials = [xm + ym for xm in self.x_monomials for ym in self.y_monomials]
        self.size = len(self.monomials)
        self.position = {m: i for i, m in enumerate(self.monomials)}
        #: (size, n_x + n_y) exponent rows in layout order.
        self.exponents = np.array(self.monomials, dtype=np.intp)
        self._weights = base ** np.arange(nvars, dtype=np.intp)
        codes = self.exponents @ self._weights
        # Codes are distinct; the stable sort is the one _pair_table already runs.
        self._order = np.argsort(codes, kind="stable")
        self._codes = codes[self._order]
        facts = np.array([math.factorial(e) for e in range(base)])
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

    def _positions(self, codes):
        """Layout positions of the monomials with these codes."""
        return self._order[np.searchsorted(self._codes, codes)]

    def _variable(self, group, index):
        """Variable ``index`` of ``group`` ("x" or "y") as an index into
        all n_x + n_y variables, x first."""
        x = group == "x"
        if not 0 <= index < (self.n_x if x else self.n_y):
            raise JetUsageError(f"{group} index {index} out of range for {self}")
        return index if x else self.n_x + index

    def _codes_in(self, space):
        """The codes of this space's monomials in ``space``, which has its groups."""
        columns = np.r_[: self.n_x, space.n_x: space.n_x + self.n_y]
        return self.exponents @ space._weights[columns]

    # -- lazily built index tables, kept in the space's attributes --------
    # perfbench's untraced warm-up check counts the tuples it finds there.

    # A property, not a cached_property: perfbench's tracer wraps its getter.
    @property
    def mul_table(self):
        """(I, J, K, levels): every product pair (i, j) within the caps,
        sorted by (i, j), with its output monomial K and the pairs'
        levels (see :func:`_pair_table`)."""
        if self._mul_table is None:
            # A group's monomials of degree <= d are a prefix, so row (a, b)
            # pairs with the columns (c, d), c < nx[a] and d < ny[b].  Listed
            # row by row, c before d, pairs are sorted by (i, j); with bincount's
            # in-order sums this makes products bit-reproducible.
            nx, ny = (np.searchsorted(deg, cap - deg, side="right") for deg, cap in (
                (np.array([sum(m) for m in self.x_monomials]), self.x_cap),
                (np.array([sum(m) for m in self.y_monomials]), self.y_cap)))
            row_ny = np.tile(ny, len(nx))  # ny[b] of each row i = (a, b)
            counts = np.repeat(nx, len(ny)) * row_ny
            I = np.repeat(np.arange(self.size), counts)
            rank = np.arange(len(I)) - np.repeat(np.cumsum(counts) - counts, counts)
            J = rank // row_ny[I] * len(ny) + rank % row_ny[I]
            K = self._positions((self.exponents[I] + self.exponents[J]) @ self._weights)
            self._mul_table = _pair_table(I, J, K, self.size)
        return self._mul_table

    @functools.cached_property
    def series_table(self):
        """One pair table per Horner step: entry d holds the ``mul_table``
        pairs with j != 0 whose output monomial has total degree <= d, in
        their ``mul_table`` order, with their own levels."""
        I, J, K, _ = self.mul_table
        degree = self.exponents.sum(axis=1)[K]
        return tuple(
            _pair_table(I[sel], J[sel], K[sel], self.size)
            for sel in ((J != 0) & (degree <= d) for d in range(_series_order(self) + 1))
        )

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
            src = self._positions(target._codes_in(self) + self._weights[var])
            tab = (target, src, self.exponents[src, var].astype(float))
            self._diff_tables[key] = tab
        return tab

    def _fiber_table(self, k):
        """(positions, factorials), each of shape (n_y,)*k: entry ``axes``
        is the pure-y monomial that counts how often each y index occurs,
        whose code sums the weights of the y indices in ``axes``."""
        tab = self._fiber_tables.get(k)
        if tab is None:
            if not 0 <= k <= self.y_cap:
                raise JetUsageError(f"fiber order {k} exceeds y_cap of {self}")
            shape = (self.n_y,) * k
            axes = np.indices(shape).reshape(k, self.n_y**k)
            codes = self._weights[self.n_x:][axes].sum(axis=0)
            pos = self._positions(codes).reshape(shape)
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
            tab = (target, target._positions(self._codes_in(target)))
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


def _face_product(space, a, b):
    """Coefficients of the product of values a and b in ``space``, their
    joint space; an operand that lacks a group runs in its face.

    Base face x fiber face is an outer product, and ``+ 0.0`` turns its
    -0.0 into the +0.0 of a ``bincount`` sum.  The full space x the
    fiber face is one fiber-face product whose rows are the full
    operand's x blocks, each with the other operand's row of the same
    sample; the operands keep their order.  See "Faces" for why both
    give the bits of the product on embedded operands.
    """
    A, B = a.space, b.space
    if A is not B and space.n_x and space.n_y:
        fiber = space.fiber_face
        if {A, B} == {space.base_face, fiber}:
            x, y = (a.coeffs, b.coeffs) if B is fiber else (b.coeffs, a.coeffs)
            out = x[..., :, None] * y[..., None, :] + 0.0
            return out.reshape(out.shape[:-2] + (space.size,))
        if {A, B} == {space, fiber}:
            batch = np.broadcast_shapes(a.coeffs.shape[:-1], b.coeffs.shape[:-1])
            blocks = batch + (len(space.x_monomials), fiber.size)

            def rows(v):  # one row per sample and x block
                c = v.coeffs
                c = c.reshape(c.shape[:-1] + blocks[-2:]) if v.space is space else c[..., None, :]
                return np.broadcast_to(c, blocks).reshape(-1, fiber.size)

            return _product(fiber, rows(a), rows(b)).reshape(batch + (space.size,))
    return _product(space, _embedded(a, space), _embedded(b, space))


def _pair_table(I, J, K, size):
    """(I, J, K, levels): product pairs (i, j), their outputs K, and the
    same pairs sliced into levels for :func:`_level_product`.

    ``levels`` is ``(pos, [(I_0, J_0), (I_1, J_1), ...])``.  Outputs are
    ranked by how many pairs they have, most first (ties in index order).
    Level r holds the r-th pair, in table order, of every output with
    more than r pairs, in rank order, so its outputs are the first
    ``len(I_r)`` ranks; ``pos[k]`` is the rank of output k, or the number
    of outputs with pairs for an output without any.
    """
    counts = np.bincount(K, minlength=size)
    rank = np.empty(size, dtype=np.intp)
    rank[np.argsort(-counts, kind="stable")] = np.arange(size)
    by_output = np.argsort(K, kind="stable")
    ordinal = np.empty_like(K)
    ordinal[by_output] = np.arange(len(K)) - (np.cumsum(counts) - counts)[K[by_output]]
    sel = np.lexsort((rank[K], ordinal))
    I_sel, J_sel = I[sel], J[sel]
    ends = np.cumsum(np.bincount(ordinal)).tolist()
    levels = [(I_sel[lo:hi], J_sel[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    pos = np.where(counts > 0, rank, np.count_nonzero(counts))
    return I, J, K, (pos, levels)


def _product(space, a, b, table=None):
    """Coefficients of the truncated product of coefficient arrays a, b,
    summed over the pairs of ``table`` (default: ``mul_table``)."""
    I, J, K, (pos, levels) = space.mul_table if table is None else table
    shape = (a if a.ndim >= b.ndim else b).shape
    if not len(K):  # bincount of no weights would return integer zeros
        return np.zeros(shape)
    n = shape[0] if len(shape) == 2 else 1  # one point runs as one sample
    if n * len(K) > MUL_CHUNK_ELEMENTS * len(levels):
        with np.errstate(over="ignore", invalid="ignore"):
            out = _level_product(a, b, n, pos, levels)
        # A non-finite coefficient comes from a non-finite pair product or
        # sum; bincount gives it the same bits and numpy's warnings.
        if np.isfinite(out).all():
            return out.reshape(shape)
    w = a.take(I, axis=-1) * b.take(J, axis=-1)
    # Sample-major keys: row s accumulates into bins [s * size, (s + 1) *
    # size), in the same (i, j) order as one point.
    keys = (np.arange(0, n * space.size, space.size)[:, None] + K).ravel()
    return np.bincount(keys, weights=w.ravel(), minlength=n * space.size).reshape(shape)


def _level_product(a, b, n, pos, levels):
    """The product of :func:`_product` level by level, as an (n, size)
    array: each output row starts at 0.0 and adds its pair products in
    table order, as ``bincount`` does, so the sums keep their bits."""
    a, b = (np.ascontiguousarray(c.T) if c.ndim == 2
            else np.broadcast_to(c[:, None], (len(c), n)) for c in (a, b))
    acc = np.zeros((len(levels[0][0]) + 1, n))  # the last row stays 0.0
    for I, J in levels:
        w = a.take(I, axis=0)
        w *= b.take(J, axis=0)
        acc[:len(I)] += w
    return acc.T.take(pos, axis=1)


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
            return TaylorValue(space, _face_product(space, self, other))
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
    steps = space.series_table
    top = _series_order(space)
    acc = np.zeros(h.coeffs.shape)
    acc[..., 0] = u[-1]
    for k in range(len(u) - 2, -1, -1):
        # k steps follow this one; each raises the degree by at least 1.
        acc = _shift(_product(space, acc, h.coeffs, steps[max(top - k, 0)]), u[k])
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
