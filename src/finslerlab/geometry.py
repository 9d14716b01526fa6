"""Tensor pipeline: metric, geodesic spray, Berwald and Landsberg tensors.

Everything here is a pure function of a :class:`FinslerField` (a scalar
function of base point x and direction y, evaluable on jets) and/or a
:class:`SprayField`.  :func:`point_tensors` is the per-sample pipeline: one
field jet at caps (1, 2) gives F, d_xF, ell and g, one spray jet at fiber
order 3 gives G and its fiber derivatives, all read with
:meth:`TaylorValue.fiber_tensor`.  It is the one way to read pointwise
tensors: its record holds L and the Berwald tensor G^i_jkh, and
:mod:`finslerlab.verify` forms the residuals from its arrays.

A field declares the base coordinates F depends on (``x_deps``); the
pipeline and the variational spray seed only those, so the jet spaces
they multiply in carry no base direction whose coefficients are all zero.
The arguments are seeded into the two faces of the full space (x into the
base face, y into the fiber face), so the x-only part of F, f(x^1), and
its y-only part, psi, each run in their own small space and only their
product is formed in the full one (see "Faces" in
:mod:`finslerlab.jets`).
Every catalog metric is f(x^1) psi(...) and declares ``(0,)``: its order-5
space (n, n, 1, 5) shrinks to (1, n, 1, 5), from 630 to 252 coefficients
for n = 4.  The dropped terms are exact zeros and the remaining products
keep their order, so the results are bit-identical to full seeding.

The spray and tensor functions taking ``(x, y)`` compute on a batch of N
points, shapes (N, n), in one jet pass; results carry a leading sample
axis.  A call with one point, shapes (n,), runs as a batch of one and
returns sample 0 (an array without the sample axis, the one-sample
:class:`PointTensors` record, or unbatched jets), which the batch
contract of :mod:`finslerlab.jets` makes bit-identical to row k of any
batch holding that point at k.  :meth:`FinslerField.jet`,
:meth:`FinslerField.value` and :func:`metric_tensor` take either shape
through that contract directly.  The contraction that forms L is a
stacked ``matmul`` call, which makes one BLAS call per sample, as a
one-point call does (over one contiguous copy of the whole batch);
:func:`rcond` runs on the whole stack, since LAPACK factors each matrix
of a stack alone.  One verdict decides whether g is degenerate, for the
jet solve and :func:`metric_tensor` alike: non-finite entries (overflow),
a largest entry below the smallest normal float (underflow), or an rcond
not above ``RCOND_MIN``.  Two spray routes exist:

* closed-form sprays supplied by the catalog (cheap; fiber order 3 is
  enough for the Berwald tensor), and
* the variational route, which derives the spray from the field itself,
  ``G^i = 1/4 g^{ih} (y^r d_r dot_h F^2 - d_h F^2)``, needing fiber
  order 5 and base order 1.  This is the oracle the closed forms are
  checked against.  It runs on the whole batch at once, and its jet
  linear solve is one stacked elimination on one coefficient array; the
  only chunking is that of the batched jet product (``MUL_CHUNK_ELEMENTS``).
"""

from __future__ import annotations

import functools
import inspect
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .jets import JetUsageError, TaylorValue, jet_space, joint_space

__all__ = [
    "FinslerField",
    "SprayField",
    "PointTensors",
    "DegenerateMetricError",
    "DegenerateMetricWarning",
    "metric_tensor",
    "ad_spray_field",
    "point_tensors",
    "rcond",
    "seeded_arguments",
]

#: m is degenerate when ``not rcond(m) > RCOND_MIN`` (nan included): the
#: reciprocal 2-norm condition number ignores scale (Higham, *Accuracy and
#: Stability of Numerical Algorithms*, SIAM 2002, ch. 7).  Measured: rcond(g)
#: >= 5.5e-6 on the benchmark's non-degenerate jobs, <= 1.2e-14 at the
#: criterion-2 singular point class4 (p, q) = (2, -1).
RCOND_MIN = 1e-10


class DegenerateMetricError(RuntimeError):
    """Metric tensor (numerically) singular."""


class DegenerateMetricWarning(RuntimeWarning):
    pass


def rcond(m):
    """sigma_min / sigma_max of a k x k matrix (a float), or of each matrix
    of an (N, k, k) stack (an array): 0 for a zero matrix, nan for one with
    a non-finite entry, which never reaches LAPACK (it raises on nan)."""
    m = np.asarray(m, dtype=float)
    finite = np.isfinite(m).all(axis=(-2, -1))
    sv = np.linalg.svd(np.where(finite[..., None, None], m, 0.0), compute_uv=False)
    out = np.where(finite, 0.0, np.nan)
    np.divide(sv[..., -1], sv[..., 0], out=out, where=sv[..., 0] > 0)
    return out if m.ndim == 3 else float(out)


def _first_degenerate(m):
    """What is wrong with the first of m's matrices that is degenerate, or
    None: non-finite entries (a nan rcond), a largest entry below the
    smallest normal float, or an rcond not above RCOND_MIN."""
    ratio = np.atleast_1d(rcond(m))
    big = np.atleast_1d(np.abs(m).max(axis=(-2, -1)))
    under = big < np.finfo(float).tiny
    bad = ~(ratio > RCOND_MIN) | under
    if not bad.any():
        return None
    s = np.argmax(bad)
    if np.isnan(ratio[s]):
        return "g has non-finite entries (overflow)"
    if under[s]:
        return f"g underflows (largest entry {big[s]:.3e})"
    return f"det(g) ~ 0, sigma_min/sigma_max = {ratio[s]:.3e}"


def _default_guard(x, y):
    """Admit every sample with y != 0."""
    return bool(np.linalg.norm(y) > 0)


class FinslerField:
    """A scalar function F(x, y) evaluable on Taylor-value arguments.

    ``evaluate(xs, ys)`` receives one TaylorValue per coordinate (the x
    entries may be constant jets; all are batched for a batch of points)
    and must return a TaylorValue, using jet arithmetic only.  The x
    arguments live in the base face of the full space and the y arguments
    in its fiber face (:func:`seeded_arguments`), so the program may
    return a value of either face or of the full space; :meth:`evaluate`
    embeds it into the full space, which every caller and layout reads.
    ``domain_guard(x, y)`` is a cheap float-only test for admissibility
    of a sample; the non-regular catalog metrics use it to stay away from
    their singular directions.

    ``x_deps`` declares the base coordinates F depends on, stored as a
    sorted tuple; the default is all n.  The contract: the x-derivatives
    of F vanish identically outside ``x_deps``.  :func:`point_tensors` and
    the variational spray seed only the declared coordinates and give
    d_xF = 0 for the rest, so a false declaration silently drops terms;
    the set is never detected from values.  :meth:`jet` still seeds every
    coordinate, so its layout (and any multi-index read from it) does
    not depend on the declaration.

    ``evaluate`` must be a pure function of its arguments: the field keeps
    the last batch it evaluated at each (caps, ``x_deps``), keyed by the
    shapes and bytes of x and y, and serves that jet again to a call on
    the same batch (so the variational spray and :func:`point_tensors`
    share one evaluation).  The kept jets live as long as the field.
    """

    def __init__(self, n, evaluate, domain_guard=None, label="", x_deps=None):
        self.n = n
        self._evaluate = evaluate
        self.domain_guard = _default_guard if domain_guard is None else domain_guard
        self.label = label
        self.x_deps = tuple(range(n)) if x_deps is None else self._checked_deps(x_deps)
        self._kept = {}  # (x_cap, y_cap, x_deps) -> (batch, (ys, jet))

    def _checked_deps(self, x_deps):
        deps = tuple(x_deps)
        for i in deps:
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)) \
                    or not 0 <= i < self.n:
                raise ValueError(
                    f"x_deps of field {self.label!r}: {i!r} is not a "
                    f"coordinate index in range({self.n})"
                )
        if len(set(deps)) != len(deps):
            raise ValueError(f"x_deps of field {self.label!r} repeats an index: {deps}")
        return tuple(sorted(int(i) for i in deps))

    def __repr__(self):
        return f"FinslerField(n={self.n}, label={self.label!r})"

    def evaluate(self, xs, ys):
        """F on jet arguments, embedded in the joint space of all of them
        (the full space of :func:`seeded_arguments`), whatever smaller
        space the program's result lives in."""
        full = joint_space(*(v.space for v in (*xs, *ys)))
        return self._evaluate(xs, ys).embed(full)

    def jet(self, x, y, x_cap, y_cap):
        """Evaluate on freshly seeded arguments at the given caps, with all
        n x coordinates seeded whatever ``x_deps`` declares."""
        return self._jet(x, y, x_cap, y_cap, range(self.n))[1]

    def _jet(self, x, y, x_cap, y_cap, x_deps):
        """(ys, F) with F evaluated on the arguments seeded in the
        coordinates ``x_deps`` and ys their fiber part; the last batch of
        each (caps, x_deps) is kept and served again."""
        def compute():
            xs, ys = seeded_arguments(self.n, x, y, x_cap, y_cap, x_deps)
            return ys, _batched_like(self.evaluate(xs, ys), np.asarray(x))

        return _keep(self._kept, (x_cap, y_cap, tuple(x_deps)), x, y, compute)

    def value(self, x, y):
        """F at (x, y): shape (N,), or a float for one point.  Evaluated
        at caps (0, 0), where every argument is a constant jet."""
        return self.jet(x, y, 0, 0).value


def seeded_arguments(n, x, y, x_cap, y_cap, x_deps=None):
    """Seed (x, y) coordinates, shapes (n,) or (N, n), into the two faces
    of one full jet space; the only way coordinates enter jets.

    The x coordinates listed in ``x_deps`` (default: all n, in increasing
    order) become the x variables of the full space
    ``jet_space(len(x_deps), n, x_cap, y_cap)``, the k-th listed one x
    variable k; every coordinate the full space has no variable for
    enters as a constant.  A group with no variables or cap 0 is absent
    from a jet space, so all x coordinates are constants when ``x_cap ==
    0`` or ``x_deps`` is empty, and all y coordinates when ``y_cap == 0``;
    ``seeded_arguments(n, x, y, 0, order)[1]`` are the fiber arguments of
    a spray jet.  The x arguments live in the base face (len(x_deps), 0,
    x_cap, 0) and the y arguments in the fiber face (0, n, 0, y_cap), so
    the x-only and y-only parts of a program run in those small spaces,
    and only a value that combines both groups is lifted into the full
    space (see "Faces" in :mod:`finslerlab.jets`).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1:] != (n,) or x.ndim > 2 or y.shape != x.shape:
        raise JetUsageError(f"expected {n} coordinates in each group")
    deps = range(n) if x_deps is None else x_deps
    space = jet_space(len(deps), n, x_cap, y_cap)
    base, fiber = space.base_face, space.fiber_face
    var = dict(zip(deps, range(space.n_x)))  # coordinate -> x variable
    xs = [
        base.seed_x(var[i], x[..., i]) if i in var else base.constant(x[..., i])
        for i in range(n)
    ]
    ys = [
        fiber.seed_y(i, y[..., i]) if i < fiber.n_y else fiber.constant(y[..., i])
        for i in range(n)
    ]
    return xs, ys


def _keep(store, key, x, y, compute):
    """The value kept in ``store`` at ``key`` if it was computed on these
    x and y (same shapes and bytes), else ``compute()``, kept in its place."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    batch = x.shape, y.shape, x.tobytes(), y.tobytes()
    kept = store.get(key)
    if kept is None or kept[0] != batch:
        kept = store[key] = (batch, compute())
    return kept[1]


def _batched_like(value, x):
    """``value`` spread over the samples of ``x`` when a program returns a
    sample-independent jet (a constant spray, say) for a batch."""
    if x.ndim == 2 and value.batch is None:
        coeffs = np.broadcast_to(value.coeffs, (len(x), value.space.size))
        return TaylorValue(value.space, coeffs)
    return value


def _on_batches(fn):
    """Let ``fn``, written for ``x`` and ``y`` as float arrays of shapes
    (N, n), take one point too: shapes (n,) run as a batch of one, and the
    call returns sample 0 of the result (row 0 of an array; the one-sample
    record of a PointTensors; an unbatched jet for each jet of a list)."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        x, y = (np.asarray(bound.arguments[k], float) for k in "xy")
        one = x.ndim == 1
        bound.arguments.update(x=x[None] if one else x, y=y[None] if one else y)
        out = fn(*bound.args, **bound.kwargs)
        if not one:
            return out
        if isinstance(out, list):
            return [TaylorValue(v.space, v.coeffs[0]) for v in out]
        return out[0]

    return call


class SprayField:
    """Spray coefficients G^i evaluable as fiber jets.

    ``jets_fn(x, y, order)`` returns the n coefficients as TaylorValues
    in the fiber face ``jet_space(0, n, 0, order)``, the space of
    ``seeded_arguments(n, x, y, 0, order)[1]`` (constant jets at order 0),
    for a batch of points, x and y of shape (N, n); a one-point call of
    :meth:`jets` or :meth:`values` hands it a batch of one.  The optional
    ``domain_guard`` is inherited from whatever field or setup produced
    the spray so sampling can respect the same admissible cone.

    ``jets_fn`` must be a pure function of ``(x, y, order)``: the spray
    keeps the last batch of jets it computed at each order, keyed by the
    shapes and bytes of x and y, and serves them again to a call on the
    same batch, for as long as the spray lives; a subclass (a closed-form
    spray) may provide ``_jets_fn`` and its own ``_kept`` dict itself.
    """

    def __init__(self, n, jets_fn, label="", domain_guard=None):
        self.n = n
        self._jets_fn = jets_fn
        self.label = label
        self.domain_guard = _default_guard if domain_guard is None else domain_guard
        self._kept = {}  # order -> (batch, jets)

    def __repr__(self):
        return f"SprayField(n={self.n}, label={self.label!r})"

    @_on_batches
    def jets(self, x, y, order):
        """The n spray jets at fiber order ``order``; the last batch of
        each order is kept and served again, as a new list."""
        return list(_keep(self._kept, order, x, y, lambda: [
            _batched_like(g, x) for g in self._jets_fn(x, y, order)]))

    @_on_batches
    def values(self, x, y):
        """G^i at (x, y): shape (N, n), or (n,) for one point."""
        return np.stack([g.value for g in self.jets(x, y, 0)], axis=1)


# ---------------------------------------------------------------------------
# variational spray (the oracle path)
# ---------------------------------------------------------------------------


def _stacked_product(space, p, q):
    """The jet products p * q of two broadcasting stacks of coefficient
    arrays of ``space``, as one batched product, so each keeps its bits."""
    p, q = np.broadcast_arrays(p, q)
    flat = [TaylorValue(space, v.reshape(-1, space.size)) for v in (p, q)]
    return (flat[0] * flat[1]).coeffs.reshape(p.shape)


def _solve_jet_system(a, b, context=""):
    """Solve A X = B for jet entries of one space by Gaussian elimination.

    A and B are one coefficient array of shape (n, n + 1, N, size), B
    last; unbatched entries broadcast, and an unbatched system runs as a
    batch of one and returns unbatched jets.  A system whose constant
    part is degenerate raises with the verdict of :func:`_first_degenerate`.
    Each sample's system is scaled by the power of two that puts A's
    largest constant entry in [0.5, 1), which is exact, so X keeps its
    bits and the pivots do not depend on A's scale.  Each sample pivots on
    its own largest constant term; a step forms its row factors
    ``a[r][col] * inv`` and its row updates ``factor * a[col][c]`` as one
    batched product each, and X is ``b[i] * a[i][i].reciprocal()``.
    """
    n, space = len(b), b[0].space
    entries = [v for row, rhs in zip(a, b) for v in (*row, rhs)]
    shape = np.broadcast_shapes(*(v.coeffs.shape for v in entries))
    c = np.reshape([np.broadcast_to(v.coeffs, shape) for v in entries],
                   (n, n + 1, -1, space.size))
    const = c[:, :n, :, 0]
    if (first := _first_degenerate(np.moveaxis(const, -1, 0))) is not None:
        raise DegenerateMetricError(f"degenerate metric{context}: {first}")
    c *= np.ldexp(1.0, -np.frexp(np.abs(const).max(axis=(0, 1)))[1])[:, None]
    samples, invs = np.arange(c.shape[2]), []
    for col in range(n):
        piv = col + np.argmax(np.abs(c[col:, col, :, 0]), axis=0)
        pair = np.array([np.full_like(piv, col), piv])
        c[pair, :, samples] = c[pair[::-1], :, samples]
        invs.append(TaylorValue(space, c[col, col]).reciprocal().coeffs)
        others = [r for r in range(n) if r != col]
        factor = _stacked_product(space, c[others, col], invs[-1])
        c[others, col + 1:] -= _stacked_product(space, factor[:, None], c[col, col + 1:])
    x = _stacked_product(space, c[:, n], np.array(invs))  # a[i][i] is pivot i
    return [TaylorValue(space, xi.reshape(shape)) for xi in x]


def _ad_spray_jets(field, x, y, order):
    """Spray jets from the energy function via the variational formula.

    Only the declared coordinates r of ``field.x_deps`` are seeded, so the
    sum over y^r d_r and the d_h F^2 term run over them alone (the others
    are exact zeros); with none declared the right-hand side is zero.
    """
    n, deps = field.n, field.x_deps
    ys, f_jet = field._jet(x, y, 1, order + 2, deps)
    f2 = f_jet * f_jet
    ys_mid = [ysi.truncate(0, order + 1) for ysi in ys]
    rhs = []
    for h in range(n):
        if not deps:  # F depends on no x coordinate
            rhs.append(jet_space(0, n, 0, order).constant(0.0))
            continue
        ah = f2.dy(h)  # caps (1, order+1)
        t = None
        for k, r in enumerate(deps):
            term = ys_mid[r] * ah.dx(k)
            t = term if t is None else t + term
        if h in deps:
            t = t - f2.dx(deps.index(h)).truncate(0, order + 1)
        rhs.append(t.truncate(0, order))
    g = [
        [
            (f2.dy(i).dy(j) * 0.5).truncate(0, order)
            for j in range(n)
        ]
        for i in range(n)
    ]
    sol = _solve_jet_system(g, rhs, context=f" for {field.label or 'field'}")
    return [gi * 0.25 for gi in sol]


def ad_spray_field(field):
    """SprayField computing the geodesic spray of ``field`` by jets."""
    return SprayField(
        field.n,
        lambda x, y, order: _ad_spray_jets(field, x, y, order),
        label=f"ad:{field.label}",
        domain_guard=field.domain_guard,
    )


# ---------------------------------------------------------------------------
# pointwise tensors
# ---------------------------------------------------------------------------


def _energy_hessian(f_jet):
    """g_ij, the fiber Hessian of F^2/2, from a pure-y jet of F."""
    return (f_jet * f_jet * 0.5).fiber_tensor(2)


def metric_tensor(field, x, y):
    """Hessian of the energy F^2/2 in the fiber variables."""
    g = _energy_hessian(field.jet(x, y, 0, 2))
    if (first := _first_degenerate(g)) is not None:
        warnings.warn(f"degenerate metric tensor: {first}", DegenerateMetricWarning,
                      stacklevel=2)
    return g


# The Landsberg contraction below uses stacked ``matmul``, which makes for
# each sample the BLAS call of a one-point ``@`` on the same rows, so the bits
# are those of one point; ``einsum``, or a strided row, may round differently.


def _landsberg(F, ell, gijkh):
    """L_jkh = -1/2 F ell_i G^i_jkh of each sample, shape (N, n, n, n):
    one contiguous copy of the batch with the component axis last, then
    one dot product per (s, j, k, h)."""
    gt = np.ascontiguousarray(np.moveaxis(gijkh, 1, -1))
    return -0.5 * F[:, None, None, None] * (
        gt[..., None, :] @ ell[:, None, None, None, :, None]
    )[..., 0, 0]


@dataclass(frozen=True)
class PointTensors:
    """All pointwise tensors of one (field, spray, sample) triple, or of a
    batch of samples behind a leading sample axis; spray tensors put the
    component first (``Gij[i, j]`` is dot_j G^i, ``Gij[s, i, j]`` for
    sample s).  ``record[s]`` is the one-sample record of sample s."""

    x: np.ndarray
    y: np.ndarray
    F: float
    dxF: np.ndarray
    ell: np.ndarray
    g: np.ndarray
    G: np.ndarray
    Gij: np.ndarray
    Gijk: np.ndarray
    Gijkh: np.ndarray
    L: np.ndarray

    def __getitem__(self, s):
        # C-ordered copies: BLAS may round a product of a strided slice
        # differently from one of a contiguous array.
        parts = {
            f.name: np.array(getattr(self, f.name)[s], order="C")
            for f in fields(self)
        }
        parts["F"] = float(parts["F"])
        return PointTensors(**parts)

    @property
    def g_rcond(self):
        """sigma_min / sigma_max of g (see :func:`rcond`)."""
        return rcond(self.g)


@_on_batches
def point_tensors(field, spray, x, y):
    """The per-sample record: F, d_xF, ell and g from one field jet at
    caps (1, 2), seeded in the coordinates of ``field.x_deps`` (d_xF is
    0.0 for the rest), the spray tensors from one spray jet at order 3.
    Raises ValueError, before the spray is evaluated, unless F > 0 (naming
    the first sample where it is not)."""
    fj = field._jet(x, y, 1, 2, field.x_deps)[1]
    F = fj.value
    bad = ~(F > 0.0)
    if bad.any():
        s = np.argmax(bad)
        raise ValueError(
            f"F must be strictly positive on admissible samples; got "
            f"{float(F[s])} at x = {x[s]}, y = {y[s]}"
        )
    ell = fj.fiber_tensor(1)
    gj = spray.jets(x, y, 3)
    Gij, Gijk, Gijkh = (
        np.stack([gi.fiber_tensor(k) for gi in gj], axis=1) for k in (1, 2, 3)
    )
    return PointTensors(
        x=x, y=y, F=F, ell=ell, g=_energy_hessian(fj.truncate(0, 2)),
        dxF=np.stack([
            fj.dx(field.x_deps.index(i)).value if i in field.x_deps else np.zeros(len(x))
            for i in range(field.n)
        ], axis=1),
        G=np.stack([gi.value for gi in gj], axis=1), Gij=Gij, Gijk=Gijk, Gijkh=Gijkh,
        L=_landsberg(F, ell, Gijkh),
    )
