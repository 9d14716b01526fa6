"""Tensor pipeline: metric, geodesic spray, Berwald and Landsberg tensors.

Everything here is a pure function of a :class:`FinslerField` (a scalar
function of base point x and direction y, evaluable on jets) and/or a
:class:`SprayField`.  :func:`point_tensors` is the per-sample pipeline: one
field jet at caps (1, 2) gives F, d_xF, ell and g, one spray jet at fiber
order 3 gives G and its fiber derivatives, all read with
:meth:`TaylorValue.fiber_tensor`; the tensor helpers wrap it.

Every function taking ``(x, y)`` takes one point, shapes (n,), or a batch
of N points, shapes (N, n), and then evaluates all of them in one jet pass
(see the batch contract in :mod:`finslerlab.jets`): results gain a leading
sample axis and each sample's entries are bit-identical to a one-point
call.  The ``np.inner`` that forms L, whose rounding could change when
batched, stays a per-sample loop; :func:`rcond`, the one degeneracy
measure, runs on the whole stack, since LAPACK factors each matrix of a
stack alone.  Two spray routes exist:

* closed-form sprays supplied by the catalog (cheap; fiber order 3 is
  enough for the Berwald tensor), and
* the variational route, which derives the spray from the field itself,
  ``G^i = 1/4 g^{ih} (y^r d_r dot_h F^2 - d_h F^2)``, needing fiber
  order 5 and base order 1.  This is the oracle the closed forms are
  checked against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .jets import JetUsageError, TaylorValue, jet_space

__all__ = [
    "FinslerField",
    "SprayField",
    "PointTensors",
    "DegenerateMetricError",
    "DegenerateMetricWarning",
    "metric_tensor",
    "ad_spray_field",
    "berwald_tensor",
    "landsberg_tensor",
    "horizontal_differential",
    "euler_residual",
    "point_tensors",
    "rcond",
]

#: m is degenerate when ``not rcond(m) > RCOND_MIN`` (nan included): the
#: reciprocal 2-norm condition number ignores scale (Higham, *Accuracy and
#: Stability of Numerical Algorithms*, SIAM 2002, ch. 7).  Measured: rcond(g)
#: >= 5.5e-6 on the benchmark's non-degenerate jobs, <= 1.2e-14 at the
#: criterion-2 singular point class4 (p, q) = (2, -1).
RCOND_MIN = 1e-10

#: Coefficients per jet (samples x space size) that one pass of the
#: variational spray holds at most; larger batches run in chunks of
#: samples.  Its order-3 pass keeps some fifty jets alive in spaces of up
#: to 630 coefficients: measured unchunked, a 50-point batch held 5.5 MB,
#: against 0.6 MB one point at a time.
AD_CHUNK_COEFFS = 4096


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
    """The first rcond not above RCOND_MIN among m's matrices, or None."""
    ratio = np.atleast_1d(rcond(m))
    bad = ~(ratio > RCOND_MIN)
    return float(ratio[np.argmax(bad)]) if bad.any() else None


class FinslerField:
    """A scalar function F(x, y) evaluable on Taylor-value arguments.

    ``evaluate(xs, ys)`` receives one TaylorValue per coordinate (the x
    entries may be constant jets; all are batched for a batch of points)
    and must return a TaylorValue in the same space, using jet arithmetic
    only.  ``domain_guard(x, y)`` is a cheap float-only test for
    admissibility of a sample; the non-regular catalog metrics use it to
    stay away from their singular directions.
    """

    def __init__(self, n, evaluate, domain_guard=None, label=""):
        self.n = n
        self._evaluate = evaluate
        self.domain_guard = domain_guard if domain_guard is not None else (
            lambda x, y: bool(np.linalg.norm(y) > 0)
        )
        self.label = label

    def __repr__(self):
        return f"FinslerField(n={self.n}, label={self.label!r})"

    def evaluate(self, xs, ys):
        return self._evaluate(xs, ys)

    def jet(self, x, y, x_cap, y_cap):
        """Evaluate on freshly seeded arguments at the given caps."""
        xs, ys = seeded_arguments(self.n, x, y, x_cap, y_cap)
        return _batched_like(self.evaluate(xs, ys), np.asarray(x))

    def value(self, x, y):
        return self.jet(x, y, 0, 1).value


def seeded_arguments(n, x, y, x_cap, y_cap):
    """Seed (x, y) coordinates, shapes (n,) or (N, n), into a shared jet
    space.

    With ``x_cap == 0`` the x coordinates enter as constants in a space
    with no x variables, which keeps fiber-only work cheap.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1:] != (n,) or x.ndim > 2 or y.shape != x.shape:
        raise JetUsageError(f"expected {n} coordinates in each group")
    if x_cap > 0:
        space = jet_space(n, n, x_cap, y_cap)
        xs = [space.seed_x(i, x[..., i]) for i in range(n)]
    else:
        space = jet_space(0, n, 0, y_cap)
        xs = [space.constant(x[..., i]) for i in range(n)]
    ys = [space.seed_y(i, y[..., i]) for i in range(n)]
    return xs, ys


def _batched_like(value, x):
    """``value`` spread over the samples of ``x`` when a program returns a
    sample-independent jet (a constant spray, say) for a batch."""
    if x.ndim == 2 and value.batch is None:
        coeffs = np.broadcast_to(value.coeffs, (len(x), value.space.size))
        return TaylorValue(value.space, coeffs)
    return value


def _components(parts, batched):
    """Stack per-component values or arrays behind the sample axis, if any."""
    return np.stack(parts, axis=1) if batched else np.array(parts)


class SprayField:
    """Spray coefficients G^i evaluable as fiber jets.

    ``jets_fn(x, y, order)`` returns the n coefficients as TaylorValues
    in the pure-y space (0, n, 0, order); x and y have shape (n,), or
    (N, n) for a batch.  The optional ``domain_guard``
    is inherited from whatever field or setup produced the spray so
    sampling can respect the same admissible cone.
    """

    def __init__(self, n, jets_fn, label="", domain_guard=None):
        self.n = n
        self._jets_fn = jets_fn
        self.label = label
        self.domain_guard = domain_guard if domain_guard is not None else (
            lambda x, y: bool(np.linalg.norm(y) > 0)
        )

    def __repr__(self):
        return f"SprayField(n={self.n}, label={self.label!r})"

    def jets(self, x, y, order):
        x = np.asarray(x, float)
        return [
            _batched_like(g, x)
            for g in self._jets_fn(x, np.asarray(y, float), order)
        ]

    def values(self, x, y):
        """G^i at (x, y): shape (n,), or (N, n) for a batch."""
        gj = self.jets(x, y, 0)
        return _components([g.value for g in gj], gj[0].batch is not None)


# ---------------------------------------------------------------------------
# variational spray (the oracle path)
# ---------------------------------------------------------------------------


def _select(hit, p, q):
    return TaylorValue(p.space, np.where(hit, p.coeffs, q.coeffs))


def _swap_rows(a, b, col, piv):
    """Exchange rows ``col`` and ``piv[s]`` of every sample s, in place:
    the per-sample row permutation of one pivot step."""
    for r in np.unique(piv):
        if r == col:
            continue
        hit = (piv == r)[:, None]
        for c in range(len(b)):
            a[col][c], a[r][c] = (
                _select(hit, a[r][c], a[col][c]), _select(hit, a[col][c], a[r][c])
            )
        b[col], b[r] = _select(hit, b[r], b[col]), _select(hit, b[col], b[r])


def _solve_jet_system(a, b, context=""):
    """Solve A X = B for jet entries by Gaussian elimination.

    Pivoting is by the largest constant term, per sample for a batch.  A
    matrix whose constant part is degenerate (:func:`rcond` not above
    RCOND_MIN) raises, giving the first such sample's sigma_min/sigma_max.
    """
    n = len(b)
    a = [row[:] for row in a]
    b = list(b)
    const = np.array([[entry.value for entry in row] for row in a])
    first = _first_degenerate(np.moveaxis(const, -1, 0) if const.ndim == 3 else const)
    if first is not None:
        raise DegenerateMetricError(
            f"degenerate metric{context}: det(g) ~ 0, "
            f"sigma_min/sigma_max = {first:.3e}"
        )
    for col in range(n):
        mags = np.abs([a[r][col].value for r in range(col, n)])
        if mags.ndim == 2 and mags.shape[1] > 1:
            _swap_rows(a, b, col, col + np.argmax(mags, axis=0))
        elif (piv := col + int(np.argmax(mags))) != col:  # one sample
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        inv = a[col][col].reciprocal()
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col] * inv
            for c in range(col + 1, n):
                a[r][c] = a[r][c] - factor * a[col][c]
            b[r] = b[r] - factor * b[col]
    return [b[i] * a[i][i].reciprocal() for i in range(n)]


def _ad_spray_jets(field, x, y, order):
    """Spray jets from the energy function via the variational formula."""
    n = field.n
    x = np.asarray(x, float)
    step = max(1, AD_CHUNK_COEFFS // jet_space(n, n, 1, order + 2).size)
    if x.ndim == 2 and len(x) > step:
        parts = [
            _ad_spray_jets(field, x[lo:lo + step], y[lo:lo + step], order)
            for lo in range(0, len(x), step)
        ]
        return [
            TaylorValue(gi[0].space, np.concatenate([g.coeffs for g in gi]))
            for gi in zip(*parts)
        ]
    xs, ys = seeded_arguments(n, x, y, 1, order + 2)
    f_jet = field.evaluate(xs, ys)
    f2 = f_jet * f_jet
    ys_mid = [ysi.drop_x().truncate(0, order + 1) for ysi in ys]
    rhs = []
    for h in range(n):
        ah = f2.dy(h)  # caps (1, order+1)
        t = None
        for r in range(n):
            term = ys_mid[r] * ah.dx(r).drop_x()
            t = term if t is None else t + term
        ch = f2.dx(h).drop_x().truncate(0, order + 1)
        rhs.append((t - ch).truncate(0, order))
    g = [
        [
            (f2.dy(i).dy(j) * 0.5).drop_x().truncate(0, order)
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
        msg = f"metric tensor nearly degenerate: sigma_min/sigma_max = {first:.3e}"
        warnings.warn(msg, DegenerateMetricWarning, stacklevel=2)
    return g


def berwald_tensor(spray, x, y):
    """Third fiber derivatives of the spray coefficients."""
    gj = spray.jets(x, y, 3)
    return _components([gi.fiber_tensor(3) for gi in gj], gj[0].batch is not None)


def landsberg_tensor(field, spray, x, y):
    """L_jkh = -1/2 F ell_i G^i_jkh."""
    return point_tensors(field, spray, x, y).L


def horizontal_differential(field, spray, x, y):
    """Components of dF along the horizontal lifts, d_iF - G^j_i dot_jF.

    Vanishes identically exactly when F is a first integral of the
    horizontal distribution of the spray, i.e. the first metrizability
    equation holds.
    """
    pt = point_tensors(field, spray, x, y)
    if pt.batch is None:
        return pt.dxF - pt.Gij.T @ pt.ell
    return np.array([pt.dxF[s] - pt.Gij[s].T @ pt.ell[s] for s in range(pt.batch)])


def euler_residual(field, x, y):
    """|y^i dot_iF - F|; zero for 1-homogeneous F by Euler's theorem."""
    fj = field.jet(x, y, 0, 1)
    y = np.asarray(y, float)
    ell, F = fj.fiber_tensor(1), fj.value
    if fj.batch is None:
        return abs(float(np.dot(y, ell)) - F)
    return np.array(
        [abs(float(np.dot(y[k], ell[k])) - F[k]) for k in range(fj.batch)]
    )


def _landsberg(F, ell, gijkh):
    # One dot product per (j, k, h) over a contiguous axis, so every
    # component rounds exactly as ell @ G[:, j, k, h] does.
    return -0.5 * F * np.inner(np.ascontiguousarray(np.moveaxis(gijkh, 0, -1)), ell)


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

    @property
    def batch(self):
        """Number of samples, or None for a one-sample record."""
        return None if self.x.ndim == 1 else len(self.x)

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
    def g_inv(self):
        return np.linalg.inv(self.g)

    @property
    def g_rcond(self):
        """sigma_min / sigma_max of g (see :func:`rcond`)."""
        return rcond(self.g)


def point_tensors(field, spray, x, y):
    """The per-sample record: F, d_xF, ell and g from one field jet at
    caps (1, 2), the spray tensors from one spray jet at order 3.  Raises
    ValueError, before the spray is evaluated, unless F > 0 (naming the
    first sample of a batch where it is not)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    fj = field.jet(x, y, 1, 2)
    F = fj.value
    bad = ~(np.asarray(F) > 0.0)
    if bad.any():
        s = np.argmax(bad) if bad.ndim else ...
        raise ValueError(
            f"F must be strictly positive on admissible samples; got "
            f"{float(np.asarray(F)[s])} at x = {x[s]}, y = {y[s]}"
        )
    batched = fj.batch is not None
    ell = fj.fiber_tensor(1)
    gj = spray.jets(x, y, 3)
    gijkh = _components([gi.fiber_tensor(3) for gi in gj], batched)
    if batched:
        L = np.array([_landsberg(F[s], ell[s], gijkh[s]) for s in range(len(F))])
    else:
        L = _landsberg(F, ell, gijkh)
    return PointTensors(
        x=x,
        y=y,
        F=F,
        dxF=_components([fj.dx(i).value for i in range(field.n)], batched),
        ell=ell,
        g=_energy_hessian(fj.drop_x()),
        G=_components([gi.value for gi in gj], batched),
        Gij=_components([gi.fiber_tensor(1) for gi in gj], batched),
        Gijk=_components([gi.fiber_tensor(2) for gi in gj], batched),
        Gijkh=gijkh,
        L=L,
    )
