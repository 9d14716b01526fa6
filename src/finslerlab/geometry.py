"""Tensor pipeline: metric, geodesic spray, Berwald and Landsberg tensors.

Everything here is a pure function of a :class:`FinslerField` (a scalar
function of base point x and direction y, evaluable on jets) and/or a
:class:`SprayField`.  :func:`point_tensors` is the per-sample pipeline: one
field jet at caps (1, 2) gives F, d_xF, ell and g, one spray jet at fiber
order 3 gives G and its fiber derivatives, all read with
:meth:`TaylorValue.fiber_tensor`; the tensor helpers wrap it.  Two spray
routes exist:

* closed-form sprays supplied by the catalog (cheap; fiber order 3 is
  enough for the Berwald tensor), and
* the variational route, which derives the spray from the field itself,
  ``G^i = 1/4 g^{ih} (y^r d_r dot_h F^2 - d_h F^2)``, needing fiber
  order 5 and base order 1.  This is the oracle the closed forms are
  checked against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .jets import JetUsageError, jet_space

__all__ = [
    "FinslerField",
    "SprayField",
    "PointTensors",
    "DegenerateMetricError",
    "DegenerateMetricWarning",
    "metric_tensor",
    "geodesic_spray",
    "ad_spray_field",
    "berwald_tensor",
    "landsberg_tensor",
    "horizontal_differential",
    "euler_residual",
    "point_tensors",
]

#: |det g| below DET_RTOL times the Frobenius scale of g counts as degenerate.
DET_RTOL = 1e-10


class DegenerateMetricError(RuntimeError):
    """Metric tensor (numerically) singular; carries the determinant."""

    def __init__(self, message, det=None):
        if det is not None:
            message = f"{message}: det(g) = {det:.3e}"
        super().__init__(message)
        self.det = det


class DegenerateMetricWarning(RuntimeWarning):
    pass


def _degeneracy(m):
    """(det m, whether |det m| < DET_RTOL * s**k for the k x k matrix m),
    with s the Frobenius norm of m over sqrt(k)."""
    k = len(m)
    scale = np.linalg.norm(m) / max(1, np.sqrt(k))
    det = float(np.linalg.det(m))
    return det, abs(det) < DET_RTOL * max(scale, 1e-300) ** k


class FinslerField:
    """A scalar function F(x, y) evaluable on Taylor-value arguments.

    ``evaluate(xs, ys)`` receives one TaylorValue per coordinate (the x
    entries may be constant jets) and must return a TaylorValue in the
    same space.  ``domain_guard(x, y)`` is a cheap float-only test for
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
        return self.evaluate(xs, ys)

    def value(self, x, y):
        return self.jet(x, y, 0, 1).value


def seeded_arguments(n, x, y, x_cap, y_cap):
    """Seed (x, y) coordinates into a shared jet space.

    With ``x_cap == 0`` the x coordinates enter as constants in a space
    with no x variables, which keeps fiber-only work cheap.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (n,) or y.shape != (n,):
        raise JetUsageError(f"expected {n} coordinates in each group")
    if x_cap > 0:
        space = jet_space(n, n, x_cap, y_cap)
        xs = [space.seed_x(i, x[i]) for i in range(n)]
    else:
        space = jet_space(0, n, 0, y_cap)
        xs = [space.constant(x[i]) for i in range(n)]
    ys = [space.seed_y(i, y[i]) for i in range(n)]
    return xs, ys


class SprayField:
    """Spray coefficients G^i evaluable as fiber jets.

    ``jets_fn(x, y, order)`` returns the n coefficients as TaylorValues
    in the pure-y space (0, n, 0, order).  The optional ``domain_guard``
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
        return self._jets_fn(np.asarray(x, float), np.asarray(y, float), order)

    def values(self, x, y):
        return np.array([g.value for g in self.jets(x, y, 0)])


# ---------------------------------------------------------------------------
# variational spray (the oracle path)
# ---------------------------------------------------------------------------


def _solve_jet_system(a, b, context=""):
    """Solve A X = B for jet entries by Gaussian elimination.

    Pivoting is by the largest constant term; a pivot below the
    degeneracy threshold raises, naming the determinant of the constant
    part.
    """
    n = len(b)
    a = [row[:] for row in a]
    b = list(b)
    det, degenerate = _degeneracy(
        np.array([[entry.value for entry in row] for row in a])
    )
    if degenerate:
        raise DegenerateMetricError(f"degenerate metric{context}", det=det)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col].value))
        if piv != col:
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


def geodesic_spray(field, x, y):
    """Geodesic spray coefficients G^i as floats (variational route)."""
    return np.array([g.value for g in _ad_spray_jets(field, x, y, 0)])


# ---------------------------------------------------------------------------
# pointwise tensors
# ---------------------------------------------------------------------------


def _energy_hessian(f_jet):
    """g_ij, the fiber Hessian of F^2/2, from a pure-y jet of F."""
    return (f_jet * f_jet * 0.5).fiber_tensor(2)


def metric_tensor(field, x, y):
    """Hessian of the energy F^2/2 in the fiber variables."""
    g = _energy_hessian(field.jet(x, y, 0, 2))
    det, degenerate = _degeneracy(g)
    if degenerate:
        warnings.warn(
            f"metric tensor nearly degenerate: det(g) = {det:.3e}",
            DegenerateMetricWarning,
            stacklevel=2,
        )
    return g


def berwald_tensor(spray, x, y):
    """Third fiber derivatives of the spray coefficients."""
    return np.array([gi.fiber_tensor(3) for gi in spray.jets(x, y, 3)])


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
    return pt.dxF - pt.Gij.T @ pt.ell


def euler_residual(field, x, y):
    """|y^i dot_iF - F|; zero for 1-homogeneous F by Euler's theorem."""
    fj = field.jet(x, y, 0, 1)
    return abs(float(np.dot(np.asarray(y, float), fj.fiber_tensor(1))) - fj.value)


@dataclass(frozen=True)
class PointTensors:
    """All pointwise tensors of one (field, spray, sample) triple; spray
    tensors put the component first (``Gij[i, j]`` is dot_j G^i)."""

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
    def g_inv(self):
        return np.linalg.inv(self.g)

    @property
    def det_g(self):
        return float(np.linalg.det(self.g))


def point_tensors(field, spray, x, y):
    """The per-sample record: F, d_xF, ell and g from one field jet at
    caps (1, 2), the spray tensors from one spray jet at order 3.  Raises
    ValueError, before the spray is evaluated, unless F > 0."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    fj = field.jet(x, y, 1, 2)
    if not fj.value > 0.0:
        raise ValueError(
            f"F must be strictly positive on admissible samples; got "
            f"{fj.value} at x = {x}, y = {y}"
        )
    ell = fj.fiber_tensor(1)
    gj = spray.jets(x, y, 3)
    gijkh = np.array([gi.fiber_tensor(3) for gi in gj])
    return PointTensors(
        x=x,
        y=y,
        F=fj.value,
        dxF=np.array([fj.dx(i).value for i in range(field.n)]),
        ell=ell,
        g=_energy_hessian(fj.drop_x()),
        G=np.array([gi.value for gi in gj]),
        Gij=np.array([gi.fiber_tensor(1) for gi in gj]),
        Gijk=np.array([gi.fiber_tensor(2) for gi in gj]),
        Gijkh=gijkh,
        # One dot product per (j, k, h) over a contiguous axis, so every
        # component rounds exactly as ell @ G[:, j, k, h] does.
        L=-0.5 * fj.value * np.inner(
            np.ascontiguousarray(np.moveaxis(gijkh, 0, -1)), ell
        ),
    )
