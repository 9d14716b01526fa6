"""Exact symmetries of the pointwise tensors as known answers.

Homogeneity: y -> lam y
-----------------------

F is positively 1-homogeneous in y and the spray G^i 2-homogeneous, so at
(x, lam y) against (x, y), for lam > 0:

* ell_i = dot_i F and g_ij = dot_i dot_j (F^2 / 2) are unchanged (degree 0);
* the Berwald tensor G^i_jkh = dot_j dot_k dot_h G^i is divided by lam
  (degree -1);
* the Landsberg tensor L_jkh = -1/2 F ell_i G^i_jkh is unchanged (degree 0).

Each (alpha, beta) catalog entry is checked on the product, euclid and
mixed4 setups (an example on the one it fixes) with its closed-form
spray, at the 20 points of the seed-0 plan.  A comparison allows
``ROUNDING`` relative to the batch's largest entry of the tensor at
(x, y), or, for L, to each sample's cancellation scale
|F| max_jkh sum_i |ell_i| |G^i_jkh|: L is a sum of terms of that size
that cancels to rounding for these metrics, so its own size means
nothing.

Covariance: y -> M y
--------------------
With M = diag(1, A), A invertible, F'(x, y) = F(x, M y) is the same
metric in other fiber coordinates; for a block setup it is the same entry
at c' = A^T c A.  At (x, M^-1 y) the tensors of F' are those of F at
(x, y), transformed: F' = F, d_xF' = d_xF, ell' = M^T ell,
g' = M^T g M, G' = M^-1 G, G'^i_jkh = (M^-1)^i_a G^a_bcd M^b_j M^c_k M^d_h
and L'_jkh = L_bcd M^b_j M^c_k M^d_h.  Each of class1-4, shen_eq8 and
asanov_eq9 is checked on the product, euclid and mixed4 setups at the 20
points of the seed-0 plan; the examples fix their setup, and class4 at
(p, q) = (1, 0) is the same metric as example 3.1.  Every tensor is
checked on the closed-form route; G is checked on the variational route
too, whose F, d_xF, ell and g are the closed route's (the field does not
depend on the spray).  Each comparison allows a rounding allowance
relative to the batch's largest entry of the transformed tensor, or, for
L, to each sample's cancellation scale in the new coordinates.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from finslerlab import catalog
from finslerlab.geometry import ad_spray_field, point_tensors

from conftest import admissible_points

#: No power of two: one scales every float exactly, so the tensors at
#: (x, lam y) would repeat every rounding of those at (x, y) and the
#: comparison could not tell a wrong degree from the right one.
SCALINGS = (0.7, 1.3, 1.9)

#: The rounding allowance of every comparison, 128 units of float64
#: roundoff (2.8e-14): the jets at (x, lam y) round differently from those
#: at (x, y), by at most 37 units in these cases (L, class4 on euclid).
ROUNDING = 128 * np.finfo(float).eps

PRESETS = ("product", "euclid", "mixed4")
CASES = [
    (metric_id, quadratic)
    for metric_id, entry in catalog.CATALOG.items() if entry.has_closed_form
    for quadratic in ((entry.fixed[0],) if entry.fixed else PRESETS)
]


@functools.lru_cache(maxsize=None)
def _tensors(metric_id, quadratic):
    """The point tensors at (x, y) and at (x, lam y) for each scaling."""
    spec = catalog.make_spec(metric_id, quadratic=quadratic)
    field = catalog.build_finsler(spec)
    spray = catalog.closed_form_spray(spec)
    pts = admissible_points(field, 20, seed=0)
    x = np.array([p for p, _ in pts])
    y = np.array([q for _, q in pts])
    scaled = [point_tensors(field, spray, x, lam * y) for lam in SCALINGS]
    return point_tensors(field, spray, x, y), scaled


def _worst(base, scaled, degree, name):
    """max |lam^-degree T(x, lam y) - T(x, y)| over the scalings, relative
    to max |T(x, y)|."""
    ref = getattr(base, name)
    worst = max(np.abs(getattr(pt, name) * lam**-degree - ref).max()
                for lam, pt in zip(SCALINGS, scaled))
    return worst / np.abs(ref).max()


@pytest.mark.parametrize("metric_id, quadratic", CASES)
@pytest.mark.parametrize("name, degree", [("ell", 0), ("g", 0), ("Gijkh", -1)])
def test_fiber_tensors_scale_with_their_degree(metric_id, quadratic, name, degree):
    base, scaled = _tensors(metric_id, quadratic)
    assert _worst(base, scaled, degree, name) <= ROUNDING


@pytest.mark.parametrize("metric_id, quadratic", CASES)
def test_landsberg_tensor_is_unchanged_at_its_cancellation_scale(metric_id, quadratic):
    base, scaled = _tensors(metric_id, quadratic)
    terms = np.abs(base.ell)[:, :, None, None, None] * np.abs(base.Gijkh)
    scale = np.abs(base.F) * terms.sum(axis=1).reshape(len(base.F), -1).max(axis=1)
    for pt in scaled:
        change = np.abs(pt.L - base.L).reshape(len(base.F), -1).max(axis=1)
        assert (change <= ROUNDING * scale).all()


# ---------------------------------------------------------------------------
# covariance: y -> M y
# ---------------------------------------------------------------------------

#: A = I + 0.3 N(0, 1) from this seed: cond(A) 1.9 for n = 3, 2.0 for n = 4.
A_SEED = 5

#: (metric id, parameters) by case name: each entry at its defaults, and
#: class4 at (p, q) = (1, 0), the metric of examples 3.1-3.3, whose own
#: specs fix their setup and so refuse c'.
COVARIANCE_ENTRIES = {
    **{metric_id: (metric_id, None) for metric_id in (
        "class1", "class2", "class3", "class4", "shen_eq8", "asanov_eq9")},
    "examples": ("class4", {"p": 1.0, "q": 0.0}),
}
COVARIANCE_CASES = [(name, quadratic) for name in COVARIANCE_ENTRIES
                    for quadratic in PRESETS]

#: The rounding allowance of each spray route.  The closed route's is
#: ``ROUNDING``: its worst comparison is 26 units of roundoff (g, class3 on
#: euclid).  The variational spray solves a linear system of order-5 jets
#: of F^2, which rounds G by up to 452 units here (class3 on mixed4), so
#: its allowance is 4096 units (9.1e-13).
ALLOWANCE = {"closed": ROUNDING, "variational": 4096 * np.finfo(float).eps}


@functools.lru_cache(maxsize=None)
def _covariant_tensors(case, quadratic, route):
    """(want, got): the tensors of the entry at (x, y), transformed by M,
    and the point tensors of the entry at c' = A^T c A at (x, M^-1 y)."""
    metric_id, params = COVARIANCE_ENTRIES[case]
    spec = catalog.make_spec(metric_id, params, quadratic=quadratic)
    n = spec.setup.n
    A = np.eye(n - 1) + 0.3 * np.random.default_rng(A_SEED).normal(size=(n - 1, n - 1))
    M = np.eye(n)
    M[1:, 1:] = A
    M_inv = np.linalg.inv(M)
    moved = catalog.make_spec(metric_id, params, quadratic=A.T @ spec.setup.c @ A)
    field = catalog.build_finsler(spec)
    pts = admissible_points(field, 20, seed=0)
    x = np.array([p for p, _ in pts])
    y = np.array([q for _, q in pts])
    tensors = []
    for spec_, y_ in ((spec, y), (moved, y @ M_inv.T)):
        field_ = catalog.build_finsler(spec_)
        spray = (catalog.closed_form_spray(spec_) if route == "closed"
                 else ad_spray_field(field_))
        tensors.append(point_tensors(field_, spray, x, y_))
    base, got = tensors
    want = {
        "F": base.F,
        "dxF": base.dxF,
        "ell": base.ell @ M,
        "g": np.einsum("sab,ai,bj->sij", base.g, M, M),
        "G": base.G @ M_inv.T,
        "Gijkh": np.einsum("ia,sabcd,bj,ck,dh->sijkh", M_inv, base.Gijkh, M, M, M),
        "L": np.einsum("sbcd,bj,ck,dh->sjkh", base.L, M, M, M),
    }
    return want, got


@pytest.mark.parametrize("case, quadratic", COVARIANCE_CASES)
@pytest.mark.parametrize("name, route", [
    ("F", "closed"), ("dxF", "closed"), ("ell", "closed"), ("g", "closed"),
    ("G", "closed"), ("G", "variational"), ("Gijkh", "closed"),
])
def test_tensors_transform_covariantly(case, quadratic, name, route):
    want, got = _covariant_tensors(case, quadratic, route)
    worst = np.abs(getattr(got, name) - want[name]).max()
    assert worst <= ALLOWANCE[route] * np.abs(want[name]).max()


@pytest.mark.parametrize("case, quadratic", COVARIANCE_CASES)
def test_landsberg_tensor_transforms_covariantly_at_its_cancellation_scale(
        case, quadratic):
    want, got = _covariant_tensors(case, quadratic, "closed")
    terms = np.abs(got.ell)[:, :, None, None, None] * np.abs(got.Gijkh)
    scale = np.abs(got.F) * terms.sum(axis=1).reshape(len(got.F), -1).max(axis=1)
    change = np.abs(got.L - want["L"]).reshape(len(got.F), -1).max(axis=1)
    assert (change <= ROUNDING * scale).all()
