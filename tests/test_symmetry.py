"""Homogeneity known answers of the pointwise tensors: y -> lam y.

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
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from finslerlab import catalog
from finslerlab.geometry import point_tensors

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
