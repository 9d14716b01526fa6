"""(alpha, beta)-metric machinery for the conformally-flat setup.

The underlying Riemannian data is always of the special block form

    a_11 = f(x^1)^2,   a_1mu = 0,   a_lam_mu = f(x^1)^2 c_lam_mu,

with the one-form b = (f(x^1), 0, ..., 0), so b^2 = 1, the skew part of
the covariant derivative of b vanishes (s_ij = 0), and r_00 reduces to
(alpha^2 - beta^2) f'/f^2.  Every operation here assumes (and exploits)
that structure; general Riemannian backgrounds with s_ij != 0 are out of
scope and are rejected by construction.

Q and Theta are never hand-differentiated: they are derived from phi by
jet arithmetic, so the published closed forms in the catalog become test
oracles instead of trusted inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import jets
from .geometry import SprayField, _degeneracy
from .jets import (SingularPointError, TaylorValue, compose_series,
                   fiber_arguments, jet_space)

__all__ = [
    "RiemannSetup",
    "PhiFunction",
    "riemann_spray",
    "q_theta",
    "q_aux",
    "ab_spray",
    "ab_spray_field",
    "shen_class_spray",
    "shen_class_spray_field",
]

#: Denominators in Q / Theta below this magnitude raise.
PARAM_DEN_TOL = 1e-12


class RiemannSetup:
    """Riemannian block data: conformal factor f(x^1) and quadratic form c.

    ``f`` must be evaluable on a TaylorValue (its derivative is obtained
    by jets, never symbolically); ``c`` is the non-singular symmetric
    (n-1) x (n-1) constant matrix of the fiber quadratic form phi(yhat).
    """

    def __init__(self, n, f, c):
        c = np.asarray(c, dtype=float)
        if n < 3:
            raise ValueError("setup needs dimension n >= 3")
        if c.shape != (n - 1, n - 1):
            raise ValueError(f"c must be {(n - 1, n - 1)}, got {c.shape}")
        if not np.allclose(c, c.T, rtol=0, atol=1e-12):
            raise ValueError("c must be symmetric")
        if _degeneracy(c)[1]:
            raise ValueError("c must be non-singular")
        self.n = n
        self.f = f
        self.c = 0.5 * (c + c.T)
        self.c_inv = np.linalg.inv(self.c)
        self.b2 = 1.0

    def __repr__(self):
        return f"RiemannSetup(n={self.n})"

    def f_values(self, x1):
        """(f(x1), f'(x1)) via a base-order-1 jet."""
        space = jet_space(1, 0, 1, 0)
        fj = self.f(space.seed_x(0, float(x1)))
        fv = fj.value
        if fv <= 0.0:
            raise ValueError(f"f(x^1) must be positive, got {fv} at x^1={x1}")
        return fv, fj.extract((1,))

    def k_value(self, x1):
        fv, fp = self.f_values(x1)
        return fp / fv**2

    def phi_value(self, yhat):
        yhat = np.asarray(yhat, float)
        return float(yhat @ self.c @ yhat)

    def phi_jet(self, y_jets):
        acc = None
        for lam in range(self.n - 1):
            for mu in range(self.n - 1):
                cc = self.c[lam, mu]
                if cc == 0.0:
                    continue
                term = (y_jets[1 + lam] * y_jets[1 + mu]) * cc
                acc = term if acc is None else acc + term
        if acc is None:
            raise ValueError("quadratic form is identically zero")
        return acc

    def a_matrix(self, x1):
        fv, _ = self.f_values(x1)
        a = np.zeros((self.n, self.n))
        a[0, 0] = fv**2
        a[1:, 1:] = fv**2 * self.c
        return a

    def a_inverse(self, x1):
        fv, _ = self.f_values(x1)
        a = np.zeros((self.n, self.n))
        a[0, 0] = 1.0 / fv**2
        a[1:, 1:] = self.c_inv / fv**2
        return a

    def christoffel(self, x1):
        """gamma^h_ij of the Levi-Civita connection (closed form)."""
        fv, fp = self.f_values(x1)
        ratio = fp / fv
        n = self.n
        gam = np.zeros((n, n, n))
        gam[0, 0, 0] = ratio
        gam[0, 1:, 1:] = -ratio * self.c
        for mu in range(1, n):
            gam[mu, 0, mu] = gam[mu, mu, 0] = ratio
        return gam

    def b_covariant_derivative(self, x1):
        """b_{i|j}; symmetric, equal to k (a_ij - b_i b_j)."""
        _, fp = self.f_values(x1)
        out = np.zeros((self.n, self.n))
        out[1:, 1:] = fp * self.c
        return out

    def b_covector(self, x1):
        fv, _ = self.f_values(x1)
        b = np.zeros(self.n)
        b[0] = fv
        return b

    def b_vector(self, x1):
        fv, _ = self.f_values(x1)
        b = np.zeros(self.n)
        b[0] = 1.0 / fv
        return b

    def riemann_spray_field(self):
        return SprayField(
            self.n,
            lambda x, y, order: riemann_spray_jets(self, x, y, order),
            label="riemann-alpha",
        )


def riemann_spray_jets(setup, x, y, order):
    _, y_jets = fiber_arguments(setup.n, y, order)
    return _riemann_components(setup, float(x[0]), y_jets)


def _riemann_components(setup, x1, y_jets):
    fv, fp = setup.f_values(x1)
    y1 = y_jets[0]
    phi = setup.phi_jet(y_jets)
    alpha2 = (y1 * y1 + phi) * fv**2
    g1 = (y1 * y1 * (2 * fv**2) - alpha2) * (fp / (2 * fv**3))
    ratio = fp / fv
    return [g1] + [y1 * y_mu * ratio for y_mu in y_jets[1:]]


def riemann_spray(setup, x, y):
    """Levi-Civita geodesic coefficients of alpha at a point."""
    return np.array([g.value for g in riemann_spray_jets(setup, x, y, 0)])


@dataclass(frozen=True)
class PhiFunction:
    """A scalar profile phi(s) evaluable on jets, with its domain data."""

    fn: Callable[[TaylorValue], TaylorValue]
    label: str = ""
    b0: float = 1.0
    admissible: Callable[[float], bool] = field(default=lambda s: True)

    def __call__(self, t):
        return self.fn(t)


def _phi_jet_at(phi, s0, cap):
    space = jet_space(0, 1, 0, cap)
    return phi.fn(space.seed_y(0, float(s0))), space


def _q_w_theta_jets(phi, s0, order, b2):
    """Univariate jets of Q, Q'/(Q - tQ') and Theta at t = s0."""
    phj, space = _phi_jet_at(phi, s0, order + 2)
    t1 = space.seed_y(0, s0).truncate(0, order + 1)
    p1 = phj.dy(0)
    den = phj.truncate(0, order + 1) - t1 * p1
    if abs(den.value) <= PARAM_DEN_TOL:
        raise SingularPointError(
            f"phi - t phi' vanishes for {phi.label or 'phi'}", den.value
        )
    q = p1 / den  # cap order+1
    qp = q.dy(0)  # cap order
    qt = q.truncate(0, order)
    t0 = t1.truncate(0, order)
    num_theta = qt - t0 * qp
    if not np.any(qp.coeffs):
        # Riemannian profile (phi' = 0): the projective factor never
        # enters because Theta = 0; define W = 0 rather than 0/0.
        w = qp.space.constant(0.0)
    else:
        if abs(num_theta.value) <= PARAM_DEN_TOL:
            raise SingularPointError(
                f"Q - tQ' vanishes for {phi.label or 'phi'}", num_theta.value
            )
        w = qp / num_theta
    den_theta = (t0 * qt + (b2 - t0 * t0) * qp + 1.0) * 2.0
    if abs(den_theta.value) <= PARAM_DEN_TOL:
        raise SingularPointError(
            f"Theta denominator vanishes for {phi.label or 'phi'}",
            den_theta.value,
        )
    theta = num_theta / den_theta
    return q, w, theta


def q_theta(phi, s, b2=1.0):
    """(Q(s), Theta(s)) derived from phi by jets (no hand derivatives)."""
    if abs(s) >= phi.b0:
        raise ValueError(f"|s| = {abs(s)} outside (-b0, b0) = (-{phi.b0}, {phi.b0})")
    q, _, theta = _q_w_theta_jets(phi, s, 0, b2)
    return q.value, theta.value


def q_aux(phi, s, b2=1.0):
    """(Q, Q', Q'/(Q - sQ'), Theta) at s, all from phi by jets."""
    q, w, theta = _q_w_theta_jets(phi, s, 1, b2)
    return q.value, q.extract((1,)), w.value, theta.value


def ab_spray_jets(phi, setup, x, y, order):
    """Spray of F = alpha phi(beta/alpha) in the block setup, as jets.

    With s_ij = 0 the general spray formula collapses to

        G^i = G_alpha^i + Theta r_00 (y^i / alpha + Q'/(Q - sQ') b^i),

    where r_00 = (alpha^2 - beta^2) f'/f^2 = f' phi(yhat).
    """
    n = setup.n
    _, y_jets = fiber_arguments(n, y, order)
    fv, fp = setup.f_values(x[0])
    y1 = y_jets[0]
    phi_y = setup.phi_jet(y_jets)
    w2 = y1 * y1 + phi_y
    w = jets.sqrt(w2)
    s_jet = y1 / w  # beta/alpha; the conformal factor cancels
    s0 = s_jet.value
    if abs(s0) >= phi.b0:
        raise SingularPointError("direction outside the phi domain", s0)
    qj, wj, thetaj = _q_w_theta_jets(phi, s0, order, setup.b2)
    h = s_jet - s0
    w_y = compose_series(wj.coeffs, h)
    theta_y = compose_series(thetaj.coeffs, h)
    r00 = phi_y * fp
    galpha = _riemann_components(setup, float(x[0]), y_jets)
    out = []
    for i in range(n):
        bracket = y_jets[i] / (w * fv)
        if i == 0:
            bracket = bracket + w_y * (1.0 / fv)
        out.append(galpha[i] + theta_y * r00 * bracket)
    return out


def ab_spray(phi, setup, x, y):
    return np.array([g.value for g in ab_spray_jets(phi, setup, x, y, 0)])


def ab_spray_field(phi, setup, domain_guard=None, label=""):
    return SprayField(
        setup.n,
        lambda x, y, order: ab_spray_jets(phi, setup, x, y, order),
        label=label or f"ab:{phi.label}",
        domain_guard=domain_guard,
    )


def shen_class_spray_jets(c1, c3, setup, x, y, order):
    """Spray of the two-constant Landsberg class over the block setup.

    Literal deformation form (b0 = 1):

        G^i = G_alpha^i
            + (c1 k sqrt(alpha^2 - beta^2) / (2 (1 + c3)))
              * (y^i - beta b^i + (c3/c1) sqrt(alpha^2 - beta^2) b^i),

    with k = f'/f^2.  Kept independent of the per-class closed forms so
    it can serve as a cross-oracle against them.
    """
    if c1 == 0.0:
        raise ValueError("c1 must be non-zero")
    if 1.0 + c3 * setup.b2 <= 0.0:
        raise ValueError("1 + c3 b0^2 must be positive")
    n = setup.n
    _, y_jets = fiber_arguments(n, y, order)
    fv, fp = setup.f_values(x[0])
    k = fp / fv**2
    y1 = y_jets[0]
    phi_y = setup.phi_jet(y_jets)
    root = jets.sqrt(phi_y) * fv  # sqrt(alpha^2 - beta^2)
    beta = y1 * fv
    bvec = setup.b_vector(x[0])
    front = root * (c1 * k / (2.0 * (1.0 + c3)))
    galpha = _riemann_components(setup, float(x[0]), y_jets)
    out = []
    for i in range(n):
        bracket = y_jets[i]
        if bvec[i] != 0.0:
            bracket = bracket - beta * bvec[i] + root * (c3 / c1 * bvec[i])
        out.append(galpha[i] + front * bracket)
    return out


def shen_class_spray(c1, c3, setup, x, y):
    return np.array(
        [g.value for g in shen_class_spray_jets(c1, c3, setup, x, y, 0)]
    )


def shen_class_spray_field(c1, c3, setup, domain_guard=None):
    return SprayField(
        setup.n,
        lambda x, y, order: shen_class_spray_jets(c1, c3, setup, x, y, order),
        label=f"shen-class(c1={c1}, c3={c3})",
        domain_guard=domain_guard,
    )
