"""(alpha, beta)-metric machinery for the conformally-flat setup.

The underlying Riemannian data is always of the special block form

    a_11 = f(x^1)^2,   a_1mu = 0,   a_lam_mu = f(x^1)^2 c_lam_mu,

with the one-form b = (f(x^1), 0, ..., 0), so b^2 = 1 (written as the
literal 1 wherever the general formulas carry b^2), the skew part of the
covariant derivative of b vanishes (s_ij = 0), and r_00 reduces to
(alpha^2 - beta^2) f'/f^2.  Every operation here assumes (and exploits)
that structure; general Riemannian backgrounds with s_ij != 0 are out of
scope and are rejected by construction.

Q and Theta are never hand-differentiated: they are derived from phi by
jet arithmetic, so the published closed forms in the catalog become test
oracles instead of trusted inputs.

Each spray has one constructor, returning a :class:`SprayField` (float
values through ``SprayField.values``): alpha's Levi-Civita spray
(``RiemannSetup.riemann_spray_field``), the eq. (5) spray of
alpha phi(beta/alpha) (``ab_spray_field``) and Shen's two-constant class
(``shen_class_spray_field``).  Each is a formula in lambda = f'/f and
phi(yhat), as are the catalog's closed-form sprays, so G = lambda(x^1) H(y),
linear in lambda bit for bit; ``RiemannSetup.spray_jets`` applies one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import jets
from .geometry import RCOND_MIN, SprayField, rcond, seeded_arguments
from .jets import TaylorValue, branch, compose_series, jet_space, raise_if_singular

__all__ = [
    "RiemannSetup",
    "PhiFunction",
    "q_theta",
    "q_aux",
    "ab_spray_field",
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
        if not np.all(np.isfinite(c)):
            raise ValueError(f"c must be finite, got {c.tolist()}")
        if c.shape != (n - 1, n - 1):
            raise ValueError(f"c must be {(n - 1, n - 1)}, got {c.shape}")
        if np.abs(c - c.T).max() > 1e-12 * np.abs(c).max():
            raise ValueError("c must be symmetric")
        if not (rc := rcond(c)) > RCOND_MIN:
            raise ValueError(f"c must be non-singular: sigma_min/sigma_max = {rc:.3e}")
        self.n = n
        self.f = f
        self.c = 0.5 * (c + c.T)

    def __repr__(self):
        return f"RiemannSetup(n={self.n})"

    def f_values(self, x1):
        """(f(x1), f'(x1)) via a base-order-1 jet; arrays of both for a
        batch of x1 values."""
        x1 = np.asarray(x1, dtype=float)
        space = jet_space(1, 0, 1, 0)
        fj = self.f(space.seed_x(0, x1))
        fv = fj.value
        if not np.all(fv > 0.0):  # a NaN f is not positive either
            every = np.broadcast_to(fv, x1.shape)
            s = np.argmax(~(every > 0.0)) if x1.ndim else ...
            raise ValueError(
                f"f(x^1) must be positive, got {every[s]} at x^1={x1[s]}"
            )
        return fv, fj.dx(0).value

    def phi_value(self, yhat):
        yhat = np.asarray(yhat, float)
        return float(yhat @ self.c @ yhat)

    def phi_jet(self, y_jets):
        """c[lam, mu] y^lam y^mu summed over lam <= mu: c is symmetric, so
        an off-diagonal pair is one jet product with its coefficient doubled."""
        acc = None
        for lam in range(self.n - 1):
            for mu in range(lam, self.n - 1):
                cc = self.c[lam, mu] if lam == mu else self.c[lam, mu] * 2.0
                if cc == 0.0:
                    continue
                term = (y_jets[1 + lam] * y_jets[1 + mu]) * cc
                acc = term if acc is None else acc + term
        return acc

    def spray_jets(self, components, x, y, order):
        """``components(rate, phi, y_jets)``, a spray formula over this setup,
        at fiber order ``order``: the one place a block spray seeds its fiber
        arguments and reads f, f' at x^1 (``rate`` = f'/f) and phi(yhat)'s jet."""
        _, y_jets = seeded_arguments(self.n, x, y, 0, order)
        fv, fp = self.f_values(np.asarray(x)[..., 0])
        return components(fp / fv, self.phi_jet(y_jets), y_jets)

    def spray_field(self, components, label, domain_guard=None):
        """The SprayField of the spray formula ``components`` (:meth:`spray_jets`)."""
        return SprayField(self.n, partial(self.spray_jets, components),
                          label=label, domain_guard=domain_guard)

    def riemann_spray_field(self):
        """Levi-Civita geodesic spray of alpha."""
        return self.spray_field(_riemann_components, "riemann-alpha")


def _riemann_components(rate, phi, y_jets):
    """Levi-Civita spray of alpha from lambda = f'/f and the jet of phi(yhat):
    G^1 = ((y^1)^2 - phi) lambda/2, G^mu = y^1 y^mu lambda."""
    y1 = y_jets[0]
    return [(y1 * y1 - phi) * (rate * 0.5)] + [y1 * y_mu * rate for y_mu in y_jets[1:]]


@dataclass(frozen=True)
class PhiFunction:
    """A scalar profile phi(s) evaluable on jets, with its domain data."""

    fn: Callable[[TaylorValue], TaylorValue]
    label: str = ""
    admissible: Callable[[float], bool] = field(default=lambda s: True)

    def __call__(self, t):
        return self.fn(t)


def _q_w_theta_jets(phi, s0, order):
    """Univariate jets of Q, Q'/(Q - tQ') and Theta at t = s0 (a float,
    or one per sample)."""
    label = phi.label or "phi"
    space = jet_space(0, 1, 0, order + 2)
    phj = phi.fn(space.seed_y(0, s0))
    t1 = space.seed_y(0, s0).truncate(0, order + 1)
    p1 = phj.dy(0)
    den = phj.truncate(0, order + 1) - t1 * p1
    raise_if_singular(abs(den.value) <= PARAM_DEN_TOL,
                      f"phi - t phi' vanishes for {label}", den.value)
    q = p1 / den  # cap order+1
    qp = q.dy(0)  # cap order
    qt = q.truncate(0, order)
    t0 = t1.truncate(0, order)
    num_theta = qt - t0 * qp

    def quotient(qp, num_theta):
        raise_if_singular(abs(num_theta.value) <= PARAM_DEN_TOL,
                          f"Q - tQ' vanishes for {label}", num_theta.value)
        return qp / num_theta

    # Riemannian profile (phi' = 0): the projective factor never enters
    # because Theta = 0; define W = 0 rather than 0/0.
    w = branch(~np.any(qp.coeffs, axis=-1),
               lambda qp, num_theta: qp.space.constant(0.0), quotient,
               qp, num_theta)
    den_theta = (t0 * qt + (1.0 - t0 * t0) * qp + 1.0) * 2.0
    raise_if_singular(abs(den_theta.value) <= PARAM_DEN_TOL,
                      f"Theta denominator vanishes for {label}", den_theta.value)
    theta = num_theta / den_theta
    return q, w, theta


def _checked_s(s):
    """s itself, or a ValueError unless |s| < 1."""
    if not abs(s) < 1.0:
        raise ValueError(f"|s| = {abs(s)} outside (-1, 1)")
    return s


def q_theta(phi, s):
    """(Q(s), Theta(s)) derived from phi by jets (no hand derivatives)."""
    q, _, theta = _q_w_theta_jets(phi, _checked_s(s), 0)
    return q.value, theta.value


def q_aux(phi, s):
    """(Q, Q', Q'/(Q - sQ'), Theta) at s, all from phi by jets."""
    q, w, theta = _q_w_theta_jets(phi, _checked_s(s), 1)
    return q.value, q.dy(0).value, w.value, theta.value


def ab_spray_field(phi, setup, domain_guard=None):
    """Spray of F = alpha phi(beta/alpha) in the block setup.

    With s_ij = 0 the general spray formula collapses to

        G^i = G_alpha^i + Theta r_00 (y^i / alpha + Q'/(Q - sQ') b^i),

    where r_00 = (alpha^2 - beta^2) f'/f^2 = f' phi(yhat).  As alpha = f w and
    b^1 = 1/f, the term is Theta phi lambda (y^i/w + delta^i_1 Q'/(Q - sQ')).
    """
    def components(rate, phi_y, y_jets):
        y1 = y_jets[0]
        w = jets.sqrt(y1 * y1 + phi_y)  # alpha / f
        s_jet = y1 / w  # beta/alpha
        s0 = s_jet.value
        raise_if_singular(abs(s0) >= 1.0, "direction outside the phi domain", s0)
        _, wj, thetaj = _q_w_theta_jets(phi, s0, y1.space.y_cap)
        h = s_jet - s0
        w_y = compose_series(wj.coeffs, h)
        theta_y = compose_series(thetaj.coeffs, h)
        front = theta_y * (phi_y * rate)  # Theta r_00 / f
        galpha = _riemann_components(rate, phi_y, y_jets)
        brackets = [y1 / w + w_y, *(y_mu / w for y_mu in y_jets[1:])]
        return [g + front * bracket for g, bracket in zip(galpha, brackets)]

    return setup.spray_field(components, f"ab:{phi.label}", domain_guard)


def shen_class_spray_field(c1, c3, setup):
    """Spray of the two-constant Landsberg class over the block setup.

    Literal deformation form (b^2 = 1):

        G^i = G_alpha^i
            + (c1 k sqrt(alpha^2 - beta^2) / (2 (1 + c3)))
              * (y^i - beta b^i + (c3/c1) sqrt(alpha^2 - beta^2) b^i),

    with k = f'/f^2.  Substituting sqrt(alpha^2 - beta^2) = f sqrt(phi), k =
    lambda/f and beta b^1 = y^1 gives the front factor sqrt(phi) lambda c1 /
    (2 (1 + c3)) and the G^1 bracket (c3/c1) sqrt(phi).  Kept independent of
    the per-class closed forms so it can serve as a cross-oracle against them.
    """
    if not np.isfinite([c1, c3]).all():
        raise ValueError(f"c1 and c3 must be finite, got c1 = {c1}, c3 = {c3}")
    if c1 == 0.0:
        raise ValueError("c1 must be non-zero")
    if 1.0 + c3 <= 0.0:
        raise ValueError("1 + c3 must be positive")

    def components(rate, phi_y, y_jets):
        root = jets.sqrt(phi_y)  # sqrt(alpha^2 - beta^2) / f
        front = root * (rate * (c1 / (2.0 * (1.0 + c3))))
        galpha = _riemann_components(rate, phi_y, y_jets)
        brackets = [root * (c3 / c1), *y_jets[1:]]
        return [g + front * bracket for g, bracket in zip(galpha, brackets)]

    return setup.spray_field(components, f"shen-class(c1={c1}, c3={c3})")
