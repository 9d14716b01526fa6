"""Executable catalog of non-Berwaldian Landsberg metrics.

Each entry bundles an explicit Finsler function F, its closed-form
geodesic spray (through the quadratic coefficient G^1 and the projective
factor P with G^mu = P y^mu), the published non-zero Berwald component used
as a non-Berwaldness witness, and parameter-validity rules.

All entries except ``shen_r3_eq1`` are (alpha, beta)-metrics
F = alpha phi(beta/alpha) over the block Riemannian setup of
:mod:`finslerlab.alphabeta` (beta = f(x^1) y^1, alpha^2 - beta^2 =
f(x^1)^2 phi(yhat)).  Each is written once, as a :class:`Profile`: its
degree-1 profile psi(b, r) in b = beta and r = sqrt(alpha^2 - beta^2),
its float domain test and its spray constants (kappa, 1 + c3).  F =
f(x^1) psi(y^1, sqrt(phi(yhat))), phi(s) = psi(s, sqrt(1 - s^2)), the
sampling guard and the closed-form spray all derive from it.  f(x^1) is
the left-most factor of psi's product and r^2 is passed in as phi(yhat)
itself, so F is the formula below operation for operation.

``shen_r3_eq1`` has its own warped Riemannian part and therefore no
closed-form spray: it is verified purely through the variational spray
route.  Its F is the examples' psi with the warped r.

The four parametric classes, F / f(x^1) = psi(b, r):

    class1  (a b + r) exp(a b / (a b + r))
    class2  ((a+1)b + r)^{(1+a)/2} ((a-1)b + r)^{(1-a)/2}
    class3  a b + (r^2) / (a b + 2 r)
    class4  sqrt(b^2 + r^2 + p b r + q b^2) exp(...arctanh/arctan...)

class4 dispatches on the discriminant p^2 - 4q - 4: positive uses the
real arctanh branch, negative the real arctan form, zero reduces to
class1 with a = p/2.

Each :class:`CatalogEntry` is the one definition of its entry: source,
defaults, profile, parameter rules and any setup it fixes;
``finslerlab list`` prints the rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import jets
from .alphabeta import PhiFunction, RiemannSetup
from .geometry import DegenerateMetricError, FinslerField, SprayField

__all__ = [
    "CatalogError",
    "MetricClassSpec",
    "ClosedFormSpray",
    "CATALOG",
    "EXPECTED_VERDICT",
    "make_setup",
    "make_spec",
    "build_finsler",
    "closed_form_spray",
    "phi_function",
    "expected_berwald_component",
    "class_equivalence_pairs",
    "QUADRATIC_PRESETS",
]


class CatalogError(ValueError):
    """Unknown entry or invalid parameters."""


# Margins used by the domain guards.  The catalog metrics are non-regular:
# they are singular where phi(yhat) -> 0 or where a class denominator
# changes sign, so sampling keeps a relative distance from those sets.
PHI_MARGIN = 0.05
DEN_MARGIN = 0.05
RAD_MARGIN = 0.05

QUADRATIC_PRESETS = {
    "product": np.array([[0.0, 0.5], [0.5, 0.0]]),
    "euclid": None,  # identity, any dimension
    "mixed4": np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]]),
}


def default_f(t):
    """Default conformal factor f(x^1) = exp(x^1)."""
    return jets.exp(t)


def make_setup(quadratic="product", dim=None, f=None):
    """Build the block Riemannian setup for a preset or explicit c matrix.
    ``dim`` must be integral (a float such as 4.0 or a numpy int will do);
    any other value, NaN and +-inf included, is refused."""
    if dim is not None:
        if not (math.isfinite(dim) and dim == int(dim)):
            raise CatalogError(f"dimension must be an integer, got {dim!r}")
        dim = int(dim)
    if f is None:
        f = default_f
    if isinstance(quadratic, str):
        if quadratic not in QUADRATIC_PRESETS:
            raise CatalogError(
                f"unknown quadratic preset {quadratic!r}; "
                f"choose from {sorted(QUADRATIC_PRESETS)}"
            )
        if quadratic == "euclid":
            n = 3 if dim is None else dim
            if n < 3:
                raise CatalogError("setup needs dimension n >= 3")
            c = np.eye(n - 1)
        else:
            c = QUADRATIC_PRESETS[quadratic]
            n = c.shape[0] + 1
            if dim is not None and dim != n:
                raise CatalogError(
                    f"preset {quadratic!r} fixes dimension {n}, got --dim {dim}"
                )
    else:
        c = np.asarray(quadratic, dtype=float)
        n = c.shape[0] + 1
        if dim is not None and dim != n:
            raise CatalogError(f"matrix implies dimension {n}, got --dim {dim}")
    return RiemannSetup(n, f, c)


@dataclass(frozen=True)
class MetricClassSpec:
    """One catalog entry bound to concrete parameters and a setup."""

    class_id: str
    params: dict
    setup: RiemannSetup | None

    @property
    def entry(self):
        return CATALOG[self.class_id]

    @property
    def label(self):
        ps = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.class_id}({ps})" if ps else self.class_id

    @cached_property
    def _guard(self):
        """The sampling guard, one object per spec: the field and the
        closed spray share it, so a draw made for one serves the other
        (see :mod:`finslerlab.verify`)."""
        return _domain_guard(self)


# ---------------------------------------------------------------------------
# (alpha, beta) profiles: one record per entry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """One (alpha, beta) entry, written once in b = beta and
    r = sqrt(alpha^2 - beta^2).

    ``psi(pre, b, r, r2)`` is pre times the degree-1 profile, on jets;
    r2 = r^2 is passed in so that it can be phi(yhat) itself.
    ``admits(b, r, r2, s2)`` is the float domain test at squared scale s2.
    ``spray()`` gives (kappa, 1 + c3) of the closed-form spray; it is
    lazy, because the singular class4 (p, q) = (p, -1) field still builds.
    """

    psi: Callable
    admits: Callable
    spray: Callable
    suffix: str = ""  # label suffix of a delegated entry


def _class1(a):
    sa = max(1.0, abs(a))

    def psi(pre, b, r, r2):
        base = b * a + r
        return pre * base * jets.exp(b * a / base)

    def admits(b, r, r2, s2):
        return a * b + r >= DEN_MARGIN * sa * math.sqrt(s2)

    return Profile(psi, admits, lambda: (1.0 / a, a * a))


def _class2(a):
    sa = max(1.0, abs(a) + 1.0)

    def psi(pre, b, r, r2):
        ap = b * (a + 1.0) + r
        am = b * (a - 1.0) + r
        return pre * jets.power(ap, (1.0 + a) / 2.0) * jets.power(
            am, (1.0 - a) / 2.0
        )

    def admits(b, r, r2, s2):
        m = DEN_MARGIN * sa * math.sqrt(s2)
        return (a + 1.0) * b + r >= m and (a - 1.0) * b + r >= m

    return Profile(psi, admits, lambda: (a / (a * a - 1.0), a * a - 1.0))


def _class3(a):
    sa = max(1.0, abs(a))

    def psi(pre, b, r, r2):
        return pre * (b * a + r2 / (b * a + r * 2.0))

    def admits(b, r, r2, s2):
        m = DEN_MARGIN * sa * math.sqrt(s2)
        return a * b + 2.0 * r >= m and abs(a * b + r) >= m

    return Profile(psi, admits, lambda: (3.0 / (2.0 * a), a * a / 2.0))


def _class4_exponent(p, d, y1, v):
    """The transcendental exponent of class4, on the admissible cone.

    For d > 0 the arctanh argument z = (p b + 2r)/(b sqrt(d))
    satisfies |z| > 1 wherever the radicand is positive (z^2 - 1 =
    4 R / (d b^2)), so the real branch is arctanh(1/z) with |1/z| < 1,
    which is also smooth across b = 0.  For d < 0 the real form is an
    arctan; the two charts u and 1/u differ by a constant on each
    component, which no derived tensor sees.
    """
    sd = math.sqrt(abs(d))
    big = y1 * p + v * 2.0
    small = y1 * sd
    if d > 0:
        return jets.arctanh(small / big) * (p / sd)
    return jets.branch(
        abs(small.value) <= abs(big.value),
        lambda small, big: jets.arctan(small / big) * (p / sd),
        lambda small, big: jets.arctan(big / small) * (-p / sd),
        small, big,
    )


def _class4(p, q):
    def spray():
        return p / (2.0 * (1.0 + q)), 1.0 + q

    d = p * p - 4.0 * q - 4.0
    if abs(d) <= 1e-12 * max(1.0, p * p, abs(q)):
        return replace(_class1(p / 2.0), spray=spray, suffix="->class1")
    sc = max(1.0, abs(p), abs(q))

    def psi(pre, b, r, r2):
        rad = b * b * (1.0 + q) + b * r * p + r2
        return pre * jets.sqrt(rad) * jets.exp(_class4_exponent(p, d, b, r))

    def admits(b, r, r2, s2):
        rad = (1.0 + q) * b * b + p * b * r + r2
        return rad >= RAD_MARGIN * sc * s2

    return Profile(psi, admits, spray)


def _shen_psi(c1, c3, y1, v):
    """First psi chart of the two-constant class, homogenized."""
    r = math.hypot(c1, c3)
    kk = (2.0 + c3) ** 2 - c1**2 - c3**2
    num = y1 * (c3 * r + (2.0 + c3) * (c1 + r)) + v * (
        r * (c1 + r) - (2.0 + c3) * c3
    )
    den = (y1 * c3 + v * (c1 + r)) * math.sqrt(kk)
    return num / den


def _shen_eq8(c1, c3, c4):
    kk = (2.0 + c3) ** 2 - c1**2 - c3**2
    r0 = math.hypot(c1, c3)
    sc = max(1.0, abs(c1), abs(c3))

    def psi(pre, b, r, r2):
        rad = b * b * (1.0 + c3) + b * r * c1 + r2
        expo = jets.arctan(_shen_psi(c1, c3, b, r)) * (c1 / math.sqrt(kk))
        return pre * jets.sqrt(rad) * jets.exp(expo) * c4

    def admits(b, r, r2, s2):
        rad = (1.0 + c3) * b * b + c1 * b * r + r2
        return (rad >= RAD_MARGIN * sc * s2
                and abs(c3 * b + (c1 + r0) * r) >= DEN_MARGIN * math.sqrt(s2))

    return Profile(psi, admits, lambda: (c1 / (2.0 * (1.0 + c3)), 1.0 + c3))


def _asanov_eq9(g):
    sq = math.sqrt(4.0 - g * g)

    def psi(pre, b, r, r2):
        rad = b * b + b * r * g + r2
        if g > 0:
            arg = (b * 2.0 + r * g) / (r * sq)
        else:
            arg = -((b * g + r * 2.0) / (b * sq))
        return pre * jets.sqrt(rad) * jets.exp(jets.arctan(arg) * (g / sq))

    def admits(b, r, r2, s2):
        rad = b * b + g * b * r + r2
        return (rad >= RAD_MARGIN * max(1.0, abs(g)) * s2
                and (g >= 0 or abs(b) >= DEN_MARGIN * math.sqrt(s2)))

    return Profile(psi, admits, lambda: (g / 2.0, 1.0))


def _example3x():
    """Examples 3.1-3.3 verbatim: the class4 (1, 0) member in the paper's
    arctan chart."""
    inv_sqrt3 = 1.0 / math.sqrt(3.0)

    def psi(pre, b, r, r2):
        rad = b * b + r2 + b * r
        arg = b * (2.0 * inv_sqrt3) / r + inv_sqrt3
        return pre * jets.sqrt(rad) * jets.exp(jets.arctan(arg) * inv_sqrt3)

    return Profile(psi, lambda b, r, r2, s2: True, lambda: (0.5, 1.0))


# ---------------------------------------------------------------------------
# catalog entries: one record each
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog entry, defined once.

    ``profile`` makes the entry's :class:`Profile` from its parameters; it
    is None for an entry that fixes its own Riemannian data and has no
    closed form.  A rule is ``(text, holds(params), error)``, ``error``
    making the exception from its message; ``fixed`` is (preset, n).
    """

    source: str
    defaults: dict
    profile: Callable | None
    rules: tuple = ()
    fixed: tuple | None = None

    @property
    def constraints(self):
        return ", ".join(text for text, _, _ in self.rules) or "—"

    @property
    def has_closed_form(self):
        return self.profile is not None


def _singular(message):
    """The error of a rule whose excluded parameters make g degenerate."""
    return DegenerateMetricError(
        f"{message}: the metric is singular otherwise, det(g) = 0"
    )


#: The verdict the paper proves for every entry.
EXPECTED_VERDICT = "Landsberg non-Berwald"

CATALOG = {
    "class1": CatalogEntry("Theorem 4.1", {"a": 2.0}, _class1, (
        ("a ≠ 0", lambda p: p["a"] != 0.0, CatalogError),)),
    "class2": CatalogEntry("Theorem 4.2", {"a": 2.0}, _class2, (
        ("a ≠ 0", lambda p: p["a"] != 0.0, CatalogError),
        ("a ≠ ±1", lambda p: abs(p["a"]) != 1.0, _singular))),
    "class3": CatalogEntry("Theorem 4.3", {"a": 2.0}, _class3, (
        ("a ≠ 0", lambda p: p["a"] != 0.0, _singular),)),
    "class4": CatalogEntry("Theorem 4.4", {"p": 3.0, "q": 1.0}, _class4, (
        ("p≠0", lambda p: p["p"] != 0.0, CatalogError),
        ("q≠-1", lambda p: p["q"] != -1.0, _singular))),
    "shen_eq8": CatalogEntry(
        "Eq. (8)", {"c1": 1.0, "c3": 0.5, "c4": 1.0}, _shen_eq8, (
            ("c1 ≠ 0", lambda p: p["c1"] != 0.0, CatalogError),
            ("1+c3 > 0", lambda p: 1.0 + p["c3"] > 0.0, CatalogError),
            ("c4 > 0", lambda p: p["c4"] > 0.0, CatalogError),
            ("(2+c3)² > c1² + c3²",  # a real exponent
             lambda p: (2.0 + p["c3"]) ** 2 - p["c1"] ** 2 - p["c3"] ** 2 > 0.0,
             CatalogError))),
    "asanov_eq9": CatalogEntry("Eq. (9)", {"g": 1.0}, _asanov_eq9, (
        ("g ≠ 0", lambda p: p["g"] != 0.0, CatalogError),
        ("|g| < 2", lambda p: abs(p["g"]) < 2.0, CatalogError))),
    "example31": CatalogEntry(
        "Example 3.1", {}, _example3x, fixed=("product", 3)),
    "example32": CatalogEntry(
        "Example 3.2", {}, _example3x, fixed=("euclid", 3)),
    "example33": CatalogEntry(
        "Example 3.3", {}, _example3x, fixed=("mixed4", 4)),
    "shen_r3_eq1": CatalogEntry("Eq. (1)", {}, None),
}


def _validate_params(class_id, params):
    for key, val in sorted(params.items()):
        if not math.isfinite(val):
            raise CatalogError(
                f"{class_id} parameter {key} must be finite, got {val}"
            )
    for text, holds, error in CATALOG[class_id].rules:
        try:
            ok = holds(params)
        except OverflowError:  # float ** raises where * gives inf
            values = ", ".join(f"{k}={v:g}" for k, v in params.items())
            raise CatalogError(
                f"{class_id} requires {text}, which overflows at {values}"
            ) from None
        if not ok:
            raise error(f"{class_id} requires {text}")


def make_spec(metric_id, params=None, quadratic=None, dim=None, f=None,
              setup=None):
    """Resolve an entry id plus overrides into a MetricClassSpec; ``setup``
    stands for ``quadratic``, ``dim`` and ``f``."""
    entry = CATALOG.get(metric_id)
    if entry is None:
        raise CatalogError(
            f"unknown metric id {metric_id!r}; see the catalog listing"
        )
    merged = dict(entry.defaults)
    if params:
        unknown = set(params) - set(merged)
        if unknown:
            raise CatalogError(
                f"{metric_id} does not take parameters {sorted(unknown)}"
            )
        merged.update({k: float(v) for k, v in params.items()})
    _validate_params(metric_id, merged)
    if setup is not None:
        if entry.profile is None or entry.fixed:
            raise CatalogError(f"{metric_id} fixes its own setup")
        given = [k for k, v in (("quadratic", quadratic), ("dim", dim), ("f", f))
                 if v is not None]
        if given:
            raise CatalogError(f"setup already fixes {', '.join(given)}")
        return MetricClassSpec(metric_id, merged, setup)
    if entry.profile is None:
        if quadratic is not None or dim not in (None, 3) or f is not None:
            raise CatalogError(f"{metric_id} fixes its own Riemannian data")
        return MetricClassSpec(metric_id, merged, None)
    if entry.fixed:
        preset, n = entry.fixed
        if isinstance(quadratic, np.ndarray) or quadratic not in (None, preset):
            raise CatalogError(f"{metric_id} fixes the quadratic form {preset!r}")
        if dim not in (None, n):
            raise CatalogError(f"{metric_id} fixes dimension {n}")
        quadratic, dim = preset, n
    setup = make_setup("product" if quadratic is None else quadratic, dim, f)
    return MetricClassSpec(metric_id, merged, setup)


def _profile(spec):
    make_profile = spec.entry.profile
    if make_profile is None:
        raise CatalogError(
            f"no block-setup (alpha, beta) profile for {spec.class_id!r}"
        )
    return make_profile(**spec.params)

# ---------------------------------------------------------------------------
# Finsler functions
# ---------------------------------------------------------------------------


def _domain_guard(spec):
    """The float admissibility test of a spec's samples.  A block entry's
    guard keeps yhat away from the phi(yhat) = 0 cone before the
    profile's own test; ``shen_r3_eq1``'s keeps (y^2, y^3) away from 0."""
    if spec.entry.profile is None:
        def guard(x, y):
            y = np.asarray(y, float)
            return float(y[1] ** 2 + y[2] ** 2) >= PHI_MARGIN * float(y @ y)

        return guard
    prof = _profile(spec)
    setup = spec.setup

    def guard(x, y):
        y = np.asarray(y, float)
        yhat = y[1:]
        phi = setup.phi_value(yhat)
        s2 = float(y @ y)
        hat2 = float(yhat @ yhat)
        if hat2 <= 1e-12 * s2 or not phi >= PHI_MARGIN * hat2:
            return False
        return prof.admits(y[0], math.sqrt(phi), phi, s2)

    return guard


def build_finsler(spec):
    """FinslerField for a catalog spec, with the spec's guard.

    F = f(x^1) psi(y^1, sqrt(phi(yhat))) depends on x^1 alone, declared as
    ``x_deps=(0,)``.
    """
    if spec.entry.profile is None:
        return _field_shen_r3_eq1(spec)
    prof = _profile(spec)
    setup = spec.setup

    def evaluate(xs, ys):
        phi = setup.phi_jet(ys)
        return prof.psi(setup.f(xs[0]), ys[0], jets.sqrt(phi), phi)

    return FinslerField(setup.n, evaluate, spec._guard, spec.label + prof.suffix,
                        x_deps=(0,))


def _field_shen_r3_eq1(spec):
    """The warped-product member: alpha has an e^{2 x^1} fiber factor,
    and phi is that of examples 3.1-3.3."""
    psi = _example3x().psi

    def evaluate(xs, ys):
        u2 = ys[1] * ys[1] + ys[2] * ys[2]
        v = jets.exp(xs[0]) * jets.sqrt(u2)
        return psi(1.0, ys[0], v, v * v)

    return FinslerField(3, evaluate, spec._guard, spec.label, x_deps=(0,))


def phi_function(spec):
    """phi(s) with F = alpha phi(beta/alpha): the profile at alpha = 1."""
    prof = _profile(spec)

    def fn(t):
        r2 = 1.0 - t * t
        return prof.psi(1.0, t, jets.sqrt(r2), r2)

    def admissible(s):
        r2 = 1.0 - s * s
        return prof.admits(s, math.sqrt(max(0.0, r2)), r2, 1.0)

    return PhiFunction(fn, label=spec.label + prof.suffix, admissible=admissible)


# ---------------------------------------------------------------------------
# closed-form sprays
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedFormSpray(SprayField):
    """Special-form spray G^1 quadratic in y, G^mu = P y^mu, over a block
    setup; ``g1`` and ``p`` are spray formulas (``RiemannSetup.spray_jets``).
    As a SprayField it provides the program ``_jets_fn`` and its own
    ``_kept`` dict, which a ``dataclasses.replace`` copy starts empty."""

    setup: RiemannSetup
    g1: object  # spray formula (rate = f'/f, phi, y_jets) -> TaylorValue
    p: object   # spray formula (rate = f'/f, phi, y_jets) -> TaylorValue
    label: str
    domain_guard: object
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self):
        return self.setup.n

    def components(self, rate, phi, y_jets):
        pj = self.p(rate, phi, y_jets)
        return [self.g1(rate, phi, y_jets)] + [pj * y_mu for y_mu in y_jets[1:]]

    def _jets_fn(self, x, y, order):
        return self.setup.spray_jets(self.components, x, y, order)

    def as_spray_field(self):
        """The spray itself, which is a SprayField."""
        return self


def closed_form_spray(spec):
    """The published closed-form spray of an entry (error if none exists):
    P = (y^1 + kappa sqrt(phi)) lambda and G^1 = ((y^1)^2 - phi/(1+c3)) lambda/2,
    with lambda = f'/f the spray formulas' rate.
    """
    if not spec.entry.has_closed_form:
        raise CatalogError(
            f"{spec.class_id} has no published closed-form spray; "
            "use the variational route"
        )
    kappa, one_plus_c3 = _profile(spec).spray()

    def g1(rate, phi, y_jets):
        y1 = y_jets[0]
        return (y1 * y1 - phi * (1.0 / one_plus_c3)) * (rate * 0.5)

    def p(rate, phi, y_jets):
        return (y_jets[0] + jets.sqrt(phi) * kappa) * rate

    return ClosedFormSpray(
        spec.setup, g1, p, label=f"closed:{spec.label}", domain_guard=spec._guard
    )


# ---------------------------------------------------------------------------
# published Berwald components and class equivalences
# ---------------------------------------------------------------------------


def _setup_kind(setup):
    if setup is None:
        return None
    c = setup.c
    if c.shape == (2, 2) and np.allclose(c, QUADRATIC_PRESETS["product"]):
        return "product"
    if np.allclose(c, np.eye(c.shape[0])):
        return "euclid"
    if c.shape == (3, 3) and np.allclose(c, QUADRATIC_PRESETS["mixed4"]):
        return "mixed4"
    return None


def expected_berwald_component(spec, x, y):
    """The published witness component G^2_{222} for the entry's setup.

    These are the simplified closed forms from the literature; the first
    fiber coordinate enters only through P = (y^1 + kappa v) f'/f, so the
    component scales linearly with kappa across entries sharing a setup.
    (The two Euclidean-form source examples carry a sign slip; the
    values here are the ones direct differentiation of the published
    sprays gives, which is what the Berwald tensor must match.)
    """
    kappa, _ = _profile(spec).spray()
    kind = _setup_kind(spec.setup)
    if kind is None:
        raise CatalogError(
            f"no published Berwald component for the quadratic form of {spec.label}"
        )
    fv, fp = spec.setup.f_values(x[0])
    ratio = fp / fv
    y = np.asarray(y, float)
    if kind == "product":
        y2, y3 = y[1], y[2]
        return -(3.0 * kappa / 8.0) * ratio * y3 / (y2 * math.sqrt(y2 * y3))
    if kind == "euclid":
        u2 = float(y[1:] @ y[1:])
        return 3.0 * kappa * ratio * (u2 - y[1] ** 2) ** 2 / u2**2.5
    y2, y3, y4 = y[1], y[2], y[3]
    w = y2 * y3 + y4 * y4
    return -(3.0 * kappa / 8.0) * ratio * y3**2 * (y2 * y3 + 2 * y4 * y4) / w**2.5


def class_equivalence_pairs(a_values=(2.0, 0.5, -2.0), setup=None):
    """Parameter maps tying the four classes together.

    Returns (spec_a, spec_b, relation) triples; ``relation`` is the
    predicted link between the two energy functions: ``equal`` (same
    function), ``equal-up-to-sign`` (ratio is a sample-independent
    constant whose sign is recorded empirically) or
    ``equal-up-to-constant-factor``.
    """
    if setup is None:
        setup = make_setup("product")
    pairs = []
    for a in a_values:
        s1 = make_spec("class1", {"a": a}, setup=setup)
        s4 = make_spec("class4", {"p": 2 * a, "q": a * a - 1.0}, setup=setup)
        pairs.append((s1, s4, "equal"))
        if abs(a) != 1.0:
            s2 = make_spec("class2", {"a": a}, setup=setup)
            s4b = make_spec(
                "class4", {"p": 2 * a, "q": a * a - 2.0}, setup=setup
            )
            pairs.append((s2, s4b, "equal-up-to-sign"))
        s3 = make_spec("class3", {"a": a}, setup=setup)
        s4c = make_spec(
            "class4", {"p": 1.5 * a, "q": (a * a - 2.0) / 2.0}, setup=setup
        )
        pairs.append((s3, s4c, "equal-up-to-constant-factor"))
    return pairs
