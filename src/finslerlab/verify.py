"""Sampling-based classification of Finsler metrics.

Each entry point (:func:`classify`, :func:`check_metrizability`,
:func:`landsberg_via_p`, :func:`compare_sprays`) keeps only its domain
guard and its per-sample formulas; one driver, ``_run_plan``, does the
rest.  It refuses fields and sprays of different dimensions, draws the
plan's admissible samples and runs the entry point's ``columns_of(x, y)``
once on the whole batch (see the batch contract in :mod:`finslerlab.jets`),
so reports are byte-identical to evaluating one point at a time.
``columns_of`` maps the (N, n) arrays x and y to a dict of (N, ...)
arrays, whose row s depends on sample s alone.  If the batched pass
raises a domain or arithmetic error (``SingularPointError``, an
``OverflowError`` of a sample's series code, ``DegenerateMetricError``,
``SpecialFormError`` or the ``F > 0`` ``ValueError``), it re-runs the
samples one at a time through the same code, so the exception that
escapes is exactly the one the per-sample order meets first (the batched
one if no sample raises alone); the fallback logs one DEBUG record on the
``finslerlab`` logger (silent by default).  A plan's evidence stays in
these columns up to the report bytes.

One rule, :func:`_reduce`, turns a residual column into ``{"max",
"at_sample"}``: the largest value above 0.0 and the first sample that
reaches it, NaN and None skipped, or ``{"max": 0.0, "at_sample": None}``
when no value is above 0.0.  So a NaN never replaces a maximum, as with
Python's ``max`` from 0.0.  :func:`classify`'s conformal-rate maximum and
``g_rcond_min`` are ``np.fmax``/``np.fmin`` reductions of their columns,
which skip NaN in the same way.

The entry points of one job share their draw: ``_run_plan`` keeps the
last one under its guard object in a one-entry weak dictionary (so the
draw goes with the guard), with the dimension, seed, x range, exclusion
angle and guard retries, and serves a plan of at most as many points its
prefix, which is exact since sample i depends only on (seed, i).  So a
guard must be a pure function of (x, y).  Nothing is kept by plan values
alone: a new field or catalog spec has a new guard and draws anew.  Only
a guard that can be hashed and weakly referenced shares its draw (a
function can); any other guard draws afresh on every call.

Each residual is one array formula over the batched (N, ...) arrays of
:func:`~finslerlab.geometry.point_tensors`: a max|.| is one reduction
over the sample's axes, and the contractions (G^j_i ell_j in the
horizontal differential d_iF - G^j_i dot_jF, y^i ell_i in the Euler
defect |y^i dot_iF - F|, ell_mu y^mu, the Landsberg tensor's in the
record) are stacked ``matmul`` calls, which make for each sample the
BLAS call of a one-point ``@`` (``einsum`` would round differently).
``max(1, |F|, ||G||)``, the homogeneity maxima and
the spray deviation's ``max(1, |a|, |b|)`` are ``np.fmax`` from a finite
start, so a NaN never replaces a value, as with Python's ``max``
(``np.maximum`` would propagate it); the tails run under
``np.errstate(invalid="ignore", over="ignore")``, so inf / inf gives NaN
without a RuntimeWarning, as in Python floats.  Each result is therefore
the one a one-point call gives, bit for bit.
:func:`classify` checks homogeneity at y -> 0.5 y and 2 y with one
stacked (2N, n) batch: one ``field.value`` call, then one
``spray.values`` call.

"Vanishes identically" is operationalized as: the residual, normalized by
max(1, |F|, ||G||) at the sample, stays below a tolerance at every drawn
admissible sample.  "Non-Berwald" needs at least one Berwald component
above a floor; the floor is scaled by the local conformal rate |d_1 F|/F
because every catalog Berwald component is proportional to f'/f, and the
tolerance and floor sit three orders of magnitude apart so verdicts do
not flap.

Reproducibility: each sample index gets its own generator stream derived
from (seed, index), so reports are bit-identical for a fixed plan and
independent of evaluation order; serialized reports contain no wall-time
or other volatile data.  :func:`report_to_json` writes the bytes of
``json.dumps(sort_keys=True, indent=2)``, the ``samples`` rows from the
report's columns.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import time
import weakref
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import jets
from .geometry import (
    DegenerateMetricError,
    ad_spray_field,
    point_tensors,
)

logger = logging.getLogger(__name__)

__all__ = [
    "TolProfile",
    "TOL_PROFILES",
    "RESIDUAL_KEYS",
    "SamplePlan",
    "ClassificationReport",
    "SamplerStarvationError",
    "SpecialFormError",
    "classify",
    "check_metrizability",
    "landsberg_via_p",
    "compare_sprays",
    "perturbed_projective_factor",
    "decide_verdict",
    "report_to_json",
]


class SamplerStarvationError(RuntimeError):
    def __init__(self, accepted, wanted, attempts):
        rate = 1.0 - accepted / max(1, attempts)
        super().__init__(
            f"sampler starved: {accepted}/{wanted} admissible points in "
            f"{attempts} attempts (rejection rate {rate:.1%}); the domain "
            f"guard rejects too much of the sphere"
        )
        self.rejection_rate = rate


class SpecialFormError(ValueError):
    """Spray is not of the quadratic-G^1 / projective-G^mu shape."""


@dataclass(frozen=True)
class TolProfile:
    landsberg_tol: float = 1e-9
    berwald_floor: float = 1e-6
    metrizability_tol: float = 1e-9
    homogeneity_tol: float = 1e-10
    spray_match_tol: float = 1e-8


TOL_PROFILES = {
    "default": TolProfile(),
    "strict": TolProfile(1e-10, 1e-5, 1e-10, 1e-11, 1e-9),
    "loose": TolProfile(1e-7, 1e-4, 1e-7, 1e-8, 1e-6),
}

#: The per-sample residuals of a ``classify`` row that the report maximises
#: (``spray_mismatch`` is None without an oracle spray).
RESIDUAL_KEYS = (
    "landsberg",
    "berwald",
    "metrizability",
    "euler",
    "homogeneity",
    "spray_homogeneity",
    "spray_mismatch",
)


@dataclass(frozen=True)
class SamplePlan:
    n_points: int = 50
    seed: int = 0
    x_range: tuple = (-0.5, 0.5)
    exclusion_angle: float = 0.15
    guard_retries: int = 200
    tolerances: TolProfile = field(default_factory=TolProfile)

    def __post_init__(self):
        if np.ndim(self.x_range) != 1 or len(self.x_range) != 2:
            raise ValueError(
                f"x_range must have exactly two entries (lo, hi), got {self.x_range!r}"
            )
        if not all(map(math.isfinite, (*self.x_range, self.exclusion_angle))):
            raise ValueError(
                f"x_range {tuple(self.x_range)} and exclusion angle "
                f"{self.exclusion_angle} must be finite"
            )
        for name in ("n_points", "guard_retries", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_points < 1:
            raise ValueError("n_points must be at least 1")
        if self.guard_retries < 1:
            raise ValueError("guard_retries must be at least 1")
        if not 0.0 < self.exclusion_angle < math.pi / 2:
            raise ValueError("exclusion angle must lie in (0, pi/2)")
        if not self.x_range[0] <= self.x_range[1]:
            raise ValueError("x_range must be ordered")
        lo, hi = map(float, self.x_range)
        if not math.isfinite(hi - lo):
            raise ValueError(
                f"x_range {tuple(self.x_range)} is too wide: hi - lo "
                f"overflows to {hi - lo}"
            )


def draw_samples(domain_guard, n, plan):
    """Admissible (x, y) pairs; y uniform on the sphere, rejected near
    the singular axis (+-1, 0, ..., 0) and wherever the guard fails.

    Sample ``index`` draws from its own stream ``default_rng([seed,
    index])``: per attempt x^1 = lo + (hi - lo) * random() and y from
    ``normal(size=n)``, normalized by sqrt(y . y).  These are the formulas
    of ``Generator.uniform`` and ``np.linalg.norm``, without their
    per-call overhead, so the samples are theirs bit for bit;
    :class:`SamplePlan` has already refused a range whose width
    overflows, which ``uniform`` would have checked.
    """
    cos_excl = math.cos(plan.exclusion_angle)
    lo, hi = map(float, plan.x_range)
    span = hi - lo
    points = []
    attempts = 0
    for index in range(plan.n_points):
        rng = np.random.default_rng([int(plan.seed), index])
        for _ in range(plan.guard_retries):
            attempts += 1
            x1 = lo + span * rng.random()
            y = rng.normal(size=n)
            norm = math.sqrt(y.dot(y))
            if norm == 0.0:
                continue
            y /= norm
            if abs(y[0]) > cos_excl:
                continue
            x = np.zeros(n)
            x[0] = x1
            if not domain_guard(x, y):
                continue
            points.append((x, y))
            break
        else:
            raise SamplerStarvationError(len(points), plan.n_points, attempts)
    return points


#: The last draw of :func:`_draw`, under its guard: {guard: (draw
#: settings, points)}, one entry at most, forgotten when the guard is.
#: Keys compare by equality, which for a function is identity.
_last_draw = weakref.WeakKeyDictionary()


def _draw(guard, n, plan):
    """``draw_samples(guard, n, plan)``, or the first ``plan.n_points`` of
    the last draw when that was made with this guard object and the same
    draw settings and holds as many points (see the module docstring)."""
    settings = (n, plan.seed, tuple(map(float, plan.x_range)),
                plan.exclusion_angle, plan.guard_retries)
    try:
        last_settings, pts = _last_draw.get(guard, (None, []))
    except TypeError:  # a guard without hash or weak references is never shared
        return draw_samples(guard, n, plan)
    if last_settings == settings and len(pts) >= plan.n_points:
        return pts[:plan.n_points]
    pts = draw_samples(guard, n, plan)
    _last_draw.clear()
    _last_draw[guard] = settings, pts
    return pts


#: What a batched pass may raise where the per-sample order would meet a
#: different error first: SingularPointError, and the OverflowError or
#: ZeroDivisionError of a sample's scalar series code, are
#: ArithmeticErrors; SpecialFormError and the ``F > 0`` check raise
#: ValueErrors.
_SAMPLE_ERRORS = (ArithmeticError, DegenerateMetricError, ValueError)


def _run_plan(guard, parts, plan, columns_of, keys):
    """The columns of the plan's samples and the :func:`_reduce` of each of
    ``keys``, as the module docstring describes.  ``parts`` are the fields
    and sprays involved; ``columns_of(x, y)`` maps (N, n) arrays to a dict
    of (N, ...) arrays, keyed by name."""
    if len({part.n for part in parts}) > 1:
        raise ValueError("different dimensions: " + ", ".join(
            f"{part.label!r} has n = {part.n}" for part in parts))
    pts = _draw(guard, parts[0].n, plan)
    x = np.array([p for p, _ in pts])
    y = np.array([q for _, q in pts])
    try:
        columns = columns_of(x, y)
    except _SAMPLE_ERRORS as exc:
        logger.debug(
            "%s: the batched pass over %d samples raised %s: %s; "
            "evaluating them one at a time",
            columns_of.__qualname__.partition(".")[0], len(x), type(exc).__name__, exc,
        )
        for s in range(len(x)):
            columns_of(x[s:s + 1], y[s:s + 1])
        raise  # no sample raises alone
    return columns, {key: _reduce(columns[key]) for key in keys}


def _reduce(column):
    """``{"max", "at_sample"}`` of an (N,) column: the largest value above
    0.0 and the first sample that reaches it, NaN and None skipped;
    ``{"max": 0.0, "at_sample": None}`` when no value is above 0.0."""
    values = np.asarray(column, dtype=float)  # None -> nan
    top = np.fmax.reduce(values, initial=0.0)
    if not top > 0.0:
        return {"max": 0.0, "at_sample": None}
    return {"max": float(top), "at_sample": int(np.argmax(values == top))}


def _max_abs(a):
    """max |a[s]| of each sample of a batch, shape (N,)."""
    return np.abs(a).reshape(len(a), -1).max(axis=1)


def _deviation(a, b):
    """Relative deviation of two batches of spray values, for each sample
    max|a - b| / max(1, |a|, |b|)."""
    d = _max_abs(a - b)
    with np.errstate(invalid="ignore", over="ignore"):
        return d / np.fmax(np.fmax(1.0, _max_abs(a)), _max_abs(b))


def _horizontal(dxF, Gij, ell):
    """d_iF - G^j_i dot_jF of each sample, shape (N, n)."""
    return dxF - (Gij.transpose(0, 2, 1) @ ell[:, :, None])[..., 0]


def _euler_defects(y, ell, F):
    """|y^i dot_iF - F| of each sample, shape (N,)."""
    return np.abs((y[:, None, :] @ ell[:, :, None])[:, 0, 0] - F)


def _metrizability_residuals(pt):
    """(scale, metrizability, euler) of each sample of a batched record;
    both residuals are normalized by scale = max(1, |F|, ||G||)."""
    horiz = _max_abs(_horizontal(pt.dxF, pt.Gij, pt.ell))
    euler = _euler_defects(pt.y, pt.ell, pt.F)
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.fmax(np.fmax(1.0, np.abs(pt.F)), _max_abs(pt.G))
        return scale, horiz / scale, euler / scale


def decide_verdict(landsberg_max, berwald_max, berwald_floor_effective, tol):
    """Map residual maxima to a verdict under the tolerance profile."""
    if berwald_max <= tol.landsberg_tol:
        return "Berwald"
    if landsberg_max <= tol.landsberg_tol:
        if berwald_max >= berwald_floor_effective:
            return "Landsberg, non-Berwald"
        return "indeterminate"
    return "non-Landsberg"


def verdict_slug(verdict):
    return verdict.lower().replace(",", "").replace(" ", "-")


@dataclass(eq=False)
class ClassificationReport:
    """A :func:`classify` verdict with its residual maxima and the plan's
    per-sample evidence: ``columns``, a dict of (N,) and (N, k) arrays,
    ``index`` first.  Reports compare by identity, since arrays have no
    ``==``."""

    metric: str
    params: dict
    plan: SamplePlan
    residuals: dict
    verdict: str
    columns: dict
    spray_label: str
    wall_time: float

    @property
    def samples(self):
        """One row per sample: a dict of each column's Python value."""
        lists = [c.tolist() for c in self.columns.values()]
        return [dict(zip(self.columns, row)) for row in zip(*lists)]

    def to_dict(self):
        """Serializable shape; deliberately excludes wall-time so that
        identical (config, seed) produce byte-identical documents."""
        plan = asdict(self.plan)
        plan["x_range"] = list(self.plan.x_range)
        return {
            "metric": self.metric,
            "params": {k: float(v) for k, v in sorted(self.params.items())},
            "plan": plan,
            "spray": self.spray_label,
            "residuals": self.residuals,
            "verdict": self.verdict,
            "samples": self.samples,
        }


def report_to_json(report):
    """``json.dumps(report.to_dict(), sort_keys=True, indent=2)`` plus a
    newline, byte for byte, with the ``samples`` written from the report's
    columns (see :func:`_samples_json`)."""
    doc = replace(report, columns={}).to_dict()
    # only a top-level key sits on a line of its own after exactly two spaces
    head, _, tail = json.dumps(doc, sort_keys=True, indent=2).partition(
        '\n  "samples": []'
    )
    return head + '\n  "samples": ' + _samples_json(report.columns) + tail + "\n"


def _samples_json(columns):
    """The rows of a dict of (N,) and (N, k) columns as ``json.dumps(...,
    sort_keys=True, indent=2)`` writes them at the top level of a report:
    one row template, and each column (a key, or one entry of a list)
    formatted once for all rows by ``json.dumps``; ``[]`` if there are none."""
    fields, texts = [], []
    for key in sorted(columns):
        column, name = columns[key], json.dumps(key).replace("%", "%%")
        if column.ndim == 1:
            fields.append(f"      {name}: %s")
            column = column[None]
        else:
            column = column.T
            slots = ",\n".join(["        %s"] * len(column))
            fields.append(f"      {name}: [\n{slots}\n      ]" if slots else f"      {name}: []")
        texts.extend(json.dumps(c.tolist())[1:-1].split(", ") for c in column)
    template = "    {\n" + ",\n".join(fields) + "\n    }"
    rows = ",\n".join(template % row for row in zip(*texts))
    return f"[\n{rows}\n  ]" if len(next(iter(columns.values()), ())) else "[]"


#: The scalings y -> lam y of the homogeneity checks.
_SCALINGS = (0.5, 2.0)


def _classify_columns(field, spray, oracle, x, y):
    """The report columns (without their index) of a batch of samples."""
    pt = point_tensors(field, spray, x, y)
    N = len(x)
    # F and G at every scaling as one stacked batch, F first
    x_scaled = np.concatenate([x] * len(_SCALINGS))
    y_scaled = np.concatenate([lam * y for lam in _SCALINGS])
    f_scaled = field.value(x_scaled, y_scaled).reshape(len(_SCALINGS), N)
    g_scaled = spray.values(x_scaled, y_scaled).reshape(len(_SCALINGS), N, -1)
    lam = np.array(_SCALINGS)[:, None]  # one row per scaling
    g_dev = np.abs(g_scaled - (lam**2)[..., None] * pt.G).max(axis=2)
    mismatch = np.full(N, None) if oracle is None else _deviation(
        oracle.values(x, y), pt.G)
    scale, metrizability, euler = _metrizability_residuals(pt)
    with np.errstate(invalid="ignore", over="ignore"):
        # the maximum over the scalings starts from 0.0 and skips a nan
        homogeneity = np.fmax.reduce(
            np.abs(f_scaled - lam * pt.F) / (lam * np.abs(pt.F)), axis=0, initial=0.0)
        spray_homogeneity = np.fmax.reduce(
            g_dev / np.fmax(1.0, lam**2 * _max_abs(pt.G)), axis=0, initial=0.0)
        return {
            "x1": x[:, 0],
            "y": y,
            "F": pt.F,
            "G": pt.G,
            "landsberg": _max_abs(pt.L) / scale,
            "berwald": _max_abs(pt.Gijkh) / scale,
            "metrizability": metrizability,
            "euler": euler,
            "homogeneity": homogeneity,
            "spray_homogeneity": spray_homogeneity,
            "spray_mismatch": mismatch,
            "g_rcond": pt.g_rcond,
            "conformal_rate": _max_abs(pt.dxF) / np.abs(pt.F),
        }


def classify(field, spray=None, plan=None, params=None):
    """Run the tensor pipeline over a sample plan and aggregate a verdict.

    With ``spray=None`` the geodesic spray is derived from the field by
    the variational route.  When a closed-form spray is supplied, its
    values are additionally cross-checked against the variational spray
    at every sample (the spray-mismatch residual).
    """
    plan = plan or SamplePlan()
    tol = plan.tolerances
    t0 = time.perf_counter()
    derived = spray is None
    if derived:
        spray = ad_spray_field(field)
    oracle = None if derived else ad_spray_field(field)
    columns, maxima = _run_plan(
        field.domain_guard, (field, spray), plan,
        lambda x, y: _classify_columns(field, spray, oracle, x, y), RESIDUAL_KEYS,
    )
    columns = {"index": np.arange(len(columns["x1"])), **columns}
    rate_max = float(np.fmax.reduce(columns["conformal_rate"], initial=0.0))
    floor_eff = tol.berwald_floor * rate_max
    verdict = decide_verdict(
        maxima["landsberg"]["max"], maxima["berwald"]["max"], floor_eff, tol
    )
    residuals = dict(maxima)
    residuals["g_rcond_min"] = float(np.fmin.reduce(columns["g_rcond"], initial=math.inf))
    residuals["berwald_floor_effective"] = floor_eff
    if derived:
        residuals["spray_mismatch"] = {"max": None, "at_sample": None}
    return ClassificationReport(
        metric=field.label,
        params=dict(params or {}),
        plan=plan,
        residuals=residuals,
        verdict=verdict,
        columns=columns,
        spray_label=spray.label,
        wall_time=time.perf_counter() - t0,
    )


def check_metrizability(field, spray, plan=None):
    """Maxima of the horizontal differential of F and its Euler defect."""
    keys = ("metrizability", "euler")

    def columns_of(x, y):
        _, horiz, euler = _metrizability_residuals(point_tensors(field, spray, x, y))
        return dict(zip(keys, (horiz, euler)))

    return _run_plan(
        field.domain_guard, (field, spray), plan or SamplePlan(), columns_of, keys
    )[1]


def landsberg_via_p(cfs, field, plan=None):
    """Landsberg tensor straight from the projective factor P.

    For the special spray form (G^1 quadratic in y, G^mu = P y^mu) the
    Landsberg tensor collapses to

        L_abc = -1/2 F (P_abc ell_mu y^mu + P_ab ell_c + P_bc ell_a
                        + P_ca ell_b),       a, b, c >= 2,

    with all remaining components zero.  Returns the maxima of this
    evaluation, of the general-definition tensor, and of their
    disagreement, over the sample plan.
    """
    def columns_of(x, y):
        pt = point_tensors(field, cfs, x, y)
        # special-form check: G^1 must be quadratic in the fiber
        if (_max_abs(pt.Gijkh[:, 0]) > 1e-9 * np.fmax(1.0, np.abs(pt.G[:, 0]))).any():
            raise SpecialFormError(
                "G^1 is not quadratic in y; the projective "
                "shortcut does not apply"
            )
        pj = cfs.setup.spray_jets(cfs.p, x, y, 3)
        p2 = pj.fiber_tensor(2)[:, 1:, 1:]
        p3 = pj.fiber_tensor(3)[:, 1:, 1:, 1:]
        ell_mu = pt.ell[:, 1:]
        ell_y = (ell_mu[:, None, :] @ pt.y[:, 1:, None])[:, 0, 0]
        l_gen = pt.L  # the general definition, from the same spray
        with np.errstate(invalid="ignore", over="ignore"):
            l_via = np.zeros_like(pt.L)
            l_via[:, 1:, 1:, 1:] = -0.5 * pt.F[:, None, None, None] * (
                p3 * ell_y[:, None, None, None]
                + p2[:, :, :, None] * ell_mu[:, None, None, :]
                + p2[:, None, :, :] * ell_mu[:, :, None, None]
                + p2.transpose(0, 2, 1)[:, :, None, :] * ell_mu[:, None, :, None]
            )
            maxima = {"via_p": _max_abs(l_via), "general": _max_abs(l_gen),
                      "agreement": _max_abs(l_via - l_gen)}
            scale = np.fmax(1.0, np.abs(pt.F))
            return {key: m / scale for key, m in maxima.items()}

    return _run_plan(
        cfs.domain_guard, (cfs, field), plan or SamplePlan(),
        columns_of, ("via_p", "general", "agreement"),
    )[1]


def perturbed_projective_factor(cfs, eps):
    """Negative control: P -> P + eps (y^2)^2 / |y| (still 1-homogeneous)."""

    def p(rate, phi, y_jets):
        norm2 = None
        for yj in y_jets:
            norm2 = yj * yj if norm2 is None else norm2 + yj * yj
        return cfs.p(rate, phi, y_jets) + (y_jets[1] * y_jets[1] / jets.sqrt(norm2)) * eps

    return replace(cfs, p=p, label=f"{cfs.label}+eps*(y2)^2/|y|")


def compare_sprays(spray_a, spray_b, plan=None):
    """Max over samples and components of the relative spray deviation,
    over the samples both sprays' guards admit."""
    guard = spray_a.domain_guard
    if spray_b.domain_guard is not guard:
        def guard(x, y):
            return spray_a.domain_guard(x, y) and spray_b.domain_guard(x, y)

    def columns_of(x, y):
        return {"deviation": _deviation(spray_a.values(x, y), spray_b.values(x, y))}

    return _run_plan(
        guard, (spray_a, spray_b), plan or SamplePlan(), columns_of, ("deviation",)
    )[1]["deviation"]["max"]
