"""Sampling-based classification of Finsler metrics.

Each entry point (:func:`classify`, :func:`check_metrizability`,
:func:`landsberg_via_p`, :func:`compare_sprays`) draws admissible samples
and reduces the :func:`~finslerlab.geometry.point_tensors` record (or the
spray values) of each to residual maxima.

The samples of a plan are evaluated together: a fixed number of batched
calls per plan (see the batch contract in :mod:`finslerlab.jets`), then a
per-sample loop over the record for every reduction, so the reports are
byte-identical to evaluating one point at a time.  If the batched pass
raises a domain or arithmetic error (``SingularPointError``, an
``OverflowError`` of a sample's series code, ``DegenerateMetricError``,
``SpecialFormError`` or the ``F > 0`` ``ValueError``), the plan is re-run
one sample at a time through the same code, so the exception that
escapes is exactly the one the per-sample order meets first.

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
or other volatile data.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import jets
from .catalog import ClosedFormSpray
from .geometry import DegenerateMetricError, ad_spray_field, point_tensors
from .jets import fiber_arguments

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


def draw_samples(domain_guard, n, plan):
    """Admissible (x, y) pairs; y uniform on the sphere, rejected near
    the singular axis (+-1, 0, ..., 0) and wherever the guard fails."""
    cos_excl = math.cos(plan.exclusion_angle)
    points = []
    attempts = 0
    for index in range(plan.n_points):
        rng = np.random.default_rng([int(plan.seed), index])
        for _ in range(plan.guard_retries):
            attempts += 1
            x = np.zeros(n)
            x[0] = rng.uniform(plan.x_range[0], plan.x_range[1])
            y = rng.normal(size=n)
            norm = np.linalg.norm(y)
            if norm == 0.0:
                continue
            y /= norm
            if abs(y[0]) > cos_excl:
                continue
            if not domain_guard(x, y):
                continue
            points.append((x, y))
            break
        else:
            raise SamplerStarvationError(len(points), plan.n_points, attempts)
    return points


def _sample_arrays(domain_guard, n, plan):
    """The plan's admissible samples as (N, n) arrays of x and of y."""
    pts = draw_samples(domain_guard, n, plan)
    return np.array([x for x, _ in pts]), np.array([y for _, y in pts])


#: What a batched pass may raise where the per-sample order would meet a
#: different error first: SingularPointError, and the OverflowError or
#: ZeroDivisionError of a sample's scalar series code, are
#: ArithmeticErrors; SpecialFormError and the ``F > 0`` check raise
#: ValueErrors.
_SAMPLE_ERRORS = (ArithmeticError, DegenerateMetricError, ValueError)


def _per_sample(rows_of, x, y):
    """``rows_of(x, y)``, one result per sample, for the whole batch; if
    that raises, the samples again one at a time, so the exception raised
    is the first one in per-sample order."""
    try:
        return rows_of(x, y)
    except _SAMPLE_ERRORS:
        return [row for s in range(len(x)) for row in rows_of(x[s:s + 1], y[s:s + 1])]


def _max_update(store, key, value, index):
    entry = store[key]
    if value > entry["max"]:
        entry["max"] = value
        entry["at_sample"] = index


def _metrizability_residuals(pt):
    """(scale, metrizability, euler) of one record; both residuals are
    normalized by scale = max(1, |F|, ||G||)."""
    scale = max(1.0, abs(pt.F), float(np.abs(pt.G).max()))
    horiz = float(np.abs(pt.dxF - pt.Gij.T @ pt.ell).max()) / scale
    euler = abs(float(pt.y @ pt.ell) - pt.F) / scale
    return scale, horiz, euler


_VERDICT_RANK = {
    "Berwald": 0,
    "Landsberg, non-Berwald": 1,
    "indeterminate": 2,
    "non-Landsberg": 3,
}


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


@dataclass
class ClassificationReport:
    metric: str
    params: dict
    plan: SamplePlan
    residuals: dict
    verdict: str
    samples: list
    spray_label: str
    wall_time: float

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
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _classify_rows(field, spray, oracle, x, y):
    """The report rows (without their index) of a batch of samples."""
    pt = point_tensors(field, spray, x, y)
    # homogeneity of F and of the spray
    scaled = [
        (lam, field.value(x, lam * y).tolist(), spray.values(x, lam * y))
        for lam in (0.5, 2.0)
    ]
    go = None if oracle is None else oracle.values(x, y)
    g_rcond = pt.g_rcond
    rows = []
    for s in range(len(x)):
        p = pt[s]
        fval = p.F
        gvals = p.G
        scale, mres, eres = _metrizability_residuals(p)
        hres = 0.0
        sres = 0.0
        for lam, fl, gl in scaled:
            hres = max(hres, abs(fl[s] - lam * fval) / (lam * abs(fval)))
            sres = max(
                sres,
                float(np.abs(gl[s] - lam**2 * gvals).max())
                / max(1.0, lam**2 * float(np.abs(gvals).max())),
            )
        mismatch = None
        if go is not None:
            mismatch = float(np.abs(go[s] - gvals).max()) / max(
                1.0, float(np.abs(gvals).max()), float(np.abs(go[s]).max())
            )
        rows.append({
            "index": None,
            "x1": float(p.x[0]),
            "y": [float(v) for v in p.y],
            "F": fval,
            "G": [float(v) for v in gvals],
            "landsberg": float(np.abs(p.L).max()) / scale,
            "berwald": float(np.abs(p.Gijkh).max()) / scale,
            "metrizability": mres,
            "euler": eres,
            "homogeneity": hres,
            "spray_homogeneity": sres,
            "spray_mismatch": mismatch,
            "g_rcond": float(g_rcond[s]),
            "conformal_rate": float(np.abs(p.dxF).max()) / abs(fval),
        })
    return rows


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
    x, y = _sample_arrays(field.domain_guard, field.n, plan)
    maxima = {k: {"max": 0.0, "at_sample": None} for k in RESIDUAL_KEYS}
    rows = _per_sample(
        lambda x, y: _classify_rows(field, spray, oracle, x, y), x, y
    )
    for i, row in enumerate(rows):
        row["index"] = i
        for key in RESIDUAL_KEYS:
            if row[key] is not None:
                _max_update(maxima, key, row[key], i)
    rate_max = max([0.0] + [row["conformal_rate"] for row in rows])
    floor_eff = tol.berwald_floor * rate_max
    verdict = decide_verdict(
        maxima["landsberg"]["max"], maxima["berwald"]["max"], floor_eff, tol
    )
    residuals = dict(maxima)
    residuals["g_rcond_min"] = min([math.inf] + [row["g_rcond"] for row in rows])
    residuals["berwald_floor_effective"] = floor_eff
    if derived:
        residuals["spray_mismatch"] = {"max": None, "at_sample": None}
    return ClassificationReport(
        metric=field.label,
        params=dict(params or {}),
        plan=plan,
        residuals=residuals,
        verdict=verdict,
        samples=rows,
        spray_label=spray.label,
        wall_time=time.perf_counter() - t0,
    )


def check_metrizability(field, spray, plan=None):
    """Maxima of the horizontal differential of F and its Euler defect."""
    plan = plan or SamplePlan()
    x, y = _sample_arrays(field.domain_guard, field.n, plan)
    out = {k: {"max": 0.0, "at_sample": None} for k in ("metrizability", "euler")}

    def rows_of(x, y):
        pt = point_tensors(field, spray, x, y)
        return [_metrizability_residuals(pt[s])[1:] for s in range(len(x))]

    for i, (mres, eres) in enumerate(_per_sample(rows_of, x, y)):
        _max_update(out, "metrizability", mres, i)
        _max_update(out, "euler", eres, i)
    return out


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
    plan = plan or SamplePlan()
    n = cfs.n
    guard = cfs.domain_guard or field.domain_guard
    x, y = _sample_arrays(guard, n, plan)
    out = {
        k: {"max": 0.0, "at_sample": None}
        for k in ("via_p", "general", "agreement")
    }
    spray = cfs.as_spray_field()

    def rows_of(x, y):
        pt = point_tensors(field, spray, x, y)
        # special-form check: G^1 must be quadratic in the fiber
        for s in range(len(x)):
            if np.abs(pt.Gijkh[s, 0]).max() > 1e-9 * max(1.0, abs(pt.G[s, 0])):
                raise SpecialFormError(
                    "G^1 is not quadratic in y; the projective "
                    "shortcut does not apply"
                )
        pj = cfs.p(x, fiber_arguments(n, y, 3)[1])
        p2s, p3s = pj.fiber_tensor(2), pj.fiber_tensor(3)
        rows = []
        for s in range(len(x)):
            p = pt[s]
            p2 = p2s[s, 1:, 1:]
            p3 = p3s[s, 1:, 1:, 1:]
            fval = p.F
            ell_mu = p.ell[1:]
            l_via = np.zeros((n, n, n))
            l_via[1:, 1:, 1:] = -0.5 * fval * (
                p3 * float(ell_mu @ p.y[1:])
                + p2[:, :, None] * ell_mu[None, None, :]
                + p2[None, :, :] * ell_mu[:, None, None]
                + p2.T[:, None, :] * ell_mu[None, :, None]
            )
            l_gen = p.L  # the general definition, from the same spray
            scale = max(1.0, abs(fval))
            rows.append((
                float(np.abs(l_via).max()) / scale,
                float(np.abs(l_gen).max()) / scale,
                float(np.abs(l_via - l_gen).max()) / scale,
            ))
        return rows

    for i, row in enumerate(_per_sample(rows_of, x, y)):
        for key, value in zip(("via_p", "general", "agreement"), row):
            _max_update(out, key, value, i)
    return out


def perturbed_projective_factor(cfs, eps):
    """Negative control: P -> P + eps (y^2)^2 / |y| (still 1-homogeneous)."""

    def p(x, y_jets):
        norm2 = None
        for yj in y_jets:
            norm2 = yj * yj if norm2 is None else norm2 + yj * yj
        return cfs.p(x, y_jets) + (y_jets[1] * y_jets[1] / jets.sqrt(norm2)) * eps

    return ClosedFormSpray(
        n=cfs.n,
        g1=cfs.g1,
        p=p,
        label=f"{cfs.label}+eps*(y2)^2/|y|",
        domain_guard=cfs.domain_guard,
    )


def compare_sprays(spray_a, spray_b, plan=None):
    """Max over samples and components of the relative spray deviation."""
    if spray_a.n != spray_b.n:
        raise ValueError("sprays have different dimensions")
    plan = plan or SamplePlan()

    def guard(x, y):
        return spray_a.domain_guard(x, y) and spray_b.domain_guard(x, y)

    def rows_of(x, y):
        ga = spray_a.values(x, y)
        gb = spray_b.values(x, y)
        return [
            float(np.abs(ga[s] - gb[s]).max())
            / max(1.0, float(np.abs(ga[s]).max()), float(np.abs(gb[s]).max()))
            for s in range(len(x))
        ]

    worst = 0.0
    for deviation in _per_sample(rows_of, *_sample_arrays(guard, spray_a.n, plan)):
        worst = max(worst, deviation)
    return worst
