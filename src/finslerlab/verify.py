"""Sampling-based classification of Finsler metrics.

Each entry point (:func:`classify`, :func:`check_metrizability`,
:func:`landsberg_via_p`) draws admissible samples and reduces the
:func:`~finslerlab.geometry.point_tensors` record of each to residual maxima.

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
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import jets
from .catalog import ClosedFormSpray
from .geometry import ad_spray_field, point_tensors
from .jets import fiber_arguments

__all__ = [
    "TolProfile",
    "TOL_PROFILES",
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
        if self.n_points < 1:
            raise ValueError("n_points must be at least 1")
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
    pts = draw_samples(field.domain_guard, field.n, plan)
    keys = (
        "landsberg",
        "berwald",
        "metrizability",
        "euler",
        "homogeneity",
        "spray_homogeneity",
        "spray_mismatch",
    )
    maxima = {k: {"max": 0.0, "at_sample": None} for k in keys}
    det_min = math.inf
    rate_max = 0.0
    rows = []
    for i, (x, y) in enumerate(pts):
        pt = point_tensors(field, spray, x, y)
        fval = pt.F
        gvals = pt.G
        scale, mres, eres = _metrizability_residuals(pt)
        # homogeneity of F and of the spray
        hres = 0.0
        sres = 0.0
        for lam in (0.5, 2.0):
            fl = field.value(x, lam * np.asarray(y))
            hres = max(hres, abs(fl - lam * fval) / (lam * abs(fval)))
            gl = spray.values(x, lam * np.asarray(y))
            sres = max(
                sres,
                float(np.abs(gl - lam**2 * gvals).max())
                / max(1.0, lam**2 * float(np.abs(gvals).max())),
            )
        mismatch = None
        if oracle is not None:
            go = oracle.values(x, y)
            mismatch = float(np.abs(go - gvals).max()) / max(
                1.0, float(np.abs(gvals).max()), float(np.abs(go).max())
            )
        det = pt.det_g
        det_min = min(det_min, abs(det))
        rate = float(np.abs(pt.dxF).max()) / abs(fval)
        rate_max = max(rate_max, rate)
        row = {
            "index": i,
            "x1": float(x[0]),
            "y": [float(v) for v in y],
            "F": fval,
            "G": [float(v) for v in gvals],
            "landsberg": float(np.abs(pt.L).max()) / scale,
            "berwald": float(np.abs(pt.Gijkh).max()) / scale,
            "metrizability": mres,
            "euler": eres,
            "homogeneity": hres,
            "spray_homogeneity": sres,
            "spray_mismatch": mismatch,
            "det_g": det,
            "conformal_rate": rate,
        }
        rows.append(row)
        for key in keys:
            if row[key] is not None:
                _max_update(maxima, key, row[key], i)
    floor_eff = tol.berwald_floor * rate_max
    verdict = decide_verdict(
        maxima["landsberg"]["max"], maxima["berwald"]["max"], floor_eff, tol
    )
    residuals = dict(maxima)
    residuals["det_g_min"] = det_min
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
    pts = draw_samples(field.domain_guard, field.n, plan)
    out = {k: {"max": 0.0, "at_sample": None} for k in ("metrizability", "euler")}
    for i, (x, y) in enumerate(pts):
        _, mres, eres = _metrizability_residuals(point_tensors(field, spray, x, y))
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
    pts = draw_samples(guard, n, plan)
    out = {
        k: {"max": 0.0, "at_sample": None}
        for k in ("via_p", "general", "agreement")
    }
    spray = cfs.as_spray_field()
    for i, (x, y) in enumerate(pts):
        pt = point_tensors(field, spray, x, y)
        # special-form check: G^1 must be quadratic in the fiber
        if np.abs(pt.Gijkh[0]).max() > 1e-9 * max(1.0, abs(pt.G[0])):
            raise SpecialFormError(
                "G^1 is not quadratic in y; the projective "
                "shortcut does not apply"
            )
        pj = cfs.p(x, fiber_arguments(n, y, 3)[1])
        p2 = pj.fiber_tensor(2)[1:, 1:]
        p3 = pj.fiber_tensor(3)[1:, 1:, 1:]
        fval = pt.F
        ell_mu = pt.ell[1:]
        l_via = np.zeros((n, n, n))
        l_via[1:, 1:, 1:] = -0.5 * fval * (
            p3 * float(ell_mu @ pt.y[1:])
            + p2[:, :, None] * ell_mu[None, None, :]
            + p2[None, :, :] * ell_mu[:, None, None]
            + p2.T[:, None, :] * ell_mu[None, :, None]
        )
        l_gen = pt.L  # the general definition, from the same spray
        scale = max(1.0, abs(fval))
        _max_update(out, "via_p", float(np.abs(l_via).max()) / scale, i)
        _max_update(out, "general", float(np.abs(l_gen).max()) / scale, i)
        _max_update(
            out, "agreement", float(np.abs(l_via - l_gen).max()) / scale, i
        )
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

    worst = 0.0
    for x, y in draw_samples(guard, spray_a.n, plan):
        ga = spray_a.values(x, y)
        gb = spray_b.values(x, y)
        scale = max(1.0, float(np.abs(ga).max()), float(np.abs(gb).max()))
        worst = max(worst, float(np.abs(ga - gb).max()) / scale)
    return worst
