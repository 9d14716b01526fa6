"""The benchmark's three workloads, their warm-up and their known answers.

A workload is a fixed list of jobs built from the workload seed.  Every
job is one verification a user would run and wait for:

* ``sweep_closed`` -- ``finslerlab classify`` on the closed-form route,
  run in process through ``cli.main`` with ``--out`` to a scratch file:
  the criterion-2 grid (15 parameter points x product/euclid/mixed4),
  ``shen_eq8`` and ``asanov_eq9`` on the same setups, and example31-33.
* ``oracle_ad`` -- the same CLI with ``--oracle-ad`` (variational spray at
  fiber order 5) for every catalog entry at its default parameters; the
  (alpha, beta) classes run on product (n = 3) and mixed4 (n = 4).
* ``cross_oracle`` -- library calls, one job per closed-form entry x
  {product, mixed4}: the criterion-3 spray triple, then the criterion-5
  Landsberg-via-P check and the metrizability check.

Each job carries its known answer: the catalog's declared verdict plus
the criterion residual gates, or, for the class4 (p, q) = (2, -1) grid
point, the degenerate-metric error.  A job whose outcome differs is a
failed job with a reason; nothing is dropped or re-seeded.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from finslerlab import alphabeta, catalog, cli, geometry, verify

# Conformal factors f(x1) cycled over the CLI jobs; all positive on the
# default x1 range [-0.5, 0.5].
F_EXPRESSIONS = ("exp(x1)", "2+sin(x1)", "exp(-x1)")

SETUPS = ("product", "euclid", "mixed4")

# The criterion-2 parameter grid (tests/test_acceptance.py), including the
# class4 (2, -1) point on the singular 1 + q = 0 locus.
GRID = (
    [("class1", {"a": a}) for a in (-2.0, -0.5, 0.5, 2.0)]
    + [("class2", {"a": a}) for a in (-3.0, 2.0, 0.5)]
    + [("class3", {"a": a}) for a in (-2.0, -0.5, 0.5, 2.0)]
    + [
        ("class4", {"p": p, "q": q})
        for p, q in ((1.0, 0.0), (3.0, 1.0), (2.0, -1.0), (-2.0, 3.0))
    ]
)
AB_ENTRIES = ("class1", "class2", "class3", "class4", "shen_eq8", "asanov_eq9")
EXAMPLES = ("example31", "example32", "example33")

# Known-answer gates: criterion 2 for every verdict, criterion 3 for the
# spray triple, criterion 5 for the Landsberg-via-P evaluation.
LANDSBERG_MAX = 1e-9
BERWALD_MIN = 1e-4
METRIZABILITY_MAX = 1e-9
EULER_MAX = 1e-10
SPRAY_MISMATCH_MAX = 1e-8
CROSS_SPRAY_MAX = 1e-8
VIA_P_MAX = 1e-9

DECLARED_VERDICT = "Landsberg, non-Berwald"

WORKLOADS = ("sweep_closed", "oracle_ad", "cross_oracle")


@dataclass(frozen=True)
class Job:
    """One verification job of a workload."""

    id: str
    kind: str          # "cli" or "cross"
    metric: str
    params: dict
    quadratic: str | None
    f: str | None      # conformal factor expression (CLI jobs)
    oracle_ad: bool
    seed: int
    points: int
    degenerate: bool   # known answer is the degenerate-metric error

    @property
    def shape(self):
        """Jobs of one shape use the same code paths and jet spaces."""
        return (self.kind, self.metric, self.quadratic, self.oracle_ad)


@dataclass
class JobResult:
    job: Job
    seconds: float
    samples: int
    failure: str | None  # None when the outcome equals the known answer
    output: bytes        # the job's report, byte for byte


def _label(metric, params):
    inner = ",".join(f"{k}={v:g}" for k, v in params.items())
    return f"{metric}({inner})" if inner else metric


def build_jobs(workload, seed, points=50):
    """The job list of a workload; job sampling seeds derive from ``seed``."""
    if workload == "sweep_closed":
        cases = [(m, p, q) for m, p in GRID for q in SETUPS]
        cases += [(m, {}, q) for m in ("shen_eq8", "asanov_eq9") for q in SETUPS]
        cases += [(m, {}, None) for m in EXAMPLES]
        kind, oracle = "cli", False
    elif workload == "oracle_ad":
        cases = [(m, {}, q) for m in AB_ENTRIES for q in ("product", "mixed4")]
        cases += [(m, {}, None) for m in EXAMPLES + ("shen_r3_eq1",)]
        kind, oracle = "cli", True
    elif workload == "cross_oracle":
        cases = [(m, {}, q) for m in AB_ENTRIES for q in ("product", "mixed4")]
        cases += [(m, {}, None) for m in EXAMPLES]
        kind, oracle = "cross", False
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    jobs = []
    for index, (metric, params, quadratic) in enumerate(cases):
        f = F_EXPRESSIONS[index % len(F_EXPRESSIONS)] if kind == "cli" else None
        parts = [_label(metric, params), quadratic or "fixed"]
        if f is not None:
            parts.append(f)
        jobs.append(Job(
            id=f"{index:02d}:" + "/".join(parts),
            kind=kind,
            metric=metric,
            params=params,
            quadratic=quadratic,
            f=f,
            oracle_ad=oracle,
            seed=1000 * seed + index,
            points=points,
            degenerate=(metric, params) == ("class4", {"p": 2.0, "q": -1.0}),
        ))
    return jobs


def warm_up(jobs, scratch):
    """Run one 1-point job of every shape so every JetSpace table exists."""
    seen = set()
    for job in jobs:
        if job.shape not in seen:
            seen.add(job.shape)
            run_job(replace(job, points=1), scratch)


def run_job(job, scratch):
    """Run one job, time it to its verdict and check its known answer."""
    if job.kind == "cli":
        return _run_cli_job(job, scratch)
    return _run_cross_job(job)


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------


def cli_argv(job, out_path):
    argv = ["classify", "--metric", job.metric]
    for key, val in job.params.items():
        argv += ["--param", f"{key}={val!r}"]
    if job.quadratic is not None:
        argv += ["--quadratic", job.quadratic]
    argv += ["--f", job.f, "--points", str(job.points), "--seed", str(job.seed),
             "--out", str(out_path)]
    if job.oracle_ad:
        argv.append("--oracle-ad")
    return argv


def _run_cli_job(job, scratch):
    out_path = Path(scratch) / "report.json"
    out_path.unlink(missing_ok=True)
    argv = cli_argv(job, out_path)
    stderr = io.StringIO()
    try:
        t0 = perf_counter()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        seconds = perf_counter() - t0
    except Exception as exc:  # a crash is a failed job, not a dead benchmark
        return JobResult(job, perf_counter() - t0, 0,
                         f"uncaught {type(exc).__name__}: {exc}", b"")
    output = out_path.read_bytes() if out_path.exists() else b""
    message = stderr.getvalue().strip().splitlines()
    message = message[-1] if message else ""
    doc = json.loads(output) if output else None
    samples = len(doc["samples"]) if doc else 0
    return JobResult(job, seconds, samples,
                     _check_cli(job, code, message, doc), output)


def _check_cli(job, code, message, doc):
    """None when the CLI outcome matches the job's known answer."""
    if job.degenerate:
        if code == 1 and "det(g)" in message:
            return None
        return f"expected the degenerate-metric error, got exit {code}: {message}"
    if code != 0:
        return f"exit {code}: {message}"
    res = doc["residuals"]
    problems = []
    if doc["verdict"] != DECLARED_VERDICT:
        problems.append(f"verdict {doc['verdict']!r}")
    if len(doc["samples"]) != job.points:
        problems.append(f"{len(doc['samples'])} samples")
    if not res["landsberg"]["max"] <= LANDSBERG_MAX:
        problems.append(f"landsberg {res['landsberg']['max']:.3g}")
    if not res["berwald"]["max"] >= BERWALD_MIN:
        problems.append(f"berwald {res['berwald']['max']:.3g}")
    if not res["metrizability"]["max"] <= METRIZABILITY_MAX:
        problems.append(f"metrizability {res['metrizability']['max']:.3g}")
    if not res["euler"]["max"] <= EULER_MAX:
        problems.append(f"euler {res['euler']['max']:.3g}")
    if not job.oracle_ad:
        mismatch = res["spray_mismatch"]["max"]
        if mismatch is None or not mismatch <= SPRAY_MISMATCH_MAX:
            problems.append(f"spray_mismatch {mismatch}")
    return "; ".join(problems) or None


# ---------------------------------------------------------------------------
# cross-oracle jobs (library calls)
# ---------------------------------------------------------------------------


def _run_cross_job(job):
    compare_plan = verify.SamplePlan(n_points=min(job.points, 20), seed=job.seed)
    check_plan = verify.SamplePlan(n_points=min(job.points, 15), seed=job.seed)
    try:
        t0 = perf_counter()
        spec = catalog.make_spec(job.metric, job.params, quadratic=job.quadratic)
        field = catalog.build_finsler(spec)
        cfs = catalog.closed_form_spray(spec)
        closed = cfs.as_spray_field()
        variational = geometry.ad_spray_field(field)
        eq5 = alphabeta.ab_spray_field(
            catalog.phi_function(spec), spec.setup,
            domain_guard=field.domain_guard,
        )
        sprays = {
            "closed_vs_variational": verify.compare_sprays(
                closed, variational, compare_plan),
            "closed_vs_eq5": verify.compare_sprays(closed, eq5, compare_plan),
            "variational_vs_eq5": verify.compare_sprays(
                variational, eq5, compare_plan),
        }
        via_p = verify.landsberg_via_p(cfs, field, check_plan)
        metrizability = verify.check_metrizability(field, closed, check_plan)
        seconds = perf_counter() - t0
    except Exception as exc:  # a raised error is this job's outcome
        return JobResult(job, perf_counter() - t0, 0,
                         f"{type(exc).__name__}: {exc}", b"")
    doc = {"sprays": sprays, "via_p": via_p, "metrizability": metrizability}
    output = (json.dumps(doc, sort_keys=True) + "\n").encode()
    samples = 3 * compare_plan.n_points + 2 * check_plan.n_points
    problems = [f"{k} {v:.3g}" for k, v in sprays.items()
                if not v <= CROSS_SPRAY_MAX]
    problems += [f"via_p.{k} {v['max']:.3g}" for k, v in via_p.items()
                 if not v["max"] <= VIA_P_MAX]
    if not metrizability["metrizability"]["max"] <= METRIZABILITY_MAX:
        problems.append(
            f"metrizability {metrizability['metrizability']['max']:.3g}")
    if not metrizability["euler"]["max"] <= EULER_MAX:
        problems.append(f"euler {metrizability['euler']['max']:.3g}")
    return JobResult(job, seconds, samples, "; ".join(problems) or None, output)
