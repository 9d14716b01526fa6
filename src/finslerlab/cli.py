"""Command-line front end.

    finslerlab list
    finslerlab classify --metric class1 --param a=2 --f "exp(x1)" \
        --points 50 --seed 7 --out report.json

Exit codes: 0 when the run succeeds and the verdict matches the expected
one (from --expect, falling back to the catalog's declared verdict),
2 on a verdict mismatch, 1 on any error (invalid configuration,
non-positive f on the sampled range, singular metric, sampler
starvation).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from . import catalog, exprlang, verify
from .geometry import DegenerateMetricError
from .jets import SingularPointError, jet_space
from .verify import SamplePlan, TOL_PROFILES, verdict_slug

__all__ = ["main", "run_classify", "list_catalog"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finslerlab",
        description="Landsberg/Berwald classification of catalog Finsler metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="list the metric catalog")
    lst.set_defaults(func=lambda args: print(list_catalog()) or 0)

    cls = sub.add_parser("classify", help="classify one metric")
    cls.add_argument("--metric", required=True, help="catalog id (see list)")
    cls.add_argument(
        "--param", action="append", default=[], metavar="K=V",
        help="metric parameter, repeatable (e.g. --param a=2)",
    )
    cls.add_argument(
        "--f", default="exp(x1)", metavar="EXPR",
        help="conformal factor f(x1) as an expression (default exp(x1))",
    )
    cls.add_argument(
        "--quadratic", default=None, metavar="PRESET|MATRIX",
        help="fiber quadratic form: product, euclid, mixed4, or a "
        "row-major comma list for the (n-1)x(n-1) symmetric matrix",
    )
    cls.add_argument("--dim", type=int, default=None, help="dimension n")
    cls.add_argument("--points", type=int, default=50, help="sample count")
    cls.add_argument("--seed", type=int, default=0, help="sampling seed")
    cls.add_argument(
        "--x-range", default="-0.5,0.5", metavar="LO,HI", dest="x_range",
        help="interval for x^1 (default -0.5,0.5)",
    )
    cls.add_argument(
        "--expect", default=None,
        help="expected verdict (berwald, landsberg-non-berwald, "
        "non-landsberg); defaults to the catalog's declared verdict",
    )
    cls.add_argument("--out", default=None, help="report path (default stdout)")
    cls.add_argument(
        "--csv", action="store_true",
        help="also emit the per-sample residual table as CSV",
    )
    cls.add_argument(
        "--oracle-ad", action="store_true", dest="oracle_ad",
        help="force the variational spray route instead of the closed form",
    )
    cls.add_argument(
        "--tol-profile", default="default", choices=sorted(TOL_PROFILES),
        dest="tol_profile", help="tolerance profile",
    )
    cls.set_defaults(func=run_classify)
    return parser


def list_catalog():
    rows = [("id", "parameters", "source", "expected verdict")]
    for entry in catalog.CATALOG.values():
        rows.append(
            (entry.id, entry.constraints, entry.source, entry.expected_verdict)
        )
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    lines = [
        " | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def _number(text, what):
    try:
        return float(text)
    except ValueError:
        raise catalog.CatalogError(
            f"{what} must be a number, got {text.strip()!r}"
        ) from None


def _parse_params(pairs):
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise catalog.CatalogError(
                f"--param expects K=V, got {pair!r}"
            )
        key, _, val = pair.partition("=")
        key = key.strip()
        if key in params:
            raise catalog.CatalogError(f"--param {key} is given more than once")
        params[key] = _number(val, f"--param {key}")
    return params


def _parse_quadratic(text):
    if text is None or text in catalog.QUADRATIC_PRESETS:
        return text
    vals = [
        _number(v, f"--quadratic entry {i + 1}")
        for i, v in enumerate(text.split(","))
    ]
    k = int(round(len(vals) ** 0.5))
    if k * k != len(vals):
        raise catalog.CatalogError(
            f"quadratic matrix needs a square count of entries, got {len(vals)}"
        )
    return np.array(vals).reshape(k, k)


def _parse_x_range(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise catalog.CatalogError(f"--x-range expects LO,HI, got {text!r}")
    return tuple(
        _number(v, f"--x-range entry {i + 1}") for i, v in enumerate(parts)
    )


def _check_f_positive(f_ast, x_range):
    space = jet_space(1, 0, 1, 0)
    for x1 in np.linspace(x_range[0], x_range[1], 33):
        val = exprlang.evaluate(f_ast, space.seed_x(0, float(x1))).value
        if not val > 0.0:
            raise ValueError(
                f"f(x1) must be positive on the sampled range; "
                f"f({x1:g}) = {val:g}"
            )


def _csv_table(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    n = len(report.samples[0]["y"])
    keys = verify.RESIDUAL_KEYS
    writer.writerow(
        ["index", "x1", *[f"y{i + 1}" for i in range(n)], "F", *keys, "g_rcond"]
    )
    for row in report.samples:
        writer.writerow(
            [row["index"], repr(row["x1"]), *[repr(v) for v in row["y"]],
             repr(row["F"]), *["" if row[k] is None else repr(row[k]) for k in keys],
             repr(row["g_rcond"])]
        )
    return buf.getvalue()


def run_classify(args):
    plan = SamplePlan(
        n_points=args.points,
        seed=args.seed,
        x_range=_parse_x_range(args.x_range),
        tolerances=TOL_PROFILES[args.tol_profile],
    )
    f_ast = exprlang.parse_expr(args.f)
    _check_f_positive(f_ast, plan.x_range)
    spec = catalog.make_spec(
        args.metric,
        params=_parse_params(args.param),
        quadratic=_parse_quadratic(args.quadratic),
        dim=args.dim,
        f=None if args.metric == "shen_r3_eq1" else (
            lambda t: exprlang.evaluate(f_ast, t)
        ),
    )
    field = catalog.build_finsler(spec)
    if args.oracle_ad or not spec.entry.has_closed_form:
        spray = None  # classify derives the variational spray
    else:
        spray = catalog.closed_form_spray(spec).as_spray_field()
    report = verify.classify(field, spray, plan, params=spec.params)
    doc = verify.report_to_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc)
        if args.csv:
            with open(args.out + ".csv", "w") as fh:
                fh.write(_csv_table(report))
    else:
        sys.stdout.write(doc)
        if args.csv:
            sys.stdout.write(_csv_table(report))
    expected = args.expect or spec.entry.expected_verdict
    got = verdict_slug(report.verdict)
    want = verdict_slug(expected)
    summary = (
        f"{spec.label}: verdict {report.verdict!r} "
        f"(expected {expected!r}) in {report.wall_time:.2f}s"
    )
    print(summary, file=sys.stderr)
    return 0 if got == want else 2


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        catalog.CatalogError,
        DegenerateMetricError,
        verify.SamplerStarvationError,
        exprlang.ExprSyntaxError,
        SingularPointError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
