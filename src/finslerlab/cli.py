"""Command-line front end.

    finslerlab list
    finslerlab classify --metric class1 --param a=2 --f "exp(x1)" \
        --points 50 --seed 7 --out report.json

Exit codes: 0 when the run succeeds and the verdict matches the expected
one (from --expect, falling back to the catalog's declared verdict),
2 on a verdict mismatch, 1 on any error (a usage error, invalid
configuration, f not finite and positive on the sampled range, singular
metric, sampler starvation).  A value of ``--x-range`` or ``--quadratic``
may begin with a minus sign in either form, ``--x-range -1,1`` or
``--x-range=-1,1``.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import re
import sys

import numpy as np

from . import catalog, exprlang, verify
from .geometry import DegenerateMetricError
from .jets import SingularPointError, jet_space
from .verify import SamplePlan, TOL_PROFILES, verdict_slug

__all__ = ["main", "run_classify", "list_catalog"]


class _Parser(argparse.ArgumentParser):
    """argparse's parser with the usage error on exit code 1, the error
    code, instead of 2, which means a verdict mismatch here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
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
    # looked up when called, like list_catalog above, so that a replaced
    # cli.run_classify is the one the shared parser runs
    cls.set_defaults(func=lambda args: run_classify(args))
    return parser


def list_catalog():
    rows = [("id", "parameters", "source", "expected verdict")]
    for entry_id, entry in catalog.CATALOG.items():
        rows.append((entry_id, entry.constraints, entry.source,
                     catalog.EXPECTED_VERDICT))
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


def _check_f_positive(f, x_range):
    grid = np.linspace(x_range[0], x_range[1], 33)
    x1 = jet_space(1, 0, 1, 0)
    try:
        fj = f(x1.seed_x(0, grid))
    except OverflowError:
        raise ValueError("f(x1) overflows on the sampled range") from None
    except SingularPointError:
        for t in grid:  # the batch may name a later point than the first
            try:
                f(x1.seed_x(0, t))
            except SingularPointError as exc:
                raise ValueError(f"f(x1) must be defined on the sampled range; "
                                 f"f({t:g}) is undefined: {exc}") from None
        raise
    vals = np.broadcast_to(fj.value, grid.shape)  # a constant f is unbatched
    bad = ~(np.isfinite(vals) & (vals > 0.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"f(x1) must be finite and positive on the sampled range; "
            f"f({grid[k]:g}) = {vals[k]:g}"
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


def _write_error(exc):
    return f"error: cannot write report to {exc.filename!r}: {exc.strerror}"


def _check_writable(paths):
    """Raise the OSError that writing the first unwritable path would.

    Each path is opened for appending, which neither truncates an existing
    file nor changes it; a file the check itself created is removed, so a
    run that fails later leaves nothing behind.
    """
    for path in paths:
        existed = os.path.lexists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)


def run_classify(args):
    plan = SamplePlan(
        n_points=args.points,
        seed=args.seed,
        x_range=_parse_x_range(args.x_range),
        tolerances=TOL_PROFILES[args.tol_profile],
    )
    f = exprlang.compile_expr(args.f)
    _check_f_positive(f, plan.x_range)
    entry = catalog.CATALOG.get(args.metric)  # None: make_spec names the id
    spec = catalog.make_spec(
        args.metric,
        params=_parse_params(args.param),
        quadratic=_parse_quadratic(args.quadratic),
        dim=args.dim,
        f=None if entry is not None and entry.profile is None else f,
    )
    field = catalog.build_finsler(spec)
    if args.oracle_ad or not spec.entry.has_closed_form:
        spray = None  # classify derives the variational spray
    else:
        spray = catalog.closed_form_spray(spec)
    paths = [args.out, args.out + ".csv"][: 1 + bool(args.csv)] if args.out else []
    try:
        _check_writable(paths)  # before the plan, which may run for minutes
    except OSError as exc:
        print(_write_error(exc), file=sys.stderr)
        return 1
    report = verify.classify(field, spray, plan, params=spec.params)
    texts = [verify.report_to_json(report)]
    if args.csv:
        texts.append(_csv_table(report))
    if args.out:
        try:
            for path, text in zip(paths, texts):
                with open(path, "w") as fh:
                    fh.write(text)
        except OSError as exc:
            print(_write_error(exc), file=sys.stderr)
            return 1
    else:
        sys.stdout.write("".join(texts))
    expected = args.expect or catalog.EXPECTED_VERDICT
    got = verdict_slug(report.verdict)
    want = verdict_slug(expected)
    summary = (
        f"{spec.label}: verdict {report.verdict!r} "
        f"(expected {expected!r}) in {report.wall_time:.2f}s"
    )
    print(summary, file=sys.stderr)
    return 0 if got == want else 2


#: Built once per process: every in-process caller of :func:`main` (a
#: scripted sweep, say) would otherwise pay for it on every run.
_PARSER = build_parser()


#: Options whose value may begin with a minus sign (a negative first
#: entry), which argparse would read as an option of its own.
_SIGNED_OPTIONS = ("--x-range", "--quadratic")
_SIGNED_VALUE = re.compile(r"-[\d.]")


def _join_signed_values(argv):
    """``argv`` with ``--x-range -1,1`` written as ``--x-range=-1,1``, and
    likewise for each option of ``_SIGNED_OPTIONS``."""
    out = []
    for arg in argv:
        if out and out[-1] in _SIGNED_OPTIONS and _SIGNED_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _PARSER.parse_args(_join_signed_values(argv))
    try:
        return args.func(args)
    except (
        DegenerateMetricError,
        verify.SamplerStarvationError,
        ArithmeticError,
        ValueError,  # CatalogError and ExprSyntaxError among them
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
