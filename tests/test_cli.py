import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from finslerlab import cli, verify
from finslerlab.cli import main


def run(argv):
    return main(argv)


def test_list_contains_expected_rows(capsys):
    assert run(["list"]) == 0
    out = capsys.readouterr().out
    body = [ln for ln in out.splitlines() if "|" in ln][1:]  # drop header
    assert len(body) >= 10
    row4 = next(ln for ln in body if ln.startswith("class4"))
    for cell in ("p≠0, q", "Theorem 4.4", "Landsberg non-Berwald"):
        assert cell in row4
    row31 = next(ln for ln in body if ln.startswith("example31"))
    assert "Example 3.1" in row31 and "Landsberg non-Berwald" in row31


def test_classify_expected_verdict_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["classify", "--metric", "class1", "--param", "a=2",
         "--f", "exp(x1)", "--points", "15", "--seed", "7",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "Landsberg, non-Berwald"
    assert doc["params"] == {"a": 2.0}
    assert len(doc["samples"]) == 15


def test_classify_constant_f_with_expectation(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        ["classify", "--metric", "class1", "--param", "a=2", "--f", "3",
         "--points", "8", "--expect", "berwald", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "Berwald"


def test_classify_verdict_mismatch_exit_two(tmp_path):
    code = run(
        ["classify", "--metric", "class1", "--param", "a=2", "--f", "3",
         "--points", "5", "--out", str(tmp_path / "r.json")]
    )
    assert code == 2  # catalog declares Landsberg non-Berwald


def test_classify_singular_parameters_exit_one(capsys):
    code = run(["classify", "--metric", "class2", "--param", "a=1"])
    assert code == 1
    assert "det(g)" in capsys.readouterr().err


def test_classify_nonpositive_f_exit_one(capsys):
    code = run(["classify", "--metric", "class1", "--f", "x1"])
    assert code == 1
    assert "positive" in capsys.readouterr().err


def test_classify_bad_expression_exit_one(capsys):
    code = run(["classify", "--metric", "class1", "--f", "exp(x1"])
    assert code == 1
    assert "offset 7" in capsys.readouterr().err


def test_reports_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert run(
            ["classify", "--metric", "example31", "--points", "12",
             "--seed", "3", "--out", str(p)]
        ) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_table(tmp_path):
    out = tmp_path / "rep.json"
    assert run(
        ["classify", "--metric", "class3", "--param", "a=2",
         "--points", "6", "--csv", "--out", str(out)]
    ) == 0
    lines = (tmp_path / "rep.json.csv").read_text().splitlines()
    assert lines[0].startswith("index,x1,y1,y2,y3,F,landsberg,berwald")
    header = lines[0].split(",")
    for key in verify.RESIDUAL_KEYS:
        assert key in header
    assert header[-1] == "g_rcond"
    doc = json.loads(out.read_text())
    for line, row in zip(lines[1:], doc["samples"]):
        assert float(line.split(",")[-1]) == row["g_rcond"] > 0.0
    assert len(lines) == 7


@pytest.mark.parametrize("csv", [False, True], ids=["json", "json-then-csv"])
def test_classify_without_out_prints_what_out_writes(csv, tmp_path, capsys):
    argv = ["classify", "--metric", "class3", "--param", "a=2", "--points", "6"]
    argv += ["--csv"] * csv
    out = tmp_path / "rep.json"
    assert run(argv + ["--out", str(out)]) == 0
    written = out.read_bytes()
    if csv:
        written += (tmp_path / "rep.json.csv").read_bytes()
    assert capsys.readouterr().out == ""
    assert run(argv) == 0
    assert capsys.readouterr().out.encode() == written


def test_quadratic_matrix_and_dim(tmp_path):
    code = run(
        ["classify", "--metric", "class1", "--param", "a=2",
         "--quadratic", "1,0,0,1", "--points", "6",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 0
    code = run(
        ["classify", "--metric", "class1", "--quadratic", "euclid",
         "--dim", "4", "--points", "6", "--out", str(tmp_path / "r4.json")]
    )
    assert code == 0
    doc = json.loads((tmp_path / "r4.json").read_text())
    assert len(doc["samples"][0]["y"]) == 4


def test_oracle_ad_route(tmp_path):
    out = tmp_path / "r.json"
    assert run(
        ["classify", "--metric", "example31", "--points", "5",
         "--oracle-ad", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["spray"].startswith("ad:")
    assert doc["residuals"]["spray_mismatch"]["max"] is None


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--param", "a=foo"], "--param a must be a number, got 'foo'"),
        (["--param", "a=2", "--param", "a=3"], "--param a is given more than once"),
        (["--quadratic", "1,x,0,1"], "--quadratic entry 2 must be a number, got 'x'"),
        (["--x-range", "foo"], "--x-range expects LO,HI, got 'foo'"),
        (["--x-range", "0.5"], "--x-range expects LO,HI, got '0.5'"),
        (["--x-range", "0,bar"], "--x-range entry 2 must be a number, got 'bar'"),
        (["--seed", "-1"], "seed must be non-negative, got -1"),
        (["--quadratic", "inf,0,0,1"], "c must be finite, got [[inf, 0.0], [0.0, 1.0]]"),
        (["--quadratic", "nan,0,0,1"], "c must be finite, got [[nan, 0.0], [0.0, 1.0]]"),
        (["--quadratic", "0,0,0,0"],
         "c must be non-singular: sigma_min/sigma_max = 0.000e+00"),
        (["--quadratic", "1e200,0,0,1"],
         "c must be non-singular: sigma_min/sigma_max = 1.000e-200"),
        (["--quadratic", "euclid", "--dim", "0"], "setup needs dimension n >= 3"),
        (["--quadratic", "euclid", "--dim", "-1"], "setup needs dimension n >= 3"),
        (["--f", "1e400"], "number '1e400' is not finite at offset 1"),
        (["--f", "exp(1000)"], "f(x1) overflows on the sampled range"),
        (["--f", "0.1-x1"], "f(x1) must be finite and positive on the sampled "
                            "range; f(0.125) = -0.025"),
        (["--metric", "shen_eq8", "--param", "c3=1e200"],
         "shen_eq8 requires (2+c3)² > c1² + c3², which overflows at "
         "c1=1, c3=1e+200, c4=1"),
        (["--metric", "shen_eq8", "--param", "c1=1e200"],
         "shen_eq8 requires (2+c3)² > c1² + c3², which overflows at "
         "c1=1e+200, c3=0.5, c4=1"),
        (["--f", "ln(x1)"], "f(x1) must be defined on the sampled range; f(-0.5) is "
                            "undefined: ln of non-positive constant term (constant "
                            "term -0.5)"),
        (["--f", "sqrt(x1)"], "f(x1) must be defined on the sampled range; f(-0.5) "
                              "is undefined: sqrt of non-positive constant term "
                              "(constant term -0.5)"),
        (["--f", "1/x1"], "f(x1) must be defined on the sampled range; f(0) is "
                          "undefined: division by (near-)zero constant term "
                          "(constant term 0.0)"),
        (["--f", "x1^0.5"], "f(x1) must be defined on the sampled range; f(-0.5) is "
                            "undefined: power 0.5 needs a positive constant term "
                            "(constant term -0.5)"),
        (["--f", "x1^x1"], "f(x1) must be defined on the sampled range; f(-0.5) is "
                           "undefined: ln of non-positive constant term (constant "
                           "term -0.5)"),
        (["--param", "a"], "--param expects K=V, got 'a'"),
        (["--quadratic", "1,2,3"], "quadratic matrix needs a square count of entries, got 3"),
    ],
)
def test_bad_numbers_named_at_the_boundary(extra, message, capsys):
    assert run(["classify", "--metric", "class1", *extra]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_huge_quadratic_refused_by_its_condition_not_by_overflow(capsys):
    # c = 1e160 I is well conditioned, but g mixes entries of order 1 and
    # 1e160; its determinant would overflow, its sigma ratio does not
    argv = ["classify", "--metric", "class1", "--quadratic", "1e160,0,0,1e160",
            "--points", "5"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "degenerate metric" in err and "sigma_min/sigma_max = " in err


@pytest.mark.parametrize(
    "params",
    [["class1", "--param", "a=1e300"],
     ["shen_eq8", "--param", "c4=1e308"],
     ["class4", "--param", "p=1e200", "--param", "q=1e200"]],
)
def test_non_finite_metric_named_as_overflow(params, capsys):
    with pytest.warns(RuntimeWarning):  # numpy's overflow warnings
        assert run(["classify", "--metric", *params, "--points", "5"]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("error: degenerate metric for ")
    assert err.endswith(": g has non-finite entries (overflow)")


@pytest.mark.parametrize("seed", (27, 36))
def test_well_conditioned_mixed4_samples_accepted(seed, tmp_path):
    # the scale-dependent det(g) test refused these (det = -3.9e-29 and
    # -3.3e-24) although sigma_min/sigma_max of g stays above 5e-6
    out = tmp_path / "r.json"
    assert run(["classify", "--metric", "class1", "--quadratic", "mixed4",
                "--seed", str(seed), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "Landsberg, non-Berwald"
    assert doc["residuals"]["g_rcond_min"] > 1e-6


def test_unknown_metric_exit_one(capsys):
    assert run(["classify", "--metric", "class9"]) == 1
    assert "unknown metric" in capsys.readouterr().err


@pytest.mark.parametrize(
    "metric_id",
    ["class1", "class2", "class3", "class4", "shen_eq8", "asanov_eq9",
     "example31", "example32", "example33", "shen_r3_eq1"],
)
def test_exit_contract_every_entry_default_plan(metric_id, tmp_path):
    # each entry's declared verdict must be reproduced at the default plan
    out = tmp_path / "r.json"
    assert run(["classify", "--metric", metric_id, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "Landsberg, non-Berwald"


def test_list_names_every_shen_eq8_rule(capsys):
    assert run(["list"]) == 0
    out = capsys.readouterr().out
    row = next(ln for ln in out.splitlines() if ln.startswith("shen_eq8"))
    for cell in ("c1 ≠ 0", "1+c3 > 0", "c4 > 0", "(2+c3)² > c1² + c3²"):
        assert cell in row


def test_overflowing_constant_f_refused(capsys):
    with pytest.warns(RuntimeWarning):
        code = run(["classify", "--metric", "class1", "--f", "1e308*10",
                    "--points", "3"])
    assert code == 1
    assert capsys.readouterr().err.strip() == (
        "error: f(x1) must be finite and positive on the sampled range; "
        "f(-0.5) = inf"
    )


@pytest.mark.parametrize("target, csv", [
    ("missing/r.json", False),  # parent directory does not exist
    (".", False),               # the path is a directory
    ("r.json", True),           # the JSON is written, its .csv is a directory
])
def test_unwritable_out_is_an_error_not_a_traceback(target, csv, tmp_path):
    (tmp_path / "r.json.csv").mkdir()
    out = tmp_path / target
    argv = ["classify", "--metric", "class1", "--points", "3", "--out", str(out)]
    src = Path(verify.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "finslerlab.cli", *argv, *(["--csv"] if csv else [])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    path = str(out) + ".csv" if csv else str(out)
    assert proc.stderr.startswith(f"error: cannot write report to {path!r}: ")


def _never_classify(*args, **kwargs):
    raise AssertionError("the plan ran although --out cannot be written")


@pytest.mark.parametrize("target, csv", [
    ("missing/r.json", False),
    (".", False),
    ("r.json", True),
])
def test_unwritable_out_is_refused_before_the_plan(target, csv, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.setattr(verify, "classify", _never_classify)
    (tmp_path / "r.json.csv").mkdir()
    out = tmp_path / target
    argv = ["classify", "--metric", "class1", "--points", "3", "--out", str(out)]
    assert run(argv + (["--csv"] if csv else [])) == 1
    path = str(out) + ".csv" if csv else str(out)
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write report to {path!r}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json.csv"]


def test_out_check_neither_truncates_nor_leaves_a_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verify, "classify", _never_classify)
    (tmp_path / "r.json.csv").mkdir()
    old = tmp_path / "r.json"
    old.write_text("previous report\n")
    argv = ["classify", "--metric", "class1", "--points", "3", "--out", str(old)]
    assert run(argv + ["--csv"]) == 1
    assert old.read_text() == "previous report\n"

    def failing(*args, **kwargs):
        raise ValueError("the plan failed")

    monkeypatch.setattr(verify, "classify", failing)
    new = tmp_path / "new.json"
    assert run(["classify", "--metric", "class1", "--points", "3",
                "--out", str(new), "--csv"]) == 1
    assert capsys.readouterr().err.endswith("error: the plan failed\n")
    assert not new.exists() and not (tmp_path / "new.json.csv").exists()


def test_main_reuses_one_parser_and_writes_what_fresh_parsers_write(
        tmp_path, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    parser = cli._PARSER
    argvs = [
        ["classify", "--metric", "class4", "--quadratic", "mixed4", "--points", "6",
         "--seed", "2", "--param", "p=2", "--param", "q=3", "--csv"],
        ["classify", "--metric", "example31", "--points", "5", "--f", "2+sin(x1)"],
    ]
    for argv in argvs:
        shared, fresh = tmp_path / "shared.json", tmp_path / "fresh.json"
        assert main(argv + ["--out", str(shared)]) == 0
        args = build().parse_args(argv + ["--out", str(fresh)])
        assert args.func(args) == 0
        for suffix in ("", ".csv")[: 1 + ("--csv" in argv)]:
            assert (Path(str(shared) + suffix).read_bytes()
                    == Path(str(fresh) + suffix).read_bytes())
    assert builds == [] and cli._PARSER is parser
    # the default --param list is not shared between runs
    assert parser.parse_args(["classify", "--metric", "class1"]).param == []


def test_help_names_the_program_whatever_argv0_is(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["/some/where/else.py"])
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: finslerlab ")


def test_x_range_whose_width_overflows_refused_at_the_boundary(capsys):
    argv = ["classify", "--metric", "class1", "--points", "3",
            "--x-range=-1e308,1e308"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from linspace
        assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: x_range (-1e+308, 1e+308) is too wide: hi - lo ")
    assert "overflows" in err and "f(x1)" not in err
    src = Path(verify.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "finslerlab.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 1
    assert proc.stderr == err


def _class1_report(tmp_path, name, *extra):
    out = tmp_path / f"{name}.json"
    assert run(["classify", "--metric", "class1", "--points", "20",
                "--out", str(out), *extra]) == 0
    return json.loads(out.read_text())


def test_a_small_constant_factor_of_f_keeps_the_verdict(tmp_path):
    # g scales with f², and its rcond does not: both runs draw the same samples
    ref = _class1_report(tmp_path, "one", "--f", "exp(x1)")
    doc = _class1_report(tmp_path, "small", "--f", "1e-6*exp(x1)")
    assert doc["verdict"] == ref["verdict"] == "Landsberg, non-Berwald"
    for got, want in zip(doc["samples"], ref["samples"]):
        assert got["g_rcond"] == pytest.approx(want["g_rcond"], rel=1e-11, abs=0)


def test_a_subnormal_metric_exits_one(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["classify", "--metric", "class1", "--f", "1e-160*exp(x1)",
                "--points", "20", "--out", str(out)]) == 1
    assert "underflows" in capsys.readouterr().err
    assert not out.exists()


def test_a_metric_that_underflows_to_zero_is_named_as_underflow(tmp_path, capsys):
    # F^2 ~ 1e-400: g is exactly 0, which is not a small det(g)
    out = tmp_path / "r.json"
    assert run(["classify", "--metric", "class1", "--f", "1e-200*exp(x1)",
                "--points", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "underflows" in err and "det(g)" not in err
    assert not out.exists()


@pytest.mark.parametrize("profile", sorted(verify.TOL_PROFILES))
def test_tol_profile_sets_the_tolerances_and_not_the_samples(profile, tmp_path):
    tol = verify.TOL_PROFILES[profile]
    doc = _class1_report(tmp_path, profile, "--tol-profile", profile)
    ref = _class1_report(tmp_path, "ref")
    assert doc["plan"]["tolerances"] == dataclasses.asdict(tol)
    # f = exp(x1) has conformal rate 1, so the floor is the profile's own
    floor = doc["residuals"]["berwald_floor_effective"]
    assert floor == pytest.approx(tol.berwald_floor, rel=1e-15, abs=0)
    assert doc["samples"] == ref["samples"]
    assert doc["verdict"] == "Landsberg, non-Berwald"


@pytest.mark.parametrize("argv", [
    ["classify", "--metric", "class1", "--points", "abc"],
    ["classify", "--metric", "class1", "--no-such-flag"],
    [],
], ids=["bad-value", "unknown-flag", "no-command"])
def test_a_usage_error_exits_one_with_the_usage_text(argv, capsys):
    # 2 means "verdict mismatch"; a usage error is an error
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: finslerlab") and "error: " in err


@pytest.mark.parametrize("option, value", [
    ("--x-range", "-1,1"),
    ("--quadratic", "-0.3,1,1,0"),
])
def test_a_negative_first_value_reads_as_its_equals_form(option, value, tmp_path):
    base = ["classify", "--metric", "class1", "--points", "5"]
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert main(base + [option, value, "--out", str(spaced)]) == 0
    assert main(base + [f"{option}={value}", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    default = tmp_path / "default.json"  # and the value is not ignored
    assert main(base + ["--out", str(default)]) == 0
    assert spaced.read_bytes() != default.read_bytes()
