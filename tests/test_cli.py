import json

import pytest

from finslerlab import verify
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
