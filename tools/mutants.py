"""Run the test suite against hand-written one-line mutants of the program.

Usage, from the root of a checkout:

    python3 tools/mutants.py            # every mutant, in table order
    python3 tools/mutants.py 3 17       # mutants 3 and 17 only

Each mutant is a (file, old text, new text, why) entry.  For each one the
tool copies ``src/``, ``tests/``, ``tools/`` (the golden report test runs
``tools/report_digests.py``), ``perfbench/``, ``BENCHMARK.json`` and
``pyproject.toml`` to a temporary directory, replaces the old text (which
must occur exactly once in the file) by the new one there, and runs
``pytest -x`` in that copy.  It prints one line per mutant:

    number  file  killed by <first failing test> | survived  seconds

The checkout itself is never edited.  A mutant that survives is a check
of the program that no test states a known answer for.  The whole table
takes several minutes; it is a tool to run by hand, not a test.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "perfbench", "BENCHMARK.json", "pyproject.toml")
PKG = "src/finslerlab/"

MUTANTS = [
    (PKG + "verify.py",
     "    if landsberg_max <= tol.landsberg_tol:",
     "    if landsberg_max <= 1e4 * tol.landsberg_tol:",
     "Landsberg gate 1e4 times too loose"),
    (PKG + "verify.py",
     "        if berwald_max >= berwald_floor_effective:",
     "        if True:",
     "Berwald floor never consulted"),
    (PKG + "verify.py",
     "    floor_eff = tol.berwald_floor * rate_max",
     "    floor_eff = 0.0 * tol.berwald_floor * rate_max",
     "effective Berwald floor zero"),
    (PKG + "verify.py",
     '            "berwald": _max_abs(pt.Gijkh) / scale,',
     '            "berwald": _max_abs(pt.Gijkh) / scale / 10,',
     "berwald column ten times too small"),
    (PKG + "verify.py",
     '            "spray_homogeneity": spray_homogeneity,',
     '            "spray_homogeneity": 0.0 * spray_homogeneity,',
     "spray homogeneity column zero"),
    (PKG + "verify.py",
     '            "g_rcond": pt.g_rcond,',
     '            "g_rcond": np.ones(N),',
     "g_rcond column one"),
    (PKG + "verify.py",
     '            "homogeneity": homogeneity,',
     '            "homogeneity": 0.0 * homogeneity,',
     "homogeneity column zero"),
    (PKG + "verify.py",
     "np.abs(f_scaled - lam * pt.F)",
     "np.abs(f_scaled - lam**2 * pt.F)",
     "F's homogeneity tested against degree two"),
    (PKG + "verify.py",
     "_SCALINGS = (0.5, 2.0)",
     "_SCALINGS = (1.0, 1.0)",
     "homogeneity checks scale by 1"),
    (PKG + "verify.py",
     "    return dxF - (Gij.transpose(0, 2, 1) @ ell[:, :, None])[..., 0]",
     "    return dxF + (Gij.transpose(0, 2, 1) @ ell[:, :, None])[..., 0]",
     "sign of the horizontal differential's spray term"),
    (PKG + "verify.py",
     "        return scale, horiz / scale, euler / scale",
     "        return scale, 0.0 * horiz, euler / scale",
     "metrizability residual zero"),
    (PKG + "verify.py",
     "    return np.abs((y[:, None, :] @ ell[:, :, None])[:, 0, 0] - F)",
     "    return 0.0 * F",
     "Euler defect zero"),
    (PKG + "catalog.py",
     "        return (y_jets[0] + jets.sqrt(phi) * kappa) * rate",
     "        return (y_jets[0] + jets.sqrt(phi) * (1.001 * kappa)) * rate",
     "closed spray's kappa off by 0.1 %"),
    (PKG + "verify.py",
     "        oracle.values(x, y), pt.G)",
     "        pt.G, pt.G)",
     "spray mismatch compares the spray with itself"),
    (PKG + "verify.py",
     '"at_sample": int(np.argmax(values == top))}',
     '"at_sample": 0}',
     "worst sample always reported as sample 0"),
    (PKG + "geometry.py",
     "    return -0.5 * F[:, None, None, None] * (",
     "    return -0.25 * F[:, None, None, None] * (",
     "Landsberg tensor's factor -1/2 -> -1/4"),
    (PKG + "alphabeta.py",
     "        return components(fp / fv, self.phi_jet(y_jets), y_jets)",
     "        return components(fv / fp, self.phi_jet(y_jets), y_jets)",
     "spray formulas read the conformal rate f'/f upside down"),
    (PKG + "geometry.py",
     "    c *= np.ldexp(",
     "    c[:, :n] *= np.ldexp(",
     "jet solve scales A but not B"),
    (PKG + "geometry.py",
     "    bad = ~(ratio > RCOND_MIN) | under",
     "    bad = ~(ratio > RCOND_MIN)",
     "degeneracy verdict without its underflow clause"),
    (PKG + "geometry.py",
     "        pair = np.array([np.full_like(piv, col), piv])",
     "        pair = np.array([np.full_like(piv, col), np.full_like(piv, piv[0])])",
     "every sample swaps rows with sample 0's pivot"),
    (PKG + "jets.py",
     "(-1.0) ** (k + 1)",
     "(-1.0) ** k",
     "ln's series with every sign flipped"),
    (PKG + "jets.py",
     "sign * c[-2]",
     "c[-2]",
     "arctanh's series recurrence with arctan's sign"),
    (PKG + "geometry.py",
     "    batch = x.shape, y.shape, x.tobytes(), y.tobytes()",
     "    batch = x.shape, y.shape, x.tobytes()",
     "kept field and spray jets keyed without y"),
    (PKG + "verify.py",
     "_last_draw.get(guard, (None, []))",
     "next(iter(_last_draw.values()), (None, []))",
     "a kept draw served to another guard object"),
    (PKG + "catalog.py",
     "field(default_factory=dict, init=False",
     "field(default_factory=lambda kept={}: kept, init=False",
     "every closed spray shares one dict of kept jets"),
    (PKG + "catalog.py",
     "        return (y_jets[0] + jets.sqrt(phi) * kappa) * rate",
     "        return (y_jets[0] + jets.sqrt(phi + 1e-14) * kappa) * rate",
     "closed spray's P homogeneous only up to 1e-14"),
    (PKG + "jets.py",
     "            self._diff_tables[key] = tab\n",
     "",
     "derivative tables rebuilt on every call"),
    (PKG + "alphabeta.py",
     "            for mu in range(lam, self.n - 1):",
     "            for mu in range(lam, min(lam + 2, self.n - 1)):",
     "phi(yhat) without the pairs two fiber indices apart"),
    (PKG + "jets.py",
     "else jet_space(*canonical)",
     "else JetSpace(*canonical)",
     "a non-canonical signature builds a space of its own"),
    (PKG + "verify.py",
     "    top = np.fmax.reduce(values, initial=0.0)",
     "    top = np.maximum.reduce(values, initial=0.0)",
     "a NaN replaces a residual's maximum"),
    (PKG + "jets.py",
     "        if not (math.isfinite(value) and value == int(value)):",
     "        if not math.isfinite(value):",
     "jet_space truncates a non-integral argument"),
    (PKG + "jets.py",
     "    for I, J in levels:",
     "    for I, J in levels[::-1]:",
     "a product's levels applied in reverse order"),
    (PKG + "jets.py",
     "            out = x[..., :, None] * y[..., None, :] + 0.0",
     "            out = x[..., :, None] * y[..., None, :]",
     "the outer product of two faces keeps a -0.0"),
    (PKG + "jets.py",
     'np.searchsorted(deg, cap - deg, side="right")',
     'np.searchsorted(deg, cap - deg, side="left")',
     "product pairs whose degrees reach a cap dropped"),
    (PKG + "jets.py",
     "base = n_x + n_y, max(x_cap, y_cap) + 1",
     "base = n_x + n_y, max(x_cap, y_cap)",
     "monomial codes in base max cap, so two monomials share a code"),
    (PKG + "verify.py",
     "_samples_json(report.columns)",
     '_samples_json({k: c for k, c in report.columns.items() if k != "index"})',
     "report samples written without their index"),
    (PKG + "alphabeta.py",
     "        fv, fp = self.f_values(np.asarray(x)[..., 0])\n",
     "        fv, fp = self.f_values(np.asarray(x)[..., 0])\n" * 2,
     "a spray batch reads f and f' twice"),
    (PKG + "verify.py",
     "        return scale, horiz / scale, euler / scale",
     "        return scale, horiz * (1.0 / scale), euler / scale",
     "metrizability residual divided through a reciprocal (last bits move)"),
    (PKG + "alphabeta.py",
     "        brackets = [root * (c3 / c1), *y_jets[1:]]\n",
     "        brackets = [root * (c3 / c1), *y_jets[1:]]\n"
     "        galpha[0] = galpha[0] + phi_y * 1e-13\n",
     "two-constant G^1 with a small term free of the conformal rate"),
    (PKG + "verify.py",
     "        raise  # no sample raises alone\n",
     "        singles = [columns_of(x[s:s + 1], y[s:s + 1]) for s in range(len(x))]\n"
     "        columns = {k: np.concatenate([c[k] for c in singles]) for k in singles[0]}\n",
     "a batch error no sample raises alone is replaced by joined one-sample columns"),
    (PKG + "alphabeta.py",
     "        brackets = [root * (c3 / c1), *y_jets[1:]]\n",
     "        brackets = [root * (c3 / c1), *y_jets[1:]]\n"
     "        galpha[0] = galpha[0] + phi_y * (rate * rate * 1e-15)\n",
     "two-constant G^1 with a small term quadratic in the conformal rate"),
]


def _check(mutants):
    """Refuse an old text that does not occur exactly once in its file."""
    for number, (path, old, _, _) in mutants:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            raise SystemExit(
                f"mutant {number}: old text occurs {count} times in {path}: {old!r}"
            )


def _run(path, old, new):
    """(outcome, seconds) of the suite against one mutant, in a copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        target = copy / path
        target.write_text(target.read_text().replace(old, new))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - t0
    if proc.returncode == 0:
        return "survived", seconds
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    if proc.returncode != 1 or first is None:
        return f"pytest exited {proc.returncode}", seconds
    return f"killed by {first.group(1)}", seconds


def main(argv):
    if not all(arg.isdigit() for arg in argv):
        print("usage: python3 tools/mutants.py [NUMBER...]", file=sys.stderr)
        return 2
    numbered = list(enumerate(MUTANTS, start=1))
    if argv:
        wanted = {int(arg) for arg in argv}
        numbered = [(i, m) for i, m in numbered if i in wanted]
    _check(numbered)
    survivors = 0
    for number, (path, old, new, why) in numbered:
        outcome, seconds = _run(path, old, new)
        survivors += outcome == "survived"
        print(f"{number:2d}  {path.removeprefix(PKG)}  {why}: {outcome}  "
              f"{seconds:.1f}s", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
