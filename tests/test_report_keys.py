"""Golden report digests: every (job, key) line that
``tools/report_digests.py --keys 0 1 2`` printed when
``tests/data/report_keys.txt`` was recorded is printed again, bit for bit.

The file's ``#`` lines name the environment it was recorded in: Python,
numpy, ``platform.machine()``, ``np.finfo(np.longdouble).nmant`` and the
BLAS thread pinning of ``perfbench/run.py``, under which the tool runs.
Elsewhere libm or BLAS may move a last bit, so there the test skips and
its reason prints both environments.  A line the file does not have (a new
report key) passes.  Record the file, from the root of a checkout, with

    python3 tests/test_report_keys.py > tests/data/report_keys.txt

and list each (job, key) whose line changed, and why, where the change is
described.
"""

import json
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "report_keys.txt"
SEEDS = ("0", "1", "2")


def _record():
    """Print the environment header, then the tool's per-key digests."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tools")]
    import run  # pins the BLAS and OpenMP pools before numpy is imported

    import numpy as np
    import report_digests

    header = {
        "command": "tools/report_digests.py --keys " + " ".join(SEEDS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "longdouble_nmant": str(np.finfo(np.longdouble).nmant),
        "blas_threads": json.dumps(run.environment()["blas_threads"], sort_keys=True),
    }
    for key, value in header.items():
        print(f"# {key}: {value}")
    sys.stdout.flush()
    return report_digests.main(["--keys", *SEEDS])


def _parse(text):
    """(environment header, {workload seed job key: sha256}) of a recording."""
    header, digests = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        else:
            ident, _, sha = line.rpartition(" ")
            digests[ident] = sha
    return header, digests


def test_every_recorded_report_key_keeps_its_digest():
    proc = subprocess.run([sys.executable, __file__], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    recorded_env, recorded = _parse(GOLDEN.read_text())
    env, got = _parse(proc.stdout)
    if env != recorded_env:
        pytest.skip(f"recorded in {recorded_env}, running in {env}")
    changed = [ident for ident, sha in recorded.items() if got.get(ident, sha) != sha]
    missing = [ident for ident in recorded if ident not in got]
    assert not changed and not missing, (
        f"{len(changed)} changed: {changed}; {len(missing)} missing: {missing}")


if __name__ == "__main__":
    sys.exit(_record())
