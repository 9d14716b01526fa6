"""Print the sha256 of every job report of the benchmark workloads.

Usage, from the root of a checkout:

    python3 tools/report_digests.py 0 1 2 > digests.txt

For each seed and each workload of ``perfbench/workloads.py``, every job
runs alone through ``workloads.run_job``, with the CLI's ``--out`` in a
temporary directory, and prints one line:

    workload seed job-id sha256 failure

``failure`` is the job's reason for differing from its known answer, or
``-``; the wall time that ends a CLI message reads ``in <t>s``, since it
varies from run to run.  Two checkouts whose outputs are equal produce
byte-identical reports and the same failures; diff the outputs to check
that a change keeps every report.
"""

from __future__ import annotations

import hashlib
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    if not argv or not all(arg.isdigit() for arg in argv):
        print("usage: python3 tools/report_digests.py SEED...", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    with tempfile.TemporaryDirectory() as scratch:
        for seed in map(int, argv):
            for workload in workloads.WORKLOADS:
                for job in workloads.build_jobs(workload, seed):
                    result = workloads.run_job(job, scratch)
                    sha = hashlib.sha256(result.output).hexdigest()
                    failure = re.sub(r" in [0-9.]+s$", " in <t>s",
                                     result.failure or "-")
                    print(workload, seed, job.id, sha, failure, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
