"""Print the sha256 of every job report of the benchmark workloads.

Usage, from the root of a checkout:

    python3 tools/report_digests.py 0 1 2 > digests.txt
    python3 tools/report_digests.py --keys 0 1 2 > keys.txt

For each seed and each workload of ``perfbench/workloads.py``, every job
runs alone through ``workloads.run_job``, with the CLI's ``--out`` in a
temporary directory, and prints one line:

    workload seed job-id sha256 failure

``failure`` is the job's reason for differing from its known answer, or
``-``; the wall time that ends a CLI message reads ``in <t>s``, since it
varies from run to run.  Two checkouts whose outputs are equal produce
byte-identical reports and the same failures; diff the outputs to check
that a change keeps every report.

With ``--keys`` each job prints one line per key path instead:

    workload seed job-id key-path sha256

the sha256 of the key's value written by ``json.dumps(sort_keys=True)``.
The key paths of a CLI report are each ``residuals.<key>`` entry, each
``samples.<key>`` column (the list of its values over the rows) and
``verdict``; those of a ``cross_oracle`` document are its leaves, joined
by dots; every job has ``failure``, its failure text as above.  A report
that gains a key gains lines and changes none, so the diff of two outputs
names each key whose bits changed.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _leaves(doc, path=""):
    """(path, value) of each leaf of a JSON document, keys sorted."""
    if isinstance(doc, dict) and doc:
        for key in sorted(doc):
            yield from _leaves(doc[key], f"{path}.{key}" if path else key)
    else:
        yield path, doc


def _keys(result, failure):
    """(key path, value) of each key of a job's report (see the docstring)."""
    doc = json.loads(result.output) if result.output else {}
    if result.job.kind != "cli":
        yield from _leaves(doc) if doc else ()
    else:
        for key in sorted(doc.get("residuals", ())):
            yield f"residuals.{key}", doc["residuals"][key]
        rows = doc.get("samples") or [{}]
        for key in sorted(rows[0]):
            yield f"samples.{key}", [row[key] for row in rows]
        if "verdict" in doc:
            yield "verdict", doc["verdict"]
    yield "failure", failure


def main(argv):
    keys = argv[:1] == ["--keys"]
    seeds = argv[keys:]
    if not seeds or not all(arg.isdigit() for arg in seeds):
        print("usage: python3 tools/report_digests.py [--keys] SEED...",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    with tempfile.TemporaryDirectory() as scratch:
        for seed in map(int, seeds):
            for workload in workloads.WORKLOADS:
                for job in workloads.build_jobs(workload, seed):
                    result = workloads.run_job(job, scratch)
                    failure = re.sub(r" in [0-9.]+s$", " in <t>s",
                                     result.failure or "-")
                    if not keys:
                        print(workload, seed, job.id, _sha(result.output), failure,
                              flush=True)
                        continue
                    for path, value in _keys(result, failure):
                        text = json.dumps(value, sort_keys=True)
                        print(workload, seed, job.id, path, _sha(text.encode()),
                              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
