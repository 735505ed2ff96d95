"""Record the expected output of every job any seed can draw.

    python3 bench/record_goldens.py [workload ...]

Runs each pool job once and writes its exit code, report status and the
sha256 of its ``status``/``checks``/``result`` fields to goldens.json
(entries of workloads not named are kept).  A job whose exit code differs
from the one it has by construction is reported and not recorded.  Run
this only at a commit whose outputs are known to be right: the benchmark
counts every later difference as a failed job.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import harness
import workloads


def record(workload, cli, crfsolve, goldens):
    workdir = harness.HERE / ".work" / f"goldens-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    bad = 0
    try:
        for job, payload in workloads.pool_jobs(workload):
            if payload is not None:
                (workdir / f"{job.payload}.json").write_text(
                    json.dumps(payload), encoding="utf-8")
            outcome = harness.run_job(job, workdir, cli, crfsolve)
            if outcome.error is not None or outcome.code != job.expect_exit:
                print(f"NOT RECORDED {job.id}: exit {outcome.code}, expected "
                      f"{job.expect_exit}\n{outcome.error or ''}")
                bad += 1
                continue
            goldens[job.id] = harness.golden_view(job, outcome)
            print(f"{job.id}  exit {outcome.code}  {outcome.seconds:.3f}s",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    return bad


def main(argv):
    names = argv or list(workloads.WORKLOADS)
    cli, crfsolve = harness.import_program()
    goldens = harness.load_goldens() if harness.GOLDENS.exists() else {}
    for name in names:
        goldens = {k: v for k, v in goldens.items()
                   if not k.startswith(name + "/")}
    bad = sum(record(name, cli, crfsolve, goldens) for name in names)
    with open(harness.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(goldens.items())), fh, indent=1)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
