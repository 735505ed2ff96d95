"""Set-up, job execution and output checks shared by the benchmark scripts.

Everything here runs in one process, one job at a time.  The timed region
of a job is the call of ``crfbench.cli.main`` (or of
``crfsolve.regular_kernel_basis``) with its output captured; parsing the
report and comparing it with the golden happen after the clock stops.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDENS = HERE / "goldens.json"
# Report fields compared with the golden; other keys (such as a later
# deterministic "stats" block) are ignored.
GOLDEN_FIELDS = ("status", "checks", "result")


# The reference work: fixed pure-Python Fraction and dict arithmetic, the
# kind of work crfbench does, in the benchmark's own code so that no change
# to the program can alter it.  The shared machine's speed drifts by tens of
# percent over minutes; the time of this loop, taken between jobs, follows
# that drift.  REFERENCE_S is a typical time of the loop on the machine that
# recorded baseline.json (it ranged from 13 to 25 ms there), so corrected
# times read as seconds on that machine at that speed.
REFERENCE_S = 0.017


def reference_seconds():
    """Time one run of the reference work, without garbage collection."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 1500):
            f = Fraction(i, 7) * Fraction(3, i + 2) - Fraction(1, i)
            acc += f
            table[i % 97] = table.get(i % 97, 0) + f
        return time.perf_counter() - t0
    finally:
        gc.enable()


class MissingProgram(RuntimeError):
    """The checkout holds no crfbench sources next to the benchmark."""


def import_program():
    """Import crfbench from the checkout's ``src``, never from elsewhere."""
    if not (SRC / "crfbench" / "__init__.py").is_file():
        raise MissingProgram(f"no crfbench package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "crfbench" or n.startswith("crfbench.")]:
        del sys.modules[name]
    cli = importlib.import_module("crfbench.cli")
    if Path(cli.__file__).resolve().parent != SRC / "crfbench":
        raise MissingProgram(f"crfbench imported from {cli.__file__}")
    return cli, importlib.import_module("crfbench.crfsolve")


@dataclass
class Outcome:
    seconds: float
    code: int | None      # exit code; None when the job raised
    text: str             # report bytes (CLI) or kernel basis JSON
    error: str | None     # traceback when the job raised


def run_job(job, workdir, cli, crfsolve):
    """Run one job; only the call itself is timed."""
    out = io.StringIO()
    code, error = None, None
    if job.kind == "kernel":
        _, algebra, n, degree = job.argv
        # the basis is serialised inside the timed region, as the CLI jobs
        # emit their reports inside it
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                basis = crfsolve.regular_kernel_basis(algebra, n, degree)
                text = json.dumps([p.to_json() for p in basis],
                                  sort_keys=True)
            code = 0
        except Exception:
            text, error = "", traceback.format_exc()
        seconds = time.perf_counter() - t0
        return Outcome(seconds, code, text, error)
    argv = [str(workdir / f"{job.payload}.json") if a == "PAYLOAD" else a
            for a in job.argv]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except (Exception, SystemExit):
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    return Outcome(seconds, code, out.getvalue(), error)


def golden_view(job, outcome):
    """(exit code, status, sha256 of the golden fields) of an outcome."""
    if job.kind == "kernel":
        view = {"result": json.loads(outcome.text)} if outcome.text else {}
    else:
        rep = json.loads(outcome.text) if outcome.text.strip() else {}
        view = {k: rep[k] for k in GOLDEN_FIELDS if k in rep}
    blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return {"exit": outcome.code, "status": view.get("status"),
            "digest": hashlib.sha256(blob.encode()).hexdigest()}


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Checks outcomes against construction, goldens and earlier runs."""

    def __init__(self, goldens):
        self.goldens = goldens
        self.report_hash = {}   # job id -> sha256 of the first report bytes
        self.attempted = 0
        self.failed = 0
        self.failures = []      # (job id, problem)

    def problems(self, job, outcome):
        if outcome.error is not None:
            return ["raised " + outcome.error.strip().splitlines()[-1]]
        found = []
        if outcome.code != job.expect_exit:
            found.append(f"exit {outcome.code}, expected {job.expect_exit}")
        golden = self.goldens.get(job.id)
        if golden is None:
            found.append("no golden recorded")
        else:
            try:
                view = golden_view(job, outcome)
            except ValueError as exc:
                return found + [f"unreadable report: {exc}"]
            if view != golden:
                found.append(f"output {view} differs from golden {golden}")
        digest = hashlib.sha256(outcome.text.encode()).hexdigest()
        if self.report_hash.setdefault(job.id, digest) != digest:
            found.append("report bytes differ from an earlier run of the job")
        return found

    def check(self, job, outcome):
        self.attempted += 1
        found = self.problems(job, outcome)
        self.failed += bool(found)
        self.failures += [(job.id, p) for p in found]
        return not found


def setup(workload, seed, pass_count, workdir):
    """Import crfbench, write every pass's payloads, warm up.  Returns
    (cli, crfsolve, pass job lists)."""
    cli, crfsolve = import_program()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    lists = []
    for p in range(pass_count):
        jobs, payloads = workloads.pass_jobs(workload, seed, p)
        for name, payload in payloads.items():
            path = workdir / f"{name}.json"
            if not path.exists():
                path.write_text(json.dumps(payload), encoding="utf-8")
        lists.append(jobs)
    for job in workloads.warmup_jobs(workload):
        run_job(job, workdir, cli, crfsolve)
    return cli, crfsolve, lists
