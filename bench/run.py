"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload rhoadic --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads: rhoadic, syzygy, solve, identities (see workloads.py and
BENCHMARK.json for why each was chosen).  Jobs run in this one process, one
at a time, in a closed loop with one client.  A run makes
``workloads.passes(workload, seconds)`` passes over seeded job lists, so
every run of a workload does the same work.  Every job's output is checked
against how it was constructed, against the golden recorded in
goldens.json and, for repeated jobs, against the bytes of its first run.

The machine's speed drifts by tens of percent over minutes, so every job
is bracketed by runs of a fixed reference loop (``harness.reference_seconds``)
and the end-to-end times are reported at the reference speed: a job's
seconds times ``harness.REFERENCE_S`` over the mean reference time around it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
passes once untraced and once with every public crfbench function wrapped
(spans.py), and reports the per-layer metrics.  ``--workload all`` runs each
workload in its own process and prints every metric of all of them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 2
when the checkout has no crfbench sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import harness
import metrics
import spans
import workloads

SETUP_REPEATS = 5

END_TO_END = (("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metric prefix -> (layer, qualified function name, fields)
FUNCTION_METRICS = (
    ("crfsolve.solve_crf", "crfsolve", "solve_crf", ("s",)),
    ("crfsolve.crf_extend", "crfsolve", "crf_extend", ("s",)),
    ("crfsolve.jump_split", "crfsolve", "jump_split", ("s",)),
    ("crfsolve.regular_kernel_basis", "crfsolve", "regular_kernel_basis",
     ("s",)),
    ("crfsolve.rho_adic_digits", "crfsolve", "rho_adic_digits",
     ("calls", "s")),
    ("linalg.solve_sparse", "linalg", "solve_sparse", ("calls", "s")),
    ("linalg.nullspace_sparse", "linalg", "nullspace_sparse", ("s",)),
    ("linalg.rank_of", "linalg", "rank_of", ("s",)),
    ("linalg.back_substitute", "linalg", "Echelon.back_substitute", ("s",)),
    ("syzygy.syzygy_dim", "syzygy", "syzygy_dim", ("s",)),
    ("syzygy.compat_rows_rank", "syzygy", "compat_rows_rank", ("s",)),
    ("polycalc.fueter_dbar", "polycalc", "fueter_dbar", ("calls", "s")),
    ("polycalc.mul", "polycalc", "HPoly.__mul__", ("calls", "s")),
    ("polycalc.substitute_linear", "polycalc", "HPoly.substitute_linear",
     ("calls", "s")),
    ("polycalc.compat_pbar", "polycalc", "compat_pbar", ("s",)),
    ("hypersurface.is_admissible", "hypersurface", "is_admissible", ("s",)),
    ("hypersurface.is_crf", "hypersurface", "is_crf", ("s",)),
    ("hypersurface.rank_condition", "hypersurface", "rank_condition", ("s",)),
    ("forms.identity_lu1", "forms", "identity_lu1", ("s",)),
    ("forms.identity_lub", "forms", "identity_lub", ("s",)),
    ("integrate.sphere_rule", "integrate", "sphere_rule", ("s",)),
    ("integrate.cauchy_fueter_eval", "integrate", "cauchy_fueter_eval",
     ("s",)),
)
# hypercomplex has no spans: its time counts toward its caller's layer
SELF_LAYERS = tuple(layer for layer in spans.LAYERS if layer != "hypercomplex")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{layer}.self_s", "s") for layer in SELF_LAYERS]
    out += [("trace.wall_s", "s"), ("trace.overhead_frac", "ratio"),
            ("trace.unattributed_frac", "ratio"),
            ("phase.assemble_s", "s"), ("phase.eliminate_s", "s"),
            ("phase.verify_s", "s")]
    for prefix, _, _, fields in FUNCTION_METRICS:
        out += [(f"{prefix}.{f}", "s" if f == "s" else "count")
                for f in fields]
    out += [(name, "count") for name in spans.COUNTERS]
    out.append(("linalg.useful_row_ratio", "ratio"))
    return out


class TooFewJobs(RuntimeError):
    """The run is too short for the tail-latency rule."""


class LayerTotals:
    """Per-layer sums over the traced jobs of a run."""

    def __init__(self):
        self.self_s = dict.fromkeys(SELF_LAYERS, 0.0)
        self.phase = {"assemble": 0.0, "eliminate": 0.0, "verify": 0.0}
        self.functions = {}    # (layer, qualname) -> [calls, seconds]

    def add(self, tracer, job_spans):
        layer = [name[0] for name in tracer.names]
        for name, value in metrics.self_times(job_spans, layer).items():
            self.self_s[name] += value
        for name, value in metrics.phases(job_spans, layer).items():
            self.phase[name] += value
        totals = metrics.function_totals(job_spans)
        for fid, (calls, seconds) in totals.items():
            entry = self.functions.setdefault(tracer.names[fid], [0, 0.0])
            entry[0] += calls
            entry[1] += seconds


def run_passes(lists, workdir, cli, crfsolve, checker, tracer=None,
               totals=None):
    """Run every job of every pass.  Returns the job latencies corrected to
    the reference machine speed and the raw latencies."""
    raw, refs = [], [harness.reference_seconds()]
    for jobs in lists:
        for job in jobs:
            outcome = harness.run_job(job, workdir, cli, crfsolve)
            raw.append(outcome.seconds)
            if tracer is not None:
                totals.add(tracer, tracer.take_spans())
            checker.check(job, outcome)
            refs.append(harness.reference_seconds())
    return metrics.speed_corrected(raw, refs, harness.REFERENCE_S), raw


def end_to_end(latencies, setup_s):
    tail = metrics.tail(latencies)
    if tail is None:
        raise TooFewJobs(f"only {len(latencies)} jobs ran; the tail latency "
                         "needs more than 10 (raise --seconds)")
    tail_value, pct, count = tail
    values = {"wall_s": sum(latencies),
              "job_p50_s": statistics.median(latencies),
              "job_tail_s": tail_value,
              "setup_s": setup_s,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    note = f"job_tail_s is the p{pct:.1f} latency of {count} jobs"
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}, note


def per_layer(untraced, traced, traced_raw, totals, counts):
    """Per-layer values; times are raw seconds, except that the overhead
    compares speed-corrected walls."""
    values = {f"{layer}.self_s": v for layer, v in totals.self_s.items()}
    traced_wall = sum(traced_raw)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    values["trace.unattributed_frac"] = \
        1.0 - sum(totals.self_s.values()) / traced_wall
    for name, value in totals.phase.items():
        values[f"phase.{name}_s"] = value
    for prefix, layer, qual, fields in FUNCTION_METRICS:
        calls, seconds = totals.functions.get((layer, qual), (0, 0.0))
        if "calls" in fields:
            values[f"{prefix}.calls"] = calls
        if "s" in fields:
            values[f"{prefix}.s"] = seconds
    values.update(counts)
    fed = counts["linalg.rows_fed"]
    values["linalg.useful_row_ratio"] = \
        counts["linalg.rank"] / fed if fed else 0.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_units()}


def run_workload(workload, seed, seconds, trace):
    pass_count = workloads.passes(workload, seconds)
    workdir = harness.HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup_times, setup_refs = [], [harness.reference_seconds()]
        for _ in range(SETUP_REPEATS):
            gc.collect()   # garbage of the previous set-up is not timed
            t0 = time.perf_counter()
            cli, crfsolve, lists = harness.setup(workload, seed, pass_count,
                                                 workdir)
            setup_times.append(time.perf_counter() - t0)
            setup_refs.append(harness.reference_seconds())
        setup_s = statistics.median(metrics.speed_corrected(
            setup_times, setup_refs, harness.REFERENCE_S))
        checker = harness.Checker(harness.load_goldens())
        latencies, raw = run_passes(lists, workdir, cli, crfsolve, checker)
        note = f"{sum(raw):.3f} s before speed correction"
        if trace:
            tracer = spans.Tracer()
            totals = LayerTotals()
            tracer.install()
            try:
                traced, traced_raw = run_passes(
                    lists, workdir, cli, crfsolve, checker, tracer, totals)
            finally:
                tracer.uninstall()
            result = per_layer(latencies, traced, traced_raw, totals,
                               tracer.counts)
            note += f", {len(traced)} traced jobs"
        else:
            result, tail_note = end_to_end(latencies, setup_s)
            note += f"; {tail_note}"
        # rerun the quickest job outside any timing: its report must repeat
        # byte for byte
        job = [j for jobs in lists for j in jobs][
            latencies.index(min(latencies))]
        checker.check(job, harness.run_job(job, workdir, cli, crfsolve))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            workdir.parent.rmdir()
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": result}, \
        note, pass_count, checker.failures


def print_table(workload, out, note):
    failed_frac = out["failed"] / out["attempted"]
    print(f"# {workload}: {out['attempted']} jobs attempted, {out['failed']} "
          f"failed (failed_frac {failed_frac:g}); {note}")
    for name, m in out["metrics"].items():
        print(f"{workload:<11s} {name:<34s} {m['value']:>16.6g} {m['unit']}")


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        out = json.loads(lines[-1])
        merged["correct"] &= out["correct"]
        merged["attempted"] += out["attempted"]
        merged["failed"] += out["failed"]
        for name, m in out["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        out, note, pass_count, failures = run_workload(
            args.workload, args.seed, args.seconds, args.trace)
    except harness.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (spans.IncompleteWrapping, TooFewJobs) as exc:
        print(f"error: refusing to report: {exc}", file=sys.stderr)
        return 1
    for job_id, problem in failures:
        print(f"FAILED {job_id}: {problem}")
    print_table(args.workload, out, f"{pass_count} passes; {note}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
