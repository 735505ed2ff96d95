"""Record the baseline: end-to-end and per-layer metrics of every workload.

    python3 bench/baseline.py --seed 1 --seconds 20 [--out bench/baseline.json]

For each workload this runs ``run.py`` once untraced and twice traced on
the same seed, one process at a time.  It fails when the two traced runs
disagree on any exact count (``.calls``, ``rows_fed``, ``nnz_fed``,
``rank``, ``infeasible``, ``unknowns``, ``hypercomplex.*``), when a run
reports a failed job, or when the per-layer self times do not add up to
within 5% of the traced wall time.  The output records the machine, the
metrics of the first traced run, and the exact counts, so that a later
change can claim a count reduction against it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import workloads

COUNT_UNIT = "count"


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "baseline.json"))
    args = parser.parse_args(argv)
    import numpy
    out = {"machine": {"cpu": _cpu_model(), "nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "numpy": numpy.__version__},
           "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    problems = []
    for workload in workloads.WORKLOADS:
        e2e = _run(workload, args.seed, args.seconds, 0)
        first = _run(workload, args.seed, args.seconds, 1)
        second = _run(workload, args.seed, args.seconds, 1)
        counts = {name: m["value"] for name, m in first["metrics"].items()
                  if m["unit"] == COUNT_UNIT}
        again = {name: m["value"] for name, m in second["metrics"].items()
                 if m["unit"] == COUNT_UNIT}
        for name in counts:
            if counts[name] != again[name]:
                problems.append(f"{workload}: {name} {counts[name]} then "
                                f"{again[name]}")
        for rep in (e2e, first, second):
            if not rep["correct"]:
                problems.append(f"{workload}: {rep['failed']} failed jobs")
        layer = {name: m["value"] for name, m in first["metrics"].items()}
        if abs(layer["trace.unattributed_frac"]) > 0.05:
            problems.append(f"{workload}: self times cover only "
                            f"{1 - layer['trace.unattributed_frac']:.3f} "
                            "of the traced wall time")
        linalg_share = layer["linalg.self_s"] / layer["trace.wall_s"]
        out["workloads"][workload] = {
            "end_to_end": {k: m["value"] for k, m in e2e["metrics"].items()},
            "per_layer": {k: v for k, v in layer.items() if k not in counts},
            "counts": counts,
            "linalg_share": linalg_share,
            "attempted": e2e["attempted"] + first["attempted"]
            + second["attempted"]}
        print(f"{workload}: wall_s {e2e['metrics']['wall_s']['value']:.3f}, "
              f"linalg share {linalg_share:.3f}, "
              f"overhead {layer['trace.overhead_frac']:.3f}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
