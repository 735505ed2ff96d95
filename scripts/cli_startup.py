#!/usr/bin/env python3
"""Start-up cost of the command line: each subcommand in fresh processes.

Writes fixed payloads to a temporary directory, runs each of the seven
subcommands in ``--rounds`` fresh ``python -m crfbench.cli`` processes
(default 15; one round runs every subcommand once, in turn) and prints per
subcommand the median wall time and the median peak RSS of the child, read
from ``os.wait4`` (ru_maxrss).  Wall time runs from the spawn to the reaped
exit, so it holds interpreter start-up, imports and the work itself.

The children import the crfbench that this script imports (put its ``src``
on PYTHONPATH) and inherit the environment, so bytecode caching follows
it: run with PYTHONDONTWRITEBYTECODE=1 from a checkout with no
``__pycache__`` to time compiling the sources too.

    PYTHONPATH=src python scripts/cli_startup.py --rounds 15
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import crfbench
from crfbench.hypercomplex import HNumber
from crfbench.polycalc import HPoly, dbar_system


def write_payloads(root):
    """The wall {y3 = 0} with the regular f = x1 - x0 i on it, and the
    system g = dbar u for the octonionic u = q1^3 x_{2,3}^2 of degree 5."""
    def coord(h, a):
        return HPoly.coordinate("H", 2, h, a)

    f = coord(0, 1) - coord(0, 0).mul_const_left(HNumber.unit("H", 1))
    surface = root / "surface.json"
    surface.write_text(json.dumps({"schema_version": 1, "f": f.to_json(),
                                   "surface": {"rho": coord(1, 3).to_json()}}))
    y = HPoly.coordinate("O", 2, 1, 3)
    u = HPoly.variable("O", 2, 0) ** 3 * y * y
    system = root / "system.json"
    system.write_text(json.dumps({"schema_version": 1, "g": [
        c.to_json() for c in dbar_system(u)]}))
    return {
        "verify-identities": ["--count", "5"],
        "check": ["--input", str(surface)],
        "solve": ["--input", str(system)],
        "extend": ["--input", str(surface)],
        "jump": ["--input", str(surface)],
        "syzygy": ["--algebra", "H", "--n", "2", "--degree", "2"],
        "cf-integral": ["--order", "8"],
    }


def run_child(argv, env):
    """(wall seconds, peak RSS in MB) of one fresh CLI process."""
    args = [sys.executable, "-m", "crfbench.cli", *argv]
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0)
             for fd in (1, 2)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, args, env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code not in (0, 1):   # 1 is a verdict (a check failed), 2-4 errors
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return wall, usage.ru_maxrss / 1024.0   # KiB on Linux


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("rounds must be at least 1")
    src = str(Path(crfbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    with tempfile.TemporaryDirectory() as tmp:
        commands = write_payloads(Path(tmp))
        walls = {name: [] for name in commands}
        rss = {name: [] for name in commands}
        for _ in range(args.rounds):
            for name, argv in commands.items():
                wall, peak = run_child([name, *argv], env)
                walls[name].append(wall)
                rss[name].append(peak)
    print(f"python {platform.python_version()} on {platform.machine()}, "
          f"{args.rounds} fresh processes per subcommand, "
          f"PYTHONDONTWRITEBYTECODE="
          f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}")
    print(f"{'subcommand':<18} {'median ms':>10} {'peak RSS MB':>12}")
    for name in commands:
        print(f"{name:<18} {1000 * statistics.median(walls[name]):>10.1f} "
              f"{statistics.median(rss[name]):>12.2f}")


if __name__ == "__main__":
    main()
