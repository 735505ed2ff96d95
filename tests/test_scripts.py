"""Smoke tests of the experiment scripts: each runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crfbench

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    # the child imports the same crfbench as this process
    src = str(Path(crfbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("name", ["cf_convergence.py", "syzygy_report.py"])
def test_script_runs(name):
    proc = run_script(name)
    assert proc.returncode == 0, proc.stderr


def test_admissibility_demo_shows_the_counterexample():
    proc = run_script("admissibility_demo.py")
    assert proc.returncode == 0, proc.stderr
    counter = proc.stdout.split("--- ")[1]
    assert counter.startswith("f = -x1 y0 j + x0 y0 k")
    assert "tangentially CRF : True" in counter
    assert "admissible       : False" in counter
    assert "failing first-order digits: ['y3']" in counter


def test_cli_startup_times_every_subcommand():
    proc = run_script("cli_startup.py", "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:]
            for line in proc.stdout.splitlines()[2:]}
    assert set(rows) == {"verify-identities", "check", "solve", "extend",
                         "jump", "syzygy", "cf-integral"}
    for wall_ms, rss_mb in rows.values():
        assert float(wall_ms) > 0 and float(rss_mb) > 0
