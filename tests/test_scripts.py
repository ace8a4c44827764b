"""The scripts under scripts/ run to completion against this checkout's package."""

import os
import subprocess
import sys

import tailbounds
from tailbounds.methods import Side, rows

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tailbounds.__file__)))
SCRIPTS = os.path.join(os.path.dirname(SRC), "scripts")


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )


def test_compare_bounds_names_every_table_column():
    proc = run_script("compare_bounds.py", "--steps", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = lines[1].split()
    for row in rows("geom", Side.UPPER, Side.UPPER_FROM_BELOW):
        assert row.column in header
    assert len(lines) == 2 + 3
    assert all(len(line.split()) == len(header) for line in lines[2:])


def test_limit_convergence_runs():
    proc = run_script("limit_convergence.py", "--n-grid", "10,100")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4 + 2


def test_limit_convergence_prints_nan_where_the_tail_underflows():
    # at lambda = 800 the continuous tail and bound are 0: no relative error
    proc = run_script("limit_convergence.py", "--lambda", "800", "--n-grid", "10")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split()[2::2] == ["nan", "nan"]
