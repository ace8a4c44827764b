"""The scripts under scripts/ run to completion against this checkout's package, and
read parameter lists as the tailbounds command does."""

import math
import os
import runpy
import subprocess
import sys

import pytest

import tailbounds
from tailbounds import cli, parse_params
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


def test_limit_convergence_reads_its_grid_as_a_parameter_list():
    # 1e3 is N = 1000, and an empty entry is skipped, as in every parameter list
    assert (run_script("limit_convergence.py", "--n-grid", "1e3,,10").stdout
            == run_script("limit_convergence.py", "--n-grid", "1000 10").stdout != "")


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_compare_bounds_refuses_fewer_than_one_step(steps):
    # exit 2 and one line, as tailbounds sweep --steps
    proc = run_script("compare_bounds.py", "--steps", steps)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(f"--steps: must be >= 1, got {steps}")


def test_compare_bounds_reads_a_space_separated_list():
    proc = run_script("compare_bounds.py", "--p", "0.5 0.2", "--steps", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("params=[0.5, 0.2]  ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name, argv, code", [
    ("compare_bounds.py", ("--p", "0.5,abc"), 2),
    ("compare_bounds.py", ("--p", "0.5,0"), 3),
    ("limit_convergence.py", ("--a", "1,0"), 3),
    ("limit_convergence.py", ("--n-grid", "abc"), 2),
    ("limit_convergence.py", ("--n-grid", "10,1e3x"), 2),
    ("limit_convergence.py", ("--n-grid", "0"), 3),
    ("limit_convergence.py", ("--n-grid", "-5"), 3),
    ("limit_convergence.py", ("--n-grid", "1.5"), 3),
    ("limit_convergence.py", ("--n-grid", "10,nan"), 3),
    ("limit_convergence.py", ("--n-grid", "inf"), 3),
    ("limit_convergence.py", ("--n-grid", ""), 3),
])
def test_scripts_refuse_a_bad_list_in_one_line(name, argv, code):
    # exit 2 for a list that does not parse, 3 for a value outside its range, as tailbounds
    proc = run_script(name, *argv)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr.splitlines()[-1]


# (text, its numbers, or None where a token is not a number). Each route must
# read the text as it reads the plain comma list of those numbers, or refuse it
# with exit 2.
GRAMMAR = [
    ("0.5,0.25", [0.5, 0.25]),
    ("0.5 0.25", [0.5, 0.25]),
    ("0.5\t 0.25", [0.5, 0.25]),
    ("0.5\n0.25\n", [0.5, 0.25]),
    ("0.5,0.25,", [0.5, 0.25]),
    ("0.5,,0.25", [0.5, 0.25]),
    (" 0.5 , 0.25", [0.5, 0.25]),
    ("# two summands\n0.5, 0.25\n  # done", [0.5, 0.25]),
    ("0.5\n\n  \n0.25", [0.5, 0.25]),
    ("# 0.5", []),
    ("0.5,nan", [0.5, math.nan]),
    ("inf", [math.inf]),
    ("1_0", [10.0]),
    ("0.5,abc", None),
    ("0.5 # comment", None),
    ("0.5;0.25", None),
]

ROUTES = ["tailbounds --p", "tailbounds --params-file", "compare_bounds.py --p",
          "limit_convergence.py --a"]


def read_through(route, text, tmp_path, monkeypatch, capsys):
    """(exit code, stdout, stderr) of one route given a parameter list, run in-process."""
    path = tmp_path / "params.txt"
    path.write_text(text)
    query = ["--lambda", "2", "--method", "best"]
    argv = {
        "tailbounds --p": ["bound", "--dist", "geom", "--p", text, *query],
        "tailbounds --params-file": ["bound", "--dist", "geom", "--params-file", str(path), *query],
        "compare_bounds.py --p": ["compare_bounds.py", "--p", text, "--steps", "2"],
        "limit_convergence.py --a": ["limit_convergence.py", "--a", text, "--n-grid", "10"],
    }[route]
    try:
        if route.startswith("tailbounds"):
            code = cli.main(argv)
        else:
            monkeypatch.setattr(sys, "argv", [os.path.join(SCRIPTS, argv[0]), *argv[1:]])
            runpy.run_path(sys.argv[0], run_name="__main__")
            code = 0
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("text, numbers", GRAMMAR, ids=[repr(text) for text, _ in GRAMMAR])
def test_one_grammar_for_every_parameter_list(route, text, numbers, tmp_path, monkeypatch,
                                               capsys):
    code, out, err = read_through(route, text, tmp_path, monkeypatch, capsys)
    assert "Traceback" not in err
    if numbers is None:
        assert (code, out) == (2, "")
        with pytest.raises(ValueError) as refusal:
            parse_params(text)
        # each route names the token, as parse_params does
        assert err.splitlines()[-1].endswith(str(refusal.value))
    else:
        plain = ",".join(map(repr, numbers))
        assert (code, out, err) == read_through(route, plain, tmp_path, monkeypatch, capsys)
