"""Self-test of the benchmark: can every check fail, and is every metric emitted?

    python3 bench/selftest.py            # checks, then every workload (~6 min)
    python3 bench/selftest.py --checks   # only the corrupted-value checks (~10 s)

Part one feeds each kind of check a value just inside its tolerance and one
outside, then runs one real operation of each kind, keeps one whose output
passes its check, and asserts that a corrupted copy of that output is
flagged. Part two runs each workload with a one-second window (one pass,
the smallest run), untraced and traced, and asserts that the last line
carries every metric named in BENCHMARK.json with its unit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys

import checks
import run
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _op(ops: list, entry: str, key: str | None = None):
    """The first such operation whose genuine output passes its check."""
    for op in ops:
        if op.entry == entry and (key is None or op.key == key):
            if op.check(op.call(), workloads.Stats(), 1e-3) is None:
                return op
    raise AssertionError(f"no {entry} operation passes its check")


def _bound(result, log_value: float):
    return dataclasses.replace(result, log_bound=dataclasses.replace(
        result.log_bound, log_value=log_value))


def _looser(log_value: float) -> float:
    return log_value + 1e-9 * (1.0 + abs(log_value))


def _flags(name: str, message: str | None, expect: str) -> None:
    assert message and expect in message, f"{name}: expected a flag with {expect!r}, got {message!r}"
    print(f"ok  {name:28s} flags: {message[:90]}")


def check_primitives() -> None:
    """Each kind of check passes a value just inside its tolerance and flags one outside."""
    ref = -40.0
    cases = [
        ("upper bound", checks.upper_bound, ("b", ref - 1e-12, ref), ("b", ref - 1e-9, ref),
         "below reference"),
        ("lower bound", checks.lower_bound, ("b", ref + 1e-12, ref), ("b", ref + 1e-9, ref),
         "above reference"),
        ("dominance", checks.dominates, ("a", -2.0, "b", -2.0), ("a", -1.9, "b", -2.0),
         "dominance"),
        ("closed form vs frozen", checks.equals_frozen, ("t", ref * (1 + 1e-13), ref),
         ("t", ref * (1 + 1e-11), ref), "differs from frozen"),
        ("optimized vs frozen", checks.not_above_frozen, ("o", ref - 1.0, ref),
         ("o", _looser(ref), ref), "looser than frozen"),
        ("oracle certificate", checks.oracle, ("e", 0.5 + 1e-15, 2e-15, 0.5),
         ("e", 0.5 + 1e-12, 2e-15, 0.5), checks.CERTIFICATE),
        ("oracle value", checks.oracle, ("e", 0.5, 2e-15, 0.5), ("e", 0.501, 2e-15, 0.5),
         "exceeds error bound"),
        ("sandwich", checks.sandwich, ("s", 1e-9, 1e-8, 0.0, 1e-7), ("s", 1e-9, 2e-7, 0.0, 1e-7),
         "outside"),
        ("mc interval", checks.interval, ("m", 0.30, 0.01, 0.305), ("m", 0.30, 0.01, 0.32),
         "misses reference"),
        ("cli printed value", checks.printed, ("c", "-1.23456789012", -1.234567890123),
         ("c", "-1.23456789", -1.234567890123), "printed"),
    ]
    for name, check, good, bad, expect in cases:
        assert check(*good) is None, f"{name}: value inside the tolerance flagged"
        message = check(*bad)
        _flags(name, message, expect)
        if name == "oracle value":
            assert not message.startswith(checks.CERTIFICATE), "a wrong value passed as accurate"


def _expect(name: str, op, corrupt, expect: str = "") -> None:
    _flags(name, op.check(corrupt(op.call()), workloads.Stats(), 1e-3), expect)


def check_operations() -> None:
    """One real operation of each kind passes its check and flags a corrupted output."""
    tb = run.import_package()
    _inp, ops, _ = run.set_up(tb, "typical", seed=1)

    _expect("best_upper vs reference", _op(ops, "best_upper", "best_upper.n8"),
            lambda r: _bound(r, r.log_value - 1.0), "below reference")
    _expect("best_upper vs frozen", _op(ops, "best_upper", "best_upper.n1e3"),
            lambda r: _bound(r, min(0.0, _looser(r.log_value))), "looser than frozen")
    _expect("closed forms", _op(ops, "closed_forms"),
            lambda v: {**v, "thm2": v["thm2"] - 1e-9 * (1.0 + abs(v["thm2"]))}, "thm2")
    _expect("optimized bounds", _op(ops, "optimized"),
            lambda v: {**v, "opt-lemma1": _looser(v["opt-lemma1"])}, "looser than frozen")
    _expect("tl1", _op(ops, "lower_tail_tl1"), lambda r: _bound(r, -800.0), "tl1")
    _expect("texp", _op(ops, "texp"), lambda v: {**v, "texp-iv": 0.0}, "texp-iv")
    _expect("geom_tail_exact", _op(ops, "geom_tail_exact", "geom_tail_exact.n8"),
            lambda e: dataclasses.replace(e, value=e.value * 0.999), "exceeds error bound")
    _expect("hypoexp_survival", _op(ops, "hypoexp_survival", "hypoexp_survival.n8"),
            lambda e: dataclasses.replace(e, value=e.value * 0.999), "exceeds error bound")
    _expect("sandwich at n = 10^3", _op(ops, "geom_tail_exact", "geom_tail_exact.n1e3-deep"),
            lambda e: dataclasses.replace(e, value=1.0, error_bound=0.0), "outside")
    _expect("mc_tail", _op(ops, "mc_tail"),
            lambda e: dataclasses.replace(e, value=min(1.0, e.value + 10 * e.error_bound)),
            "misses reference")

    def stdout(text):
        return lambda p: subprocess.CompletedProcess(p.args, p.returncode, text(p.stdout),
                                                     p.stderr)

    def bump(field):
        def edit(out):
            lines = []
            for line in out.splitlines():
                if line.startswith(field + ": "):
                    line = f"{field}: {float(line.split(': ')[1]) * 1.01!r}"
                lines.append(line)
            return "\n".join(lines)
        return edit

    _expect("cli bound", _op(ops, "cli bound"), stdout(bump("log_value")), "cli")
    _expect("cli exit code", _op(ops, "cli exact"),
            lambda p: subprocess.CompletedProcess(p.args, 3, p.stdout, p.stderr), "exit 3")
    def shift_mc(out):
        f = checks.parse_fields(out)
        moved = float(f["value"]) + 10 * float(f["error_bound"])
        return out.replace(f"value: {f['value']}", f"value: {moved!r}")

    _expect("cli mc", _op(ops, "cli mc"), stdout(shift_mc), "misses reference")
    _expect("cli sweep", _op(ops, "cli sweep"),
            stdout(lambda out: "\n".join(out.splitlines()[:-1])), "rows")
    _expect("cli verify", _op(ops, "cli verify"),
            stdout(lambda out: out.replace("all properties hold", "1 violation(s)")), "verify")


def check_the_metrics() -> None:
    with open(BENCHMARK, encoding="utf-8") as handle:
        bench = json.load(handle)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        for trace in (0, 1):
            argv = [*bench["command"], "--workload", w["name"], "--seed", "1",
                    "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                                  timeout=600)
            assert proc.returncode == 0, f"{argv}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, proc.stdout[-2000:]
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted[trace], (w["name"], trace, set(got) ^ set(wanted[trace]))
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (w["name"], k, v)
            print(f"ok  {w['name']:10s} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checks", action="store_true", help="only the check self-test")
    args = parser.parse_args()
    check_primitives()
    check_operations()
    if not args.checks:
        check_the_metrics()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
