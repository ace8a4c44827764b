"""The operations of one benchmark pass, drawn from the pool by seed.

A pass runs four phases: ``cli`` (fresh processes), ``bounds``, ``oracles``
and ``montecarlo`` (in-process calls), so every run reports every end-to-end
metric. The two workloads differ in how deep into the tail they ask:
``typical`` takes threshold ratios up to 3, ``deep`` from 5 to 20. Each
operation times one public call, then checks its output.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import checks
import pool

PHASES = ("cli", "bounds", "oracles", "montecarlo")


@dataclass(frozen=True)
class Regime:
    """The threshold ratios a workload uses at each size."""

    bound_lams: tuple  # best_upper and closed forms at n = 8
    oracle_lams: tuple  # geom_tail_exact and hypoexp_survival at n = 8
    big_lams: tuple  # best_upper at n = 10^3 and 10^4
    iid_lams: tuple
    hypo_big_lam: float  # hypoexp_survival at n = 10^2 and 10^3
    cli_bound_lam: float
    cli_exact_lam: float
    sweep: tuple  # lambda-from, lambda-to


WORKLOADS = {
    "typical": Regime((1.0, 1.25, 1.5, 2.0, 3.0), (1.0, 1.5, 3.0), (1.5, 3.0), (1.5, 3.0),
                      1.5, 2.0, 3.0, (1.0, 3.0)),
    "deep": Regime((5.0, 10.0), (5.0, 10.0, 20.0), (5.0, 10.0), (5.0,),
                   3.0, 10.0, 20.0, (5.0, 20.0)),
}
P99_SAMPLES = 2100  # per pass, so a p99 has twenty samples beyond it
BLOCKS = 21  # runs of consecutive calls per key and pass (see interleave)
# specs per pass for best_upper at n = 10^3 and 10^4 (two ratios each); the
# pool repeats where it is smaller
LARGE_PER_PASS = {"geom1e3": 12, "geom1e4": 4}

# Monte Carlo intervals are checked at this confidence; with every input and
# generator seed fixed, an interval that misses is a real defect, not chance.
MC_CONFIDENCE = 1.0 - 1e-6
MC_SMALL_SAMPLES = 10**6
MC_LARGE_SAMPLES = 10**4
# z of the CLI sweep's fixed 99% interval, and of MC_CONFIDENCE
_Z99 = 2.5758293035489004
_ZMC = 4.891638475698716
# An oracle result is relatively certified when error_bound <= this * value.
REL_CERTIFIED = 1e-6
CLI_TIMEOUT_S = 120


@dataclass
class Stats:
    """Counts and minima gathered by the checks (reported in traced runs)."""

    counts: Counter = field(default_factory=Counter)
    minima: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)

    def low(self, key: str, value: float) -> None:
        if key not in self.minima or value < self.minima[key]:
            self.minima[key] = value

    def sample(self, key: str, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)

    def oracle_result(self, est) -> None:
        self.counts["oracle.results"] += 1
        if est.error_bound <= REL_CERTIFIED * est.value:
            self.counts["oracle.rel_certified"] += 1


@dataclass
class Op:
    """One timed public call: ``key`` names its latency samples and its span."""

    layer: str
    entry: str
    key: str
    call: Callable[[], Any]
    check: Callable[[Any, Stats, float], str | None]


def ref_tail(entry: dict, side: str, lam: float) -> tuple[float, float]:
    return pool.tail_value(entry[side][pool.lam_key(lam)])


def x_of(entry: dict, lam: float) -> float:
    return float(entry["x"][pool.lam_key(lam)])


class Inputs:
    """The reference pool with its specs built; construction is set-up work."""

    def __init__(self, tb, ref: dict):
        self.tb = tb
        self.ref = ref
        self._specs: dict[tuple, Any] = {}
        for group in ("geom8", "geom1e3", "geom1e4", "exp8", "exp100", "exp1e3"):
            for e in ref[group]:
                self.spec(e)

    def spec(self, entry: dict):
        key = (entry["kind"], entry["n"], entry["seed"])
        if key not in self._specs:
            params = pool.spec_params(entry)
            make = self.tb.make_geometric_spec if entry["kind"] == "geom" else (
                self.tb.make_exponential_spec
            )
            self._specs[key] = make(params)
        return self._specs[key]


def _first(*messages):
    return next((m for m in messages if m), None)


# ---------------------------------------------------------------- bounds


def _best_op(inp: Inputs, entry: dict, lam: float, key: str) -> Op:
    tb = inp.tb
    spec = inp.spec(entry)
    frozen = entry["bounds"][pool.lam_key(lam)]
    ref = ref_tail(entry, "upper", lam)[0] if "upper" in entry else None

    def check(r, stats, _s):
        stats.counts[f"winner.{r.method.value}"] += 1
        msgs = [checks.not_above_frozen("best_upper", r.log_value, frozen["best"][1])]
        msgs += [
            checks.dominates("best_upper", r.log_value, name, frozen[name])
            for name in ("thm1", "thm2", "cor1", "cor2", "opt-chernoff", "opt-lemma1")
        ]
        if ref is not None:
            stats.low("min_margin_log", r.log_value - ref)
            msgs.append(checks.upper_bound("best_upper", r.log_value, ref))
        else:
            msgs.append(checks.dominates("tl", frozen["tl"], "best_upper", r.log_value))
        return _first(*msgs)

    return Op("geom_bounds", "best_upper", key, lambda: tb.best_upper(spec, lam), check)


def _closed_op(inp: Inputs, entry: dict, lam: float) -> Op:
    tb = inp.tb
    spec = inp.spec(entry)
    frozen = entry["bounds"][pool.lam_key(lam)]
    ref = ref_tail(entry, "upper", lam)[0] if "upper" in entry else None

    def call():
        return {
            "thm1": tb.upper_tail_thm1(spec, lam).log_value,
            "thm2": tb.upper_tail_thm2(spec, lam).log_value,
            "cor1": tb.upper_tail_cor1(lam).log_value,
            "cor2": tb.upper_tail_cor2(lam).log_value,
            "tl": tb.upper_tail_lower_bound_tl(spec, lam).log_value,
        }

    def check(v, stats, _s):
        msgs = [checks.equals_frozen(k, v[k], frozen[k]) for k in v]
        msgs.append(checks.chain(v, checks.CLOSED_CHAIN))
        if ref is not None:
            msgs += [checks.upper_bound(k, v[k], ref) for k in ("thm1", "thm2", "cor1", "cor2")]
            msgs.append(checks.lower_bound("tl", v["tl"], ref))
        return _first(*msgs)

    return Op("geom_bounds", "closed_forms", "geom_bounds.closed", call, check)


def _opt_op(inp: Inputs, entry: dict, lam: float) -> Op:
    tb = inp.tb
    spec = inp.spec(entry)
    frozen = entry["bounds"][pool.lam_key(lam)]
    ref = ref_tail(entry, "upper", lam)[0]

    def call():
        return {
            "opt-chernoff": tb.optimized_chernoff(spec, lam).log_value,
            "opt-lemma1": tb.optimized_lemma1(spec, lam * spec.mu).log_value,
        }

    def check(v, stats, _s):
        msgs = [checks.not_above_frozen(k, v[k], frozen[k]) for k in v]
        msgs += [checks.upper_bound(k, v[k], ref) for k in v]
        msgs.append(checks.dominates("opt-chernoff", v["opt-chernoff"], "thm1", frozen["thm1"]))
        return _first(*msgs)

    return Op("geom_bounds", "optimized", "geom_bounds.optimized", call, check)


def _lower_tail_op(spec, entry: dict, lam: float, layer: str, entry_name: str, key: str,
                   frozen_key: str, bound) -> Op:
    """tl1 or texp-iii: a closed-form upper bound on the lower tail P(X <= lam mu)."""
    frozen = entry[frozen_key][pool.lam_key(lam)]
    ref = ref_tail(entry, "lower", lam)[0]

    def check(r, stats, _s):
        return _first(
            checks.equals_frozen(frozen_key, r.log_value, frozen),
            checks.upper_bound(frozen_key, r.log_value, ref),
        )

    return Op(layer, entry_name, key, lambda: bound(spec, lam), check)


def _texp_op(inp: Inputs, entry: dict, lam: float) -> Op:
    tb = inp.tb
    spec = inp.spec(entry)
    frozen = entry["bounds"][pool.lam_key(lam)]
    ref = ref_tail(entry, "upper", lam)[0]

    def call():
        return {
            "texp-i": tb.exp_upper_i(spec, lam).log_value,
            "texp-ii": tb.exp_upper_ii(lam).log_value,
            "texp-iv": tb.exp_tail_lower_iv(spec, lam).log_value,
        }

    def check(v, stats, _s):
        msgs = [checks.equals_frozen(k, v[k], frozen[k]) for k in v]
        msgs += [
            checks.upper_bound("texp-i", v["texp-i"], ref),
            checks.upper_bound("texp-ii", v["texp-ii"], ref),
            checks.lower_bound("texp-iv", v["texp-iv"], ref),
            checks.dominates("texp-i", v["texp-i"], "texp-ii", v["texp-ii"]),
        ]
        return _first(*msgs)

    return Op("exp_bounds", "texp", "exp_bounds.texp", call, check)


def _cycle(entries: list, count: int) -> list:
    """The first count entries of the pool, repeating it where it is smaller."""
    return [entries[k % len(entries)] for k in range(count)]


def _pairs(rng: random.Random, entries: list, lams: tuple, count: int) -> list:
    """count (entry, ratio) pairs, every ratio on each of the first entries,
    in seeded order. The set is the same for every seed, so a metric's
    median does not move with the draw."""
    pairs = [(entries[(k // len(lams)) % len(entries)], lams[k % len(lams)])
             for k in range(count)]
    rng.shuffle(pairs)
    return pairs


def bounds_ops(inp: Inputs, rng: random.Random, regime: Regime) -> list[Op]:
    ref = inp.ref
    lams = regime.bound_lams
    small = _pairs(rng, ref["geom8"], lams, P99_SAMPLES)
    ops = [_best_op(inp, e, lam, "best_upper.n8") for e, lam in small]
    ops += [_closed_op(inp, e, lam) for e, lam in small]
    ops += [_opt_op(inp, e, lam) for e, lam in small[:20 * len(lams)]]
    ops += [_lower_tail_op(inp.spec(e), e, lam, "geom_bounds", "lower_tail_tl1",
                           "geom_bounds.tl1", "tl1", inp.tb.lower_tail_tl1)
            for e, _ in small[:100] for lam in pool.LOWER_LAMS]
    for group, key in (("geom1e3", "best_upper.n1e3"), ("geom1e4", "best_upper.n1e4")):
        big = _pairs(rng, ref[group], regime.big_lams,
                     LARGE_PER_PASS[group] * len(regime.big_lams))
        ops += [_best_op(inp, e, lam, key) for e, lam in big]
        ops += [_closed_op(inp, e, lam) for e, lam in big]
    for e in rng.sample(ref["exp8"][:50], 50):
        ops += [_texp_op(inp, e, lam) for lam in lams]
        ops += [_lower_tail_op(inp.spec(e), e, lam, "exp_bounds", "exp_lower_tail_iii",
                               "exp_bounds.texp", "texp-iii", inp.tb.exp_lower_tail_iii)
                for lam in pool.LOWER_LAMS]
    return ops


# ---------------------------------------------------------------- oracles


def _oracle_op(layer_entry: str, key: str, call, ref: float) -> Op:
    def check(est, stats, seconds):
        stats.oracle_result(est)
        if layer_entry == "hypoexp_survival":
            method = est.method.value
            stats.counts[f"hypoexp.{method}"] += 1
            stats.sample(f"exact_oracle.hypoexp.{method}", seconds)
        return checks.oracle(layer_entry, est.value, est.error_bound, ref)

    return Op("exact_oracle", layer_entry, key, call, check)


def _geom_exact_op(inp: Inputs, entry: dict, lam: float) -> Op:
    spec, x = inp.spec(entry), x_of(entry, lam)
    return _oracle_op("geom_tail_exact", "geom_tail_exact.n8",
                      lambda: inp.tb.geom_tail_exact(spec, x), ref_tail(entry, "upper", lam)[1])


def _geom_big_op(inp: Inputs, entry: dict, lam: float, key: str) -> Op:
    tb = inp.tb
    spec, x = inp.spec(entry), x_of(entry, lam)

    def check(est, stats, _s):
        stats.oracle_result(est)
        lower = tb.upper_tail_lower_bound_tl(spec, lam).value
        upper = tb.upper_tail_thm2(spec, lam).value
        return checks.sandwich("geom_tail_exact", lower, est.value, est.error_bound, upper)

    return Op("exact_oracle", "geom_tail_exact", key, lambda: tb.geom_tail_exact(spec, x), check)


def _hypo_op(inp: Inputs, entry: dict, lam: float, key: str) -> Op:
    spec, x = inp.spec(entry), x_of(entry, lam)
    return _oracle_op("hypoexp_survival", key,
                      lambda: inp.tb.hypoexp_survival(spec, x), ref_tail(entry, "upper", lam)[1])


def oracles_ops(inp: Inputs, rng: random.Random, regime: Regime) -> list[Op]:
    ref, tb = inp.ref, inp.tb
    lams = regime.oracle_lams
    ops = [_geom_exact_op(inp, e, lam)
           for e, lam in _pairs(rng, ref["geom8"], lams, P99_SAMPLES)]
    # Deep calls at lambda = 2 cost well under those at 3; uneven counts keep
    # the median inside one group instead of on the gap between them.
    big = ref["geom1e3"]
    shallow = _pairs(rng, big, pool.SHALLOW_LAMS, 2 * len(big) * len(pool.SHALLOW_LAMS))
    ops += [_geom_big_op(inp, e, lam, "geom_tail_exact.n1e3-shallow") for e, lam in shallow]
    deep = [(e, pool.DEEP_LAMS[0]) for e in big[:2]] + [(e, pool.DEEP_LAMS[1]) for e in big]
    ops += [_geom_big_op(inp, e, lam, "geom_tail_exact.n1e3-deep")
            for e, lam in rng.sample(deep, len(deep))]
    # distinct rates (partial fractions) are most of the calls, so the median
    # falls inside that group rather than on its edge with the matrix route
    for kind, count in (("exp", 160), ("erlang", 20), ("clustered", 20)):
        entries = [e for e in ref["exp8"] if e["kind"] == kind]
        ops += [_hypo_op(inp, e, lam, "hypoexp_survival.n8")
                for e, lam in _pairs(rng, entries, lams, count * len(lams))]
    for e in rng.sample(ref["geom8"][:100], 100):
        spec = inp.spec(e)
        for lam in pool.LOWER_LAMS:
            x = x_of(e, lam)
            ops.append(_oracle_op("geom_lower_tail_exact", "exact_oracle.lower",
                                  lambda spec=spec, x=x: tb.geom_lower_tail_exact(spec, x),
                                  ref_tail(e, "lower", lam)[1]))
    for e in ref["iid"]:
        for lam in regime.iid_lams:
            p, n, x = e["p"], e["n"], x_of(e, lam)
            ops.append(_oracle_op("iid_geom_tail", "exact_oracle.iid",
                                  lambda p=p, n=n, x=x: tb.iid_geom_tail(p, n, x),
                                  ref_tail(e, "upper", lam)[1]))
    lam = regime.hypo_big_lam
    ops += [_hypo_op(inp, e, lam, "exact_oracle.hypoexp.n100") for e in ref["exp100"]]
    # distinct rates at n = 10^3, where partial-fraction weights can overflow
    ops += [_hypo_op(inp, e, lam, "exact_oracle.hypoexp.n1e3") for e in ref["exp1e3"]]
    return ops


# ---------------------------------------------------------------- montecarlo


def _mc_op(inp: Inputs, entry: dict, side: str, samples: int, key: str) -> Op:
    tb = inp.tb
    spec = inp.spec(entry)
    if samples == MC_SMALL_SAMPLES:
        lam = pool.MC_SMALL[side]
        ref = ref_tail(entry, side, lam)[1]
    else:
        lam = pool.MC_LARGE[side]
        ref = pool.tail_value(entry["mc"][side])[1]
    x = x_of(entry, lam)
    cfg = tb.McConfig(samples=samples, seed=7919 * entry["seed"] + 1,
                      confidence=MC_CONFIDENCE)

    def check(est, stats, seconds):
        stats.sample(f"montecarlo.draw.{key}", seconds / (samples * spec.n))
        return checks.interval("mc_tail", est.value, est.error_bound, ref)

    return Op("montecarlo", "mc_tail", key, lambda: tb.mc_tail(spec, x, cfg, side=side), check)


def montecarlo_ops(inp: Inputs, rng: random.Random, regime: Regime) -> list[Op]:
    """Both sides of one geometric and one exponential sum, and the upper side
    of more geometric sums (fourteen at n = 8, three at n = 10^3), so the median
    is a geometric call rather than the gap between the two costs."""
    ref = inp.ref
    exp8 = [e for e in ref["exp8"] if e["kind"] == "exp"]
    geom_big = [e for e in ref["geom1e3"] if "mc" in e]
    ops = []
    for samples, key, geoms, exps, count in (
        (MC_SMALL_SAMPLES, "mc_tail.n8", ref["geom8"], exp8, 15),
        (MC_LARGE_SAMPLES, "mc_tail.n1e3", geom_big, ref["exp1e3"], 4),
    ):
        g1, *more = _cycle(geoms, count)
        e1 = exps[0]
        cases = [(g1, "upper"), (g1, "lower"), (e1, "upper"), (e1, "lower")]
        cases += [(g, "upper") for g in more]
        ops += [_mc_op(inp, e, side, samples, key)
                for e, side in rng.sample(cases, len(cases))]
    return ops


# ---------------------------------------------------------------- cli


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "tailbounds.cli", *args]


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _params(entry: dict) -> list[str]:
    flag = "--p" if entry["kind"] == "geom" else "--a"
    return ["--dist", "geom" if entry["kind"] == "geom" else "exp",
            flag, ",".join(repr(v) for v in pool.spec_params(entry))]


def _cli_op(root: str, sub: str, args: list[str], check_output) -> Op:
    argv = cli_argv(sub, *args)
    env = cli_env(root)

    def call():
        return subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)

    def check(proc, stats, seconds):
        stats.sample(f"cli.{sub}", seconds)
        if proc.returncode != 0:
            return f"cli {sub}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        return check_output(proc.stdout)

    return Op("cli", f"cli {sub}", "cli.call", call, check)


def _cli_bound(root: str, entry: dict, method: str, lam: float) -> Op:
    frozen = entry["bounds"][pool.lam_key(lam)]
    ref = ref_tail(entry, "upper", lam)[0]

    def check(out):
        text = checks.parse_fields(out)["log_value"]
        if method == "best":
            got = float(text)
            slack = checks.PRINT_TOL * max(1.0, abs(got))
            return _first(checks.not_above_frozen("cli best", got - slack, frozen["best"][1]),
                          checks.upper_bound("cli best", got + slack, ref))
        return checks.printed(f"cli bound {method}", text, frozen[method])

    return _cli_op(root, "bound", _params(entry) + ["--lambda", repr(lam), "--method", method],
                   check)


def _cli_exact(root: str, entry: dict, lam: float) -> Op:
    ref = ref_tail(entry, "upper", lam)[1]

    def check(out):
        f = checks.parse_fields(out)
        value, err = float(f["value"]), float(f["error_bound"])
        return checks.oracle("cli exact", value, err + checks.PRINT_TOL * value, ref)

    return _cli_op(root, "exact", _params(entry) + ["--lambda", repr(lam)], check)


def _cli_mc(root: str, entry: dict) -> Op:
    lam = pool.MC_SMALL["upper"]
    ref = ref_tail(entry, "upper", lam)[1]

    def check(out):
        f = checks.parse_fields(out)
        value, half = float(f["value"]), float(f["error_bound"])
        return checks.interval("cli mc", value, half + checks.PRINT_TOL * value, ref)

    return _cli_op(root, "mc", _params(entry) + [
        "--lambda", repr(lam), "--samples", "100000", "--seed", str(entry["seed"]),
        "--confidence", repr(MC_CONFIDENCE)], check)


_SWEEP_COLUMNS = {"thm1": "thm1", "thm2": "thm2", "cor1": "cor1", "cor2": "cor2",
                  "opt-chernoff": "opt_chernoff"}


def _cli_sweep(root: str, entry: dict, lam_from: float, lam_to: float) -> Op:
    refs = {float(k): pool.tail_value(v)[1] for k, v in entry["upper"].items()}

    def check_row(row: dict) -> str | None:
        logs = {k: math.log(row[c]) if row[c] > 0 else -math.inf
                for k, c in _SWEEP_COLUMNS.items()}
        # The CSV carries no error bound. Allow the oracle's default rel_tol,
        # plus the 1 - CDF route's absolute round-off EPS * (2 k0 + n), which
        # stays under 1e-11 for thresholds k0 up to 2e4.
        err = 1e-11 + checks.VALUE_TOL * row["exact"]
        slack = checks.PRINT_TOL * max(1.0, *(abs(v) for v in logs.values() if v > -math.inf))
        msg = _first(*(checks.dominates(lo, logs[lo] - slack, hi, logs[hi])
                       for lo, hi in checks.GEOM_CHAIN)) or checks.sandwich(
            "cli sweep exact", row["tl_lower"], row["exact"], err,
            row["thm2"] * (1 + checks.PRINT_TOL))
        ref = refs.get(row["lambda"])
        if msg or ref is None:
            return msg
        # the sweep's interval is 99%; widen it to the benchmark's confidence
        return checks.oracle("cli sweep exact", row["exact"], err, ref) or checks.interval(
            "cli sweep mc", row["mc"], row["mc_halfwidth"] * _ZMC / _Z99, ref)

    def check(out):
        lines = out.strip().splitlines()
        if len(lines) != 10:
            return f"cli sweep: {len(lines) - 1} rows, expected 9"
        head = lines[0].split(",")
        rows = [dict(zip(head, map(float, line.split(",")))) for line in lines[1:]]
        return _first(*map(check_row, rows))

    return _cli_op(root, "sweep", _params(entry) + [
        "--lambda-from", repr(lam_from), "--lambda-to", repr(lam_to), "--steps", "9",
        "--seed", str(entry["seed"])], check)


def _cli_verify(root, seed: int) -> Op:
    def check(out):
        last = out.strip().splitlines()[-1] if out.strip() else ""
        return None if last == "verify: all properties hold" else f"cli verify: {last!r}"

    return _cli_op(root, "verify", ["--trials", "20", "--seed", str(seed)], check)


def cli_ops(inp: Inputs, rng: random.Random, regime: Regime, root: str) -> list[Op]:
    """The fixed mix of eight subcommands on small specs."""
    ref = inp.ref
    g1, g2, g3, g4 = rng.sample(ref["geom8"], 4)
    e1, e2 = rng.sample([e for e in ref["exp8"] if e["kind"] == "exp"], 2)
    return [
        _cli_bound(root, g1, "thm1", regime.cli_bound_lam),
        _cli_bound(root, e1, "texp-i", regime.cli_bound_lam),
        _cli_bound(root, g4, "best", regime.cli_bound_lam),
        _cli_exact(root, g2, regime.cli_exact_lam),
        _cli_exact(root, e2, regime.cli_exact_lam),
        _cli_mc(root, g3),
        _cli_sweep(root, g1, *regime.sweep),
        _cli_verify(root, rng.randrange(2**31)),
    ]


def interleave(ops: list[Op]) -> list[Op]:
    """Spread each key's operations over the pass in at most BLOCKS runs.

    A key with m operations is cut into min(m, BLOCKS) blocks of
    consecutive calls, and block b sits at position (b + 0.5) / blocks, so
    every metric samples the whole pass while the small calls run in loops
    of their own kind, as a script calling one entry point would run them.
    """
    by_key: dict[str, list[Op]] = {}
    for op in ops:
        by_key.setdefault(op.key, []).append(op)
    placed = []
    for k, group in enumerate(by_key.values()):
        blocks = min(len(group), BLOCKS)
        placed += [((i * blocks // len(group) + 0.5) / blocks, k, i, op)
                   for i, op in enumerate(group)]
    return [op for *_, op in sorted(placed, key=lambda t: t[:3])]


def build(workload: str, inp: Inputs, seed: int, root: str) -> list[Op]:
    """One pass: every phase's operations for this workload and seed, interleaved."""
    regime = WORKLOADS[workload]
    ops = []
    for phase in PHASES:
        rng = random.Random(f"{workload}/{seed}/{phase}")
        if phase == "cli":
            ops += cli_ops(inp, rng, regime, root)
        else:
            ops += {"bounds": bounds_ops, "oracles": oracles_ops,
                    "montecarlo": montecarlo_ops}[phase](inp, rng, regime)
    return interleave(ops)
