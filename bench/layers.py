"""Per-layer measurements for the traced run.

Each measurement wraps calls to one module's public functions in a span
named after that module; nothing is measured from inside the package. The
metrics map onto end-to-end metrics as listed in bench/README.md.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import statistics
import subprocess
import sys

import pool
import workloads

UNIFORM_BLOCK = (1 << 16) * 8  # mc_tail's chunk of 65536 samples at n = 8


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _timed(tracer, layer: str, name: str, fn, repeat: int = 1):
    out = None
    for _ in range(repeat):
        with tracer.span(layer, name):
            out = fn()
    return out


def import_profile(root: str) -> tuple[int, float]:
    """(modules imported, seconds in scipy modules' own bodies) by -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import tailbounds"],
        cwd=root, env=workloads.cli_env(root), capture_output=True, text=True,
        timeout=workloads.CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import profile failed: {proc.stderr.strip()[-200:]}")
    modules, scipy_us = 0, 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s?(.*)$", line)
        if not m:
            continue
        modules += 1
        if m.group(3).strip().startswith("scipy"):
            scipy_us += int(m.group(1))
    return modules, scipy_us * 1e-6


def measure(tb, inp, tracer, root: str, import_s: float, stats, seed: int, regime) -> dict:
    """Run every layer probe under ``tracer`` and return the per-layer metrics."""
    ref = inp.ref
    out: dict[str, tuple[float, str]] = {}
    from tailbounds import cli as cli_mod

    # import
    modules, scipy_s = _timed(tracer, "import", "importtime", lambda: import_profile(root))
    out["import.wall_s"] = (import_s, "s")
    out["import.modules"] = (modules, "count")
    out["import.scipy_s"] = (scipy_s, "s")

    # cli: the fresh-process calls' subcommands and ratios, run in-process
    g = ref["geom8"][seed % len(ref["geom8"])]
    spec = ["--dist", "geom", "--p", ",".join(repr(v) for v in pool.spec_params(g))]
    argvs = {
        "bound": ["bound", *spec, "--lambda", repr(regime.cli_bound_lam), "--method", "thm1"],
        "exact": ["exact", *spec, "--lambda", repr(regime.cli_exact_lam)],
        "mc": ["mc", *spec, "--lambda", repr(pool.MC_SMALL["upper"]), "--samples", "100000"],
        "sweep": ["sweep", *spec, "--lambda-from", repr(regime.sweep[0]),
                  "--lambda-to", repr(regime.sweep[1]), "--steps", "9"],
        "verify": ["verify", "--trials", "20", "--seed", str(seed)],
    }
    for sub, argv in argvs.items():
        def run(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_mod.main(argv)
            if code != 0:
                raise RuntimeError(f"cli.main({argv[0]}) exited {code}")
        _timed(tracer, "cli", f"main.{sub}", run, repeat=3)
        out[f"cli.{sub}.main_ms"] = (_median(tracer.durations("cli", f"main.{sub}")) * 1e3, "ms")
    fresh = stats.samples.get("cli.bound", [])
    out["cli.startup_s"] = (_median(fresh) - out["cli.bound.main_ms"][0] * 1e-3, "s")

    # model
    big = ref["geom1e4"][seed % len(ref["geom1e4"])]
    big_params = pool.spec_params(big)
    spec4 = _timed(tracer, "model", "spec_build.n1e4",
                   lambda: tb.make_geometric_spec(big_params), repeat=5)
    z = 1.0 + 0.5 * (1.0 / (1.0 - spec4.p_min) - 1.0)
    _timed(tracer, "model", "log_pgf.n1e4", lambda: tb.log_pgf_geometric(spec4, z), repeat=5)
    out["model.spec_build_ms.n1e4"] = (_median(tracer.durations("model", "spec_build.n1e4"))
                                       * 1e3, "ms")
    out["model.log_pgf_ms.n1e4"] = (_median(tracer.durations("model", "log_pgf.n1e4")) * 1e3,
                                    "ms")

    # geom_bounds
    small = [inp.spec(e) for e in ref["geom8"][:200]]
    for spec in small:
        _timed(tracer, "geom_bounds", "thm1", lambda: tb.upper_tail_thm1(spec, 3.0))
    out["geom_bounds.closed_us.p50"] = (_median(tracer.durations("geom_bounds", "thm1")) * 1e6,
                                        "us")
    sizes = {
        "n8": [(s, lam) for s in small[:20] for lam in regime.big_lams],
        "n1e3": [(inp.spec(ref["geom1e3"][seed % len(ref["geom1e3"])]), lam)
                 for lam in regime.big_lams],
        "n1e4": [(spec4, lam) for lam in regime.big_lams],
    }
    for size, cases in sizes.items():
        for spec, lam in cases:
            _timed(tracer, "geom_bounds", f"optimized_chernoff.{size}",
                   lambda: tb.optimized_chernoff(spec, lam))
            # best_upper before and after lemma1, for its share at n = 10^4
            best = lambda: tb.best_upper(spec, lam)  # noqa: E731
            if size == "n1e4":
                _timed(tracer, "geom_bounds", "best_upper.probe.n1e4", best)
            _timed(tracer, "geom_bounds", f"optimized_lemma1.{size}",
                   lambda: tb.optimized_lemma1(spec, lam * spec.mu))
            if size == "n1e4":
                _timed(tracer, "geom_bounds", "best_upper.probe.n1e4", best)
        for opt in ("optimized_chernoff", "optimized_lemma1"):
            out[f"geom_bounds.{opt}.ms.{size}"] = (
                _median(tracer.durations("geom_bounds", f"{opt}.{size}")) * 1e3, "ms")
    out["geom_bounds.lemma1_share"] = (
        sum(tracer.durations("geom_bounds", "optimized_lemma1.n1e4"))
        # two best_upper timings bracket each lemma1 timing
        / (sum(tracer.durations("geom_bounds", "best_upper.probe.n1e4")) / 2), "frac")
    for method in ("thm1", "thm2", "cor1", "cor2", "opt-chernoff", "opt-lemma1"):
        out[f"geom_bounds.winner.{method}"] = (stats.counts[f"winner.{method}"], "count")
    out["geom_bounds.min_margin_log"] = (stats.minima.get("min_margin_log", float("nan")),
                                         "log")

    # exp_bounds
    exp_small = [inp.spec(e) for e in ref["exp8"][:200]]
    for spec in exp_small:
        _timed(tracer, "exp_bounds", "texp-i", lambda: tb.exp_upper_i(spec, 3.0))
    out["exp_bounds.us.p50"] = (_median(tracer.durations("exp_bounds", "texp-i")) * 1e6, "us")

    # exact_oracle: the pmf kernel alone, and a deep call against one grid
    spec3 = sizes["n1e3"][0][0]
    K = math.ceil(3.0 * spec3.mu)
    _timed(tracer, "exact_oracle", "kernel.n1e3",
           lambda: tb.geom_pmf_convolution(spec3, K), repeat=3)
    kernel_s = _median(tracer.durations("exact_oracle", "kernel.n1e3"))
    _timed(tracer, "exact_oracle", "deep.n1e3", lambda: tb.geom_tail_exact(spec3, 3.0 * spec3.mu))
    out["exact_oracle.kernel.ms.n1e3"] = (kernel_s * 1e3, "ms")
    out["exact_oracle.kernel.points_per_s"] = (spec3.n * K / kernel_s, "1/s")
    out["exact_oracle.certify_ratio"] = (
        _median(tracer.durations("exact_oracle", "deep.n1e3")) / kernel_s, "ratio")
    for name in ("lower", "iid"):
        out[f"exact_oracle.{name}.ms.p50"] = (
            _median(tracer.durations("exact_oracle", f"exact_oracle.{name}")) * 1e3, "ms")
    for method in ("partial-fractions", "matrix-exp"):
        out[f"exact_oracle.hypoexp.{method}.calls"] = (stats.counts[f"hypoexp.{method}"],
                                                       "count")
        out[f"exact_oracle.hypoexp.{method}.ms.p50"] = (
            _median(stats.samples.get(f"exact_oracle.hypoexp.{method}", [])) * 1e3, "ms")
    results = stats.counts["oracle.results"]
    out["exact_oracle.rel_certified_frac"] = (
        stats.counts["oracle.rel_certified"] / results if results else float("nan"), "frac")

    # montecarlo
    _timed(tracer, "montecarlo", "uniform_block",
           lambda: tb.uniform_block(12345, 0, UNIFORM_BLOCK), repeat=3)
    uniform_ns = _median(tracer.durations("montecarlo", "uniform_block")) / UNIFORM_BLOCK * 1e9
    draw8 = _median(stats.samples.get("montecarlo.draw.mc_tail.n8", [])) * 1e9
    out["montecarlo.uniform_ns"] = (uniform_ns, "ns")
    out["montecarlo.draw_ns.n8"] = (draw8, "ns")
    out["montecarlo.draw_ns.n1e3"] = (
        _median(stats.samples.get("montecarlo.draw.mc_tail.n1e3", [])) * 1e9, "ns")
    out["montecarlo.sampling_share"] = (uniform_ns / draw8, "frac")
    return out
