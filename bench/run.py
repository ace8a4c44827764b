"""The tailbounds benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload bounds --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/``. It
prints one line per metric and a provenance line, then, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import checks  # noqa: E402
import pool  # noqa: E402
import workloads  # noqa: E402
from calib import Clock  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 3
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import tailbounds; "
                 "print(time.perf_counter() - t)")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metric, the median of single calls -> (sample key, scale, unit,
# exponents): the exponents (a, b) of the two kernels' slowdowns in the host's
# slowdown of these calls (calib.py), fitted to how each metric moved with
# the kernels over 30 runs across quiet and loaded spells of a shared 2-vCPU
# host.
LATENCIES = {
    "cli.call_s.p50": ("cli.call", 1.0, "s", (0.4, 0.45)),
    "best_upper.n8.ms.p50": ("best_upper.n8", 1e3, "ms", (1.0, 0.0)),
    "best_upper.n1e3.ms.p50": ("best_upper.n1e3", 1e3, "ms", (0.9, 0.0)),
    "best_upper.n1e4.ms.p50": ("best_upper.n1e4", 1e3, "ms", (0.75, 0.0)),
    "geom_tail_exact.n8.ms.p50": ("geom_tail_exact.n8", 1e3, "ms", (0.7, 0.0)),
    "geom_tail_exact.n1e3-shallow.ms.p50": ("geom_tail_exact.n1e3-shallow", 1e3, "ms",
                                            (0.1, 0.55)),
    "geom_tail_exact.n1e3-deep.ms.p50": ("geom_tail_exact.n1e3-deep", 1e3, "ms", (0.0, 0.65)),
    "hypoexp_survival.n8.ms.p50": ("hypoexp_survival.n8", 1e3, "ms", (0.75, 0.0)),
    "mc_tail.n8.ms.p50": ("mc_tail.n8", 1e3, "ms", (0.2, 0.3)),
    "mc_tail.n1e3.ms.p50": ("mc_tail.n1e3", 1e3, "ms", (0.0, 0.6)),
}
# per-layer metric -> sample key: the 99th percentile of single calls, from
# the traced run's untraced pass. A p99 of a call well under a millisecond
# rests on the host's interruptions and on the first, cold call of each of
# the key's blocks, so it spreads too much between runs to carry a bound.
P99_LATENCIES = {
    "best_upper.n8.ms.p99": "best_upper.n8",
    "geom_tail_exact.n8.ms.p99": "geom_tail_exact.n8",
}
# set-up is mostly imports, which slow like the CLI calls
SETUP_EXPONENTS = (0.4, 0.45)


class Runner:
    """Runs operations, timing each call and checking each output."""

    def __init__(self, tracer: Tracer | None = None, clock: Clock | None = None) -> None:
        self.tracer = tracer
        self.clock = clock
        self.stats = workloads.Stats()
        self.samples: dict[str, list[float]] = {}
        self.spans: dict[str, list[tuple[float, float]]] = {}
        self.attempted = 0
        self.failures: Counter = Counter()
        self.wrong: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def run(self, op) -> None:
        self.attempted += 1
        if self.clock:
            self.clock.maybe_tick()
        start = time.perf_counter()
        try:
            if self.tracer:
                self.tracer.new_request()
                with self.tracer.span(op.layer, op.key):
                    result = op.call()
            else:
                result = op.call()
        except Exception as exc:  # counted per entry point and class, never fatal
            self.failures[f"{op.entry}: {type(exc).__name__}: {str(exc)[:60]}"] += 1
            return
        end = time.perf_counter()
        seconds = end - start
        self.samples.setdefault(op.key, []).append(seconds)
        self.spans.setdefault(op.key, []).append((start, end))
        message = op.check(result, self.stats, seconds)
        if message and message.startswith(checks.CERTIFICATE):
            self.failures[f"{op.entry}: {checks.CERTIFICATE}"] += 1
        elif message:
            self.failures[f"{op.entry}: wrong output"] += 1
            self.wrong.append(message)

    def run_all(self, ops) -> None:
        for op in ops:
            self.run(op)
        if self.clock:
            self.clock.tick()

    def calibrated(self, key: str, exponents: tuple[float, float]) -> list[float]:
        """The key's call times divided by the host's slowdown around each."""
        return [(end - start) / self.clock.slowdown(start, end, *exponents)
                for start, end in self.spans.get(key, [])]

    def merge(self, other: "Runner") -> None:
        self.attempted += other.attempted
        self.failures.update(other.failures)
        self.wrong += other.wrong


def import_package():
    """Import tailbounds from this checkout's src/, or exit 1 without a result."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import tailbounds
    except ImportError as exc:
        sys.exit(f"bench: cannot import tailbounds from {src}: {exc}")
    if not os.path.abspath(tailbounds.__file__).startswith(src + os.sep):
        sys.exit(f"bench: tailbounds imported from {tailbounds.__file__}, not {src}")
    return tailbounds


def child_import_s(clock: Clock) -> float:
    """Seconds `import tailbounds` takes in a fresh interpreter, calibrated."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                          env=workloads.cli_env(ROOT), capture_output=True, text=True,
                          timeout=workloads.CLI_TIMEOUT_S, check=True)
    end = time.perf_counter()
    clock.tick()
    return float(proc.stdout) / clock.slowdown(start, end, *SETUP_EXPONENTS)


def warm_up(tb, inp) -> None:
    """One call per entry point on the smallest inputs, so lazy set-up is done."""
    g = inp.spec(inp.ref["geom8"][0])
    e = inp.spec(inp.ref["exp8"][0])
    tb.best_upper(g, 2.0)
    tb.geom_tail_exact(g, 2.0 * g.mu)
    tb.geom_lower_tail_exact(g, 0.8 * g.mu)
    tb.iid_geom_tail(0.5, 4, 12.0)
    tb.hypoexp_survival(e, 2.0 * e.mu)
    tb.hypoexp_survival(tb.make_exponential_spec([1.0] * 4), 8.0)
    tb.mc_tail(g, 2.0 * g.mu, tb.McConfig(samples=1000, seed=1))
    tb.exp_upper_i(e, 2.0)


def set_up(tb, workload: str, seed: int, clock: Clock | None = None):
    """Build the inputs and the pass's operations, and warm up; repeated."""
    ref = pool.load_reference()
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inp = workloads.Inputs(tb, ref)
        ops = workloads.build(workload, inp, seed, ROOT)
        warm_up(tb, inp)
        end = time.perf_counter()
        if clock is None:
            times.append(end - start)
        else:
            clock.tick()
            times.append((end - start) / clock.slowdown(start, end, *SETUP_EXPONENTS))
    return inp, ops, statistics.median(times)


def p99(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[98]


def peak_rss_mb() -> float:
    """The larger of this process's peak and its largest child's (a CLI call)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def end_to_end(runner: Runner, setup_s: float) -> tuple[dict, dict]:
    metrics = {"setup_s": (setup_s, "s")}
    ok = runner.attempted - runner.failed
    metrics["ok_frac"] = (ok / runner.attempted, "frac")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    counts = {}
    for name, (key, scale, unit, exponents) in LATENCIES.items():
        xs = runner.calibrated(key, exponents)
        counts[name] = len(xs)
        metrics[name] = (statistics.median(xs) * scale if len(xs) >= 2 else float("nan"), unit)
    return metrics, counts


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cli_cpu_over_wall(cpu_s: float, *runners: Runner) -> float | None:
    """CPU time of the CLI processes over their wall time (above 1: threads)."""
    wall = sum(sum(r.samples.get("cli.call", [])) for r in runners)
    return cpu_s / wall if wall else None


def provenance(args, tb, passes: int, counts: dict, runner: Runner,
               overhead: float | None, cli_cpu: float | None) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tailbounds": tb.__version__,
        "nproc": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "cli_child_cpu_over_wall": cli_cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "samples": counts,
        "failures": dict(runner.failures),
        "wrong_outputs": runner.wrong[:20],
        "trace_overhead_frac": overhead,
    }


def report(metrics: dict, counts: dict, prov: dict, runner: Runner) -> None:
    for name, (value, unit) in metrics.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name:44s} {value:.6g} {unit}{n}")
    print(f"attempted {runner.attempted}  failed {runner.failed}  "
          f"wrong outputs {len(runner.wrong)}")
    for what, count in sorted(runner.failures.items()):
        print(f"failure x{count}: {what}")
    print(json.dumps({"provenance": prov}, sort_keys=True))
    # A metric that could not be measured (its operations all failed) is
    # reported as null and makes the run incorrect.
    missing = [k for k, (v, _u) in metrics.items() if not math.isfinite(v)]
    if missing:
        print(f"not measured: {', '.join(missing)}")
    result = {
        "correct": not runner.wrong and not missing,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(pool.REFERENCE_PATH):
        sys.exit(f"bench: missing reference data {pool.REFERENCE_PATH}")

    # One CPU for this process and its children, so the calibration ticks
    # and the calls they bracket run on the same one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Set-up: three imports in fresh interpreters, then three builds; the
    # median of each, calibrated.
    tb = import_package()
    clock = Clock()
    import_s = statistics.median(child_import_s(clock) for _ in range(SETUP_REPEATS))
    inp, ops, build_s = set_up(tb, args.workload, args.seed, clock)
    setup_s = import_s + build_s
    # The reference pool and the built specs live until the end; keep the
    # collector from walking them during timed calls.
    gc.collect()
    gc.freeze()

    if not args.trace:
        # Whole passes only, so every run samples the same mix of inputs: one
        # pass, then another while it fits in the window at the last pace.
        runner = Runner(clock=clock)
        cpu_before = children_cpu_s()
        start = time.perf_counter()
        passes, last = 0, 0.0
        while passes == 0 or time.perf_counter() - start + last <= args.seconds:
            began = time.perf_counter()
            runner.run_all(ops)
            last = time.perf_counter() - began
            passes += 1
        cli_cpu = cli_cpu_over_wall(children_cpu_s() - cpu_before, runner)
        metrics, counts = end_to_end(runner, setup_s)
        prov = provenance(args, tb, passes, counts, runner, None, cli_cpu)
        prov["calibration"] = clock.summary()
        prov["uncalibrated"] = {name: statistics.median(runner.samples[key]) * scale
                                for name, (key, scale, *_) in LATENCIES.items()
                                if len(runner.samples.get(key, [])) >= 2}
        report(metrics, counts, prov, runner)
        return 0

    # Traced run: every operation of one pass twice in a row, untraced and
    # traced, so the two timings share the machine's state; a repeated call
    # runs faster, so the order alternates. The overhead is the median ratio
    # of the pairs. Then the layer probes.
    import layers

    untraced, tracer = Runner(), Tracer()
    runner = Runner(tracer)
    cpu_before = children_cpu_s()
    for i, op in enumerate(ops):
        for side in (untraced, runner)[:: 1 if i % 2 else -1]:
            side.run(op)
    cli_cpu = cli_cpu_over_wall(children_cpu_s() - cpu_before, untraced, runner)
    overhead = statistics.median(
        on / off for key, offs in untraced.samples.items()
        for off, on in zip(offs, runner.samples[key])) - 1.0
    metrics = layers.measure(tb, inp, tracer, ROOT, import_s, runner.stats, args.seed,
                             workloads.WORKLOADS[args.workload])
    counts = {"spans": len(tracer.spans)}
    for name, key in P99_LATENCIES.items():
        xs = untraced.samples.get(key, [])
        counts[name] = len(xs)
        metrics[name] = (p99(xs) * 1e3 if len(xs) >= 1000 else float("nan"), "ms")
    runner.merge(untraced)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics["failed_frac"] = (runner.failed / runner.attempted, "frac")
    report(metrics, counts, provenance(args, tb, 2, counts, runner, overhead, cli_cpu), runner)
    return 0


if __name__ == "__main__":
    sys.exit(main())
