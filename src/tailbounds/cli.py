"""Command-line front end: bound, exact, mc, sweep, verify.

Exit codes: 0 success, 1 verify found a property violation, 2 usage/parse
errors, 3 domain errors (invalid parameter or query values).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import exact_oracle, geom_bounds, methods, montecarlo
from .methods import Side
from .model import (
    ExponentialSumSpec,
    GeometricSumSpec,
    LambdaOutOfRange,
    TailBoundsError,
    make_exponential_spec,
    make_geometric_spec,
    make_tail_query,
    parse_params,
    read_params_file,
    require_count,
)


class CliUsageError(Exception):
    pass


def _fmt(v: float) -> str:
    return format(v, ".12g")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


_SAMPLES = 100_000  # the --samples default of mc and sweep

# --dist: (its parameter flag, the other distribution's flag, the spec constructor)
_DISTS = {"geom": ("p", "a", make_geometric_spec), "exp": ("a", "p", make_exponential_spec)}


def _load_spec(args) -> GeometricSumSpec | ExponentialSumSpec:
    flag, wrong, make = _DISTS[args.dist]
    inline = getattr(args, flag)
    if getattr(args, wrong) is not None:
        raise CliUsageError(f"--{wrong} does not apply to --dist {args.dist}")
    if (inline is None) == (args.params_file is None):
        raise CliUsageError(f"give exactly one of --{flag} or --params-file")
    try:
        if args.params_file is None:
            values = parse_params(inline)
        else:
            values = read_params_file(args.params_file)
    except OSError as exc:
        raise CliUsageError(f"cannot read {args.params_file}: {exc}") from None
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None
    return make(values)


def cmd_bound(args) -> int:
    spec = _load_spec(args)
    row = methods.BY_NAME.get(args.method)
    dist = "geom" if row is None else row.dist  # lemma1 and best are geometric
    if dist != args.dist:
        raise CliUsageError(f"method {args.method!r} does not apply to --dist {args.dist}")
    if args.z is not None and args.method != "lemma1":
        raise CliUsageError("--z applies only to --method lemma1")
    q = make_tail_query(spec.mu, x=args.x, lam=args.lam)
    if args.method == "lemma1":
        if args.z is None:
            raise CliUsageError("--method lemma1 requires --z")
        result = geom_bounds.lemma1_bound(spec, q.x, args.z)
    elif args.method == "best":
        result = methods.best_upper(spec, q.lam)
    else:
        result = row.evaluate(spec, q)
    print(f"method: {result.method.value}")
    print(f"lambda: {_fmt(result.lam)}")
    print(f"x: {_fmt(result.lam * spec.mu)}")
    print(f"value: {_fmt(result.value)}")
    print(f"log_value: {_fmt(result.log_value)}")
    if result.internal_param is not None:
        print(f"internal_param: {_fmt(result.internal_param)}")
    if result.evaluations is not None:
        print(f"evaluations: {result.evaluations}")
    if result.clamped:
        print("clamped: true")
    return 0


def cmd_exact(args) -> int:
    spec = _load_spec(args)
    q = make_tail_query(spec.mu, x=args.x, lam=args.lam)
    est = exact_oracle.exact_tail(spec, q.x)
    print(f"method: {est.method.value}")
    print(f"x: {_fmt(q.x)}")
    print(f"value: {_fmt(est.value)}")
    print(f"log_value: {_fmt(math.log(est.value) if est.value > 0 else -math.inf)}")
    print(f"error_bound: {_fmt(est.error_bound)}")
    return 0


def cmd_mc(args) -> int:
    spec = _load_spec(args)
    q = make_tail_query(spec.mu, x=args.x, lam=args.lam)
    cfg = montecarlo.McConfig(
        samples=args.samples, seed=args.seed, confidence=args.confidence
    )
    est = montecarlo.mc_tail(spec, q.x, cfg, side=args.side)
    print(f"method: {est.method.value}")
    print(f"x: {_fmt(q.x)}")
    print(f"side: {args.side}")
    print(f"samples: {cfg.samples}")
    print(f"seed: {cfg.seed}")
    print(f"confidence: {_fmt(cfg.confidence)}")
    print(f"value: {_fmt(est.value)}")
    print(f"error_bound: {_fmt(est.error_bound)}")
    return 0


def cmd_sweep(args) -> int:
    spec = _load_spec(args)
    lo, hi = (make_tail_query(spec.mu, lam=v).lam for v in (args.lambda_from, args.lambda_to))
    if not (1.0 <= lo <= hi):
        raise LambdaOutOfRange(f"need 1 <= from <= to, got {lo}..{hi}")
    cfg = montecarlo.McConfig(samples=args.samples, seed=args.seed)
    columns = methods.rows(args.dist, Side.UPPER, Side.UPPER_FROM_BELOW)
    print(",".join(["lambda", "x", *(row.column for row in columns), "exact", "mc",
                    "mc_halfwidth"]))
    step = (hi - lo) / max(args.steps - 1, 1)  # np.linspace's, one lambda at a time
    for i in range(args.steps):
        lam = hi if 0 < i == args.steps - 1 else lo + i * step
        q = make_tail_query(spec.mu, lam=lam)
        mc = montecarlo.mc_tail(spec, q.x, cfg)
        cells = [q.lam, q.x, *(row.evaluate(spec, q).value for row in columns),
                 exact_oracle.exact_tail(spec, q.x).value, mc.value, mc.error_bound]
        print(",".join(_fmt(c) for c in cells))
    return 0


def _check(ok: bool, failures: list[str], message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def _verify_instance(spec, failures: list[str]) -> None:
    """Check every row of the table for the distribution of `spec` against its exact tails.

    Upper rows must lie above the exact upper tail, lower-bound-on-upper rows
    below it, lower rows above the exact lower tail, each within the oracle's
    error bound plus 1e-10; each row's log value must not exceed those of the
    rows it never exceeds, within 1e-12 relative.
    """
    slack = 1e-10
    dist = "geom" if isinstance(spec, GeometricSumSpec) else "exp"
    name = f"p={list(spec.params)}" if dist == "geom" else f"a={list(spec.rates)}"
    for truth, tail, lams, sides in (
        ("exact", "upper", (1.0, 1.25, 1.5, 2.0, 3.0, 5.0),
         (Side.UPPER, Side.UPPER_FROM_BELOW)),
        ("exact_lower", "lower", (0.2, 0.5, 0.8, 1.0), (Side.LOWER,)),
    ):
        table = methods.rows(dist, *sides)
        for lam in lams:
            q = make_tail_query(spec.mu, lam=lam)
            exact = exact_oracle.exact_tail(spec, q.x, tail)
            pad = exact.error_bound + slack
            results = {row.method: row.evaluate(spec, q) for row in table}
            for row in table:
                m = row.method.value
                lo, hi = (m, truth) if row.side is Side.UPPER_FROM_BELOW else (truth, m)
                v = {m: results[row.method].value, truth: exact.value}
                _check(
                    v[lo] <= v[hi] + pad,
                    failures,
                    f"sandwich {lo}<={hi} {name} lam={lam}: {v[lo]} > {v[hi]}",
                )
                for other in row.never_exceeds:
                    a, b = results[row.method].log_value, results[other].log_value
                    _check(
                        a <= b + 1e-12 * (1.0 + abs(b)),
                        failures,
                        f"dominance {m}<={other.value} {name} lam={lam}: {a} > {b}",
                    )
    if dist != "geom":
        return
    # pairwise tail-ratio floor: P(X>=j) >= (1-p_min)^(j-k) P(X>=k), j >= k
    base = max(spec.n, math.ceil(spec.mu))
    for j, k in ((base + 3, base), (base + 11, base + 2)):
        pj, pk = (exact_oracle.exact_tail(spec, t) for t in (j, k))
        floor = (1.0 - spec.p_min) ** (j - k) * pk.value
        pad = pj.error_bound + pk.error_bound + slack
        _check(
            pj.value >= floor * (1.0 - 1e-9) - pad,
            failures,
            f"tail ratio {name} j={j} k={k}: {pj.value} < {floor}",
        )


def cmd_verify(args) -> int:
    require_count("seed", args.seed, 0, montecarlo.MAX_U64)  # McConfig's range, as mc and sweep
    failures: list[str] = []

    fixed = make_geometric_spec([0.5, 0.5])
    q = make_tail_query(fixed.mu, lam=2.0)
    tl, *upper = (methods.BY_NAME[m].evaluate(fixed, q).value
                  for m in ("tl", "thm2", "thm1", "cor1"))
    sandwich = (tl, exact_oracle.exact_tail(fixed, q.x).value, *upper)
    print(
        "fixed instance p=[0.5, 0.5] lam=2 sandwich "
        "(tl_lower <= exact <= thm2 <= thm1 <= cor1): "
        + " ".join(_fmt(v) for v in sandwich)
    )
    _verify_instance(fixed, failures)

    import numpy as np

    rng = np.random.default_rng(args.seed)
    for suite, n_max, make, lo, hi in (
        ("geometric", 8, make_geometric_spec, 0.05, 1.0),
        ("exponential", 6, make_exponential_spec, 0.1, 10.0),
    ):
        for _ in range(args.trials):
            n = int(rng.integers(1, n_max + 1))
            _verify_instance(make(list(rng.uniform(lo, hi, n))), failures)
        print(f"{suite} suite: {args.trials} random instances")

    if failures:
        print(f"verify: {len(failures)} violation(s)")
        return 1
    print("verify: all properties hold")
    return 0


def _add_spec_flags(sub) -> None:
    sub.add_argument("--dist", choices=("geom", "exp"), required=True)
    sub.add_argument("--p", help="success probabilities (geom), separated by commas or whitespace")
    sub.add_argument("--a", help="rates (exp), separated by commas or whitespace")
    sub.add_argument("--params-file", help="plain-text file of the --p or --a values, "
                     "separated the same way; blank lines and lines starting with # are skipped")


def _add_query_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float, help="tail ratio x/mu")
    group.add_argument("--x", type=float, help="tail threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailbounds",
        description="Tail bounds for sums of independent geometric or "
        "exponential variables, with exact and Monte Carlo verification.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bound = commands.add_parser("bound", help="evaluate one bound")
    _add_spec_flags(bound)
    _add_query_flags(bound)
    bound.add_argument(
        "--method",
        required=True,
        choices=sorted([*methods.BY_NAME, "lemma1", "best"]),
    )
    bound.add_argument("--z", type=float, help="generating-function argument (lemma1)")
    bound.set_defaults(func=cmd_bound)

    exact = commands.add_parser("exact", help="exact tail probability")
    _add_spec_flags(exact)
    _add_query_flags(exact)
    exact.set_defaults(func=cmd_exact)

    mc = commands.add_parser("mc", help="Monte Carlo tail estimate")
    _add_spec_flags(mc)
    _add_query_flags(mc)
    mc.add_argument("--samples", type=_positive_int, default=_SAMPLES)
    mc.add_argument("--seed", type=int, default=montecarlo.McConfig.seed)
    mc.add_argument("--confidence", type=float, default=montecarlo.McConfig.confidence)
    mc.add_argument("--side", choices=("upper", "lower"), default="upper")
    mc.set_defaults(func=cmd_mc)

    sweep = commands.add_parser("sweep", help="CSV of all bounds over a lambda grid")
    _add_spec_flags(sweep)
    sweep.add_argument("--lambda-from", type=float, required=True)
    sweep.add_argument("--lambda-to", type=float, required=True)
    sweep.add_argument("--steps", type=_positive_int, required=True)
    sweep.add_argument("--samples", type=_positive_int, default=_SAMPLES)
    sweep.add_argument("--seed", type=int, default=montecarlo.McConfig.seed)
    sweep.set_defaults(func=cmd_sweep)

    verify = commands.add_parser("verify", help="run the property suites")
    verify.add_argument("--trials", type=_positive_int, required=True)
    verify.add_argument("--seed", type=int, default=montecarlo.McConfig.seed)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TailBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
