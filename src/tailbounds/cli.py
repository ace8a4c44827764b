"""Command-line front end: bound, exact, mc, sweep, verify.

Exit codes: 0 success, 1 verify found a property violation, 2 usage/parse
errors, 3 domain errors (invalid parameter or query values).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import exact_oracle, exp_bounds, geom_bounds, montecarlo
from .model import (
    ExponentialSumSpec,
    GeometricSumSpec,
    TailBoundsError,
    TailQuery,
    log_inequality_check,
    make_exponential_spec,
    make_geometric_spec,
    make_tail_query,
    read_params_file,
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


def _parse_inline(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise CliUsageError(f"cannot parse parameter list {text!r}") from None


def _load_spec(args) -> GeometricSumSpec | ExponentialSumSpec:
    inline = args.p if args.dist == "geom" else args.a
    wrong = args.a if args.dist == "geom" else args.p
    if wrong is not None:
        raise CliUsageError(
            f"--{'a' if args.dist == 'geom' else 'p'} does not apply to --dist {args.dist}"
        )
    if (inline is None) == (args.params_file is None):
        flag = "--p" if args.dist == "geom" else "--a"
        raise CliUsageError(f"give exactly one of {flag} or --params-file")
    if args.params_file is not None:
        try:
            values = read_params_file(args.params_file)
        except OSError as exc:
            raise CliUsageError(f"cannot read {args.params_file}: {exc}") from None
        except ValueError as exc:
            raise CliUsageError(str(exc)) from None
    else:
        values = _parse_inline(inline)
    if args.dist == "geom":
        return make_geometric_spec(values)
    return make_exponential_spec(values)


def _query(args, spec) -> TailQuery:
    return make_tail_query(spec.mu, x=args.x, lam=args.lam)


_GEOM_METHODS = {
    "thm1": lambda spec, q, args: geom_bounds.upper_tail_thm1(spec, q.lam),
    "thm2": lambda spec, q, args: geom_bounds.upper_tail_thm2(spec, q.lam),
    "cor1": lambda spec, q, args: geom_bounds.upper_tail_cor1(q.lam),
    "cor2": lambda spec, q, args: geom_bounds.upper_tail_cor2(q.lam),
    "tl1": lambda spec, q, args: geom_bounds.lower_tail_tl1(spec, q.lam),
    "tl": lambda spec, q, args: geom_bounds.upper_tail_lower_bound_tl(spec, q.lam),
    "lemma1": lambda spec, q, args: geom_bounds.lemma1_bound(spec, q.x, _need_z(args)),
    "opt-chernoff": lambda spec, q, args: geom_bounds.optimized_chernoff(spec, q.lam),
    "opt-lemma1": lambda spec, q, args: geom_bounds.optimized_lemma1(spec, q.x),
    "best": lambda spec, q, args: geom_bounds.best_upper(spec, q.lam),
}

_EXP_METHODS = {
    "texp-i": lambda spec, q, args: exp_bounds.exp_upper_i(spec, q.lam),
    "texp-ii": lambda spec, q, args: exp_bounds.exp_upper_ii(q.lam),
    "texp-iii": lambda spec, q, args: exp_bounds.exp_lower_tail_iii(spec, q.lam),
    "texp-iv": lambda spec, q, args: exp_bounds.exp_tail_lower_iv(spec, q.lam),
}


def _need_z(args) -> float:
    if args.z is None:
        raise CliUsageError("--method lemma1 requires --z")
    return args.z


def cmd_bound(args) -> int:
    spec = _load_spec(args)
    table = _GEOM_METHODS if args.dist == "geom" else _EXP_METHODS
    if args.method not in table:
        raise CliUsageError(f"method {args.method!r} does not apply to --dist {args.dist}")
    result = table[args.method](spec, _query(args, spec), args)
    print(f"method: {result.method.value}")
    print(f"lambda: {_fmt(result.lam)}")
    print(f"x: {_fmt(result.lam * spec.mu)}")
    print(f"value: {_fmt(result.value)}")
    print(f"log_value: {_fmt(result.log_value)}")
    if result.internal_param is not None:
        print(f"internal_param: {_fmt(result.internal_param)}")
    if result.clamped:
        print("clamped: true")
    return 0


def cmd_exact(args) -> int:
    spec = _load_spec(args)
    q = _query(args, spec)
    if args.dist == "geom":
        est = exact_oracle.geom_tail_exact(spec, q.x, rel_tol=args.rel_tol)
    else:
        est = exact_oracle.hypoexp_survival(spec, q.x)
    print(f"method: {est.method.value}")
    print(f"x: {_fmt(q.x)}")
    print(f"value: {_fmt(est.value)}")
    print(f"log_value: {_fmt(math.log(est.value) if est.value > 0 else -math.inf)}")
    print(f"error_bound: {_fmt(est.error_bound)}")
    return 0


def cmd_mc(args) -> int:
    spec = _load_spec(args)
    q = _query(args, spec)
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
    lo, hi = (
        make_tail_query(spec.mu, lam=v).lam for v in (args.lambda_from, args.lambda_to)
    )
    if not (1.0 <= lo <= hi):
        raise geom_bounds.LambdaOutOfRange(f"need 1 <= from <= to, got {lo}..{hi}")
    grid = np.linspace(lo, hi, args.steps)
    cfg = montecarlo.McConfig(samples=args.samples, seed=args.seed)
    rows = []
    if args.dist == "geom":
        header = (
            "lambda,x,thm1,thm2,cor1,cor2,opt_chernoff,opt_lemma1,"
            "tl_lower,exact,mc,mc_halfwidth"
        )
        for lam in grid:
            lam = float(lam)
            x = lam * spec.mu
            mc = montecarlo.mc_tail(spec, x, cfg)
            cells = [
                lam,
                x,
                geom_bounds.upper_tail_thm1(spec, lam).value,
                geom_bounds.upper_tail_thm2(spec, lam).value,
                geom_bounds.upper_tail_cor1(lam).value,
                geom_bounds.upper_tail_cor2(lam).value,
                geom_bounds.optimized_chernoff(spec, lam).value,
                geom_bounds.optimized_lemma1(spec, x).value,
                geom_bounds.upper_tail_lower_bound_tl(spec, lam).value,
                exact_oracle.geom_tail_exact(spec, x, rel_tol=args.rel_tol).value,
                mc.value,
                mc.error_bound,
            ]
            rows.append(cells)
    else:
        header = "lambda,x,texp_i,texp_ii,texp_iv,exact,mc,mc_halfwidth"
        for lam in grid:
            lam = float(lam)
            x = lam * spec.mu
            mc = montecarlo.mc_tail(spec, x, cfg)
            cells = [
                lam,
                x,
                exp_bounds.exp_upper_i(spec, lam).value,
                exp_bounds.exp_upper_ii(lam).value,
                exp_bounds.exp_tail_lower_iv(spec, lam).value,
                exact_oracle.hypoexp_survival(spec, x).value,
                mc.value,
                mc.error_bound,
            ]
            rows.append(cells)
    print(header)
    for cells in rows:
        print(",".join(_fmt(c) for c in cells))
    return 0


def _check(ok: bool, failures: list[str], message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def _verify_geom_instance(spec: GeometricSumSpec, failures: list[str]) -> None:
    slack = 1e-10
    name = f"p={list(spec.params)}"
    for lam in (1.0, 1.25, 1.5, 2.0, 3.0, 5.0):
        exact = exact_oracle.geom_tail_exact(spec, lam * spec.mu, rel_tol=1e-9)
        tl = geom_bounds.upper_tail_lower_bound_tl(spec, lam)
        thm1 = geom_bounds.upper_tail_thm1(spec, lam)
        thm2 = geom_bounds.upper_tail_thm2(spec, lam)
        cor1 = geom_bounds.upper_tail_cor1(lam)
        cor2 = geom_bounds.upper_tail_cor2(lam)
        opt = geom_bounds.optimized_chernoff(spec, lam)
        pad = exact.error_bound + slack
        _check(
            tl.value <= exact.value + pad,
            failures,
            f"sandwich tl<=exact {name} lam={lam}: {tl.value} > {exact.value}",
        )
        _check(
            exact.value <= thm2.value + pad,
            failures,
            f"sandwich exact<=thm2 {name} lam={lam}: {exact.value} > {thm2.value}",
        )
        _check(
            exact.value <= cor2.value + pad,
            failures,
            f"sandwich exact<=cor2 {name} lam={lam}: {exact.value} > {cor2.value}",
        )
        for lo, hi, tag in (
            (thm2, thm1, "thm2<=thm1"),
            (thm1, cor1, "thm1<=cor1"),
            (thm2, cor2, "thm2<=cor2"),
            (cor2, cor1, "cor2<=cor1"),
            (opt, thm1, "opt<=thm1"),
        ):
            _check(
                lo.log_value <= hi.log_value + 1e-12 * (1.0 + abs(hi.log_value)),
                failures,
                f"dominance {tag} {name} lam={lam}: {lo.log_value} > {hi.log_value}",
            )
    for lam in (0.2, 0.5, 0.8, 1.0):
        lower = exact_oracle.geom_lower_tail_exact(spec, lam * spec.mu)
        tl1 = geom_bounds.lower_tail_tl1(spec, lam)
        _check(
            lower.value <= tl1.value + lower.error_bound + slack,
            failures,
            f"lower tail {name} lam={lam}: {lower.value} > {tl1.value}",
        )
    # pairwise tail-ratio floor: P(X>=j) >= (1-p_min)^(j-k) P(X>=k), j >= k
    base = max(spec.n, math.ceil(spec.mu))
    for j, k in ((base + 3, base), (base + 11, base + 2)):
        pj = exact_oracle.geom_tail_exact(spec, j, rel_tol=1e-9)
        pk = exact_oracle.geom_tail_exact(spec, k, rel_tol=1e-9)
        floor = (1.0 - spec.p_min) ** (j - k) * pk.value
        pad = pj.error_bound + pk.error_bound + slack
        _check(
            pj.value >= floor * (1.0 - 1e-9) - pad,
            failures,
            f"tail ratio {name} j={j} k={k}: {pj.value} < {floor}",
        )


def _verify_exp_instance(spec: ExponentialSumSpec, failures: list[str]) -> None:
    slack = 1e-10
    name = f"a={list(spec.rates)}"
    for lam in (1.0, 1.5, 2.0, 3.0, 5.0):
        x = lam * spec.mu
        exact = exact_oracle.hypoexp_survival(spec, x)
        upper_i = exp_bounds.exp_upper_i(spec, lam)
        upper_ii = exp_bounds.exp_upper_ii(lam)
        lower_iv = exp_bounds.exp_tail_lower_iv(spec, lam)
        pad = exact.error_bound + slack
        _check(
            lower_iv.value <= exact.value + pad,
            failures,
            f"exp sandwich iv<=exact {name} lam={lam}: {lower_iv.value} > {exact.value}",
        )
        _check(
            exact.value <= upper_i.value + pad,
            failures,
            f"exp sandwich exact<=i {name} lam={lam}: {exact.value} > {upper_i.value}",
        )
        _check(
            upper_i.log_value <= upper_ii.log_value + 1e-12 * (1.0 + abs(upper_ii.log_value)),
            failures,
            f"exp dominance i<=ii {name} lam={lam}",
        )


def cmd_verify(args) -> int:
    failures: list[str] = []

    grid = [0.99 * (i + 1) / 100.0 for i in range(100)]
    ok = all(log_inequality_check(x, y) for y in grid for x in grid if x <= y)
    _check(ok, failures, "log-inequality grid")
    print("log-inequality grid: ok" if ok else "log-inequality grid: FAILED")

    ok = True
    for A in np.geomspace(1.0, 1e3, 40):
        A = float(A)
        for x in np.linspace(0.0, 1.0 / A, 40):
            ok = ok and geom_bounds.lemma_la_check(A, float(x))
    _check(ok, failures, "concavity-gap grid")
    print("concavity-gap grid: ok" if ok else "concavity-gap grid: FAILED")

    fixed = make_geometric_spec([0.5, 0.5])
    lam = 2.0
    sandwich = (
        geom_bounds.upper_tail_lower_bound_tl(fixed, lam).value,
        exact_oracle.geom_tail_exact(fixed, lam * fixed.mu).value,
        geom_bounds.upper_tail_thm2(fixed, lam).value,
        geom_bounds.upper_tail_thm1(fixed, lam).value,
        geom_bounds.upper_tail_cor1(lam).value,
    )
    print(
        "fixed instance p=[0.5, 0.5] lam=2 sandwich "
        "(tl_lower <= exact <= thm2 <= thm1 <= cor1): "
        + " ".join(_fmt(v) for v in sandwich)
    )
    _check(
        all(a <= b + 1e-10 for a, b in zip(sandwich, sandwich[1:])),
        failures,
        "fixed instance sandwich ordering",
    )

    rng = np.random.default_rng(args.seed)
    for _ in range(args.trials):
        n = int(rng.integers(1, 9))
        spec = make_geometric_spec(list(rng.uniform(0.05, 1.0, n)))
        _verify_geom_instance(spec, failures)
    print(f"geometric suite: {args.trials} random instances")
    for _ in range(args.trials):
        n = int(rng.integers(1, 7))
        spec = make_exponential_spec(list(rng.uniform(0.1, 10.0, n)))
        _verify_exp_instance(spec, failures)
    print(f"exponential suite: {args.trials} random instances")

    if failures:
        print(f"verify: {len(failures)} violation(s)")
        return 1
    print("verify: all properties hold")
    return 0


def _add_spec_flags(sub) -> None:
    sub.add_argument("--dist", choices=("geom", "exp"), required=True)
    sub.add_argument("--p", help="comma-separated success probabilities (geom)")
    sub.add_argument("--a", help="comma-separated rates (exp)")
    sub.add_argument("--params-file", help="plain-text parameter file")


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
        choices=sorted(set(_GEOM_METHODS) | set(_EXP_METHODS)),
    )
    bound.add_argument("--z", type=float, help="generating-function argument (lemma1)")
    bound.set_defaults(func=cmd_bound)

    exact = commands.add_parser("exact", help="exact tail probability")
    _add_spec_flags(exact)
    _add_query_flags(exact)
    exact.add_argument("--rel-tol", type=float, default=1e-9)
    exact.set_defaults(func=cmd_exact)

    mc = commands.add_parser("mc", help="Monte Carlo tail estimate")
    _add_spec_flags(mc)
    _add_query_flags(mc)
    mc.add_argument("--samples", type=_positive_int, default=100_000)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--confidence", type=float, default=0.99)
    mc.add_argument("--side", choices=("upper", "lower"), default="upper")
    mc.set_defaults(func=cmd_mc)

    sweep = commands.add_parser("sweep", help="CSV of all bounds over a lambda grid")
    _add_spec_flags(sweep)
    sweep.add_argument("--lambda-from", type=float, required=True)
    sweep.add_argument("--lambda-to", type=float, required=True)
    sweep.add_argument("--steps", type=_positive_int, required=True)
    sweep.add_argument("--samples", type=_positive_int, default=100_000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--rel-tol", type=float, default=1e-9)
    sweep.set_defaults(func=cmd_sweep)

    verify = commands.add_parser("verify", help="run the property suites")
    verify.add_argument("--trials", type=_positive_int, required=True)
    verify.add_argument("--seed", type=int, default=0)
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
