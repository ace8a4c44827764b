#!/usr/bin/env python3
"""Compare every geometric upper-tail bound against the exact tail over a lambda grid.

Prints one row per lambda with the exact tail, each bound of the method
table (the upper bounds and the lower bound on the upper tail), and the
exponent ratio log(bound)/log(exact) of the best bound (1.0 would be a
perfectly sharp bound; the theory guarantees a constant-factor gap in the
exponent).

    python scripts/compare_bounds.py --p 0.5,0.2,0.1 --lambda-max 6
"""

import argparse
import math
import sys

from tailbounds import TailBoundsError, make_geometric_spec, make_tail_query, parse_params
from tailbounds.exact_oracle import exact_tail
from tailbounds.methods import Side, best_upper, rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", default="0.5,0.2,0.1")
    parser.add_argument("--lambda-max", type=float, default=6.0)
    parser.add_argument("--steps", type=int, default=11)
    args = parser.parse_args()
    if args.steps < 1:
        parser.error(f"argument --steps: must be >= 1, got {args.steps}")
    try:
        params = parse_params(args.p)
    except ValueError as exc:
        parser.error(str(exc))

    spec = make_geometric_spec(params)
    columns = rows("geom", Side.UPPER, Side.UPPER_FROM_BELOW)
    print(f"params={list(spec.params)}  mu={spec.mu:.6g}  p_min={spec.p_min}  "
          f"sigma2={spec.sigma2:.6g}")
    print(
        f"{'lambda':>7} {'exact':>12} "
        + "".join(f"{row.column:>13}" for row in columns)
        + f" {'best':>12} {'method':>12} {'exp_ratio':>9}"
    )
    for i in range(args.steps):
        lam = 1.0 + (args.lambda_max - 1.0) * i / max(args.steps - 1, 1)
        q = make_tail_query(spec.mu, lam=lam)
        exact = exact_tail(spec, q.x).value
        best = best_upper(spec, lam)
        ratio = (
            best.log_value / math.log(exact)
            if 0.0 < exact < 1.0 and best.value < 1.0
            else float("nan")
        )
        print(
            f"{lam:7.3f} {exact:12.5e} "
            + "".join(f" {row.evaluate(spec, q).value:12.5e}" for row in columns)
            + f" {best.value:12.5e} {best.method.value:>12} {ratio:9.4f}"
        )


if __name__ == "__main__":
    try:
        main()
    except TailBoundsError as exc:  # one line and exit 3, as tailbounds
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
