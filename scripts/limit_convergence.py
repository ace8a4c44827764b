#!/usr/bin/env python3
"""Watch sums of Ge(a_i/N)/N converge to the hypoexponential as N grows.

For each N the discrete sum with success probabilities a_i/N has its tail
evaluated at lambda times its mean and compared with the continuous tail;
the sharper discrete bound is compared with its continuous analogue too.

    python scripts/limit_convergence.py --a 1,2 --lambda 2
"""

import argparse

from tailbounds import make_exponential_spec, make_geometric_spec, make_tail_query
from tailbounds.exact_oracle import exact_tail
from tailbounds.methods import BY_NAME


def rel_err(value: float, reference: float) -> float:
    """|value - reference| / reference, or nan where the reference underflowed to 0."""
    return abs(value - reference) / reference if reference > 0.0 else float("nan")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", default="1,2")
    parser.add_argument("--lambda", dest="lam", type=float, default=2.0)
    parser.add_argument("--n-grid", default="10,100,1000,10000")
    args = parser.parse_args()

    rates = [float(t) for t in args.a.split(",")]
    cont = make_exponential_spec(rates)
    exact_cont = exact_tail(cont, args.lam * cont.mu).value
    texp_i, thm2 = BY_NAME["texp-i"], BY_NAME["thm2"]
    bound_cont = texp_i.evaluate(cont, make_tail_query(cont.mu, lam=args.lam)).value
    print(f"rates={rates}  lambda={args.lam}")
    print(f"continuous exact tail  {exact_cont:.10e}")
    print(f"continuous upper bound {bound_cont:.10e}")
    print(f"{'N':>8} {'discrete exact':>16} {'rel err':>10} "
          f"{'discrete bound':>16} {'rel err':>10}")
    for token in args.n_grid.split(","):
        N = int(token)
        geom = make_geometric_spec([a / N for a in rates])
        exact_disc = exact_tail(geom, args.lam * geom.mu).value
        bound_disc = thm2.evaluate(geom, make_tail_query(geom.mu, lam=args.lam)).value
        print(
            f"{N:8d} {exact_disc:16.10e} "
            f"{rel_err(exact_disc, exact_cont):10.2e} "
            f"{bound_disc:16.10e} "
            f"{rel_err(bound_disc, bound_cont):10.2e}"
        )


if __name__ == "__main__":
    main()
