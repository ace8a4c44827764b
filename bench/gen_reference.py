"""Write bench/data/reference.json: exact tails at 50+ digits, and frozen bounds.

Run from the repository root, offline:

    python3 bench/gen_reference.py

Exact tails come from mpmath alone and never from the package's oracles:

- geometric sums with n <= 100: partial fractions of the generating function,
  P(X >= k) = prod(p) * sum_i A_i q_i^(k-n) / p_i with
  A_i = prod_{j != i} q_i / (q_i - q_j), cross-checked against an mpmath
  convolution on the first specs;
- iid geometric sums: the finite negative-binomial sum;
- geometric sums with n = 10^3 (Monte Carlo thresholds only): an mpmath
  convolution at 50 digits;
- Erlang sums: the regularized incomplete gamma function;
- distinct or clustered exponential rates, n up to 10^3: partial fractions,
  sum_i prod_{j != i} a_j / (a_j - a_i) e^(-a_i x).

Every cancelling sum is evaluated at a working precision that doubles until
two successive precisions agree to 55 significant digits.

The bound log values are frozen from the package in ``src/`` at the commit
that introduced the benchmark, so later changes are compared with that
commit's bounds; the closed forms among them are also checked here against
the paper's formulas evaluated in mpmath. Re-running this script refreezes
them from whatever ``src/`` holds, so extend the pool only on purpose.
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath as mp

import pool

ROOT = os.path.dirname(pool.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tailbounds as tb  # noqa: E402

AGREE_DIGITS = 55
COUNTS = {
    "geom8": 400,
    "iid": 48,
    "geom1e3": 6,
    "geom1e3_mc": 3,  # the first specs of geom1e3 also get Monte Carlo references
    "geom1e4": 4,
    "exp8": 200,
    "erlang8": 40,
    "clustered8": 40,
    "exp100": 4,
    "erlang100": 4,
    "exp1e3": 3,
}
IID_SIZES = (4, 8, 32, 100)
IID_LAMS = (1.5, 3.0, 5.0)


def adaptive(compute, start_dps: int = 80) -> list:
    """compute() -> list of mpf, at doubling precision until two successive
    precisions agree on every element to AGREE_DIGITS."""
    tol = mp.mpf(10) ** -AGREE_DIGITS
    dps = start_dps
    with mp.workdps(dps):
        prev = compute()
    while True:
        dps *= 2
        with mp.workdps(dps):
            cur = compute()
            if all(c == p or abs(c - p) <= tol * abs(c) for c, p in zip(cur, prev)):
                return [+c for c in cur]
        prev = cur


def pack(v) -> list[str]:
    """[log, value] as decimal strings; the value keeps 25 significant digits."""
    if v == 0:
        return ["-inf", "0"]
    return [repr(float(mp.log(v))), mp.nstr(v, 25, min_fixed=1, max_fixed=0)]


def geom_tails_pf(p: tuple[float, ...], ks: list[int]) -> list:
    """P(X >= k) for each k, distinct p_i, by partial fractions (current precision)."""
    n = len(p)
    ps = [mp.mpf(x) for x in p]
    qs = [1 - x for x in ps]
    weights = []
    for i, qi in enumerate(qs):
        a = mp.fprod(qi / (qi - qj) for j, qj in enumerate(qs) if j != i)
        weights.append(a / ps[i])
    scale = mp.fprod(ps)
    return [
        mp.mpf(1) if k <= n
        else scale * mp.fsum(w * qi ** (k - n) for w, qi in zip(weights, qs))
        for k in ks
    ]


def geom_pmf_mp(p: tuple[float, ...], K: int) -> list:
    """P(X = k), k = 0..K, by convolution at the current precision."""
    c = [mp.mpf(1)] + [mp.mpf(0)] * K
    for x in p:
        pp = mp.mpf(x)
        qq = 1 - pp
        new = [mp.mpf(0)] * (K + 1)
        prev = mp.mpf(0)
        for k in range(1, K + 1):
            prev = qq * prev + pp * c[k - 1]
            new[k] = prev
        c = new
    return c


def hypoexp_pf(rates: tuple[float, ...], xs: list[float]) -> list:
    """P(X > x) for each x, distinct rates, by partial fractions (current precision)."""
    a = [mp.mpf(r) for r in rates]
    weights = [
        mp.fprod(aj / (aj - ai) for j, aj in enumerate(a) if j != i)
        for i, ai in enumerate(a)
    ]
    return [
        mp.fsum(w * mp.exp(-ai * mp.mpf(x)) for w, ai in zip(weights, a)) for x in xs
    ]


def pf_start_dps(rates: tuple[float, ...]) -> int:
    """Digits lost to cancellation in the weights, estimated in floats."""
    worst = 0.0
    for i, ai in enumerate(rates):
        s = math.fsum(
            math.log10(aj) - math.log10(abs(aj - ai))
            for j, aj in enumerate(rates) if j != i
        )
        worst = max(worst, s)
    return 80 + math.ceil(worst)


def erlang_upper(rate: float, n: int, x: float):
    with mp.workdps(70):
        return +mp.gammainc(n, mp.mpf(rate) * mp.mpf(x), mp.inf, regularized=True)


def erlang_lower(rate: float, n: int, x: float):
    with mp.workdps(70):
        return +mp.gammainc(n, 0, mp.mpf(rate) * mp.mpf(x), regularized=True)


def nbinom_tail(p: float, n: int, x: float):
    """P(X >= x) for n iid Ge(p): P(Binomial(m-1, p) <= n-1), m = max(ceil x, n)."""
    m = max(math.ceil(x), n)
    if m <= n:
        return mp.mpf(1)
    with mp.workdps(70):
        pm = mp.mpf(p)
        qm = 1 - pm
        return +mp.fsum(mp.binomial(m - 1, j) * pm**j * qm ** (m - 1 - j) for j in range(n))


def freeze(result) -> float:
    return result.log_value


def frozen_geom(spec, lam: float) -> dict:
    out = {
        "thm1": freeze(tb.upper_tail_thm1(spec, lam)),
        "thm2": freeze(tb.upper_tail_thm2(spec, lam)),
        "cor1": freeze(tb.upper_tail_cor1(lam)),
        "cor2": freeze(tb.upper_tail_cor2(lam)),
        "tl": freeze(tb.upper_tail_lower_bound_tl(spec, lam)),
        "opt-chernoff": freeze(tb.optimized_chernoff(spec, lam)),
        "opt-lemma1": freeze(tb.optimized_lemma1(spec, lam * spec.mu)),
    }
    best = tb.best_upper(spec, lam)
    out["best"] = [best.method.value, best.log_value]
    check_closed_geom(spec, lam, out)
    return out


def frozen_exp(spec, lam: float) -> dict:
    out = {
        "texp-i": freeze(tb.exp_upper_i(spec, lam)),
        "texp-ii": freeze(tb.exp_upper_ii(lam)),
        "texp-iv": freeze(tb.exp_tail_lower_iv(spec, lam)),
    }
    with mp.workdps(50):
        lm, am, mu = mp.mpf(lam), mp.mpf(spec.a_min), mp.mpf(spec.mu)
        expect = {
            "texp-i": -mp.log(lm) - am * mu * (lm - 1 - mp.log(lm)),
            "texp-ii": 1 - lm,
            "texp-iv": -1 - mp.log(2 * am * mu) - am * mu * (lm - 1),
        }
    for name, value in expect.items():
        agree(min(float(value), 0.0), out[name], f"{name} a_min={spec.a_min} lam={lam}")
    return out


def check_closed_geom(spec, lam: float, out: dict) -> None:
    """The package's closed forms against the paper's formulas in mpmath."""
    with mp.workdps(50):
        lm, pm, mu = mp.mpf(lam), mp.mpf(spec.p_min), mp.mpf(spec.mu)
        g = lm - 1 - mp.log(lm)
        lq = mp.log(1 - pm)
        expect = {
            "thm1": -pm * mu * g,
            "thm2": -mp.log(lm) + g * mu * lq,
            "cor1": mp.log(lm) + 1 - lm,
            "cor2": 1 - lm,
            "tl": (1 + 1 / pm) * lq - mp.log(2 * pm * mu) + (lm - 1) * mu * lq,
        }
    for name, value in expect.items():
        agree(min(float(value), 0.0), out[name], f"{name} p_min={spec.p_min} lam={lam}")


def agree(expected: float, got: float, what: str) -> None:
    if abs(got - expected) > 1e-12 * max(abs(expected), 1e-300) + 1e-300:
        raise SystemExit(f"package closed form disagrees with mpmath: {what}: {got} vs {expected}")


def entry(kind: str, n: int, seed: int) -> tuple[dict, tuple[float, ...]]:
    params = pool.draw_params(kind, n, seed)
    return {"kind": kind, "n": n, "seed": seed, "sum": pool.checksum(params)}, params


def thresholds(mu: float, lams) -> dict:
    return {pool.lam_key(lam): repr(lam * mu) for lam in lams}


def geom_small(seed: int, cross_check: bool) -> dict:
    e, p = entry("geom", 8, seed)
    spec = tb.make_geometric_spec(p)
    e["x"] = thresholds(spec.mu, pool.UPPER_LAMS + pool.LOWER_LAMS)
    ks = [max(math.ceil(lam * spec.mu), spec.n) for lam in pool.UPPER_LAMS]
    # P(X <= x) = 1 - P(X >= floor(x) + 1), and 0 below the support
    ks += [math.floor(lam * spec.mu) + 1 for lam in pool.LOWER_LAMS]
    up = len(pool.UPPER_LAMS)

    def compute():
        tails = geom_tails_pf(p, ks)
        lows = [mp.mpf(0) if k <= spec.n else 1 - t for k, t in zip(ks[up:], tails[up:])]
        return tails[:up] + lows

    values = adaptive(compute)
    e["upper"] = {pool.lam_key(lam): pack(v) for lam, v in zip(pool.UPPER_LAMS, values)}
    e["lower"] = {pool.lam_key(lam): pack(v) for lam, v in zip(pool.LOWER_LAMS, values[up:])}
    if cross_check:
        kmax = max(math.ceil(lam * spec.mu) for lam in pool.UPPER_LAMS)
        with mp.workdps(400):
            pmf = geom_pmf_mp(p, kmax)
            for lam in pool.UPPER_LAMS:
                k0 = max(math.ceil(lam * spec.mu), spec.n)
                conv = 1 - mp.fsum(pmf[:k0])
                ref = mp.mpf(e["upper"][pool.lam_key(lam)][1])
                if abs(conv - ref) > mp.mpf(10) ** -20 * ref:
                    raise SystemExit(f"partial fractions vs convolution: seed {seed} lam {lam}")
    e["bounds"] = {pool.lam_key(lam): frozen_geom(spec, lam) for lam in pool.BOUND_LAMS}
    e["tl1"] = {
        pool.lam_key(lam): freeze(tb.lower_tail_tl1(spec, lam)) for lam in pool.LOWER_LAMS
    }
    return e


def geom_large(n: int, seed: int, with_mc: bool) -> dict:
    e, p = entry("geom", n, seed)
    spec = tb.make_geometric_spec(p)
    lams = pool.BIG_BOUND_LAMS + pool.SHALLOW_LAMS + pool.DEEP_LAMS
    e["x"] = thresholds(spec.mu, lams + tuple(pool.MC_LARGE.values()))
    e["bounds"] = {pool.lam_key(lam): frozen_geom(spec, lam) for lam in pool.BIG_BOUND_LAMS}
    if with_mc:
        up, lo = pool.MC_LARGE["upper"], pool.MC_LARGE["lower"]
        k_up = max(math.ceil(up * spec.mu), spec.n)
        k_lo = math.floor(lo * spec.mu)
        with mp.workdps(60):
            pmf = geom_pmf_mp(p, k_up)
            e["mc"] = {
                "upper": pack(1 - mp.fsum(pmf[:k_up])),
                "lower": pack(mp.fsum(pmf[: k_lo + 1])),
            }
    return e


def iid_entry(seed: int) -> dict:
    n = IID_SIZES[seed % len(IID_SIZES)]
    p = pool.draw_params("geom", 1, 10_000 + seed)[0]
    mu = n / p
    return {
        "kind": "iid",
        "n": n,
        "p": p,
        "x": thresholds(mu, IID_LAMS),
        "upper": {pool.lam_key(lam): pack(nbinom_tail(p, n, lam * mu)) for lam in IID_LAMS},
    }


def exp_entry(kind: str, n: int, seed: int, lams, lower_lams=(), bounds=False,
              mc=None) -> dict:
    e, a = entry(kind, n, seed)
    spec = tb.make_exponential_spec(a)
    all_lams = tuple(lams) + tuple(lower_lams) + (tuple(mc.values()) if mc else ())
    e["x"] = thresholds(spec.mu, all_lams)
    up_x = [lam * spec.mu for lam in lams] + ([mc["upper"] * spec.mu] if mc else [])
    lo_x = [lam * spec.mu for lam in lower_lams] + ([mc["lower"] * spec.mu] if mc else [])
    if kind == "erlang":
        ups = [erlang_upper(a[0], n, x) for x in up_x]
        los = [erlang_lower(a[0], n, x) for x in lo_x]
    else:
        def compute():
            surv = hypoexp_pf(a, up_x + lo_x)
            return surv[: len(up_x)] + [1 - s for s in surv[len(up_x):]]

        both = adaptive(compute, pf_start_dps(a))
        ups, los = both[: len(up_x)], both[len(up_x):]
    e["upper"] = {pool.lam_key(lam): pack(v) for lam, v in zip(lams, ups)}
    if lower_lams:
        e["lower"] = {pool.lam_key(lam): pack(v) for lam, v in zip(lower_lams, los)}
    if mc:
        e["mc"] = {"upper": pack(ups[-1]), "lower": pack(los[-1])}
    if bounds:
        e["bounds"] = {pool.lam_key(lam): frozen_exp(spec, lam) for lam in pool.BOUND_LAMS}
        e["texp-iii"] = {
            pool.lam_key(lam): freeze(tb.exp_lower_tail_iii(spec, lam))
            for lam in pool.LOWER_LAMS
        }
    return e


def main() -> None:
    c = COUNTS
    ref = {
        "meta": {
            "generator": "bench/gen_reference.py",
            "mpmath": mp.__version__,
            "agree_digits": AGREE_DIGITS,
            "frozen_from": "tailbounds " + tb.__version__,
            "counts": c,
        },
        "geom8": [geom_small(s, cross_check=s < 5) for s in range(c["geom8"])],
        "iid": [iid_entry(s) for s in range(c["iid"])],
        "geom1e3": [geom_large(1000, s, s < c["geom1e3_mc"]) for s in range(c["geom1e3"])],
        "geom1e4": [geom_large(10_000, s, False) for s in range(c["geom1e4"])],
        "exp8": (
            [exp_entry("exp", 8, s, pool.UPPER_LAMS, pool.LOWER_LAMS, bounds=True)
             for s in range(c["exp8"])]
            + [exp_entry("erlang", 8, s, pool.UPPER_LAMS, pool.LOWER_LAMS, bounds=True)
               for s in range(c["erlang8"])]
            + [exp_entry("clustered", 8, s, pool.UPPER_LAMS, pool.LOWER_LAMS, bounds=True)
               for s in range(c["clustered8"])]
        ),
        "exp100": (
            [exp_entry("exp", 100, s, pool.BIG_EXP_LAMS) for s in range(c["exp100"])]
            + [exp_entry("erlang", 100, s, pool.BIG_EXP_LAMS) for s in range(c["erlang100"])]
        ),
        "exp1e3": [
            exp_entry("exp", 1000, s, pool.BIG_EXP_LAMS, mc=pool.MC_LARGE)
            for s in range(c["exp1e3"])
        ],
    }
    os.makedirs(os.path.dirname(pool.REFERENCE_PATH), exist_ok=True)
    with open(pool.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(ref, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {pool.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
