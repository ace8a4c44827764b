"""The fixed input pool that the benchmark draws from and the reference covers.

Every spec in the pool is named by (kind, n, seed) and regenerated with
Python's own ``random.Random``, whose stream is stable across versions, so
the committed reference file only stores seeds, a checksum per spec, and the
reference values. The benchmark's ``--seed`` picks and orders specs from the
pool; it never creates a spec the reference does not cover.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "data", "reference.json")

# Threshold ratios. Bounds run on BOUND_LAMS, oracles on ORACLE_LAMS; the
# reference covers their union (UPPER_LAMS) and the lower-tail LOWER_LAMS.
# The typical workload takes the ratios up to 3, the deep workload the rest.
BOUND_LAMS = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0)
ORACLE_LAMS = (1.0, 1.5, 3.0, 5.0, 10.0, 20.0)
UPPER_LAMS = tuple(sorted(set(BOUND_LAMS) | set(ORACLE_LAMS)))
LOWER_LAMS = (0.5, 0.8, 1.0)
BIG_BOUND_LAMS = (1.5, 3.0, 5.0, 10.0)  # bounds at n = 10^3 and 10^4
SHALLOW_LAMS = (1.0, 1.1)  # geom_tail_exact at n = 10^3, 1 - CDF route
DEEP_LAMS = (2.0, 3.0)  # geom_tail_exact at n = 10^3, tail-sum route
BIG_EXP_LAMS = (1.5, 3.0)  # hypoexp_survival at n = 10^2 and 10^3
MC_SMALL = {"upper": 1.5, "lower": 0.8}  # mc_tail at n = 8
MC_LARGE = {"upper": 1.03, "lower": 0.97}  # mc_tail at n = 10^3

# Relative gap kept between distinct rates, so that hypoexp_survival takes
# its partial-fractions route (it switches below 1e-6).
_DISTINCT_GAP = 1e-5
# Relative jitter inside a rate cluster, so the matrix-exponential route runs.
_CLUSTER_JITTER = 1e-8


def draw_params(kind: str, n: int, seed: int) -> tuple[float, ...]:
    """The parameters of pool spec (kind, n, seed).

    geom: p ~ U(0.05, 1). exp: distinct rates ~ U(0.1, 10) with a relative
    gap of at least 1e-5. erlang: one rate ~ U(0.1, 10), repeated n times.
    clustered: n/2 rates ~ U(0.1, 10), each paired with a copy jittered by
    at most 1e-8 relative.
    """
    rng = random.Random(f"{kind}/{n}/{seed}")
    if kind == "geom":
        return tuple(rng.uniform(0.05, 1.0) for _ in range(n))
    if kind == "erlang":
        return (rng.uniform(0.1, 10.0),) * n
    if kind == "clustered":
        out = []
        for _ in range(n // 2):
            a = rng.uniform(0.1, 10.0)
            out += [a, a * (1.0 + _CLUSTER_JITTER * rng.uniform(0.1, 1.0))]
        return tuple(out)
    if kind == "exp":
        out: list[float] = []
        ordered: list[float] = []
        while len(out) < n:
            a = rng.uniform(0.1, 10.0)
            # the gap test is monotone in b on each side, so only the
            # nearest neighbours in sorted order can fail it
            i = bisect.bisect(ordered, a)
            near = ordered[max(i - 1, 0) : i + 1]
            if all(abs(a - b) > _DISTINCT_GAP * max(a, b) for b in near):
                out.append(a)
                ordered.insert(i, a)
        return tuple(out)
    raise ValueError(f"unknown spec kind {kind!r}")


def checksum(params: tuple[float, ...]) -> float:
    return math.fsum(params)


def lam_key(lam: float) -> str:
    return repr(float(lam))


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def spec_params(entry: dict) -> tuple[float, ...]:
    """Regenerate an entry's parameters and confirm they match the reference."""
    params = draw_params(entry["kind"], entry["n"], entry["seed"])
    if checksum(params) != entry["sum"]:
        raise RuntimeError(
            f"pool spec {entry['kind']}/{entry['n']}/{entry['seed']} does not "
            "regenerate: the reference file and pool.py disagree"
        )
    return params


def tail_value(ref: list) -> tuple[float, float]:
    """(log value, value) from a stored [log, "decimal"] reference pair."""
    return float(ref[0]), float(ref[1])
