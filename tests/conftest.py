"""Shared helpers: seeded random specs, slow independent oracles, scalar samplers."""

from __future__ import annotations

import math

import numpy as np

from tailbounds import (
    DomainError,
    OutOfRange,
    make_exponential_spec,
    make_geometric_spec,
    uniform_block,
)
from tailbounds.model import pgf_pole_gap


def random_geom_specs(seed: int, count: int, n_max: int = 8, p_lo: float = 0.05):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        specs.append(make_geometric_spec(list(rng.uniform(p_lo, 1.0, n))))
    return specs


def random_exp_specs(seed: int, count: int, n_max: int = 6):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        specs.append(make_exponential_spec(list(rng.uniform(0.1, 10.0, n))))
    return specs


def brute_force_pmf(params, K: int) -> dict[int, float]:
    """O(n K^2) dict-based convolution, independent of the production path."""
    dist = {0: 1.0}
    for p in params:
        new: dict[int, float] = {}
        for k0, pr0 in dist.items():
            for k in range(1, K - k0 + 1):
                new[k0 + k] = new.get(k0 + k, 0.0) + pr0 * p * (1.0 - p) ** (k - 1)
        dist = new
    return dist


def brute_force_tail(params, x: float, K: int) -> float:
    """P(X >= x) by brute-force convolution, valid when P(X > K) is negligible."""
    pmf = brute_force_pmf(params, K)
    k0 = max(math.ceil(x), len(params))
    return sum(pr for k, pr in pmf.items() if k >= k0)


def pgf_geometric(spec, z: float) -> float:
    """Probability generating function E z^X = prod_i p_i z / (1 - (1-p_i) z).

    Valid for z >= 0 with z (1-p_i) < 1 for every i; the pole nearest the
    origin comes from p_min, so degenerate specs (p_min = 1) accept any z >= 0.
    """
    if not z >= 0.0:
        raise DomainError(f"pgf needs z >= 0, got {z}")
    if pgf_pole_gap(spec.p_min, z) <= 0.0:
        raise DomainError(f"z={z} is at or beyond the pgf pole for p_min={spec.p_min}")
    out = 1.0
    for p in spec.params:
        out *= p * z / pgf_pole_gap(p, z)
    return out


def mgf_exponential(spec, t: float) -> float:
    """Moment generating function E e^(tX) = prod_i a_i / (a_i - t), for t < a_min."""
    if not t < spec.a_min:
        raise DomainError(f"mgf needs t < a_min={spec.a_min}, got t={t}")
    out = 1.0
    for a in spec.rates:
        out *= a / (a - t)
    return out


class SplitMix64Stream:
    """Sequential reader over the Monte Carlo counter stream (one uniform per call)."""

    def __init__(self, seed: int, position: int = 0):
        if not (0 <= seed < 2**64):
            raise OutOfRange(f"seed {seed} not a 64-bit unsigned integer")
        self.seed = seed
        self.position = position

    def uniform(self) -> float:
        u = float(uniform_block(self.seed, self.position, 1)[0])
        self.position += 1
        return u


def sample_geometric_sum(spec, rng: SplitMix64Stream) -> int:
    """One draw of the sum, by inversion: X_i = ceil(ln U / ln(1-p_i)).

    Consumes exactly one uniform per summand (degenerate p_i = 1 included,
    so sequential and vectorized paths stay position-aligned).
    """
    total = 0
    for p in spec.params:
        u = rng.uniform()
        if p == 1.0:
            total += 1
        else:
            total += math.ceil(math.log(u) / math.log1p(-p))
    return total


def sample_exponential_sum(spec, rng: SplitMix64Stream) -> float:
    """One draw of the sum: sum of -ln(U_i)/a_i."""
    return math.fsum(-math.log(rng.uniform()) / a for a in spec.rates)
