"""Seeded Monte Carlo tail estimation with Wilson confidence intervals.

The generator is counter based: draw j of sample i reads position i*n + j of
a splitmix64 stream, so the estimate is a pure function of (seed, samples)
and identical under any chunking or parallel partitioning of the sample
indices. Uniforms are drawn from the open interval (0, 1).

Samples are drawn in blocks of about BLOCK_DRAWS uniforms (one row of n when
n is larger), each generated, inverted and summed in place. Memory is
bounded by that block, whatever samples * n is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .exact_oracle import OracleMethod, TailEstimate
from .model import ExponentialSumSpec, GeometricSumSpec, OutOfRange

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64

# Uniforms per block: 512 KB of float64, which stays in cache through every
# pass. The fastest of 2^12..2^20 at n = 8 and n = 10^3 (2^15 and 2^17 are
# 5-25% slower, 2^20 about twice as slow).
BLOCK_DRAWS = 1 << 16


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise OutOfRange(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class McConfig:
    """Sample count, 64-bit seed, and interval confidence (default 99%)."""

    samples: int
    seed: int = 0
    confidence: float = 0.99

    def __post_init__(self) -> None:
        _require_int("samples", self.samples)
        _require_int("seed", self.seed)
        if self.samples < 1:
            raise OutOfRange(f"need samples >= 1, got {self.samples}")
        if not (0 <= self.seed < 2**64):
            raise OutOfRange(f"seed {self.seed} not a 64-bit unsigned integer")
        if not (0.0 < self.confidence < 1.0):
            raise OutOfRange(f"confidence {self.confidence} not in (0, 1)")


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms in (0, 1) at stream positions start..start+count-1.

    Stateless: position c maps to mix64(seed + (c+1)*gamma), the splitmix64
    output function on an affine counter, so any block can be regenerated
    independently of how earlier draws were grouped.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += _U64(seed)
    z ^= z >> _U64(30)
    z *= _MIX1
    z ^= z >> _U64(27)
    z *= _MIX2
    z ^= z >> _U64(31)
    z >>= _U64(11)
    u = z.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def wilson_interval(hits: int, samples: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for hits/samples at the given confidence."""
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = hits / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2.0 * samples)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / samples + z * z / (4.0 * samples * samples)
    )
    return max(0.0, center - half), min(1.0, center + half)


def _divisors(spec) -> np.ndarray:
    """d_j such that summand j is ln(U) / d_j, rounded up for a geometric spec.

    Geometric: ln(1 - p_j) from math.log1p (1 where p_j = 1; _sums_block sets
    those summands to 1). Exponential: -a_j.
    """
    if isinstance(spec, GeometricSumSpec):
        return np.array([1.0 if p == 1.0 else math.log1p(-p) for p in spec.params])
    return -np.asarray(spec.rates)


def _sums_block(spec, divisors: np.ndarray, seed: int, start: int, count: int) -> np.ndarray:
    """Sums of samples start..start+count-1, inverted in place on one block."""
    n = spec.n
    u = uniform_block(seed, start * n, count * n).reshape(count, n)
    np.log(u, out=u)
    u /= divisors
    if isinstance(spec, GeometricSumSpec):
        np.ceil(u, out=u)
        u[:, spec.param_array == 1.0] = 1.0
    return u.sum(axis=1)


def mc_tail(
    spec: GeometricSumSpec | ExponentialSumSpec,
    x: float,
    cfg: McConfig,
    side: str = "upper",
    chunk_size: int | None = None,
) -> TailEstimate:
    """Fraction of draws with sum >= x (side="upper") or <= x (side="lower").

    error_bound is the Wilson half-width at cfg.confidence, measured from the
    empirical fraction. Samples are drawn chunk_size at a time, by default
    max(1, BLOCK_DRAWS // n), so memory stays bounded by a fixed block of
    draws whatever samples * n is. Output is bit-identical for fixed
    (seed, samples) whatever chunk_size is used.
    """
    if side not in ("upper", "lower"):
        raise OutOfRange(f"side must be 'upper' or 'lower', got {side!r}")
    if math.isnan(x):
        raise OutOfRange("threshold x is NaN")
    if chunk_size is None:
        chunk_size = max(1, BLOCK_DRAWS // spec.n)
    _require_int("chunk_size", chunk_size)
    if chunk_size < 1:
        raise OutOfRange(f"need chunk_size >= 1, got {chunk_size}")
    divisors = _divisors(spec)
    hits = 0
    for start in range(0, cfg.samples, chunk_size):
        count = min(chunk_size, cfg.samples - start)
        sums = _sums_block(spec, divisors, cfg.seed, start, count)
        hits += int(np.count_nonzero(sums >= x if side == "upper" else sums <= x))
    phat = hits / cfg.samples
    lo, hi = wilson_interval(hits, cfg.samples, cfg.confidence)
    return TailEstimate(phat, max(hi - phat, phat - lo), OracleMethod.MONTE_CARLO)
