"""Seeded Monte Carlo tail estimation with Wilson confidence intervals.

The generator is counter based: draw j of sample i reads position i*n + j of
a splitmix64 stream, so the estimate is a pure function of (seed, samples)
and identical under any chunking or parallel partitioning of the sample
indices. Uniforms are drawn from the open interval (0, 1).
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


@dataclass(frozen=True)
class McConfig:
    """Sample count, 64-bit seed, and interval confidence (default 99%)."""

    samples: int
    seed: int = 0
    confidence: float = 0.99

    def __post_init__(self) -> None:
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
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = _U64(seed) + idx * _GAMMA
    z ^= z >> _U64(30)
    z *= _MIX1
    z ^= z >> _U64(27)
    z *= _MIX2
    z ^= z >> _U64(31)
    return ((z >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53


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


def _sums_block(spec, seed: int, start: int, count: int) -> np.ndarray:
    n = spec.n
    u = uniform_block(seed, start * n, count * n).reshape(count, n)
    if isinstance(spec, GeometricSumSpec):
        draws = np.empty_like(u)
        for j, p in enumerate(spec.params):
            if p == 1.0:
                draws[:, j] = 1.0
            else:
                draws[:, j] = np.ceil(np.log(u[:, j]) / math.log1p(-p))
    else:
        draws = -np.log(u) / np.asarray(spec.rates)
    return draws.sum(axis=1)


def mc_tail(
    spec: GeometricSumSpec | ExponentialSumSpec,
    x: float,
    cfg: McConfig,
    side: str = "upper",
    chunk_size: int = 1 << 16,
) -> TailEstimate:
    """Fraction of draws with sum >= x (side="upper") or <= x (side="lower").

    error_bound is the Wilson half-width at cfg.confidence, measured from the
    empirical fraction. Output is bit-identical for fixed (seed, samples)
    whatever chunk_size is used.
    """
    if side not in ("upper", "lower"):
        raise OutOfRange(f"side must be 'upper' or 'lower', got {side!r}")
    hits = 0
    for start in range(0, cfg.samples, chunk_size):
        count = min(chunk_size, cfg.samples - start)
        sums = _sums_block(spec, cfg.seed, start, count)
        hits += int(np.count_nonzero(sums >= x if side == "upper" else sums <= x))
    phat = hits / cfg.samples
    lo, hi = wilson_interval(hits, cfg.samples, cfg.confidence)
    return TailEstimate(phat, max(hi - phat, phat - lo), OracleMethod.MONTE_CARLO)
