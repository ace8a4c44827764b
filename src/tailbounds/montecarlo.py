"""Seeded Monte Carlo tail estimation with Wilson confidence intervals.

The generator is counter based: draw j of sample i reads position i*n + j of
a splitmix64 stream (Steele, Lea & Flood 2014, "Fast splittable pseudorandom
number generators"), so the estimate is a pure function of (seed, samples)
and identical under any chunking or parallel partitioning of the sample
indices. Uniforms are drawn from the open interval (0, 1).

Samples are drawn in blocks of about BLOCK_DRAWS uniforms (one row of n when
n is larger), each generated, inverted and summed in place in one workspace
of buffers that mc_tail reuses for every block, so memory is bounded by a
few blocks whatever samples * n is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .exact_oracle import OracleMethod, TailEstimate
from .model import ExponentialSumSpec, GeometricSumSpec, OutOfRange, require_count

_GAMMA_INT = 0x9E3779B97F4A7C15
_GAMMA = np.uint64(_GAMMA_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64

# Uniforms per block: 512 KB of float64, which stays in cache through every
# pass. The fastest of 2^12..2^20 at n = 8 and n = 10^3 with a fresh block
# per pass (2^15 and 2^17 were 5-25% slower, 2^20 about twice as slow); with
# the reused workspace 2^15 is within noise of it and 2^14 5-12% slower.
BLOCK_DRAWS = 1 << 16

_MAX_U64 = 2**64 - 1


@dataclass(frozen=True)
class McConfig:
    """Sample count, 64-bit seed, and interval confidence (default 99%)."""

    samples: int
    seed: int = 0
    confidence: float = 0.99

    def __post_init__(self) -> None:
        require_count("samples", self.samples, 1, math.inf)
        require_count("seed", self.seed, 0, _MAX_U64)
        if not (0.0 < self.confidence < 1.0):
            raise OutOfRange(f"confidence {self.confidence} not in (0, 1)")


class _Workspace:
    """Buffers for blocks of up to draws uniforms, reused block after block.

    steps = (1..draws) * gamma mod 2^64 holds the counter offsets of a block;
    z and t are scratch.
    """

    def __init__(self, draws: int):
        self.steps = np.arange(1, draws + 1, dtype=np.uint64)
        self.steps *= _GAMMA
        self.z = np.empty_like(self.steps)
        self.t = np.empty_like(self.steps)

    def uniforms(self, seed: int, start: int, count: int) -> np.ndarray:
        """Uniforms at stream positions start..start+count-1, in t's float64
        view, which the next call overwrites."""
        z, t = self.z[:count], self.t[:count]
        offset = (int(start) * _GAMMA_INT + int(seed)) % 2**64
        np.add(self.steps[:count], _U64(offset), out=z)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, _U64(shift), out=t)
            z ^= t
            z *= mix
        np.right_shift(z, _U64(31), out=t)
        z ^= t
        z >>= _U64(11)
        u = t.view(np.float64)
        u[...] = z.view(np.int64)  # exact below 2^53, and faster than from uint64
        u += 0.5
        u *= 2.0**-53
        return u


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms in (0, 1) at stream positions start..start+count-1.

    Stateless: position c maps to mix64(seed + (c+1)*gamma), the splitmix64
    output function on an affine counter, so any block can be regenerated
    independently of how earlier draws were grouped. seed and start are
    64-bit unsigned integers; count is at most 2^22, as the workspace takes
    24 bytes a draw (about 100 MB at the cap).
    """
    require_count("seed", seed, 0, _MAX_U64)
    require_count("start", start, 0, _MAX_U64)
    require_count("count", count, 0, 1 << 22)
    return _Workspace(count).uniforms(seed, start, count)


def _two_sided_z(confidence: float) -> float:
    """z with P(|Z| <= z) = confidence for a standard normal Z.

    Taken from the lower quantile: 1 - confidence is exact for confidence >=
    0.5, where 0.5 + confidence / 2 rounds to 1 just below confidence 1.
    """
    return -NormalDist().inv_cdf((1.0 - confidence) / 2.0)


def _wilson_interval(hits: int, samples: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for hits/samples at the given confidence."""
    z = _two_sided_z(confidence)
    phat = hits / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2.0 * samples)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / samples + z * z / (4.0 * samples * samples)
    )
    return max(0.0, center - half), min(1.0, center + half)


def _inversion(spec, rows: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(d, ones): summand j of each of rows samples is ln(U) / d[:, j], rounded
    up for a geometric spec.

    Geometric: d_j = ln(1 - p_j) from math.log1p (1 where p_j = 1), and ones
    indexes the columns with p_j = 1, which _sums_block sets to 1.
    Exponential: d_j = -a_j, and ones is None (no rounding). d repeats the
    row rows times, so the divide runs as one flat loop instead of one short
    broadcast loop per row.
    """
    if isinstance(spec, GeometricSumSpec):
        row = [1.0 if p == 1.0 else math.log1p(-p) for p in spec.params]
        ones = np.flatnonzero(spec.param_array == 1.0)
    else:
        row, ones = [-a for a in spec.rates], None
    return np.tile(np.array(row), (rows, 1)), ones


def _sums_block(divisors: np.ndarray, ones: np.ndarray | None, work: _Workspace,
                seed: int, start: int, count: int) -> np.ndarray:
    """Sums of samples start..start+count-1 (count <= len(divisors)), inverted
    in place in work's buffers."""
    n = divisors.shape[1]
    u = work.uniforms(seed, start * n, count * n).reshape(count, n)
    np.log(u, out=u)
    u /= divisors[:count]
    if ones is not None:
        np.ceil(u, out=u)
        if len(ones):  # an empty fancy index still costs about 3 us a block
            u[:, ones] = 1.0
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
    empirical fraction. Samples are drawn in blocks of max(1, BLOCK_DRAWS // n),
    or chunk_size when that is smaller, all in one reused workspace, so
    memory stays bounded by a few blocks whatever samples * n is. Output is
    bit-identical for fixed (seed, samples) whatever chunk_size is used.
    """
    if side not in ("upper", "lower"):
        raise OutOfRange(f"side must be 'upper' or 'lower', got {side!r}")
    if math.isnan(x):
        raise OutOfRange("threshold x is NaN")
    rows = max(1, BLOCK_DRAWS // spec.n)
    if chunk_size is not None:
        require_count("chunk_size", chunk_size, 1, math.inf)
        rows = min(rows, int(chunk_size))
    divisors, ones = _inversion(spec, rows)
    work = _Workspace(rows * spec.n)
    hits = 0
    for start in range(0, cfg.samples, rows):
        sums = _sums_block(divisors, ones, work, cfg.seed, start,
                           min(rows, cfg.samples - start))
        hits += int(np.count_nonzero(sums >= x if side == "upper" else sums <= x))
    phat = hits / cfg.samples
    lo, hi = _wilson_interval(hits, cfg.samples, cfg.confidence)
    return TailEstimate(phat, max(hi - phat, phat - lo), OracleMethod.MONTE_CARLO)
