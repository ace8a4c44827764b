"""Seeded Monte Carlo tail estimation with Wilson confidence intervals.

Uniforms come from numpy's PCG64DXSM generator (O'Neill 2014, "PCG: A family
of simple fast space-efficient statistically good algorithms for random
number generation"), seeded with the 64-bit seed. Draw j of sample i is the
uniform at stream position i*n + j, which PCG64DXSM.advance reaches directly,
so the estimate is a pure function of (seed, samples) and identical under
any chunking of the sample indices. Uniforms are drawn from the open
interval (0, 1).

Samples are drawn in blocks of about BLOCK_DRAWS uniforms (one row of n when
n is larger), each generated and inverted in place in one buffer that mc_tail
reuses for every block, so memory is bounded by a few blocks whatever
samples * n is. Each block's rows are then summed: for n < 16 by whole-column
adds through model.pairwise_sum, bit-identical to u.sum(axis=1) at a fraction
of its cost; from n = 16 by u.sum(axis=1) itself.

numpy, and statistics for the interval's normal quantile, are imported by
the functions that use them, so importing the package loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .exact_oracle import OracleMethod, TailEstimate
from .model import (
    ExponentialSumSpec,
    GeometricSumSpec,
    OutOfRange,
    as_double,
    pairwise_sum,
    require_count,
    require_side,
)

if TYPE_CHECKING:
    import numpy as np

# Uniforms per block: 512 KB of float64, which stays in cache through every
# pass. The fastest of 2^12..2^20 at n = 8 and n = 10^3 with a fresh block
# per pass (2^15 and 2^17 were 5-25% slower, 2^20 about twice as slow); with
# reused buffers 2^15 is within noise of it and 2^14 5-12% slower.
BLOCK_DRAWS = 1 << 16

# The largest seed and stream position: the generator takes 64-bit values.
MAX_U64 = 2**64 - 1

# Largest n whose rows _row_sums adds column by column (see there).
_COLUMN_ADD_MAX_N = 22


@dataclass(frozen=True)
class McConfig:
    """Sample count, 64-bit seed, and interval confidence (default 99%)."""

    samples: int
    seed: int = 0
    confidence: float = 0.99

    def __post_init__(self) -> None:
        require_count("samples", self.samples, 1, math.inf)
        require_count("seed", self.seed, 0, MAX_U64)
        if not 0.0 < as_double(self.confidence) < 1.0:
            raise OutOfRange(f"confidence {self.confidence!r} not in (0, 1)")


def _uniforms(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out with gen's next uniforms, mapped into (0, 1), and return it.

    random() gives k * 2^-53 with 0 <= k < 2^53; raising k = 0 to 2^-54
    leaves every value in [2^-54, 1 - 2^-53] with no rounding. (Adding 2^-54
    instead would round k = 2^53 - 1 up to 1.)
    """
    import numpy as np

    gen.random(out=out)
    return np.maximum(out, 2.0**-54, out=out)


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms in (0, 1) at stream positions start..start+count-1.

    Stateless: the generator seeded with seed is advanced to position start,
    so any block can be regenerated independently of how earlier draws were
    grouped, and it matches what mc_tail draws there. seed and start are
    64-bit unsigned integers; count is at most 2^22 (8 bytes a draw, 32 MB
    at the cap).
    """
    require_count("seed", seed, 0, MAX_U64)
    require_count("start", start, 0, MAX_U64)
    require_count("count", count, 0, 1 << 22)
    import numpy as np

    gen = np.random.Generator(np.random.PCG64DXSM(seed).advance(int(start)))
    return _uniforms(gen, np.empty(count))


def _two_sided_z(confidence: float) -> float:
    """z with P(|Z| <= z) = confidence for a standard normal Z.

    Taken from the lower quantile: 1 - confidence is exact for confidence >=
    0.5, where 0.5 + confidence / 2 rounds to 1 just below confidence 1.
    """
    from statistics import NormalDist

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


def _inversion(spec, rows: int) -> tuple[np.ndarray, bool]:
    """(d, geometric): summand j of each of rows samples is ln(U) / d[:, j],
    floored and plus 1 for a geometric spec, which is exactly Ge(p_j).

    Geometric: d_j = ln(1 - p_j) from math.log1p, and -inf where p_j = 1, so
    that the ratio is +0 and the draw 1. Exponential: d_j = -a_j. d repeats
    the row rows times, so the divide runs as one flat loop instead of one
    short broadcast loop per row.
    """
    import numpy as np

    geometric = isinstance(spec, GeometricSumSpec)
    row = ([-math.inf if p == 1.0 else math.log1p(-p) for p in spec.params]
           if geometric else [-a for a in spec.rates])
    return np.tile(np.array(row), (rows, 1)), geometric


def _row_sums(u: np.ndarray) -> np.ndarray:
    """u.sum(axis=1) for a 2-D float64 array, bit for bit, cheaper for short rows.

    numpy reduces each row on its own, with a fixed cost per row that
    dominates when a row holds only a few values. Up to
    ``_COLUMN_ADD_MAX_N`` = 22, pairwise_sum makes numpy's adds on whole
    strided columns instead, one numpy call each, so every sum rounds
    exactly as numpy's does; above it u.sum(axis=1) is kept. Measured per
    block of BLOCK_DRAWS // n rows, pinned to one CPU of a 2-vCPU Xeon host
    (Python 3.11, numpy 2.4), column adds against u.sum(axis=1), medians of
    5 rounds: 67 against 108 us at n = 16, 72 against 105 us at n = 20 and
    70 against 102 us at n = 22, where column adds won every round; 95
    against 94 us at n = 24 and 76 against 72 us at n = 28, where they won
    some rounds and lost others; 106 against 60 us at n = 32. At n = 8 they
    took 70 against 224 us, and at n = 1000 912 against 21 us.
    """
    n = u.shape[1]
    if n > _COLUMN_ADD_MAX_N:
        return u.sum(axis=1)
    return pairwise_sum([u[:, j] for j in range(n)])


def _sums_block(divisors: np.ndarray, geometric: bool,
                gen: np.random.Generator, buf: np.ndarray, count: int) -> np.ndarray:
    """Sums of gen's next count samples (count <= len(divisors)), inverted in
    place in buf and added up by ``_row_sums``, bit-identical to
    .sum(axis=1); a geometric row sums its floors and adds n."""
    import numpy as np

    n = divisors.shape[1]
    u = _uniforms(gen, buf[:count * n]).reshape(count, n)
    np.log(u, out=u)
    u /= divisors[:count]
    if geometric:
        return _row_sums(np.floor(u, out=u)) + n
    return _row_sums(u)


def mc_tail(spec: GeometricSumSpec | ExponentialSumSpec, x: float, cfg: McConfig,
            side: str = "upper") -> TailEstimate:
    """Fraction of draws with sum >= x (side="upper") or <= x (side="lower").

    error_bound is the Wilson half-width at cfg.confidence, measured from the
    empirical fraction. Samples are drawn in blocks of max(1, BLOCK_DRAWS // n)
    in one reused buffer, so memory stays bounded by a few blocks whatever
    samples * n is; the blocks take the stream in order, so the estimate does
    not depend on their size. x is any number but NaN; one past the double
    range (such as the int 10**400) counts as +-inf: at +inf the upper tail
    is 0 and the lower tail 1.
    """
    require_side(side)
    given, x = x, as_double(x)
    if math.isnan(x):
        raise OutOfRange(f"threshold x is not a number, got {given!r}")
    import numpy as np

    rows = max(1, BLOCK_DRAWS // spec.n)
    divisors, geometric = _inversion(spec, rows)
    gen = np.random.Generator(np.random.PCG64DXSM(cfg.seed))
    buf = np.empty(rows * spec.n)
    hits = 0
    for start in range(0, cfg.samples, rows):
        sums = _sums_block(divisors, geometric, gen, buf, min(rows, cfg.samples - start))
        hits += int(np.count_nonzero(sums >= x if side == "upper" else sums <= x))
    phat = hits / cfg.samples
    lo, hi = _wilson_interval(hits, cfg.samples, cfg.confidence)
    return TailEstimate(phat, max(hi - phat, phat - lo), OracleMethod.MONTE_CARLO)
