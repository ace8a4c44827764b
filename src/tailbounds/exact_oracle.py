"""Exact tail probabilities used as ground truth for every bound.

Geometric sums get an O(nK) iterated-convolution pmf plus a closed-form
negative-binomial cross-check for iid parameters; exponential sums get the
hypoexponential survival function by partial fractions or, for clustered
rates, a scaling-and-squaring matrix exponential. Every estimate carries a
rigorous error bound (round-off scale, truncation remainder, or both).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geom_bounds import upper_tail_thm2
from .model import (
    ExponentialSumSpec,
    GeometricSumSpec,
    KTooSmall,
    NegativeX,
    OutOfRange,
)

_EPS = float(np.finfo(np.float64).eps)

# 1 - CDF loses all significant digits below this; switch to summing the tail
# directly, certified by the analytic truncation remainder.
_COMPLEMENT_FLOOR = 1e-9

# Pairwise relative rate gap below which partial fractions are abandoned for
# the matrix exponential (cancellation in the weights grows like 1/gap).
_RATE_GAP = 1e-6

# Grow the pmf grid at most this far before giving up (cost is O(n*K)).
_MAX_SUPPORT = 10_000_000


class OracleMethod(str, enum.Enum):
    CONVOLUTION = "convolution"
    PARTIAL_FRACTIONS = "partial-fractions"
    MATRIX_EXP = "matrix-exp"
    CLOSED_FORM = "closed-form"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class TailEstimate:
    """A tail probability with a bound on how far it can sit from the truth.

    ``error_bound`` is rigorous for the exact oracles (round-off plus any
    truncation remainder) and a confidence half-width for Monte Carlo.
    """

    value: float
    error_bound: float
    method: OracleMethod

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise OutOfRange(f"tail estimate {self.value} not in [0, 1]")
        if not self.error_bound >= 0.0:
            raise OutOfRange(f"error bound {self.error_bound} negative")


def _pmf_grid(spec: GeometricSumSpec, K: int) -> np.ndarray:
    """P(X = k) for k = 0..K via the per-summand recursion

        c_i(k) = (1-p_i) c_i(k-1) + p_i c_{i-1}(k-1),

    run as a first-order linear filter per summand (O(K) each, O(nK) total).
    All coefficients are nonnegative, so no cancellation occurs. scipy is
    imported here, on first use, so that importing the package stays cheap.
    """
    from scipy.signal import lfilter

    c = np.zeros(K + 1)
    c[0] = 1.0
    for p in spec.params:
        shifted = np.concatenate(([0.0], c[:-1]))
        c = lfilter([p], [1.0, -(1.0 - p)], shifted)
    return c


def _require_support(K: float) -> None:
    """Refuse a pmf grid past the support cap before anything is allocated."""
    if not K <= _MAX_SUPPORT:
        raise OutOfRange(f"pmf support {K} is past the cap {_MAX_SUPPORT}")


def geom_pmf_convolution(spec: GeometricSumSpec, K: int) -> np.ndarray:
    """Exact pmf P(X = k) for k = n..K (the support starts at n)."""
    if K < spec.n:
        raise KTooSmall(f"K={K} below minimum support n={spec.n}")
    return _pmf_grid(spec, K)[spec.n :]


def _truncation_remainder(spec: GeometricSumSpec, K: int) -> float:
    """Analytic bound on P(X >= K+1), valid once K+1 >= mu."""
    lam = (K + 1) / spec.mu
    if lam < 1.0:
        return 1.0
    return upper_tail_thm2(spec, lam).value


def geom_tail_exact(
    spec: GeometricSumSpec, x: float, rel_tol: float = 1e-9
) -> TailEstimate:
    """P(X >= x), exact up to round-off and a certified truncation remainder.

    Since X is integer valued, P(X >= x) = P(X >= max(ceil(x), n)). When the
    complement 1 - CDF is above 1e-9 it is returned directly; below that the
    tail is summed upward from ceil(x), extending the grid until the analytic
    remainder falls under rel_tol times the partial sum; a grid at the support
    cap is the last one tried.
    """
    if not (0.0 < rel_tol <= 0.1):
        raise OutOfRange(f"rel_tol {rel_tol} not in (0, 0.1]")
    _require_support(x)
    if x <= spec.n:
        return TailEstimate(1.0, 0.0, OracleMethod.CONVOLUTION)
    k0 = math.ceil(x)

    pmf = _pmf_grid(spec, k0 - 1)
    head = float(np.sum(pmf[spec.n :]))
    roundoff = _EPS * (2.0 * k0 + spec.n)
    complement = 1.0 - head
    if complement > _COMPLEMENT_FLOOR:
        return TailEstimate(min(complement, 1.0), roundoff, OracleMethod.CONVOLUTION)

    K = k0
    while True:
        K = min(max(2 * K, k0 + 16), _MAX_SUPPORT)
        grid = _pmf_grid(spec, K)
        partial = float(np.sum(grid[k0:]))
        remainder = _truncation_remainder(spec, K)
        if (K + 1) >= spec.mu and remainder <= rel_tol * partial:
            break
        if K == _MAX_SUPPORT:
            raise OutOfRange(
                f"tail from {k0} is not certified within the support cap "
                f"{_MAX_SUPPORT}: remainder {remainder} against partial sum {partial}"
            )
    error = remainder + _EPS * (2.0 * K + spec.n) * max(partial, 1e-300)
    return TailEstimate(min(partial, 1.0), error, OracleMethod.CONVOLUTION)


def geom_lower_tail_exact(spec: GeometricSumSpec, x: float) -> TailEstimate:
    """P(X <= x) as a direct partial sum of the pmf (no cancellation)."""
    _require_support(x)
    if x < spec.n:
        return TailEstimate(0.0, 0.0, OracleMethod.CONVOLUTION)
    k1 = math.floor(x)
    pmf = _pmf_grid(spec, k1)
    value = float(np.sum(pmf[spec.n :]))
    roundoff = _EPS * (2.0 * k1 + spec.n)
    return TailEstimate(min(value, 1.0), roundoff, OracleMethod.CONVOLUTION)


def iid_geom_tail(p: float, n: int, x: float) -> TailEstimate:
    """Closed-form P(X >= x) for n iid geometric summands (negative binomial).

    Uses the finite identity P(X >= m) = P(Binomial(m-1, p) <= n-1), an
    n-term sum evaluated with log-gamma coefficients, so it terminates
    exactly and stays independent of the convolution route.
    """
    if not (0.0 < p <= 1.0):
        raise OutOfRange(f"success probability {p} not in (0, 1]")
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    m = max(math.ceil(x), n)
    if m <= n:
        return TailEstimate(1.0, 0.0, OracleMethod.CLOSED_FORM)
    if p == 1.0:
        return TailEstimate(0.0, 0.0, OracleMethod.CLOSED_FORM)
    log_p = math.log(p)
    log_q = math.log1p(-p)
    parts = [
        (math.lgamma(m), -math.lgamma(j + 1), -math.lgamma(m - j),
         j * log_p, (m - 1 - j) * log_q)
        for j in range(n)
    ]
    log_terms = [math.fsum(part) for part in parts]
    top = max(log_terms)
    value = min(math.exp(top) * math.fsum(math.exp(lt - top) for lt in log_terms), 1.0)
    # each log term is rounded on the scale of its parts, and exp turns that
    # absolute error into a relative error of its term
    exponent = math.fsum(
        math.exp(lt) * math.fsum(abs(v) for v in part)
        for lt, part in zip(log_terms, parts)
    )
    error = _EPS * ((n + 2) * max(value, 1e-300) + exponent)
    return TailEstimate(value, error, OracleMethod.CLOSED_FORM)


def _pf_weights(rates: tuple[float, ...]) -> list[float]:
    weights = []
    for i, ai in enumerate(rates):
        w = 1.0
        for j, aj in enumerate(rates):
            if j != i:
                w *= aj / (aj - ai)
        weights.append(w)
    return weights


def partial_fractions_survival(rates: tuple[float, ...], x: float) -> tuple[float, float]:
    """Hypoexponential P(X > x) = sum_i (prod_{j!=i} a_j/(a_j-a_i)) e^(-a_i x).

    Requires pairwise-distinct rates. Returns (value, error bound); the error
    scales with the total weight magnitude, which measures the cancellation.
    """
    weights = _pf_weights(rates)
    overflowed = [i for i, w in enumerate(weights) if not math.isfinite(w)]
    if overflowed:
        raise OutOfRange(
            f"partial-fraction weights overflow: {len(overflowed)} of {len(rates)} "
            f"are not finite, first at index {overflowed[0]} "
            f"(rate {rates[overflowed[0]]!r})"
        )
    terms = [w * math.exp(-a * x) for w, a in zip(weights, rates)]
    value = math.fsum(terms)
    # n + 2 rounding units per term, plus the relative error eps |a x| that
    # the rounded exponent -a x carries into its term
    units = len(rates) + 2
    error = _EPS * max(
        math.fsum(abs(t) * (units + a * x) for t, a in zip(terms, rates)), 1.0e-300
    )
    return min(max(value, 0.0), 1.0), error


def matrix_exp_survival(rates: tuple[float, ...], x: float) -> tuple[float, float]:
    """Hypoexponential P(X > x) via the chain generator's matrix exponential.

    The transient generator is upper bidiagonal (diagonal -a_i, superdiagonal
    a_i); survival is the first-row sum of exp(Q x). Scaling and squaring with
    a degree-13 Taylor polynomial, scaled so the norm is at most 1/2. All
    intermediate exponentials are substochastic, so squaring does not amplify
    errors beyond one round-off unit per squaring.
    """
    n = len(rates)
    Q = np.zeros((n, n))
    for i, a in enumerate(rates):
        Q[i, i] = -a * x
        if i + 1 < n:
            Q[i, i + 1] = a * x
    norm = float(np.abs(Q).sum(axis=1).max())
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    B = Q / float(2**s)
    T = np.eye(n)
    acc = np.eye(n)
    for k in range(1, 14):
        acc = acc @ B / k
        T = T + acc
    for _ in range(s):
        T = T @ T
    value = float(np.clip(T[0].sum(), 0.0, 1.0))
    trunc = (0.5**14 / math.factorial(14)) * 2.0
    error = (s + 14) * n * _EPS + trunc * (s + 1)
    return value, error


def hypoexp_survival(spec: ExponentialSumSpec, x: float) -> TailEstimate:
    """P(X > x) for a sum of independent exponentials.

    Partial fractions when all pairwise rate gaps exceed 1e-6 relative;
    otherwise the matrix-exponential route (Erlang and near-Erlang cases).
    """
    if not x >= 0.0:
        raise NegativeX(f"need x >= 0, got {x}")
    rates = spec.rates
    separated = all(
        abs(ai - aj) > _RATE_GAP * max(ai, aj)
        for i, ai in enumerate(rates)
        for aj in rates[i + 1 :]
    )
    if separated:
        method = OracleMethod.PARTIAL_FRACTIONS
        value, error = partial_fractions_survival(rates, x)
    else:
        method = OracleMethod.MATRIX_EXP
        value, error = matrix_exp_survival(rates, x)
    if x == 0.0:
        return TailEstimate(1.0, 0.0, method)
    return TailEstimate(value, error, method)
