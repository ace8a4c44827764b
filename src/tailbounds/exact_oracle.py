"""Exact tail probabilities used as ground truth for every bound.

Geometric sums get an O(nK) iterated-convolution pmf, run as one
``scipy.signal.sosfilt`` cascade with a first-order section per summand in
ascending p (the order keeps intermediate values out of the slow subnormal
range), plus a closed-form negative-binomial cross-check for iid
parameters. A sum of independent geometrics has a log-concave pmf
(convolution preserves discrete log-concavity; Keilson and Gerber 1971), so
the ratio P(k+1)/P(k) never increases, and the last two values of a grid
bound the tail past it: the deep-tail sum certifies itself, without the
bounds that it is used to check. Exponential sums get the hypoexponential
survival function by partial fractions or, for clustered rates, a
scaling-and-squaring matrix exponential. Every estimate carries a rigorous
error bound (round-off scale, truncation remainder, or both).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geom_bounds import log_thm2
from .model import (
    ExponentialSumSpec,
    GeometricSumSpec,
    KTooSmall,
    NegativeX,
    OutOfRange,
)

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)

# 1 - CDF loses all significant digits below this; switch to summing the tail
# directly, certified by the log-concave truncation remainder.
_COMPLEMENT_FLOOR = 1e-9

# Pairwise relative rate gap below which partial fractions are abandoned for
# the matrix exponential (cancellation in the weights grows like 1/gap).
_RATE_GAP = 1e-6

# Largest pmf grid ever built, checked before it is allocated (cost is O(n*K)).
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

    run as one cascade of first-order sections (O(nK) in one C call): an
    impulse filtered through the section p z^-1 / (1 - (1-p) z^-1) of each
    summand. All coefficients are nonnegative, so no cancellation occurs.
    The sections run in ascending p, so the slowly decaying summands come
    first; the fast ones then act on a spread-out grid, and far fewer
    intermediate values fall to subnormals, which cost many times more per
    operation. The order also makes the grid independent of the order
    of ``spec.params``. scipy is imported here, on first use, so that
    importing the package stays cheap.
    """
    if not isinstance(K, numbers.Integral):
        raise OutOfRange(f"pmf support {K!r} is not an integer")
    _require_support(K)
    from scipy.signal import sosfilt

    p = np.sort(spec.param_array)
    sos = np.zeros((p.size, 6))
    sos[:, 1] = p
    sos[:, 3] = 1.0
    sos[:, 4] = p - 1.0
    impulse = np.zeros(K + 1)
    impulse[0] = 1.0
    return sosfilt(sos, impulse)


def _require_support(K: float) -> None:
    """Refuse a pmf grid past the support cap before anything is allocated."""
    if not K <= _MAX_SUPPORT:
        raise OutOfRange(f"pmf support {K} is past the cap {_MAX_SUPPORT}")


def geom_pmf_convolution(spec: GeometricSumSpec, K: int) -> np.ndarray:
    """Exact pmf P(X = k) for k = n..K (the support starts at n)."""
    if K < spec.n:
        raise KTooSmall(f"K={K} below minimum support n={spec.n}")
    return _pmf_grid(spec, K)[spec.n :]


def _log_tail_bound(spec: GeometricSumSpec, k: int) -> float:
    """Theorem 2's log bound on P(X >= k); 0 below the mean, where it does not apply."""
    lam = k / spec.mu
    return log_thm2(spec, lam) if lam >= 1.0 else 0.0


def _roundoff(n: int, K: int) -> tuple[float, float]:
    """Round-off of each entry of a pmf grid up to K, as (relative, absolute).

    eps (2K + n) relative, plus one smallest subnormal for each of the
    n (K + 1) filter steps: where the pmf underflows, the cascade rounds to
    subnormals or to 0 instead of to a relatively close value.
    """
    return _EPS * (2.0 * K + n), n * (K + 1) * _TINY


def _first_extension(spec: GeometricSumSpec, k0: int, rel_tol: float) -> int:
    """A first guess at how far past k0 the tail grid must reach: ln(2/rel_tol)/t.

    t = (1 - 1/lam) p_min at lam = k0/mu is Theorem 1's tilt, the lower end
    of the optimal Chernoff tilt's bracket, so the tail decays at least about
    as fast as e^(-t k) past k0. Only a size guess: the certificate decides.
    """
    t = (1.0 - spec.mu / k0) * spec.p_min
    extension = math.log(2.0 / rel_tol) / t if t > 0.0 else k0
    return math.ceil(min(extension, _MAX_SUPPORT))


def _log_concave_remainder(grid: np.ndarray, rel: float, floor: float) -> float:
    """A bound on P(X > K) from a pmf grid up to K, or inf if it gives none.

    The pmf is log-concave, so P(k+1)/P(k) never increases past any k:
    with rho = P(j)/P(j-1) < 1, P(X > K) <= P(j) rho^(K+1-j) / (1 - rho).
    Both values are widened by the grid's round-off, ``rel`` relative and
    ``floor`` absolute (see ``_roundoff``). The pair is the last one,
    j <= K, whose value at j - 1 is large enough that its absolute
    round-off is no more than its relative one; where the tail underflows
    (or is exactly 0, as for p = [1, 1]) that pair lies below K and the
    power carries the bound the rest of the way.
    """
    K = grid.size - 1
    i = K - 1
    if not float(grid[i]) * rel >= floor:
        above = np.flatnonzero(grid[:K] * rel >= floor)
        if above.size == 0:
            return math.inf
        i = int(above[-1])
    low = float(grid[i]) * (1.0 - rel) - floor
    high = float(grid[i + 1]) * (1.0 + rel) + floor
    rho = high / low
    if not rho < 1.0:
        return math.inf
    return high * rho ** (K - i) / (1.0 - rho)


def geom_tail_exact(
    spec: GeometricSumSpec, x: float, rel_tol: float = 1e-9
) -> TailEstimate:
    """P(X >= x), exact up to round-off and a certified truncation remainder.

    Since X is integer valued, P(X >= x) = P(X >= k0) with k0 = max(ceil(x), n).
    Unless Theorem 2 already puts the tail below half of 1e-9, the pmf up to
    k0 - 1 is summed and the complement 1 - CDF returned when it is above
    1e-9; Theorem 2 only picks this route. Otherwise the tail is summed
    upward from k0 on a grid up to K = k0 + ln(2/rel_tol)/t (Theorem 1's
    tilt t), and the log-concave remainder past K must fall under rel_tol
    times the partial sum. Where it does not, the extension past k0 doubles
    and the grid is rebuilt; the grid never passes the support cap, and the
    one clamped at the cap is tried once.
    """
    if not (0.0 < rel_tol <= 0.1):
        raise OutOfRange(f"rel_tol {rel_tol} not in (0, 0.1]")
    _require_support(x)
    if x <= spec.n:
        return TailEstimate(1.0, 0.0, OracleMethod.CONVOLUTION)
    k0 = math.ceil(x)

    if _log_tail_bound(spec, k0) > math.log(0.5 * _COMPLEMENT_FLOOR):
        complement = 1.0 - float(np.sum(_pmf_grid(spec, k0 - 1)[spec.n :]))
        if complement > _COMPLEMENT_FLOOR:
            roundoff = _EPS * (2.0 * k0 + spec.n)
            return TailEstimate(min(complement, 1.0), roundoff, OracleMethod.CONVOLUTION)

    extension = _first_extension(spec, k0, rel_tol)
    while True:
        K = min(k0 + extension, _MAX_SUPPORT)
        grid = _pmf_grid(spec, K)
        rel, floor = _roundoff(spec.n, K)
        partial = float(np.sum(grid[k0:]))
        remainder = _log_concave_remainder(grid, rel, floor)
        if remainder <= rel_tol * partial:
            break
        if K == _MAX_SUPPORT:
            raise OutOfRange(
                f"tail from {k0} is not certified by a grid of {K} (support cap "
                f"{_MAX_SUPPORT}): remainder {remainder} against partial sum {partial}"
            )
        extension *= 2
    error = remainder + rel * partial + (K + 1 - k0) * floor
    return TailEstimate(min(partial, 1.0), error, OracleMethod.CONVOLUTION)


def geom_lower_tail_exact(spec: GeometricSumSpec, x: float) -> TailEstimate:
    """P(X <= x) as a direct partial sum of the pmf (no cancellation).

    The terms are nonnegative, so the certificate is relative: the grid's
    round-off, eps (2 k1 + n) times the value, plus its absolute subnormal
    term once for each summed entry.
    """
    _require_support(x)
    if x < spec.n:
        return TailEstimate(0.0, 0.0, OracleMethod.CONVOLUTION)
    k1 = math.floor(x)
    pmf = _pmf_grid(spec, k1)
    value = float(np.sum(pmf[spec.n :]))
    rel, floor = _roundoff(spec.n, k1)
    error = rel * value + (k1 + 1 - spec.n) * floor
    return TailEstimate(min(value, 1.0), error, OracleMethod.CONVOLUTION)


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
    rates = tuple(map(float, rates))  # numpy scalars would warn on overflow
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


def _rates_separated(rates: tuple[float, ...]) -> bool:
    """Whether every two rates are more than _RATE_GAP apart, relative to the larger.

    Sorted neighbours decide it: for a <= c <= b, b - a >= b - c, so the
    closest pair to any b is its lower neighbour. O(n log n) instead of O(n^2).
    """
    s = sorted(rates)
    return all(b - a > _RATE_GAP * b for a, b in zip(s, s[1:]))


def hypoexp_survival(spec: ExponentialSumSpec, x: float) -> TailEstimate:
    """P(X > x) for a sum of independent exponentials.

    Partial fractions when all pairwise rate gaps exceed 1e-6 relative;
    otherwise the matrix-exponential route (Erlang and near-Erlang cases).
    """
    if not x >= 0.0:
        raise NegativeX(f"need x >= 0, got {x}")
    rates = spec.rates
    if _rates_separated(rates):
        method = OracleMethod.PARTIAL_FRACTIONS
        value, error = partial_fractions_survival(rates, x)
    else:
        method = OracleMethod.MATRIX_EXP
        value, error = matrix_exp_survival(rates, x)
    if x == 0.0:
        return TailEstimate(1.0, 0.0, method)
    return TailEstimate(value, error, method)
