"""Exact tail probabilities used as ground truth for every bound.

Geometric sums get an O(nK) iterated-convolution pmf, run as one
``scipy.signal.sosfilt`` cascade with a first-order section per summand in
ascending p (the order keeps intermediate values out of the slow subnormal
range), plus a closed-form negative-binomial cross-check for iid
parameters. The probability the cascade still holds in its filter state
after step K is exactly P(X > K), a sum of nonnegative terms, so the upper
tail needs one grid up to k0 - 1, no truncation and none of the bounds that
it is used to check. Exponential sums get the hypoexponential survival
function by partial fractions in log space, or by a scaling-and-squaring
matrix exponential where their own error bound is neither within 1e-9
relative nor below the matrix route's. Every estimate carries a rigorous
error bound (round-off scale, truncation remainder, or both).
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import (
    ExponentialSumSpec,
    GeometricSumSpec,
    KTooSmall,
    OutOfRange,
    require_count,
    require_threshold,
)

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)

# Relative accuracy that keeps hypoexp_survival on its partial-fraction route.
_REL_TOL = 1e-9

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


def _pmf_grid(spec: GeometricSumSpec, K: int) -> tuple[np.ndarray, float]:
    """P(X = k) for k = 0..K, and P(X > K), via the per-summand recursion

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

    The tail is read from the final filter state. In direct form II
    transposed, section i (row [0, p, 0, 1, p - 1, 0]) emits y[k] = s[k-1]
    and keeps s[k] = p x[k] + (1-p) y[k] >= 0, so its state s_i after step K
    is what it emits at K + 1: the pmf of the first i summands' sum at K + 1.
    With no further input it goes on to emit s_i (1-p_i)^j, s_i / p_i in
    all, and every later section passes its input on without loss, so
    P(X > K) = sum_i s_i / p_i, with no cancellation and no truncation.
    """
    require_count("pmf support", K, 0, _MAX_SUPPORT)
    from scipy.signal import sosfilt

    p = np.sort(spec.param_array)
    sos = np.zeros((p.size, 6))
    sos[:, 1] = p
    sos[:, 3] = 1.0
    sos[:, 4] = p - 1.0
    impulse = np.zeros(K + 1)
    impulse[0] = 1.0
    grid, state = sosfilt(sos, impulse, zi=np.zeros((p.size, 2)))
    return grid, float((state[:, 0] / p).sum())


def _require_support(K: float) -> None:
    """Refuse a pmf grid past the support cap before anything is allocated."""
    if not K <= _MAX_SUPPORT:
        raise OutOfRange(f"pmf support {K} is past the cap {_MAX_SUPPORT}")


def geom_pmf_convolution(spec: GeometricSumSpec, K: int) -> np.ndarray:
    """Exact pmf P(X = k) for k = n..K (the support starts at n)."""
    if K < spec.n:
        raise KTooSmall(f"K={K} below minimum support n={spec.n}")
    return _pmf_grid(spec, K)[0][spec.n :]


def _roundoff(n: int, K: int) -> tuple[float, float]:
    """Round-off of each entry of a pmf grid up to K, as (relative, absolute).

    eps (2K + n) relative, plus one smallest subnormal for each of the
    n (K + 1) filter steps: where the pmf underflows, the cascade rounds to
    subnormals or to 0 instead of to a relatively close value.
    """
    return _EPS * (2.0 * K + n), n * (K + 1) * _TINY


def geom_tail_exact(spec: GeometricSumSpec, x: float) -> TailEstimate:
    """P(X >= x), exact up to round-off.

    Since X is integer valued, P(X >= x) = P(X >= k0) with k0 = ceil(x), and
    for x <= n it is 1. Otherwise one cascade runs up to k0 - 1 and
    P(X >= k0) = sum_i s_i / p_i is read from its final state (see
    ``_pmf_grid``).

    The certificate. Each s_i is a cascade entry at k0, so it carries the
    round-off of ``_roundoff(n, k0)``: eps (2 k0 + n) relative, plus
    n (k0 + 1) smallest subnormals absolute. Dividing by p_i and summing n
    nonnegative terms adds (n + 1) eps relative; the absolute part, divided
    by each p_i and summed, gives n (k0 + 1) tiny mu. The bound is
    (eps (2 k0 + n) + (n + 1) eps) value + n (k0 + 1) tiny mu.
    """
    _require_support(x)
    if x <= spec.n:
        return TailEstimate(1.0, 0.0, OracleMethod.CONVOLUTION)
    k0 = math.ceil(x)
    tail = _pmf_grid(spec, k0 - 1)[1]
    rel, floor = _roundoff(spec.n, k0)
    error = (rel + (spec.n + 1) * _EPS) * tail + floor * spec.mu
    return TailEstimate(min(tail, 1.0), error, OracleMethod.CONVOLUTION)


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
    pmf = _pmf_grid(spec, k1)[0]
    value = float(np.sum(pmf[spec.n :]))
    rel, floor = _roundoff(spec.n, k1)
    error = rel * value + (k1 + 1 - spec.n) * floor
    return TailEstimate(min(value, 1.0), error, OracleMethod.CONVOLUTION)


def iid_geom_tail(p: float, n: int, x: float) -> TailEstimate:
    """Closed-form P(X >= x) for n iid geometric summands (negative binomial).

    Uses the finite identity P(X >= m) = P(Binomial(m-1, p) <= n-1), an
    n-term sum evaluated with log-gamma coefficients, so it terminates
    exactly and stays independent of the convolution route.

    n is at most 10^5 (its log terms take about 240 bytes each, 24 MB at the
    cap) and x at most 1e305, past which ln Gamma(x) nears overflow; x <= n,
    -inf included, gives 1.
    """
    if not (0.0 < p <= 1.0):
        raise OutOfRange(f"success probability {p} not in (0, 1]")
    require_count("n", n, 1, 100_000)
    if not x <= 1e305:
        raise OutOfRange(f"need x <= 1e305, got x={x}")
    if x <= n:
        return TailEstimate(1.0, 0.0, OracleMethod.CLOSED_FORM)
    m = math.ceil(x)
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


def _partial_fractions_survival(rates: tuple[float, ...], x: float) -> tuple[float, float]:
    """P(X > x) = sum_i w_i e^(-a_i x), w_i = prod_{j!=i} a_j/(a_j-a_i), in log space.

    Over sorted rates a_1 < ... < a_n, term i is (-1)^(i-1) exp(E_i), where E_i =
    sum_j ln a_j - ln a_i - sum_{j!=i} ln|a_j - a_i| - a_i x; each pair's log goes
    to both rows, split by sign, in O(n) memory. Returns (value, error bound), or
    (nan, inf) for two equal rates or a term past the double range.

    The bound. With u = eps/2, logs and exps are within 2u, other operations
    within u, and a rounded gap moves its log by u. Bounding each partial sum by
    the magnitudes of its parts, E_i is off by at most u times (n+4) S + 5|ln a_i|
    + (n+3) G_i + 4 a_i x + n - 1 <= (n+9) m_i, where S = sum_j |ln a_j|, G_i =
    sum_{j!=i} |ln|a_j - a_i|| and m_i = 1 + S + G_i + a_i x. exp adds 2u, and the
    two fsums and their difference 2u of the terms' sum, so term i is within a
    factor e^d_i of exact, d_i = (n+13) u m_i. A term above the smallest subnormal
    has E_i > -746, so a_i x < 746 + 2 S + G_i; every log is below 745 in size, so
    m_i < 3725 n and d_i < 1/2 for n below 10^6, where e^d - 1 < 2 d. The bound
    is the sum of 2 d_i t_i, plus a smallest subnormal per term for underflow.
    """
    a = sorted(map(float, rates))  # numpy scalars would warn on overflow
    n = len(a)
    logs = list(map(math.log, a))
    total, base, scale = sum(logs), 1.0 + sum(map(abs, logs)), (n + 13) * _EPS
    above, below = [0.0] * n, [0.0] * n  # each row's gap logs >= 0 and < 0
    terms, parts = [], []  # t_i and m_i
    try:
        for i, ai in enumerate(a):
            p, q = above[i], below[i]  # the rows before i have added theirs
            for j in range(i + 1, n):
                g = math.log(a[j] - ai)
                if g < 0.0:
                    q += g
                    below[j] += g
                else:
                    p += g
                    above[j] += g
            ax = ai * x
            terms.append(math.exp(total - logs[i] - ax - (p + q)))
            parts.append(base + p - q + ax)
        value = math.fsum(terms[::2]) - math.fsum(terms[1::2])
    except (ValueError, OverflowError):
        return math.nan, math.inf
    error = n * _TINY + scale * sum(map(operator.mul, terms, parts))
    return min(max(value, 0.0), 1.0), error


def _matrix_exp_scaling(rates: tuple[float, ...], x: float) -> tuple[int, float]:
    """The squarings s and the error bound of ``_matrix_exp_survival(rates, x)``.

    In row-sum norms, with u = eps/2, gamma_m = m u/(1 - m u) and
    g = n eps/(1 - n eps) >= gamma_n: the rounded a_i x are the exact rates of
    a nearby chain, so B = Q x/2^s has ||B|| <= 1/2 (up to the rounding of
    log2, which the slack absorbs) and each exp(B 2^j) is substochastic.
    Taylor stage: term k, fl(fl(term_{k-1} B)/k), is within
    ((1 + gamma_{n+1})^k - 1) ||B||^k/k! of B^k/k!, at most 0.83 (n + 1) u
    over all k; the 13 additions add at most 13 e^(1/2) u < 21.5 u and the
    terms past degree 13 at most 2 (1/2)^14/14!, so d = 14 n eps + 2 (1/2)^14/14!
    covers the stage for every n >= 1. Squaring: (T + E)^2 - T^2 = TE + ET + E^2
    with ||T|| <= 1, ||E|| <= d, and the product rounds by at most
    g ||T + E||^2, so d <- 2d + d^2 + g (1 + d)^2: 1 + d <- (1 + g)(1 + d)^2,
    whose log doubles and gains log(1 + g); d is capped at 1. Output: the row
    sum adds g (1 + d). As P(X > x) = E exp(-c (1 - R)^+) for one scaled rate
    c and the other summands R, c |dS/dc| <= 1/e, so rounding the n products
    a_i x moves it by at most n u/e (a subnormal one by at most its
    half-ulp), within n eps.
    """
    n = len(rates)
    norm = x * max(2.0 * max(rates[:-1], default=0.0), rates[-1])  # rows (-a x, a x)
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    g = n * _EPS / (1.0 - n * _EPS)
    d = 14 * n * _EPS + 2.0 * 0.5**14 / math.factorial(14)
    grown = 2.0**s * math.log1p(d) + (2.0**s - 1.0) * math.log1p(g)
    d = math.expm1(min(grown, math.log(2.0)))
    return s, min(d + g * (1.0 + d) + n * _EPS, 1.0)


def _matrix_exp_survival(rates: tuple[float, ...], x: float) -> tuple[float, float]:
    """Hypoexponential P(X > x) via the chain generator's matrix exponential.

    The transient generator is upper bidiagonal (diagonal -a_i, superdiagonal
    a_i); survival is the first-row sum of exp(Q x). Scaling and squaring with
    a degree-13 Taylor polynomial, scaled so the norm is at most 1/2. Each
    squaring can double the error it inherits (``_matrix_exp_scaling``).
    """
    n = len(rates)
    ax = np.asarray(rates, dtype=float) * x
    Q = np.diag(-ax) + np.diag(ax[:-1], 1)
    s, error = _matrix_exp_scaling(rates, x)
    B = Q / float(2**s)
    T = np.eye(n)
    acc = np.eye(n)
    for k in range(1, 14):
        acc = acc @ B / k
        T = T + acc
    for _ in range(s):
        T = T @ T
    value = float(np.clip(T[0].sum(), 0.0, 1.0))
    return value, error


def hypoexp_survival(spec: ExponentialSumSpec, x: float) -> TailEstimate:
    """P(X > x) for a sum of independent exponentials.

    Partial fractions in log space run first, and their answer stands unless
    its error bound (infinite for tied rates or a term past the double range)
    passes both 1e-9 of its value and the bound the matrix route would report.
    x must be finite and >= 0, with max(a) x <= 2^1020 so that the matrix
    route's scaling 2^s stays finite.
    """
    require_threshold(x)
    rates = spec.rates
    if not max(rates) * x <= 2.0**1020:
        raise OutOfRange(f"need max rate * x <= 2^1020, got x={x}")
    if x == 0.0:
        return TailEstimate(1.0, 0.0, OracleMethod.CLOSED_FORM)
    value, error = _partial_fractions_survival(rates, x)
    if error <= _REL_TOL * value or error <= _matrix_exp_scaling(rates, x)[1]:
        return TailEstimate(value, error, OracleMethod.PARTIAL_FRACTIONS)
    value, error = _matrix_exp_survival(rates, x)
    return TailEstimate(value, error, OracleMethod.MATRIX_EXP)
