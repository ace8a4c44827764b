"""Exact tail probabilities used as ground truth for every bound.

``exact_tail(spec, x, side)`` is the entry point for a spec of either kind:
it picks the oracle below for the spec's distribution and the tail's side.
One log-space partial-fraction kernel serves both distributions: the
survival function is sum_i w_i e^(c_i) over the sorted parameters, with
c_i = -a_i x for exponential rates and c_i = k ln q_i for geometric
summands, and it reports its own rigorous error bound. Geometric upper tails
try it first where that is cheaper than the convolution (small n, or a deep
threshold at larger n) and keep its answer where its bound is within
1e-12 relative or below the convolution's own floor; otherwise they take an
O(n (K - n)) iterated-convolution pmf, run as one ``scipy.signal.sosfilt``
cascade with a first-order section per summand in ascending p, over the
support above n only, and lifted by 2^1000 so that values down to about
1e-609 stay out of the slow subnormal range. The kernel returns the pmf for
k = n..K and certifies the tail it computes: the probability the cascade
still holds in its filter state after step K is exactly P(X > K), a sum of
nonnegative terms, so the upper tail needs one call up to k0 - 1, no
truncation and none of the bounds that it is used to check. The grid's
K is capped at 10^7, checked in ``_pmf_grid`` before anything is allocated:
the one support check, so an answer that builds no grid has no cap. scipy is
imported only when a cascade runs. iid parameters also have a closed-form
negative-binomial cross-check. Exponential sums keep the partial-fraction
answer unless its error bound is neither within 1e-9 relative nor below that
of a scaling-and-squaring matrix exponential, which then runs. Every
estimate carries a rigorous error bound (round-off scale, truncation
remainder, or both). The exponential lower tail, 1 - P(X > x), has an
absolute bound: the survival's plus half an ulp of the subtraction. It is
therefore not relative below about 1e-10, a known defect (see ROADMAP.md).
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ExponentialSumSpec,
    GeometricSumSpec,
    OutOfRange,
    as_double,
    require_count,
    require_side,
    require_threshold,
)

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)

# Relative accuracy that keeps hypoexp_survival on its partial-fraction route.
_REL_TOL = 1e-9

# Relative accuracy that keeps geom_tail_exact's partial-fraction answer. The
# cascade certifies the tails it answers within about 1e-12 relative, so a
# looser answer would weaken what the geometric oracle promises.
_GEOM_REL_TOL = 1e-12

# Costs that pick geom_tail_exact's first route, in microseconds (see
# _partial_fractions_first): trying partial fractions per pair of summands,
# and the sosfilt cascade per call and per filter step.
_PAIR_US = 0.45
_CASCADE_US = 47.0
_STEP_US = 0.0038

# The cascade's impulse, a power of two that lifts the pmf out of the slow
# subnormal range and is divided out exactly (see _pmf_grid).
_LIFT = 2.0**1000

# Largest pmf grid ever built, checked before it is allocated (cost is O(n*K)).
_MAX_SUPPORT = 10_000_000

# Most summands the matrix route takes, checked before it runs: it holds about
# five n x n float64 arrays at once (about 170 MB at the cap), and its time
# grows as n^3.
_MAX_MATRIX_N = 2048


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


def _pmf_grid(spec: GeometricSumSpec, K: int,
              upper: bool = True) -> tuple[np.ndarray, TailEstimate]:
    """P(X = k) for k = n..K (K >= n), and P(X > K) if ``upper``, else P(X <= K).

    The support starts at n, so the grid is the pmf of X - n = sum_i (G_i - 1)
    at m = 0..K - n, from the recursion

        c_i(m) = p_i c_{i-1}(m) + (1-p_i) c_i(m-1),

    run as one cascade of first-order sections (n (K + 1 - n) steps in one
    C call): an impulse filtered through the section p / (1 - (1-p) z^-1) of
    each summand. All coefficients are nonnegative, so no cancellation
    occurs. Section i computes P(S_i = m + i), S_i the sum of the first i
    summands, from the same operands and operations as the section
    p z^-1 / (1 - (1-p) z^-1) run over the whole grid from k = 0, so each
    entry is that cascade's, moved by n places. The sections run in the
    ascending order of ``spec.param_array``, so the grid depends only on the
    multiset of p. scipy is imported here, on first use, so that importing
    the package stays cheap.

    The impulse is 2^1000, not 1. Every exact value is at most 1, which
    leaves about 2^23 of headroom for round-off, and values that would be
    subnormal, where an operation costs many times a normal one and rounds
    to an absolute ulp, are normal down to about 1e-609. An operation whose
    result is normal either way is scaled exactly, so it gives the unlifted
    result. The grid and the tail are scaled back by 2^-1000 once, at the
    end, which rounds only a value below the normal range, by at most half a
    smallest subnormal; the lower tail is summed before it is scaled back.

    The upper tail is read from the final filter state. In direct form II
    transposed, section i (row [p, 0, 0, 1, p - 1, 0]) emits y[m] = p x[m] +
    s[m-1] and keeps s[m] = (1-p) y[m] >= 0, so its state after the last
    step is s_i = (1-p_i) P(S_i = K - n + i). With no further input it goes
    on to emit s_i (1-p_i)^j, s_i / p_i in all, and every later section
    passes its input on without loss, so P(X > K) = sum_i s_i / p_i, with no
    cancellation and no truncation. Only the upper tail asks for the state:
    at n = 8 scipy's path with a filter state costs about a third more per
    call (12-20 us at K = 40).

    The tail comes certified, relative down to a floor of subnormals. Upper:
    each s_i is (1 - p_i) times an entry at index <= K, so it is within
    eps (2 (K + 1) + n) relative plus n (K + 1) smallest subnormals (that
    entry's ``_roundoff`` and one more rounding). Dividing by p_i and summing
    adds (n + 1) eps relative and n (K + 1) tiny mu absolute, and scaling back
    at most tiny/2 <= n tiny mu, so the bound is (eps (2K + 2 + n) + (n + 1)
    eps) value + n (K + 2) tiny mu. Lower: the entries' round-off, eps (2K + n)
    times the value, plus their subnormal term once per summed entry.
    """
    require_count("pmf support", K, spec.n, _MAX_SUPPORT)
    from scipy.signal import sosfilt

    p = spec.param_array
    sos = np.zeros((p.size, 6))
    sos[:, 0] = p
    sos[:, 3] = 1.0
    sos[:, 4] = p - 1.0
    impulse = np.zeros(K + 1 - p.size)
    impulse[0] = _LIFT
    if upper:
        lifted, state = sosfilt(sos, impulse, zi=np.zeros((p.size, 2)))
        value = float((state[:, 0] / p).sum()) / _LIFT
        rel, floor = _roundoff(spec.n, K + 1)
        error = (rel + (spec.n + 1) * _EPS) * value + floor * spec.mu
    else:
        lifted = sosfilt(sos, impulse)
        value = float(lifted.sum()) / _LIFT
        rel, floor = _roundoff(spec.n, K)
        error = rel * value + (K + 1 - spec.n) * floor
    pmf = np.divide(lifted, _LIFT, out=lifted)
    return pmf, TailEstimate(min(value, 1.0), error, OracleMethod.CONVOLUTION)


def geom_pmf_convolution(spec: GeometricSumSpec, K: int) -> np.ndarray:
    """Exact pmf P(X = k) for k = n..K, for an integer n <= K <= 10^7 (the
    support starts at n; ``_pmf_grid`` refuses any other K before allocating)."""
    return _pmf_grid(spec, K, upper=False)[0]


def _roundoff(n: int, K: int) -> tuple[float, float]:
    """Round-off of each entry of a pmf grid up to K, as (relative, absolute).

    eps (2K + n) relative, plus one smallest subnormal for each of the
    n (K + 1) filter steps, for a pmf that underflows. That term is sound
    but loose for the cascade lifted by 2^1000: a step there rounds to
    2^-1000 of a smallest subnormal, and scaling back by at most half of one.
    """
    return _EPS * (2.0 * K + n), n * _TINY * (K + 1.0)  # finite at any float K


def _partial_fractions_first(n: int, k0: int) -> bool:
    """Whether trying partial fractions first costs less than the cascade.

    Trying them costs ``_PAIR_US`` per pair, n (n - 1)/2 pairs; the cascade
    ``_CASCADE_US`` per call plus ``_STEP_US`` per filter step, n (k0 - n)
    (it filters the support above n, up to k0 - 1). First measured pinned to
    one CPU of a 2-vCPU Xeon host (Python 3.11, numpy 2.4, scipy 1.17) on
    distinct p ~ U(0.05, 1): the pair loop alone takes about 0.2 us per
    pair, and the whole-grid cascade took 45-50 us plus 4 ns per step of
    n k0. Where the answer is not certified the cascade runs as well, which
    happens more often as n grows (at lambda = 1: 12 of 40 queries at n = 8,
    26 of 40 at n = 16, 39 of 40 at n = 32), so a pair is counted at 0.45 us:
    that puts the break-even where end-to-end times crossed, near k0 = 140 at
    n = 16 and k0 = 500 at n = 20. The cascade over the support above n,
    timed against the whole-grid one in alternating pinned calls, costs
    3.5% more per call (one more array) and 5% less per step (no subnormals
    at the head of the pmf), hence 47 us and 3.8 ns. Partial fractions are
    tried at every k0 for n <= 14, and at n = 10^3 only from k0 = 60,140
    (lambda about 19 for p ~ U(0.05, 1)).
    """
    return _PAIR_US * n * (n - 1) / 2 <= _CASCADE_US + _STEP_US * n * (k0 - n)


def geom_tail_exact(spec: GeometricSumSpec, x: float) -> TailEstimate:
    """P(X >= x), exact up to round-off.

    Since X is integer valued, P(X >= x) = P(X >= k0) with k0 = ceil(x), and
    for x <= n, -inf included, it is 1. Otherwise x must be finite (NaN and
    +inf raise ``DomainError``), and one of two routes answers, each certified
    relative to its value down to the cascade's floor n (k0 + 1) tiny mu.

    Partial fractions run first where trying them costs less than the cascade
    (``_partial_fractions_first``, from n and k0 alone). For distinct p_i < 1,
    P(X > k) = sum_i w_i q_i^k with w_i = prod_{j!=i} p_j/(p_j - p_i) (Sen and
    Balakrishnan 1999): ``_partial_fractions`` over ``param_array`` with
    exponents k ln q_i, k = k0 - 1. A summand with p_i = 1 is the constant 1,
    so it is dropped and k shrinks by 1. The answer stands if its error bound
    is within 1e-12 of the value or below the cascade's floor. Otherwise (tied
    p, cancelling weights, or a large n at a shallow k0) the ``sosfilt``
    cascade runs (``_pmf_grid`` up to k0 - 1), and only then is scipy
    imported. Only the cascade is capped: its grid runs up to k0 - 1, which
    must be at most 10^7, so x may pass the cap wherever partial fractions
    answer.
    """
    if as_double(x) <= spec.n:
        return TailEstimate(1.0, 0.0, OracleMethod.CLOSED_FORM)
    require_threshold(x)
    k0 = math.ceil(x)
    if _partial_fractions_first(spec.n, k0):
        p = spec.param_array.tolist()
        p = p[: bisect.bisect_left(p, 1.0)]
        k = k0 - 1 - (spec.n - len(p))
        value, error = _partial_fractions(p, [k * math.log1p(-v) for v in p])
        if error <= _GEOM_REL_TOL * value or error <= _roundoff(spec.n, k0)[1] * spec.mu:
            return TailEstimate(value, error, OracleMethod.PARTIAL_FRACTIONS)
    return _pmf_grid(spec, k0 - 1)[1]


def geom_lower_tail_exact(spec: GeometricSumSpec, x: float) -> TailEstimate:
    """P(X <= x) as a direct partial sum of the pmf (no cancellation).

    0 for x < n, -inf included; otherwise x must be finite (NaN and +inf
    raise ``DomainError``), and the grid up to floor(x) within the 10^7 cap.
    The terms are nonnegative, so the certificate is relative down to the
    grid's absolute subnormal floor (see ``_pmf_grid``).
    """
    if as_double(x) < spec.n:
        return TailEstimate(0.0, 0.0, OracleMethod.CLOSED_FORM)
    require_threshold(x)
    return _pmf_grid(spec, math.floor(x), upper=False)[1]


def iid_geom_tail(p: float, n: int, x: float) -> TailEstimate:
    """Closed-form P(X >= x) for n iid geometric summands (negative binomial).

    Uses the finite identity P(X >= m) = P(Binomial(m-1, p) <= n-1), an
    n-term sum evaluated with log-gamma coefficients, so it terminates
    exactly and stays independent of the convolution route.

    n is at most 10^5, where a call takes about 0.1 s for its n log-gamma
    terms (each is kept as one float, 32 bytes, 3.2 MB at the cap), and x at
    most 1e305, past which ln Gamma(x) nears overflow; x <= n, -inf included,
    gives 1.
    """
    if not (0.0 < as_double(p) <= 1.0):
        raise OutOfRange(f"success probability {p} not in (0, 1]")
    require_count("n", n, 1, 100_000)
    if not as_double(x) <= 1e305:
        raise OutOfRange(f"need x <= 1e305, got x={x}")
    if x <= n:
        return TailEstimate(1.0, 0.0, OracleMethod.CLOSED_FORM)
    m = math.ceil(x)
    if p == 1.0:
        return TailEstimate(0.0, 0.0, OracleMethod.CLOSED_FORM)
    log_p = math.log(p)
    log_q = math.log1p(-p)
    head = math.lgamma(m)
    log_terms = [math.fsum((head, -math.lgamma(j + 1), -math.lgamma(m - j),
                            j * log_p, (m - 1 - j) * log_q)) for j in range(n)]
    top = max(log_terms)
    value = min(math.exp(top) * math.fsum(math.exp(lt - top) for lt in log_terms), 1.0)
    # each log term is rounded on the scale of its parts, and exp turns that
    # absolute error into a relative error of its term. As ln p, ln q <= 0 and
    # ln Gamma >= 0 at integers, that scale is 2 head - lt; the factor 1 + 4 eps
    # covers the rounding of lt and of the difference (at most eps in all).
    exponent = math.fsum(
        math.exp(lt) * ((2.0 * head - lt) * (1.0 + 4 * _EPS)) for lt in log_terms
    )
    error = _EPS * ((n + 2) * max(value, 1e-300) + exponent)
    return TailEstimate(value, error, OracleMethod.CLOSED_FORM)


def _partial_fractions(values: list[float], exponents: list[float]) -> tuple[float, float]:
    """sum_i w_i e^(c_i), w_i = prod_{j!=i} v_j/(v_j - v_i), in log space.

    Over ascending values v_1 < ... < v_n, term i is (-1)^(i-1) exp(E_i), where
    E_i = sum_j ln v_j - ln v_i - sum_{j!=i} ln|v_j - v_i| + c_i; each pair's log
    goes to both rows, split by sign, in O(n) memory. Returns (value clamped to
    [0, 1], error bound), or (nan, inf) for two equal values or a term past the
    double range. The exponents are c_i <= 0, each within 3u |c_i| of exact:
    -a_i x is one rounded product, k ln q_i a log1p and a product.

    The bound. With u = eps/2, logs and exps are within 2u, other operations
    within u, and a rounded gap moves its log by u. Bounding each partial sum by
    the magnitudes of its parts, E_i is off by at most u times (n+4) S + 5|ln v_i|
    + (n+3) G_i + 6|c_i| + n - 1 <= (n+9) m_i, where S = sum_j |ln v_j|, G_i =
    sum_{j!=i} |ln|v_j - v_i|| and m_i = 1 + S + G_i + |c_i|. exp adds 2u, and the
    two fsums and their difference 2u of the terms' sum, so term i is within a
    factor e^d_i of exact, d_i = (n+13) u m_i. A term above the smallest subnormal
    has E_i > -746, so |c_i| < 746 + 2 S + G_i; every log is below 745 in size, so
    m_i < 3725 n and d_i < 1/2 for n below 10^6, where e^d - 1 < 2 d. The bound
    is the sum of 2 d_i t_i, plus a smallest subnormal per term for underflow;
    a term that underflows to 0, its exponent -inf included, adds only that.
    """
    n = len(values)
    logs = list(map(math.log, values))
    total = size = 0.0  # sum_j ln v_j and S, added left to right, as sum() did before 3.12
    for g in logs:
        total += g
        size += abs(g)
    base, scale = 1.0 + size, (n + 13) * _EPS
    above, below = [0.0] * n, [0.0] * n  # each row's gap logs >= 0 and < 0
    terms, weighted = [], 0.0  # t_i, and sum_i t_i m_i added left to right
    try:
        for i, (vi, c) in enumerate(zip(values, exponents)):
            p, q = above[i], below[i]  # the rows before i have added theirs
            for j in range(i + 1, n):
                g = math.log(values[j] - vi)
                if g < 0.0:
                    q += g
                    below[j] += g
                else:
                    p += g
                    above[j] += g
            t = math.exp(total - logs[i] + c - (p + q))
            terms.append(t)
            if t:  # a term of 0 (c may be -inf) is left to the tiny floor
                weighted += t * (base + p - q - c)
        value = math.fsum(terms[::2]) - math.fsum(terms[1::2])
    except (ValueError, OverflowError):
        return math.nan, math.inf
    error = n * _TINY + scale * weighted
    return min(max(value, 0.0), 1.0), error


def _matrix_exp_scaling(c: list[float]) -> tuple[int, float]:
    """The squarings s and the error bound of ``_matrix_exp_survival(c, s)``.

    In row-sum norms, with u = eps/2, gamma_m = m u/(1 - m u) and
    g = n eps/(1 - n eps) >= gamma_n: the rounded products c_i = -a_i x taken
    here, largest rate last (the chain order of least norm), are the exact rates
    of a nearby chain, so B = Q x/2^s has ||B|| <= 1/2 (up to the rounding of
    log2, which the slack absorbs) and each exp(B 2^j) is substochastic.
    Taylor stage: term k, fl(fl(term_{k-1} B)/k), is within
    ((1 + gamma_{n+1})^k - 1) ||B||^k/k! of B^k/k!, at most 0.83 (n + 1) u
    over all k; the 13 additions add at most 13 e^(1/2) u < 21.5 u and the
    terms past degree 13 at most 2 (1/2)^14/14!, so d = 14 n eps + 2 (1/2)^14/14!
    covers the stage for every n >= 1. Squaring: (T + E)^2 - T^2 = TE + ET + E^2
    with ||T|| <= 1, ||E|| <= d, and the product rounds by at most
    g ||T + E||^2, so d <- 2d + d^2 + g (1 + d)^2: 1 + d <- (1 + g)(1 + d)^2,
    whose log doubles and gains log(1 + g); d is capped at 1. Output: the row
    sum adds g (1 + d). As P(X > x) = E exp(-b (1 - R)^+) for one scaled rate
    b and the other summands R, b |dS/db| <= 1/e, so rounding the n products
    a_i x moves it by at most n u/e (a subnormal one by at most its
    half-ulp), within n eps.
    """
    n = len(c)
    norm = -min(2.0 * c[-2], c[-1]) if n > 1 else -c[0]  # rows (-a x, a x)
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    g = n * _EPS / (1.0 - n * _EPS)
    d = 14 * n * _EPS + 2.0 * 0.5**14 / math.factorial(14)
    grown = 2.0**s * math.log1p(d) + (2.0**s - 1.0) * math.log1p(g)
    d = math.expm1(min(grown, math.log(2.0)))
    return s, min(d + g * (1.0 + d) + n * _EPS, 1.0)


def _matrix_exp_survival(c: list[float], s: int) -> float:
    """Hypoexponential P(X > x) via the chain generator's matrix exponential.

    Q x is upper bidiagonal (diagonal c_i = -a_i x, superdiagonal a_i x); survival
    is the first-row sum of exp(Q x): a degree-13 Taylor polynomial of Q x/2^s,
    squared s times. Squarings that overflow to a NaN row sum raise ``OutOfRange``.
    """
    B = (np.diag(c) - np.diag(c[:-1], 1)) / float(2**s)
    T = acc = np.eye(len(c))  # both are rebound, never updated in place
    for k in range(1, 14):
        acc = acc @ B / k
        T = T + acc
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            T = T @ T
        total = T[0].sum()
    if np.isnan(total):
        raise OutOfRange(f"the matrix route's {s} squarings overflowed")
    return float(np.clip(total, 0.0, 1.0))


def hypoexp_survival(spec: ExponentialSumSpec, x: float) -> TailEstimate:
    """P(X > x) for a sum of independent exponentials.

    Partial fractions in log space run first, and their answer stands unless
    its error bound (infinite for tied rates or a term past the double range)
    passes both 1e-9 of its value and the bound the matrix route would report.
    x must be finite and >= 0. Where partial fractions miss 1e-9 relative,
    max(a) x must also be <= 2^1020, so that the matrix route's scaling 2^s
    stays finite. The matrix route takes at most 2048 rates
    (``_MAX_MATRIX_N``); partial-fraction answers have no such cap. Both routes
    read one list of the products c_i = -a_i x over the sorted ``rate_array``,
    so the answer depends only on the multiset of rates.
    """
    require_threshold(x)
    a = spec.rate_array.tolist()  # numpy scalars would warn on overflow
    c = [-ai * x for ai in a]  # the exponents of both routes
    if x == 0.0:
        return TailEstimate(1.0, 0.0, OracleMethod.CLOSED_FORM)
    value, error = _partial_fractions(a, c)
    if error <= _REL_TOL * value:
        return TailEstimate(value, error, OracleMethod.PARTIAL_FRACTIONS)
    if not -c[-1] <= 2.0**1020:
        raise OutOfRange(f"need max rate * x <= 2^1020, got x={x}")
    s, bound = _matrix_exp_scaling(c)
    if error <= bound:
        return TailEstimate(value, error, OracleMethod.PARTIAL_FRACTIONS)
    if spec.n > _MAX_MATRIX_N:
        raise OutOfRange(f"need n <= {_MAX_MATRIX_N} on the matrix route, got n={spec.n}")
    return TailEstimate(_matrix_exp_survival(c, s), bound, OracleMethod.MATRIX_EXP)


def exact_tail(spec: GeometricSumSpec | ExponentialSumSpec, x: float,
               side: str = "upper") -> TailEstimate:
    """P(X >= x) (side="upper") or P(X <= x) (side="lower") from the spec's oracle."""
    require_side(side)
    if isinstance(spec, GeometricSumSpec):
        return (geom_tail_exact if side == "upper" else geom_lower_tail_exact)(spec, x)
    upper = hypoexp_survival(spec, x)  # continuous: P(X = x) = 0
    if side == "upper":
        return upper
    lower = 1.0 - upper.value  # rounds by up to half an ulp when upper.value < 1/2
    return TailEstimate(lower, upper.error_bound + math.ulp(lower) / 2, upper.method)
