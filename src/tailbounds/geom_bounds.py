"""Tail bounds for sums of independent geometric variables.

Closed-form upper bounds for P(X >= lam*mu), an upper bound for the lower
tail P(X <= lam*mu), a matching lower bound for the upper tail, and two
numerically optimized variants (a Chernoff exponent minimized over its free
parameter t, and a generating-function bound minimized over w = z - 1). Both
objectives are convex, and each optimum is a root of
sum_i 1/(a_i - b_i s) = T, with gaps a_i - b_i s linear in the variable s.
One solver finds both by Newton steps on the reciprocal of the sum, which
is concave, with numpy over the spec's parameter array; numpy is imported
by the functions that use it, so the closed forms run without it. Every
bound is computed in log space and returned as a BoundResult.
"""

from __future__ import annotations

import math

from .model import (
    BoundResult,
    DomainError,
    GeometricSumSpec,
    Method,
    as_double,
    bound_result,
    require_lower,
    require_threshold,
    require_upper,
)


def upper_tail_thm1(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """Closed-form Chernoff bound P(X >= lam*mu) <= exp(-p_min*mu*(lam-1-ln lam))."""
    require_upper(lam, spec.mu)
    log_bound = -spec.p_min * spec.mu * (lam - 1.0 - math.log(lam))
    t = (1.0 - 1.0 / lam) * spec.p_min
    return bound_result(Method.THM1, lam, log_bound, internal_param=t)


def upper_tail_cor1(lam: float) -> BoundResult:
    """Parameter-free bound P(X >= lam*mu) <= lam * e^(1-lam)."""
    require_upper(lam)
    return bound_result(Method.COR1, lam, math.log(lam) + 1.0 - lam)


def upper_tail_thm2(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """Sharper bound P(X >= lam*mu) <= (1/lam) (1-p_min)^((lam-1-ln lam) mu).

    For p_min = 1 the sum is deterministic, so the bound is 0 for lam > 1.
    At lam = 1 the exponent factor vanishes and the bound is 1 regardless
    of p_min (the 0 * log(0) product is taken as 0, by continuity in lam).
    """
    require_upper(lam, spec.mu)
    if lam == 1.0:
        log_bound = 0.0
    elif spec.p_min == 1.0:
        log_bound = -math.inf
    else:
        log_bound = -math.log(lam) + (lam - 1.0 - math.log(lam)) * spec.mu * math.log1p(
            -spec.p_min
        )
    return bound_result(Method.THM2, lam, log_bound)


def upper_tail_cor2(lam: float) -> BoundResult:
    """Parameter-free bound P(X >= lam*mu) <= e^(1-lam)."""
    require_upper(lam)
    return bound_result(Method.COR2, lam, 1.0 - lam)


def lower_tail_tl1(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """Lower-tail bound P(X <= lam*mu) <= exp(-p_min*mu*(lam-1-ln lam)), 0 < lam <= 1."""
    require_lower(lam)
    log_bound = -spec.p_min * spec.mu * (lam - 1.0 - math.log(lam))
    t = (1.0 / lam - 1.0) * spec.p_min
    return bound_result(Method.TL1, lam, log_bound, internal_param=t)


def upper_tail_lower_bound_tl(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """LOWER bound on the upper tail:

    P(X >= lam*mu) >= (1-p_min)^(1+1/p_min) / (2 p_min mu) * (1-p_min)^((lam-1) mu).

    Degenerates to 0 when p_min = 1 (the sum is deterministic).
    """
    require_upper(lam, spec.mu)
    if spec.p_min == 1.0:
        return bound_result(Method.TL, lam, -math.inf)
    log1mp = math.log1p(-spec.p_min)
    log_bound = (
        (1.0 + 1.0 / spec.p_min) * log1mp
        - math.log(2.0 * spec.p_min * spec.mu)
        + (lam - 1.0) * spec.mu * log1mp
    )
    return bound_result(Method.TL, lam, log_bound)


def _lemma1_log(others, n: int, x: float, w: float) -> float:
    """lemma1_bound's log at z = 1 + w, with the prefactor cancelled against the
    pole factor of i* = 0, the p_min entry of the sorted ``param_array``, whose
    other entries are ``others`` (q_i = 1 - p_i):

        (n - x) ln(1 + w) - sum_{i != i*} ln(1 - q_i w / p_i).

    Every gap p_i - q_i w is linear in w, so w resolves the domain up to the
    pole 1 + w = 1/(1 - p_min) for any p_min, where z = 1 + w would round.
    """
    import numpy as np

    log_gaps = np.log1p(-(1.0 - others) * w / others)
    return (n - x) * math.log1p(w) - float(log_gaps.sum())


def lemma1_bound(spec: GeometricSumSpec, x: float, z: float) -> BoundResult:
    """Generating-function bound with its geometric-tail prefactor:

    P(X >= x) <= (1 - z(1-p_min))/p_min * z^(-x) * E z^X,

    for x >= 0 and 1 <= z < 1/(1-p_min).
    """
    require_threshold(x)
    z_double = as_double(z)
    if not z_double >= 1.0:
        raise DomainError(f"need z >= 1, got {z}")
    w = z_double - 1.0  # exact for z >= 1
    if not spec.p_min - (1.0 - spec.p_min) * w > 0.0:
        raise DomainError(
            f"z={z} is at or beyond the pole 1/(1-p_min) for p_min={spec.p_min}"
        )
    log_bound = _lemma1_log(spec.param_array[1:], spec.n, x, w)
    return bound_result(Method.LEMMA1, x / spec.mu, log_bound, internal_param=z_double)


def _reciprocal_root(a, b, c: float, target: float, lo: float, hi: float):
    """Where R(s) = sum_i c/(a_i - b_i s) reaches target on [lo, hi], and how
    many times R was evaluated (b_i >= 0, c > 0, every gap a_i - b_i hi > 0).

    1/R is a multiple of the harmonic mean of gaps linear in s, so it is
    concave and decreasing. Newton on 1/R - 1/target, started at hi, therefore
    walks left and never passes the root; next to one dominant pole 1/R is
    nearly linear and one step lands. The solve returns hi when R(hi) <=
    target, and otherwise stops where R <= target, at the first step that
    does not decrease s (round-off, or the root lies below lo), or where the
    next step would gain under 1e-18 in the log bound. Both callers minimize
    a log bound whose derivative is (R - target)/c times a factor in (0, 1],
    so a quadratic model puts that gain at (R - target)^2 / (2 c R').
    """
    s, evaluations = hi, 0
    while True:
        r = c / (a - b * s)
        total = float(r.sum())
        slope = float((b * r) @ r)  # c R'
        evaluations += 1
        if total <= target or (total - target) ** 2 <= 2e-18 * slope:
            return s, evaluations
        step = max(lo, s + c * total * (1.0 - total / target) / slope) if slope else lo
        if not step < s:
            return s, evaluations
        s = step


def optimized_chernoff(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """Chernoff bound with the exponent minimized over t in [0, p_min).

    The exponent -t lam mu - sum ln(1 - t/p_i) is convex in t, and its
    minimizer is where sum 1/(p_i - t) = lam mu. Never worse than
    upper_tail_thm1, whose t is one point of the same domain.
    """
    require_upper(lam, spec.mu)
    import numpy as np

    target = lam * spec.mu
    p = spec.param_array
    p_min = spec.p_min
    # 1/(p_min - t) <= sum 1/(p_i - t) <= mu/(1 - t/p_min) brackets the root;
    # the factor p_min keeps each term finite next to the pole, and both ends
    # stay below the pole (Theorem 1's t can round to p_min for lam past about 2^53);
    # at lam = 1 the root is lo = 0 exactly, as R(0) = mu p_min is the target
    below_pole = math.nextafter(p_min, 0.0)
    lo = min((1.0 - 1.0 / lam) * p_min, below_pole)
    hi = lo if lam == 1.0 else max(lo, min(p_min - 1.0 / target, below_pole))
    t, evaluations = _reciprocal_root(p, 1.0, p_min, lam * (spec.mu * p_min), lo, hi)
    log_bound = -t * target - float(np.log1p(-t / p).sum())
    return bound_result(
        Method.OPT_CHERNOFF, lam, log_bound, internal_param=t, evaluations=evaluations
    )


def optimized_lemma1(spec: GeometricSumSpec, x: float) -> BoundResult:
    """lemma1_bound minimized over z = 1 + w, reported as w in [0, p_min/(1-p_min)).

    The log bound of _lemma1_log is convex in ln(1 + w), and with
    q z/(1 - q z) = 1/(1 - q z) - 1 its minimizer is where
    sum_{i != i*} 1/(p_i - q_i w) = x - 1. For x <= n the bound is 1 at
    w = 0. When the sum stays below x - 1 up to the pole, the optimum sits
    there and w is the largest double with p_min - q_min w > 0.

    For degenerate specs (p_min = 1, so X is a.s. its minimum value n) the
    domain is unbounded and the infimum is 0 for x > n.
    """
    require_threshold(x)
    lam = x / spec.mu
    if x <= spec.n:
        return bound_result(Method.OPT_LEMMA1, lam, 0.0, internal_param=0.0, evaluations=0)
    p_min = spec.p_min
    if p_min == 1.0:
        return bound_result(Method.OPT_LEMMA1, lam, -math.inf, evaluations=0)

    others = spec.param_array[1:]
    q_min = 1.0 - p_min
    w_max = p_min / q_min
    while not p_min - q_min * w_max > 0.0:
        w_max = math.nextafter(w_max, 0.0)
    w, evaluations = _reciprocal_root(
        others, 1.0 - others, p_min, (x - 1.0) * p_min, 0.0, w_max
    )
    return bound_result(
        Method.OPT_LEMMA1,
        lam,
        _lemma1_log(others, spec.n, x, w),
        internal_param=w,
        evaluations=evaluations,
    )
