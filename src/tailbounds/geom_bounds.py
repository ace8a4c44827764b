"""Tail bounds for sums of independent geometric variables.

Closed-form upper bounds for P(X >= lam*mu), an upper bound for the lower
tail P(X <= lam*mu), a matching lower bound for the upper tail, and two
numerically optimized variants (a Chernoff exponent minimized over its free
parameter t, and a generating-function bound minimized over z). Both
objectives are convex, so each optimum is one bracketed root of an
increasing derivative. Every bound is computed in log space and returned as
a BoundResult.
"""

from __future__ import annotations

import math
import struct

from .model import (
    BoundResult,
    DomainError,
    GeometricSumSpec,
    LambdaOutOfRange,
    Method,
    bound_result,
    log_pgf_geometric,
    pgf_pole_gap,
    require_upper,
)


def upper_tail_thm1(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """Closed-form Chernoff bound P(X >= lam*mu) <= exp(-p_min*mu*(lam-1-ln lam))."""
    require_upper(lam)
    log_bound = -spec.p_min * spec.mu * (lam - 1.0 - math.log(lam))
    t = (1.0 - 1.0 / lam) * spec.p_min
    return bound_result(Method.THM1, lam, log_bound, internal_param=t)


def upper_tail_cor1(lam: float) -> BoundResult:
    """Parameter-free bound P(X >= lam*mu) <= lam * e^(1-lam)."""
    require_upper(lam)
    return bound_result(Method.COR1, lam, math.log(lam) + 1.0 - lam)


def log_thm2(spec: GeometricSumSpec, lam: float) -> float:
    """upper_tail_thm2's log bound as a plain float, for callers that evaluate
    it many times; lam >= 1 is the caller's to check.
    """
    if lam == 1.0:
        return 0.0
    if spec.p_min == 1.0:
        return -math.inf
    return -math.log(lam) + (lam - 1.0 - math.log(lam)) * spec.mu * math.log1p(
        -spec.p_min
    )


def upper_tail_thm2(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """Sharper bound P(X >= lam*mu) <= (1/lam) (1-p_min)^((lam-1-ln lam) mu).

    For p_min = 1 the sum is deterministic, so the bound is 0 for lam > 1.
    At lam = 1 the exponent factor vanishes and the bound is 1 regardless
    of p_min (the 0 * log(0) product is taken as 0, by continuity in lam).
    """
    require_upper(lam)
    return bound_result(Method.THM2, lam, log_thm2(spec, lam))


def upper_tail_cor2(lam: float) -> BoundResult:
    """Parameter-free bound P(X >= lam*mu) <= e^(1-lam)."""
    require_upper(lam)
    return bound_result(Method.COR2, lam, 1.0 - lam)


def lower_tail_tl1(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """Lower-tail bound P(X <= lam*mu) <= exp(-p_min*mu*(lam-1-ln lam)), 0 < lam <= 1."""
    if not (0.0 < lam <= 1.0):
        raise LambdaOutOfRange(f"lower-tail bound needs 0 < lambda <= 1, got {lam}")
    log_bound = -spec.p_min * spec.mu * (lam - 1.0 - math.log(lam))
    t = (1.0 / lam - 1.0) * spec.p_min
    return bound_result(Method.TL1, lam, log_bound, internal_param=t)


def upper_tail_lower_bound_tl(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """LOWER bound on the upper tail:

    P(X >= lam*mu) >= (1-p_min)^(1+1/p_min) / (2 p_min mu) * (1-p_min)^((lam-1) mu).

    Degenerates to 0 when p_min = 1 (the sum is deterministic).
    """
    require_upper(lam)
    if spec.p_min == 1.0:
        return bound_result(Method.TL, lam, -math.inf)
    log1mp = math.log1p(-spec.p_min)
    log_bound = (
        (1.0 + 1.0 / spec.p_min) * log1mp
        - math.log(2.0 * spec.p_min * spec.mu)
        + (lam - 1.0) * spec.mu * log1mp
    )
    return bound_result(Method.TL, lam, log_bound)


def lemma1_bound(spec: GeometricSumSpec, x: float, z: float) -> BoundResult:
    """Generating-function bound with its geometric-tail prefactor:

    P(X >= x) <= (1 - z(1-p_min))/p_min * z^(-x) * E z^X,

    for x >= 0 and 1 <= z < 1/(1-p_min).
    """
    if not x >= 0.0:
        raise DomainError(f"need x >= 0, got {x}")
    if not z >= 1.0:
        raise DomainError(f"need z >= 1, got {z}")
    if pgf_pole_gap(spec.p_min, z) <= 0.0:
        raise DomainError(
            f"z={z} is at or beyond the pole 1/(1-p_min) for p_min={spec.p_min}"
        )
    prefactor = pgf_pole_gap(spec.p_min, z) / spec.p_min
    log_bound = math.log(prefactor) - x * math.log(z) + log_pgf_geometric(spec, z)
    return bound_result(Method.LEMMA1, x / spec.mu, log_bound, internal_param=z)


def _bits(v: float) -> int:
    return struct.unpack("<q", struct.pack("<d", v))[0]


def _from_bits(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]


def _increasing_root(g, lo: float, hi: float) -> float:
    """The smallest double in [lo, hi] (0 <= lo <= hi) where increasing g is >= 0.

    Returns lo when g(lo) >= 0 and hi when g stays negative below hi.
    Nonnegative doubles order like their bit patterns, so bisecting the
    patterns ends on two adjacent doubles after at most 64 evaluations of g,
    whatever the scale of the root.
    """
    if g(lo) >= 0.0:
        return lo
    a, b = _bits(lo), _bits(hi)
    while b - a > 1:
        m = (a + b) // 2
        if g(_from_bits(m)) >= 0.0:
            b = m
        else:
            a = m
    return _from_bits(b)


def optimized_chernoff(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """Chernoff bound with the exponent minimized over t in [0, p_min).

    The exponent -t lam mu - sum ln(1 - t/p_i) is convex in t, so its
    minimizer is the root of the increasing derivative
    -lam mu + sum 1/(p_i - t). Never worse than upper_tail_thm1, whose t is
    one point of the same domain.
    """
    require_upper(lam)
    target = lam * spec.mu
    t = _increasing_root(
        lambda t: math.fsum(1.0 / (p - t) for p in spec.params) - target,
        0.0,
        math.nextafter(spec.p_min, 0.0),
    )
    log_bound = -t * target - math.fsum(math.log1p(-t / p) for p in spec.params)
    return bound_result(Method.OPT_CHERNOFF, lam, log_bound, internal_param=t)


def optimized_lemma1(spec: GeometricSumSpec, x: float) -> BoundResult:
    """lemma1_bound minimized over the doubles z in [1, 1/(1-p_min)).

    The prefactor (1 - z q*)/p_min cancels the pole factor of one summand
    i* with p_i = p_min (q_i = 1 - p_i), so with u = ln z the log bound is

        (n - x) u - sum_{i != i*} ln((1 - q_i z) / p_i),

    convex in u and finite at the pole unless p_min is tied. Its minimizer
    is the root of the increasing derivative n - x + sum_{i != i*}
    q_i z / (1 - q_i z); when that stays negative the optimum sits at the
    pole and z is the largest double below it. The bound is the cancelled
    form at the reported z, which lemma1_bound at internal_param reproduces.

    For degenerate specs (p_min = 1, so X is a.s. its minimum value n) the z
    domain is unbounded and the infimum is 0 for x > n, 1 otherwise.
    """
    if not x >= 0.0:
        raise DomainError(f"need x >= 0, got {x}")
    if spec.p_min == 1.0:
        if x > spec.n:
            return bound_result(Method.OPT_LEMMA1, x / spec.mu, -math.inf)
        return bound_result(Method.OPT_LEMMA1, x / spec.mu, 0.0, internal_param=1.0)

    others = list(spec.params)
    others.remove(spec.p_min)
    # the largest z below the pole, both as 1/(1-p_min) rounds and by the gap
    z_max = max(1.0, math.nextafter(1.0 / (1.0 - spec.p_min), 0.0))
    while pgf_pole_gap(spec.p_min, z_max) <= 0.0:
        z_max = math.nextafter(z_max, 0.0)
    slope = spec.n - x
    z = _increasing_root(
        lambda z: slope
        + math.fsum((1.0 - p) * z / pgf_pole_gap(p, z) for p in others),
        1.0,
        z_max,
    )
    log_bound = slope * math.log(z) - math.fsum(
        math.log(pgf_pole_gap(p, z) / p) for p in others
    )
    return bound_result(Method.OPT_LEMMA1, x / spec.mu, log_bound, internal_param=z)


def lemma_la_check(A: float, x: float) -> bool:
    """Check A (x + ln(1-x)) <= ln(1 - A x^2 / 2) for A >= 1, 0 <= x <= 1/A.

    Self-test helper backing the lower-bound derivation; must hold on the
    whole stated domain. Small relative slack absorbs round-off.
    """
    if not A >= 1.0:
        raise DomainError(f"need A >= 1, got {A}")
    if not (0.0 <= x <= 1.0 / A):
        raise DomainError(f"need 0 <= x <= 1/A, got x={x}, A={A}")
    lhs = -math.inf if x >= 1.0 else A * (x + math.log1p(-x))
    rhs = math.log1p(-A * x * x / 2.0)
    return lhs <= rhs + 1e-12 * max(1.0, abs(rhs))
