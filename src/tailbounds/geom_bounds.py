"""Tail bounds for sums of independent geometric variables.

Closed-form upper bounds for P(X >= lam*mu), an upper bound for the lower
tail P(X <= lam*mu), a matching lower bound for the upper tail, and two
numerically optimized variants (a Chernoff exponent minimized over its free
parameter t, and a generating-function bound minimized over z). Both
objectives are convex, so each optimum is one bracketed root of an
increasing convex derivative, found by safeguarded Newton steps with numpy
over the spec's parameter array. Every bound is computed in log space and
returned as a BoundResult.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .model import (
    BoundResult,
    DomainError,
    GeometricSumSpec,
    LambdaOutOfRange,
    Method,
    bound_result,
    log_pgf_geometric,
    pgf_pole_gap,
    pgf_pole_gaps,
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
    if not 0.0 <= x < math.inf:
        raise DomainError(f"need a finite x >= 0, got {x}")
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


# Evaluations after which _increasing_root bisects bit patterns alone. The
# nonnegative doubles span fewer than 2**63 patterns, so that adds at most 63.
_NEWTON_EVALUATIONS = 64


def _increasing_root(g, lo: float, hi: float) -> tuple[float, int]:
    """The smallest double in [lo, hi] (0 <= lo <= hi) where increasing convex g
    is >= 0, and how many times g was evaluated.

    g(t) returns (g(t), g'(t)). The solve returns lo when g(lo) >= 0 and hi
    when g(hi) < 0. Otherwise it keeps a bracket a < root <= b of doubles and
    takes Newton steps from the last point evaluated, safeguarded as in
    "rtsafe" (Press et al., Numerical Recipes 9.4): a step that leaves the
    bracket or fails to halve the step before last, and any step with a
    non-finite or zero g', becomes a bisection of the bracket's bit patterns.
    Nonnegative doubles order like their bit patterns, so bisection works at
    any scale. On a convex g a Newton step lands at or right of the root, so
    Newton converges from the right. Once it stops moving (its next step is
    at most one double, or falls behind a through round-off), probes 1, 2,
    4, ... doubles away find the sign change, and the bracket closes on two
    adjacent doubles. After 64 evaluations only bisection runs, so a solve
    never takes more than 127.
    """
    g_lo, _ = g(lo)
    if g_lo >= 0.0:
        return lo, 1
    x = hi
    gx, dx = g(hi)
    if gx < 0.0:
        return hi, 2
    evaluations = 2
    a, b = _bits(lo), _bits(hi)
    step = last = hi - lo
    probe = 1
    while b - a > 1:
        c = (a + b) // 2
        if evaluations < _NEWTON_EVALUATIONS and 0.0 < dx < math.inf:
            t = x - gx / dx
            if gx >= 0.0 and t <= _from_bits(a):
                # from the right Newton only falls behind a through round-off,
                # so the root is at a: probe the doubles just above it
                c = a + probe
                probe *= 2
            elif abs(_bits(t) - _bits(x)) <= 1:
                # Newton has converged to round-off: probe past x, doubling
                # the distance while g keeps its sign
                c = _bits(x) + (probe if gx < 0.0 else -probe)
                probe *= 2
            else:
                probe = 1
                if _from_bits(a) < t < _from_bits(b) and abs(t - x) <= 0.5 * last:
                    c = _bits(t)
            if not a < c < b:
                c = (a + b) // 2
        x_new = _from_bits(c)
        step, last = abs(x_new - x), step
        x = x_new
        gx, dx = g(x)
        evaluations += 1
        if gx >= 0.0:
            b = c
        else:
            a = c
    return _from_bits(b), evaluations


def optimized_chernoff(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """Chernoff bound with the exponent minimized over t in [0, p_min).

    The exponent -t lam mu - sum ln(1 - t/p_i) is convex in t, so its
    minimizer is the root of the increasing convex derivative
    -lam mu + sum 1/(p_i - t), with second derivative sum 1/(p_i - t)^2.
    Never worse than upper_tail_thm1, whose t is one point of the same
    domain.
    """
    require_upper(lam)
    target = lam * spec.mu
    p = spec.param_array
    p_min = spec.p_min
    inv_p = 1.0 / p
    excess = (lam - 1.0) * (spec.mu * p_min)

    # The derivative times p_min, written with 1/(p_i - t) - 1/p_i =
    # t/(p_i (p_i - t)) so that mu cancels exactly (g(0) = 0 at lam = 1).
    # The factor p_min keeps g and g' finite off the pole for a tiny p_min.
    def g(t: float) -> tuple[float, float]:
        r = p_min / (p - t)
        return float((t * inv_p) @ r) - excess, float(r @ r) / p_min

    # 1/(p_min - t) <= sum 1/(p_i - t) <= mu/(1 - t/p_min) brackets the root
    lo = (1.0 - 1.0 / lam) * p_min
    hi = max(lo, min(p_min - 1.0 / target, math.nextafter(p_min, 0.0)))
    t, evaluations = _increasing_root(g, lo, hi)
    log_bound = -t * target - math.fsum(np.log1p(-t / p).tolist())
    return bound_result(
        Method.OPT_CHERNOFF, lam, log_bound, internal_param=t, evaluations=evaluations
    )


def optimized_lemma1(spec: GeometricSumSpec, x: float) -> BoundResult:
    """lemma1_bound minimized over the doubles z in [1, 1/(1-p_min)).

    The prefactor (1 - z q*)/p_min cancels the pole factor of one summand
    i* with p_i = p_min (q_i = 1 - p_i), so with u = ln z the log bound is

        (n - x) u - sum_{i != i*} ln((1 - q_i z) / p_i),

    convex in u and finite at the pole unless p_min is tied. Its minimizer
    is the root of the increasing convex derivative n - x + sum_{i != i*}
    q_i z / (1 - q_i z), with second derivative sum_{i != i*} q_i / (1 - q_i z)^2;
    when the derivative stays negative the optimum sits at the pole and z
    is the largest double below it. The bound is the cancelled form at the
    reported z, which lemma1_bound at internal_param reproduces.

    For degenerate specs (p_min = 1, so X is a.s. its minimum value n) the z
    domain is unbounded and the infimum is 0 for x > n, 1 otherwise.
    """
    if not 0.0 <= x < math.inf:
        raise DomainError(f"need a finite x >= 0, got {x}")
    lam = x / spec.mu
    if spec.p_min == 1.0:
        if x > spec.n:
            return bound_result(Method.OPT_LEMMA1, lam, -math.inf, evaluations=0)
        return bound_result(
            Method.OPT_LEMMA1, lam, 0.0, internal_param=1.0, evaluations=0
        )

    others = np.delete(spec.param_array, np.argmin(spec.param_array))
    q = 1.0 - others
    # the largest z below the pole, both as 1/(1-p_min) rounds and by the gap
    z_max = max(1.0, math.nextafter(1.0 / (1.0 - spec.p_min), 0.0))
    while pgf_pole_gap(spec.p_min, z_max) <= 0.0:
        z_max = math.nextafter(z_max, 0.0)
    slope = spec.n - x

    def g(z: float) -> tuple[float, float]:
        gap = pgf_pole_gaps(others, z)
        r = q / gap
        return slope + z * float(r.sum()), float((r / gap).sum())

    # q/gap and q/gap^2 overflow next to a tied pole
    with np.errstate(over="ignore"):
        z, evaluations = _increasing_root(g, 1.0, z_max)
    log_bound = slope * math.log(z) - math.fsum(
        np.log(pgf_pole_gaps(others, z) / others).tolist()
    )
    return bound_result(
        Method.OPT_LEMMA1, lam, log_bound, internal_param=z, evaluations=evaluations
    )


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
