"""Tail bounds for sums of independent exponential variables.

Continuous analogues of the geometric bounds, with a_min*mu playing the role
of p_min*mu. All four are closed forms; the same lam = 1 conventions and
clamping rules apply as in geom_bounds, and texp-i and texp-iii take the
rate psi(lam) = lam - 1 - ln lam from model.psi, to a few ulps near lam = 1.
"""

from __future__ import annotations

import math

from .model import (
    BoundResult,
    ExponentialSumSpec,
    Method,
    bound_result,
    psi,
    require_lower,
    require_upper,
)


def exp_upper_i(spec: ExponentialSumSpec, lam: float) -> BoundResult:
    """P(X >= lam*mu) <= (1/lam) exp(-a_min*mu*(lam-1-ln lam)) for lam >= 1."""
    require_upper(lam, spec.mu)
    log_bound = -math.log(lam) - spec.a_min * spec.mu * psi(lam)
    return bound_result(Method.TEXP_I, lam, log_bound)


def exp_upper_ii(lam: float) -> BoundResult:
    """Simpler, weaker, parameter-free: P(X >= lam*mu) <= e^(1-lam)."""
    require_upper(lam)
    return bound_result(Method.TEXP_II, lam, 1.0 - lam)


def exp_lower_tail_iii(spec: ExponentialSumSpec, lam: float) -> BoundResult:
    """P(X <= lam*mu) <= exp(-a_min*mu*(lam-1-ln lam)) for 0 < lam <= 1."""
    require_lower(lam)
    log_bound = -spec.a_min * spec.mu * psi(lam)
    return bound_result(Method.TEXP_III, lam, log_bound)


def exp_tail_lower_iv(spec: ExponentialSumSpec, lam: float) -> BoundResult:
    """LOWER bound: P(X >= lam*mu) >= exp(-a_min*mu*(lam-1)) / (2e a_min mu)."""
    require_upper(lam, spec.mu)
    log_bound = -1.0 - math.log(2.0 * spec.a_min * spec.mu) - spec.a_min * spec.mu * (
        lam - 1.0
    )
    return bound_result(Method.TEXP_IV, lam, log_bound)
