"""Tail bounds for sums of independent geometric variables.

Closed-form upper bounds for P(X >= lam*mu), an upper bound for the lower
tail P(X <= lam*mu) (thm1, thm2, cor1 and tl1 read the rate psi(lam) =
lam - 1 - ln lam from model.psi, to a few ulps near lam = 1, where the
direct form cancels), a matching lower bound for the upper tail, and two
numerically optimized variants (a Chernoff exponent minimized over its free
parameter t, and a generating-function bound minimized over w = z - 1). Both
objectives are convex, and each optimum is a root of
sum_i 1/(a_i - b_i s) = T, with gaps a_i - b_i s linear in the variable s.
One solver finds both by Newton steps on the reciprocal of the sum, which
is concave. Its two inner sums, and the log-gap sum of both bounds, run
with numpy over the spec's cached parameter array, or on Python floats for
a spec of up to _LIST_MAX_N summands while numpy is not imported, to the
same bits either way; numpy is imported only there, so the closed forms,
and the optimized bounds of small specs, run without it. Every bound is
computed in log space and returned as a BoundResult. The candidates of
methods.best_upper also have float cores (thm1_log, thm2_log, cor1_log,
cor2_log and opt_lemma1_log), which return (log bound, internal parameter,
evaluations) for a validated query; each public bound wraps its core, so
best_upper can compare the candidates as floats and build one result.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat

from .model import (
    BoundResult,
    DomainError,
    GeometricSumSpec,
    Method,
    as_double,
    bound_result,
    log1pmx,
    log1pmx_array,
    pairwise_sum,
    psi,
    require_lower,
    require_threshold,
    require_upper,
)


def thm1_log(spec: GeometricSumSpec, lam: float) -> tuple[float, float, None]:
    """upper_tail_thm1's (log bound, t, evaluations) at a validated lam."""
    return -spec.p_min * spec.mu * psi(lam), (1.0 - 1.0 / lam) * spec.p_min, None


def upper_tail_thm1(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """Closed-form Chernoff bound P(X >= lam*mu) <= exp(-p_min*mu*(lam-1-ln lam))."""
    require_upper(lam, spec.mu)
    return bound_result(Method.THM1, lam, *thm1_log(spec, lam))


def cor1_log(lam: float) -> tuple[float, None, None]:
    """upper_tail_cor1's (log bound, parameter, evaluations) at a validated lam."""
    return -psi(lam), None, None


def upper_tail_cor1(lam: float) -> BoundResult:
    """Parameter-free bound P(X >= lam*mu) <= lam * e^(1-lam)."""
    require_upper(lam)
    return bound_result(Method.COR1, lam, *cor1_log(lam))


def thm2_log(spec: GeometricSumSpec, lam: float) -> tuple[float, None, None]:
    """upper_tail_thm2's (log bound, parameter, evaluations) at a validated lam."""
    if lam == 1.0:
        log_bound = 0.0
    elif spec.p_min == 1.0:  # math.log1p(-1.0) raises, not -inf
        log_bound = -math.inf
    else:
        log_bound = -math.log(lam) + psi(lam) * spec.mu * math.log1p(-spec.p_min)
    return log_bound, None, None


def upper_tail_thm2(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """Sharper bound P(X >= lam*mu) <= (1/lam) (1-p_min)^((lam-1-ln lam) mu).

    For p_min = 1 the sum is deterministic, so the bound is 0 for lam > 1.
    At lam = 1 the exponent factor vanishes and the bound is 1 regardless
    of p_min (the 0 * log(0) product is taken as 0, by continuity in lam).
    """
    require_upper(lam, spec.mu)
    return bound_result(Method.THM2, lam, *thm2_log(spec, lam))


def cor2_log(lam: float) -> tuple[float, None, None]:
    """upper_tail_cor2's (log bound, parameter, evaluations) at a validated lam."""
    return 1.0 - lam, None, None


def upper_tail_cor2(lam: float) -> BoundResult:
    """Parameter-free bound P(X >= lam*mu) <= e^(1-lam)."""
    require_upper(lam)
    return bound_result(Method.COR2, lam, *cor2_log(lam))


def lower_tail_tl1(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """Lower-tail bound P(X <= lam*mu) <= exp(-p_min*mu*(lam-1-ln lam)), 0 < lam <= 1."""
    require_lower(lam)
    log_bound = -spec.p_min * spec.mu * psi(lam)
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


# Largest spec.n whose optimized rows may run on Python floats (see _sorted_params);
# at most 128, the one block of numpy's sum that pairwise_sum reproduces.
_LIST_MAX_N = 24


def _sorted_params(spec: GeometricSumSpec):
    """The spec's parameters ascending, as the optimized rows' kernels take them:
    a list of floats for at most ``_LIST_MAX_N`` summands in a process that has
    not imported numpy, otherwise the cached numpy ``param_array``.

    Both kinds give the same bits, so the choice only moves time. A process
    that has imported numpy keeps the arrays for every n: its code stays warm
    for the large solves (in the interleaved mix of ``bench/run.py --workload
    deep``, best_upper at n = 10^3 took 155 us instead of 73 us when the n = 8
    calls around it ran on lists). Without numpy, lists spare the import: a
    fresh ``tailbounds bound --method best --params-file`` took, lists against
    arrays, 0.071 against 0.139 s at n = 8, 0.079 against 0.156 at n = 10^3,
    0.107 against 0.165 at n = 10^4 and 0.226 against 0.176 at n = 3 10^4.
    The cut-off sits far below that crossover because the bits must agree:
    up to it an array caller also takes its logs from math.log1p (see
    _log_gap_sum), which best_upper pays for, with math against numpy logs,
    31.7 against 34.4 us at n = 8, 32.1 against 32.0 at n = 24, 33.5
    against 32.3 at n = 32 and 42.1 against 31.6 at n = 128. Medians of 10
    fresh runs per n, and in-process medians over 24 random queries per n
    (p_i ~ U(0.05, 1), lam from 1.5 to 20), each pinned to one CPU of a
    2-vCPU Xeon host (Python 3.11, numpy 2.4).
    """
    if "numpy" not in sys.modules and spec.n <= _LIST_MAX_N:
        return sorted(spec.params)
    return spec.param_array


def _lemma1_terms(spec: GeometricSumSpec):
    """(p_i, q_i = 1 - p_i) over the sorted parameters but i* = 0, the p_min
    entry, in the kind _sorted_params gives."""
    others = _sorted_params(spec)[1:]
    if isinstance(others, list):
        return others, [1.0 - p for p in others]
    return others, 1.0 - others


def _log_gap_sum(a, b, s: float, less_ratios: bool = False) -> float:
    """sum_i ln(1 - b_i s / a_i) over a list or a numpy array a, with b a float
    or a sequence of a's kind; with less_ratios, the same sum less
    sum_i -b_i s / a_i, taken termwise as model.log1pmx(-b_i s / a_i) so that
    nothing cancels where the ratios are small.

    Up to _LIST_MAX_N terms the logs come from math.log1p (inside log1pmx
    with less_ratios) and add with math.fsum for either kind; longer arrays
    take numpy's log1p (inside model.log1pmx_array with less_ratios). numpy's
    log1p can differ from the C library's in the last bit (its AVX-512 build
    does for about 3% of inputs). So small specs leave numpy's log1p cold for
    the next large one: in the interleaved mix of ``bench/run.py --workload
    deep``, best_upper at n = 10^3 took 83 us against 74 us when small arrays
    used numpy's logs."""
    if isinstance(a, list):
        ratios = [-bi * s / ai for ai, bi in zip(a, repeat(b) if isinstance(b, float) else b)]
    elif len(a) <= _LIST_MAX_N:
        ratios = (-b * s / a).tolist()
    elif less_ratios:
        return float(log1pmx_array(-b * s / a).sum())
    else:
        import numpy as np

        return float(np.log1p(-b * s / a).sum())
    log = log1pmx if less_ratios else math.log1p
    return math.fsum([log(v) for v in ratios])


def _lemma1_log(others, complements, n: int, x: float, w: float) -> float:
    """lemma1_bound's log at z = 1 + w, with the prefactor cancelled against the
    pole factor of i* = 0, over ``others`` and ``complements`` of _lemma1_terms
    (the p_i and q_i = 1 - p_i, i != i*):

        (n - x) ln(1 + w) - sum_{i != i*} ln(1 - q_i w / p_i).

    Every gap p_i - q_i w is linear in w, so w resolves the domain up to the
    pole 1 + w = 1/(1 - p_min) for any p_min, where z = 1 + w would round.
    """
    return (n - x) * math.log1p(w) - _log_gap_sum(others, complements, w)


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
    log_bound = _lemma1_log(*_lemma1_terms(spec), spec.n, x, w)
    return bound_result(Method.LEMMA1, x / spec.mu, log_bound, internal_param=z_double)


def _reciprocal_sums(a, b, c: float, s: float) -> tuple[float, float]:
    """R(s) = sum_i r_i and c R'(s) = sum_i b_i r_i^2, r_i = c/(a_i - b_i s), over
    a list or a numpy array a, with b a float or a sequence of a's kind. Each
    term rounds once per operation in either kind, and pairwise_sum adds a
    list in numpy's order, so both kinds give the same bits. The slope is a
    sum, not the dot product (b r) @ r, whose order a list cannot follow;
    and as a process's small solves then leave numpy's dot cold, large
    arrays take the sum too (the dot would save a pass, yet it made
    best_upper at n = 10^3 take 96 us against 85 us in the interleaved mix
    of ``bench/run.py --workload deep``)."""
    if isinstance(a, list):
        bs = repeat(b) if isinstance(b, float) else b
        r = [c / (ai - bi * s) for ai, bi in zip(a, bs)]
        return pairwise_sum(r), pairwise_sum([bi * ri * ri for ri, bi in zip(r, bs)])
    r = c / (a - b * s)
    return float(r.sum()), float((b * r * r).sum())


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
        total, slope = _reciprocal_sums(a, b, c, s)
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
    upper_tail_thm1, whose t is one point of the same domain. With
    mu = sum 1/p_i it is evaluated as -t (lam - 1) mu - sum log1pmx(-t/p_i),
    whose two parts have opposite signs at the optimum but do not cancel,
    so the log stays accurate to a few ulps relative near lam = 1, where
    both terms of the first form approach t lam mu.
    """
    require_upper(lam, spec.mu)
    target = lam * spec.mu
    p = _sorted_params(spec)
    p_min = spec.p_min
    # 1/(p_min - t) <= sum 1/(p_i - t) <= mu/(1 - t/p_min) brackets the root;
    # the factor p_min keeps each term finite next to the pole, and both ends
    # stay below the pole (Theorem 1's t can round to p_min for lam past about 2^53);
    # at lam = 1 the root is lo = 0 exactly, as R(0) = mu p_min is the target
    below_pole = math.nextafter(p_min, 0.0)
    lo = min((1.0 - 1.0 / lam) * p_min, below_pole)
    hi = lo if lam == 1.0 else max(lo, min(p_min - 1.0 / target, below_pole))
    t, evaluations = _reciprocal_root(p, 1.0, p_min, lam * (spec.mu * p_min), lo, hi)
    log_bound = -t * spec.mu * (lam - 1.0) - _log_gap_sum(p, 1.0, t, less_ratios=True)
    return bound_result(
        Method.OPT_CHERNOFF, lam, log_bound, internal_param=t, evaluations=evaluations
    )


def opt_lemma1_log(spec: GeometricSumSpec, x: float) -> tuple[float, float | None, int]:
    """optimized_lemma1's (log bound, w, evaluations) at a validated x."""
    if x <= spec.n:
        return 0.0, 0.0, 0
    p_min = spec.p_min
    if p_min == 1.0:
        return -math.inf, None, 0

    others, complements = _lemma1_terms(spec)
    q_min = 1.0 - p_min
    w_max = p_min / q_min
    while not p_min - q_min * w_max > 0.0:
        w_max = math.nextafter(w_max, 0.0)
    w, evaluations = _reciprocal_root(
        others, complements, p_min, (x - 1.0) * p_min, 0.0, w_max
    )
    return _lemma1_log(others, complements, spec.n, x, w), w, evaluations


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
    return bound_result(Method.OPT_LEMMA1, x / spec.mu, *opt_lemma1_log(spec, x))
