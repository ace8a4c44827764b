"""Shared helpers: seeded random specs, slow independent oracles, the paper's two
scalar lemmas, scalar samplers, and the bisection solver the optimized bounds
are checked against."""

from __future__ import annotations

import math
import random
import struct
from decimal import Decimal, localcontext

import numpy as np

from tailbounds import (
    DomainError,
    GeometricSumSpec,
    OutOfRange,
    make_exponential_spec,
    make_geometric_spec,
    exact_oracle,
    uniform_block,
)
from tailbounds.model import require_side, require_upper


def random_geom_specs(seed: int, count: int, n_max: int = 8, p_lo: float = 0.05):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        specs.append(make_geometric_spec(list(rng.uniform(p_lo, 1.0, n))))
    return specs


def random_exp_specs(seed: int, count: int, n_max: int = 6):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        specs.append(make_exponential_spec(list(rng.uniform(0.1, 10.0, n))))
    return specs


def brute_force_pmf(params, K: int) -> dict[int, float]:
    """O(n K^2) dict-based convolution, independent of the production path."""
    dist = {0: 1.0}
    for p in params:
        new: dict[int, float] = {}
        for k0, pr0 in dist.items():
            for k in range(1, K - k0 + 1):
                new[k0 + k] = new.get(k0 + k, 0.0) + pr0 * p * (1.0 - p) ** (k - 1)
        dist = new
    return dist


def brute_force_tail(params, x: float, K: int) -> float:
    """P(X >= x) by brute-force convolution, valid when P(X > K) is negligible."""
    pmf = brute_force_pmf(params, K)
    k0 = max(math.ceil(x), len(params))
    return sum(pr for k, pr in pmf.items() if k >= k0)


def reference_pmf_grid(spec, K: int, upper: bool = True) -> tuple[np.ndarray, float]:
    """P(X = k) for k = 0..K, one ``lfilter`` per summand in the order of
    ``spec.params``, and P(X > K) if ``upper``, else P(X <= K).

    The reference for the package's one-call cascade, which must agree with
    it within round-off. It filters the whole grid from k = 0 with an impulse
    of 1, where the package filters the support above n with an impulse of
    2^1000. Summand i's state after step K is the pmf of the first i
    summands' sum at K + 1, and it goes on to emit s_i / p_i in all; the
    lower tail is the grid's sum.
    """
    from scipy.signal import lfilter

    c = np.zeros(K + 1)
    c[0] = 1.0
    tail = 0.0
    for p in spec.params:
        c, (state,) = lfilter([0.0, p], [1.0, -(1.0 - p)], c, zi=[0.0])
        tail += state / p
    return c, (tail if upper else float(np.sum(c)))


def decimal_tail(spec: GeometricSumSpec, x: float, side: str = "upper") -> Decimal:
    """P(X >= x) (side "upper") or P(X <= x) (side "lower") for at most 20
    geometric summands, in 40-digit decimal at any depth.

    The package's cascade (``exact_oracle._pmf_grid``) in the standard
    library's decimal arithmetic, on the exact values of the doubles p_i: over
    m = 0..M, section i emits y = p_i v + s_i for its input v (an impulse of
    1 at m = 0) and keeps s_i = (1 - p_i) y, so the last section emits
    P(X = n + m). For the upper tail, M = k0 - 1 - n with k0 = ceil(x), and
    P(X >= k0) = P(X > k0 - 1) is the final states' sum of s_i / p_i. For the
    lower tail, M = floor(x) - n, and P(X <= floor(x)) is the sum of the last
    section's outputs. Every operation adds or multiplies nonnegative
    numbers, so nothing cancels, and decimal's exponent range reaches far
    below any double. A value meets at most about 3 (M + 2n) roundings of
    half a unit in the 40th digit on its way, so the answer is relative to
    about 1e-34 for M up to 10^5.
    """
    if spec.n > 20:
        raise ValueError(f"decimal_tail takes at most 20 summands, got {spec.n}")
    require_side(side)
    upper = side == "upper"
    steps = math.ceil(x) - spec.n if upper else math.floor(x) - spec.n + 1
    if steps <= 0:
        return Decimal(1 if upper else 0)
    with localcontext() as ctx:
        ctx.prec = 40
        p = [Decimal(v) for v in sorted(spec.params)]
        q = [1 - v for v in p]
        s = [Decimal(0)] * spec.n
        lower = Decimal(0)
        for m in range(steps):
            v = Decimal(1 if m == 0 else 0)
            for i in range(spec.n):
                v = p[i] * v + s[i]
                s[i] = q[i] * v
            lower += v
        if not upper:
            return lower
        return sum((si / pi for si, pi in zip(s, p)), Decimal(0))


def partial_fractions_survival(spec, x: float) -> tuple[float, float]:
    """Hypoexponential P(X > x) and its error bound from the package's
    partial-fraction kernel alone, with the exponents -a_i x."""
    a = sorted(spec.rates)
    return exact_oracle._partial_fractions(a, [-ai * x for ai in a])


def matrix_exp_survival(spec, x: float) -> tuple[float, float]:
    """Hypoexponential P(X > x) and its error bound from the package's matrix
    route alone, on the same exponents -a_i x."""
    c = [-ai * x for ai in sorted(spec.rates)]
    s, bound = exact_oracle._matrix_exp_scaling(c)
    return exact_oracle._matrix_exp_survival(c, s), bound


def pgf_pole_gap(p: float, z: float) -> float:
    """Distance 1 - (1-p) z to the generating-function pole, in the two forms
    that the package's log_pgf_geometric uses."""
    if p <= 0.5:
        return (1.0 - z) + p * z
    return 1.0 - (1.0 - p) * z


def pgf_geometric(spec, z: float) -> float:
    """Probability generating function E z^X = prod_i p_i z / (1 - (1-p_i) z).

    Valid for z >= 0 with z (1-p_i) < 1 for every i; the pole nearest the
    origin comes from p_min, so degenerate specs (p_min = 1) accept any z >= 0.
    """
    if not z >= 0.0:
        raise DomainError(f"pgf needs z >= 0, got {z}")
    if pgf_pole_gap(spec.p_min, z) <= 0.0:
        raise DomainError(f"z={z} is at or beyond the pgf pole for p_min={spec.p_min}")
    out = 1.0
    for p in spec.params:
        out *= p * z / pgf_pole_gap(p, z)
    return out


def log_inequality_check(x: float, y: float) -> bool:
    """Check -ln(1-x) <= -(x/y) ln(1-y) for 0 < x <= y < 1.

    True by convexity of -ln(1-t). A relative slack of 1e-12 absorbs round-off
    when x and y nearly coincide.
    """
    if not (0.0 < x <= y < 1.0):
        raise DomainError(f"need 0 < x <= y < 1, got x={x}, y={y}")
    lhs = -math.log1p(-x)
    rhs = -(x / y) * math.log1p(-y)
    return lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def lemma_la_check(A: float, x: float) -> bool:
    """Check A (x + ln(1-x)) <= ln(1 - A x^2 / 2) for A >= 1, 0 <= x <= 1/A.

    The scalar lemma behind the lower bound on the upper tail; it must hold on
    the whole stated domain. A relative slack of 1e-12 absorbs round-off.
    """
    if not A >= 1.0:
        raise DomainError(f"need A >= 1, got {A}")
    if not (0.0 <= x <= 1.0 / A):
        raise DomainError(f"need 0 <= x <= 1/A, got x={x}, A={A}")
    lhs = -math.inf if x >= 1.0 else A * (x + math.log1p(-x))
    rhs = math.log1p(-A * x * x / 2.0)
    return lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def mgf_exponential(spec, t: float) -> float:
    """Moment generating function E e^(tX) = prod_i a_i / (a_i - t), for t < a_min."""
    if not t < spec.a_min:
        raise DomainError(f"mgf needs t < a_min={spec.a_min}, got t={t}")
    out = 1.0
    for a in spec.rates:
        out *= a / (a - t)
    return out


class UniformStream:
    """Sequential reader over the Monte Carlo uniform stream, one uniform per
    call, each read by seeking to its position with uniform_block."""

    def __init__(self, seed: int, position: int = 0):
        if not (0 <= seed < 2**64):
            raise OutOfRange(f"seed {seed} not a 64-bit unsigned integer")
        self.seed = seed
        self.position = position

    def uniform(self) -> float:
        u = float(uniform_block(self.seed, self.position, 1)[0])
        self.position += 1
        return u


def sample_geometric_sum(spec, rng: UniformStream) -> int:
    """One draw of the sum, by inversion: X_i = ceil(ln U / ln(1-p_i)).

    Consumes exactly one uniform per summand (degenerate p_i = 1 included,
    so sequential and vectorized paths stay position-aligned).
    """
    total = 0
    for p in spec.params:
        u = rng.uniform()
        if p == 1.0:
            total += 1
        else:
            total += math.ceil(math.log(u) / math.log1p(-p))
    return total


def sample_exponential_sum(spec, rng: UniformStream) -> float:
    """One draw of the sum: sum of -ln(U_i)/a_i."""
    return math.fsum(-math.log(rng.uniform()) / a for a in spec.rates)


def reference_sums_block(spec, seed: int, start: int, count: int) -> np.ndarray:
    """Sums of samples start..start+count-1, inverted one summand column at a time.

    The reference for the package's in-place block sampler, which must match
    it bit for bit.
    """
    n = spec.n
    u = uniform_block(seed, start * n, count * n).reshape(count, n)
    if isinstance(spec, GeometricSumSpec):
        draws = np.empty_like(u)
        for j, p in enumerate(spec.params):
            if p == 1.0:
                draws[:, j] = 1.0
            else:
                draws[:, j] = np.ceil(np.log(u[:, j]) / math.log1p(-p))
    else:
        draws = -np.log(u) / np.asarray(spec.rates)
    return draws.sum(axis=1)


def _bits(v: float) -> int:
    return struct.unpack("<q", struct.pack("<d", v))[0]


def _from_bits(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]


def bisect_increasing_root(g, lo: float, hi: float) -> float:
    """The smallest double in [lo, hi] where increasing g is >= 0, by bisecting
    bit patterns (at most 64 evaluations of g, and g(hi) is never evaluated).

    The reference solver for the package's Newton solver.
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


def reference_chernoff_log(spec, lam: float) -> float:
    """optimized_chernoff's log bound, from bisection and fsum over Python floats."""
    require_upper(lam)
    target = lam * spec.mu
    t = bisect_increasing_root(
        lambda t: math.fsum(1.0 / (p - t) for p in spec.params) - target,
        0.0,
        math.nextafter(spec.p_min, 0.0),
    )
    return min(0.0, -t * target - math.fsum(math.log1p(-t / p) for p in spec.params))


def reference_lemma1_log(spec, x: float) -> float:
    """optimized_lemma1's log bound, from bisection in w = z - 1 over the doubles
    with p_min - (1 - p_min) w > 0, and fsum over Python floats.

    The bisected function is the derivative of the log bound in ln(1 + w),
    n - x + (1 + w) sum_{i != i*} q_i / (p_i - q_i w), which is increasing.
    """
    if spec.p_min == 1.0:
        return -math.inf if x > spec.n else 0.0
    others = list(spec.params)
    others.remove(spec.p_min)
    q_min = 1.0 - spec.p_min
    w_max = spec.p_min / q_min
    while not spec.p_min - q_min * w_max > 0.0:
        w_max = math.nextafter(w_max, 0.0)
    slope = spec.n - x
    w = bisect_increasing_root(
        lambda w: slope + (1.0 + w) * math.fsum((1.0 - p) / (p - (1.0 - p) * w) for p in others),
        0.0,
        w_max,
    )
    log_bound = slope * math.log1p(w) - math.fsum(
        math.log1p(-(1.0 - p) * w / p) for p in others
    )
    return min(0.0, log_bound)


OPTIMIZER_LAMS = (1.0, 1.01, 1.25, 2.0, 3.0, 5.0, 10.0, 20.0)


def optimizer_corpus():
    """400 specs that stress the root solves: 396 of up to 8 summands on
    (0.05, 1), half of them with one p_min drawn log-uniformly from
    [1e-300, 1e-6], with 0-2 copies of p_min (ties) and 0-2 summands with
    p_i = 1; then 4 specs of 10^3 summands on (0.05, 1).
    """
    rng = random.Random(0)
    specs = []
    for _ in range(396):
        p = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.5:
            p[0] = 10.0 ** rng.uniform(-300.0, -6.0)
        p += [min(p)] * rng.randint(0, 2)
        p += [1.0] * rng.randint(0, 2)
        specs.append(make_geometric_spec(p))
    for _ in range(4):
        specs.append(make_geometric_spec([rng.uniform(0.05, 1.0) for _ in range(1000)]))
    return specs
