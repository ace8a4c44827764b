"""Distribution specs, derived statistics, generating functions and bound results.

Everything downstream (bounds, oracles, Monte Carlo, CLI) consumes the
immutable spec types defined here. All derived statistics are computed
once at construction with compensated summation and cached.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class TailBoundsError(ValueError):
    """Base for all domain/validation errors raised by this package."""


class EmptyParams(TailBoundsError):
    """Raised when a spec is built from an empty parameter list."""


class OutOfRange(TailBoundsError):
    """Raised when a parameter falls outside its admissible range."""


class DomainError(TailBoundsError):
    """Raised when an evaluation point lies outside a function's domain."""


class LambdaOutOfRange(DomainError):
    """Raised when a tail ratio violates the side-specific range."""


class KTooSmall(TailBoundsError):
    """Raised when a pmf truncation point is below the minimum support."""


class NegativeX(DomainError):
    """Raised when a nonnegative threshold is required."""


@dataclass(frozen=True)
class LogProb:
    """A probability carried as its natural log (<= 0, -inf for zero)."""

    log_value: float

    def __post_init__(self) -> None:
        if math.isnan(self.log_value) or self.log_value > 0.0:
            raise OutOfRange(f"log probability must be <= 0, got {self.log_value}")

    @property
    def value(self) -> float:
        return math.exp(self.log_value)


class Method(str, enum.Enum):
    """Identifiers for every bound this package computes."""

    THM1 = "thm1"
    THM2 = "thm2"
    COR1 = "cor1"
    COR2 = "cor2"
    TL1 = "tl1"
    TL = "tl"
    LEMMA1 = "lemma1"
    OPT_CHERNOFF = "opt-chernoff"
    OPT_LEMMA1 = "opt-lemma1"
    TEXP_I = "texp-i"
    TEXP_II = "texp-ii"
    TEXP_III = "texp-iii"
    TEXP_IV = "texp-iv"


@dataclass(frozen=True)
class BoundResult:
    """A bound value with its method, query ratio, and any optimized parameter.

    ``internal_param`` is the Chernoff exponent's t (0 <= t < p_min) or the
    generating-function argument z (1 <= z < 1/(1-p_min)), when the method has
    one. Bounds that exceed 1 after round-off are clamped to 1 and flagged.
    """

    log_bound: LogProb
    method: Method
    lam: float
    internal_param: float | None = None
    clamped: bool = False

    @property
    def value(self) -> float:
        return self.log_bound.value

    @property
    def log_value(self) -> float:
        return self.log_bound.log_value


def bound_result(
    method: Method, lam: float, log_bound: float, internal_param: float | None = None
) -> BoundResult:
    """Wrap a log bound as a BoundResult, clamping a value above 1 and flagging it."""
    clamped = log_bound > 0.0
    return BoundResult(
        log_bound=LogProb(min(log_bound, 0.0)),
        method=method,
        lam=lam,
        internal_param=internal_param,
        clamped=clamped,
    )


def require_upper(lam: float) -> None:
    """Refuse a tail ratio below 1, where an upper-tail bound does not apply."""
    if not lam >= 1.0:
        raise LambdaOutOfRange(f"upper-tail bound needs lambda >= 1, got {lam}")


@dataclass(frozen=True)
class GeometricSumSpec:
    """Parameters of a sum of independent geometric variables on {1, 2, ...}.

    Each summand has success probability ``p_i`` in (0, 1] and pmf
    p_i (1-p_i)^(k-1). Derived statistics: mean ``mu`` = sum 1/p_i,
    smallest probability ``p_min``, and variance ``sigma2`` = sum (1-p_i)/p_i^2.
    """

    params: tuple[float, ...]
    mu: float = field(init=False)
    p_min: float = field(init=False)
    sigma2: float = field(init=False)

    def __post_init__(self) -> None:
        if len(self.params) == 0:
            raise EmptyParams("need at least one success probability")
        for p in self.params:
            if not (0.0 < p <= 1.0):
                raise OutOfRange(f"success probability {p!r} not in (0, 1]")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        object.__setattr__(self, "mu", math.fsum(1.0 / p for p in self.params))
        object.__setattr__(self, "p_min", min(self.params))
        # divide twice: p*p underflows to 0 for subnormal-range p
        object.__setattr__(
            self, "sigma2", math.fsum((1.0 - p) / p / p for p in self.params)
        )

    @property
    def n(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class ExponentialSumSpec:
    """Parameters of a sum of independent exponential variables.

    Each summand has rate ``a_i`` > 0 (mean 1/a_i, density a_i e^(-a_i x)).
    Derived: mean ``mu`` = sum 1/a_i and smallest rate ``a_min``.
    """

    rates: tuple[float, ...]
    mu: float = field(init=False)
    a_min: float = field(init=False)

    def __post_init__(self) -> None:
        if len(self.rates) == 0:
            raise EmptyParams("need at least one rate")
        for a in self.rates:
            if not (a > 0.0) or math.isinf(a):
                raise OutOfRange(f"rate {a!r} not in (0, inf)")
        object.__setattr__(self, "rates", tuple(float(a) for a in self.rates))
        object.__setattr__(self, "mu", math.fsum(1.0 / a for a in self.rates))
        object.__setattr__(self, "a_min", min(self.rates))

    @property
    def n(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class TailQuery:
    """A tail threshold expressed both ways: absolute x and ratio lam = x/mu."""

    lam: float
    x: float


def make_geometric_spec(p: list[float] | tuple[float, ...]) -> GeometricSumSpec:
    """Validate success probabilities and build a spec with cached mu, p_min, sigma2."""
    return GeometricSumSpec(tuple(p))


def make_exponential_spec(a: list[float] | tuple[float, ...]) -> ExponentialSumSpec:
    """Validate rates and build a spec with cached mu and a_min."""
    return ExponentialSumSpec(tuple(a))


def make_tail_query(
    mu: float, x: float | None = None, lam: float | None = None
) -> TailQuery:
    """Resolve a query from exactly one of x (threshold) or lam (ratio), via x = lam*mu.

    Both must come out finite: a NaN or infinite threshold has no tail to
    bound, and would otherwise reach the oracles as a silent 0 or a crash.
    """
    if (x is None) == (lam is None):
        raise DomainError("give exactly one of x or lambda")
    if x is None:
        query = TailQuery(lam=float(lam), x=float(lam) * mu)
    else:
        query = TailQuery(lam=float(x) / mu, x=float(x))
    if not (math.isfinite(query.lam) and math.isfinite(query.x)):
        raise DomainError(
            f"need a finite threshold, got x={query.x}, lambda={query.lam}"
        )
    return query


def pgf_pole_gap(p: float, z: float) -> float:
    """Distance 1 - (1-p) z to the generating-function pole, evaluated stably.

    Two algebraically equal forms with complementary round-off: (1-z) + p z
    is exact at z = 1 for any p (the direct form collapses to 0 for p below
    machine epsilon), while for p > 1/2 the direct form is exact near the
    pole (1-p is Sterbenz-exact there) where the rearrangement cancels.
    Either form gets the sign right except within about one ulp of z
    around the pole, so stepping down from the rounded pole reaches a
    positive gap within a double or two.
    """
    if p <= 0.5:
        return (1.0 - z) + p * z
    return 1.0 - (1.0 - p) * z


def log_pgf_geometric(spec: GeometricSumSpec, z: float) -> float:
    """ln E z^X, summed factor by factor to survive deep arguments."""
    _check_pgf_domain(spec, z)
    if z == 0.0:
        return -math.inf
    terms = []
    for p in spec.params:
        d = pgf_pole_gap(p, z)
        if d <= 0.0:  # pole reached through round-off
            raise DomainError(f"z={z} is at or beyond the pgf pole for p={p}")
        terms.append(math.log(p) + math.log(z) - math.log(d))
    return math.fsum(terms)


def _check_pgf_domain(spec: GeometricSumSpec, z: float) -> None:
    if not z >= 0.0:
        raise DomainError(f"pgf needs z >= 0, got {z}")
    if pgf_pole_gap(spec.p_min, z) <= 0.0:
        raise DomainError(
            f"z={z} is at or beyond the pgf pole 1/(1-p_min) for p_min={spec.p_min}"
        )


def log_inequality_check(x: float, y: float) -> bool:
    """Check -ln(1-x) <= -(x/y) ln(1-y) for 0 < x <= y < 1.

    True by convexity of -ln(1-t); exposed as a self-test helper. A relative
    slack of 1e-12 absorbs round-off when x and y nearly coincide.
    """
    if not (0.0 < x <= y < 1.0):
        raise DomainError(f"need 0 < x <= y < 1, got x={x}, y={y}")
    lhs = -math.log1p(-x)
    rhs = -(x / y) * math.log1p(-y)
    return lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def read_params_file(path: str) -> list[float]:
    """Read the shared plain-text parameter format.

    One or more decimal numbers per line, separated by whitespace or commas;
    lines whose first non-blank character is '#' are ignored.
    """
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            for token in stripped.replace(",", " ").split():
                try:
                    values.append(float(token))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: cannot parse {token!r} as a number"
                    ) from None
    return values
