"""Distribution specs, derived statistics, generating functions and bound results.

Everything downstream (bounds, oracles, Monte Carlo, CLI) consumes the
immutable spec types defined here. A spec keeps its parameters once, as a
tuple of floats, with derived statistics computed at construction by
compensated summation. A geometric spec's sorted float64 ``param_array`` is
built with numpy on its first use and cached, so building a spec, like
importing the package, loads only the standard library.

Every public entry point first checks its query against the paper's
domains with the five validators here: ``require_upper`` (finite lam >= 1,
with a finite threshold lam * mu where the bound reads a spec),
``require_lower`` (0 < lam <= 1), ``require_threshold`` (finite x >= 0),
``require_count`` (an integer in a range) and ``require_side``. The real
checks read their value through ``as_double``, so a number with no double
value, such as the int 10**400, or a non-number is refused, not passed on to
overflow or to fail in float arithmetic.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


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

    ``internal_param`` is the Chernoff exponent's t (0 <= t < p_min for an upper
    tail; tl1's t = (1/lam - 1) p_min lies in [0, inf)), lemma1's
    generating-function argument z (1 <= z < 1/(1-p_min)), or opt-lemma1's
    w = z - 1 (0 <= w < p_min/(1-p_min)), when the method has one.
    ``evaluations`` counts the evaluations of the root solve behind an
    optimized bound (0 when no solve ran). Bounds that exceed 1 after
    round-off are clamped to 1 and flagged.
    """

    log_bound: LogProb
    method: Method
    lam: float
    internal_param: float | None = None
    clamped: bool = False
    evaluations: int | None = None

    @property
    def value(self) -> float:
        return self.log_bound.value

    @property
    def log_value(self) -> float:
        return self.log_bound.log_value


def bound_result(
    method: Method,
    lam: float,
    log_bound: float,
    internal_param: float | None = None,
    evaluations: int | None = None,
) -> BoundResult:
    """Wrap a log bound as a BoundResult, clamping a value above 1 and flagging it.

    A log bound of -0.0 (say -t * x at t = 0) is reported as 0.0.
    """
    clamped = log_bound > 0.0
    return BoundResult(
        log_bound=LogProb(min(log_bound, 0.0) + 0.0),  # -0.0 + 0.0 is 0.0
        method=method,
        lam=lam,
        internal_param=internal_param,
        clamped=clamped,
        evaluations=evaluations,
    )


def as_double(value) -> float:
    """value as a double: +-inf for a number past the double range, NaN for a
    non-number (a string included, though float() would parse it)."""
    if type(value) is float:  # the common case, tested first: bounds call this per row
        return value
    if isinstance(value, (str, bytes, bytearray)):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int (or Fraction) compares exactly but has no double
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        return math.nan


def require_upper(lam: float, mu: float | None = None) -> None:
    """Refuse a tail ratio that is not finite and >= 1 (upper-tail bounds),
    and, for a bound that reads a spec, one whose threshold lam * mu overflows."""
    value = as_double(lam)
    if not 1.0 <= value < math.inf:
        raise LambdaOutOfRange(f"upper-tail bound needs a finite lambda >= 1, got {lam}")
    if mu is not None and value * mu == math.inf:
        raise DomainError(f"need a finite threshold, got x=inf, lambda={lam}")


def require_lower(lam: float) -> None:
    """Refuse a tail ratio outside (0, 1] (lower-tail bounds)."""
    if not 0.0 < as_double(lam) <= 1.0:
        raise LambdaOutOfRange(f"lower-tail bound needs 0 < lambda <= 1, got {lam}")


def require_threshold(x: float) -> None:
    """Refuse a threshold that is not finite and >= 0."""
    value = as_double(x)
    if value < 0.0:
        raise NegativeX(f"need x >= 0, got {x}")
    if not value < math.inf:
        raise DomainError(f"need a finite x >= 0, got {x}")


def require_count(name: str, value, lo: int, hi: float) -> None:
    """Refuse a count outside [lo, hi] or not an integer (numpy's are, a bool is not)."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and lo <= value <= hi):
        raise OutOfRange(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


def require_side(side: str) -> None:
    """Refuse a tail side other than "upper" or "lower"."""
    if side not in ("upper", "lower"):
        raise OutOfRange(f"side must be 'upper' or 'lower', got {side!r}")


def _set_params(spec, names: tuple[str, str, str], what: str, top: float,
                interval: str) -> None:
    """Check a spec's parameters, then set them as floats with their mean
    sum 1/v and their smallest value.

    ``names`` are the spec's fields for these three. Each parameter must
    be a number in (0, top] (see ``as_double``) and the mean must not
    overflow; ``what`` and ``interval`` name the parameter and its range in
    the errors.
    """
    values = getattr(spec, names[0])
    if len(values) == 0:
        raise EmptyParams(f"need at least one {what}")
    doubles = tuple(map(as_double, values))
    for v, d in zip(values, doubles):
        if not 0.0 < d <= top:
            raise OutOfRange(f"{what} {v!r} not in {interval}")
    try:
        mu = math.fsum(1.0 / d for d in doubles)
    except OverflowError:  # fsum's intermediate sum overflowed
        mu = math.inf
    if mu == math.inf:
        raise OutOfRange(f"the mean, sum 1/v, overflows; smallest v is {min(doubles)!r}")
    for name, value in zip(names, (doubles, mu, min(doubles))):
        object.__setattr__(spec, name, value)


@dataclass(frozen=True)
class GeometricSumSpec:
    """Parameters of a sum of independent geometric variables on {1, 2, ...}.

    Each summand has success probability ``p_i`` in (0, 1] and pmf
    p_i (1-p_i)^(k-1). Derived statistics: mean ``mu`` = sum 1/p_i,
    smallest probability ``p_min``, and variance ``sigma2`` = sum (1-p_i)/p_i^2.
    ``params`` keeps the caller's order, which the Monte Carlo stream reads
    (draw j of a sample belongs to summand j).
    """

    params: tuple[float, ...]
    mu: float = field(init=False)
    p_min: float = field(init=False)
    sigma2: float = field(init=False)
    _array: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _set_params(self, ("params", "mu", "p_min"),
                    "success probability", 1.0, "(0, 1]")
        try:  # divide twice: p*p underflows to 0 for subnormal-range p
            sigma2 = math.fsum((1.0 - p) / p / p for p in self.params)
        except OverflowError:  # fsum's intermediate sum overflowed
            sigma2 = math.inf
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def n(self) -> int:
        return len(self.params)

    @property
    def param_array(self) -> np.ndarray:
        """``params`` sorted ascending (read-only float64), built on first use;
        ``p_min`` is its first entry.

        Cached in the ``_array`` field with ``object.__setattr__``, not by
        ``functools.cached_property``, which writes the instance ``__dict__``
        and so makes every later attribute read on the spec about twice as
        slow in CPython 3.11.
        """
        if self._array is None:
            import numpy as np

            out = np.sort(np.array(self.params))
            out.flags.writeable = False
            object.__setattr__(self, "_array", out)
        return self._array


@dataclass(frozen=True)
class ExponentialSumSpec:
    """Parameters of a sum of independent exponential variables.

    Each summand has rate ``a_i`` > 0 (mean 1/a_i, density a_i e^(-a_i x)).
    Derived: mean ``mu`` = sum 1/a_i and smallest rate ``a_min``. ``rates``
    keeps the caller's order, which the Monte Carlo stream reads.
    """

    rates: tuple[float, ...]
    mu: float = field(init=False)
    a_min: float = field(init=False)

    def __post_init__(self) -> None:
        _set_params(self, ("rates", "mu", "a_min"),
                    "rate", sys.float_info.max, "(0, inf)")

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
    The refusal names the given value, which may have no double (``as_double``).
    """
    if (x is None) == (lam is None):
        raise DomainError("give exactly one of x or lambda")
    if x is None:
        query = TailQuery(lam=as_double(lam), x=as_double(lam) * mu)
    else:
        query = TailQuery(lam=as_double(x) / mu, x=as_double(x))
    if not (math.isfinite(query.lam) and math.isfinite(query.x)):
        raise DomainError(
            f"need a finite threshold, got x={query.x if x is None else x}, "
            f"lambda={query.lam if lam is None else lam}"
        )
    return query


def log_pgf_geometric(spec: GeometricSumSpec, z: float) -> float:
    """ln E z^X, summed factor by factor to survive deep arguments."""
    value = as_double(z)
    if not 0.0 <= value < math.inf:
        raise DomainError(f"pgf needs a finite z >= 0, got {z}")
    z = value
    if z == 0.0:
        return -math.inf
    import numpy as np

    p = spec.param_array
    # 1 - (1-p) z in two forms with complementary round-off: (1-z) + p z is
    # exact at z = 1 for any p (the direct form collapses to 0 for p below
    # machine epsilon), while for p > 1/2 the direct form is exact near the
    # pole (1-p is Sterbenz-exact there) where the rearrangement cancels
    gaps = np.where(p <= 0.5, (1.0 - z) + p * z, 1.0 - (1.0 - p) * z)
    if not (gaps > 0.0).all():  # at or beyond a pole, or on it through round-off
        first = int(np.argmax(gaps <= 0.0))
        raise DomainError(f"z={z} is at or beyond the pgf pole for p={p[first]}")
    return math.fsum((np.log(p) + math.log(z) - np.log(gaps)).tolist())


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
