"""Correctness checks applied to every benchmark operation.

Each check returns None when the output passes and a one-line reason when it
does not. Tolerances:

- log-space comparisons allow 1e-12 * max(1, |reference|), the round-off of
  a log value near the reference;
- frozen closed forms must agree within 1e-12 relative;
- oracle values must lie within their own error_bound of the reference,
  plus two units in the last place of the stored double reference. A value
  outside its error_bound but within 1e-9 relative (the package's default
  rel_tol) of the reference is accurate with an understated certificate:
  the message then starts with CERTIFICATE, and the benchmark counts the
  operation as failed without marking the run incorrect.
"""

from __future__ import annotations

import math

LOG_TOL = 1e-12
REF_ULP = 2.3e-16
VALUE_TOL = 1e-9
PRINT_TOL = 1e-11  # the CLI prints 12 significant digits: within 5e-12 relative
CERTIFICATE = "error_bound understated"


def _log_slack(ref: float) -> float:
    return LOG_TOL * max(1.0, abs(ref)) if math.isfinite(ref) else 0.0


def upper_bound(name: str, log_bound: float, ref_log: float) -> str | None:
    """An upper bound on a tail is at least the tail, in log space."""
    if log_bound >= ref_log - _log_slack(ref_log):
        return None
    return f"{name}: upper bound log {log_bound!r} below reference log {ref_log!r}"


def lower_bound(name: str, log_bound: float, ref_log: float) -> str | None:
    """A lower bound on a tail is at most the tail, in log space."""
    if log_bound <= ref_log + _log_slack(ref_log):
        return None
    return f"{name}: lower bound log {log_bound!r} above reference log {ref_log!r}"


def dominates(lo_name: str, lo: float, hi_name: str, hi: float) -> str | None:
    """log(lo) <= log(hi): one bound in the dominance chain under another."""
    if lo <= hi + _log_slack(hi):
        return None
    return f"dominance {lo_name} <= {hi_name} broken: {lo!r} > {hi!r}"


def chain(values: dict[str, float], pairs) -> str | None:
    for lo, hi in pairs:
        msg = dominates(lo, values[lo], hi, values[hi])
        if msg:
            return msg
    return None


# opt <= thm1 <= cor1 and thm2 <= cor2 <= cor1
GEOM_CHAIN = (
    ("opt-chernoff", "thm1"),
    ("thm1", "cor1"),
    ("thm2", "cor2"),
    ("cor2", "cor1"),
)
CLOSED_CHAIN = GEOM_CHAIN[1:]


def equals_frozen(name: str, got: float, frozen: float) -> str | None:
    """A closed form reproduces the committed log value within 1e-12 relative."""
    if got == frozen or abs(got - frozen) <= LOG_TOL * abs(frozen):
        return None
    return f"{name}: log {got!r} differs from frozen {frozen!r}"


def not_above_frozen(name: str, got: float, frozen: float) -> str | None:
    """An optimized bound is no looser than the committed one (tighter is fine)."""
    if got <= frozen + _log_slack(frozen):
        return None
    return f"{name}: log {got!r} looser than frozen {frozen!r}"


def oracle(name: str, value: float, error_bound: float, ref: float) -> str | None:
    """|value - reference| <= error_bound."""
    miss = abs(value - ref)
    if miss <= error_bound + REF_ULP * ref:
        return None
    what = f"{name}: |{value!r} - {ref!r}| exceeds error bound {error_bound!r}"
    if miss <= error_bound + VALUE_TOL * ref:
        return f"{CERTIFICATE}: {what}"
    return what


def sandwich(name: str, lower: float, value: float, error_bound: float,
             upper: float) -> str | None:
    """tl <= exact <= thm2 where no reference exists, up to the error bound."""
    if lower * (1.0 - LOG_TOL) <= value + error_bound and value - error_bound <= upper * (
        1.0 + LOG_TOL
    ):
        return None
    return f"{name}: {value!r} +- {error_bound!r} outside [{lower!r}, {upper!r}]"


def interval(name: str, value: float, half_width: float, ref: float) -> str | None:
    """A Monte Carlo interval value +- half_width contains the reference."""
    if abs(value - ref) <= half_width:
        return None
    return f"{name}: interval {value!r} +- {half_width!r} misses reference {ref!r}"


def printed(name: str, text: str, expected: float) -> str | None:
    """A CLI value printed with 12 significant digits matches the expectation."""
    got = float(text)
    if got == expected or abs(got - expected) <= PRINT_TOL * abs(expected):
        return None
    return f"{name}: printed {text} but expected {expected!r}"


def parse_fields(stdout: str) -> dict[str, str]:
    """The 'key: value' lines of a bound, exact or mc CLI call."""
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields
