"""The method table: one row per bound, with its distribution, side and orderings.

The CLI's `bound`, `sweep` and `verify`, `best_upper` and the scripts all read
this table, so adding a bound or an ordering between bounds is one row here.
`lemma1` has no row: it takes a generating-function argument z, not a query.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Callable

from . import exp_bounds, geom_bounds
from .model import (
    BoundResult,
    ExponentialSumSpec,
    GeometricSumSpec,
    Method,
    TailQuery,
    make_tail_query,
    require_upper,
)


class Side(enum.Enum):
    """Which tail a bound is about, and from which side it bounds it."""

    UPPER = "upper"  # P(X >= x) <= bound
    UPPER_FROM_BELOW = "upper-from-below"  # bound <= P(X >= x)
    LOWER = "lower"  # P(X <= x) <= bound


@dataclass(frozen=True)
class MethodRow:
    """One bound: where it applies, how to evaluate it, which bounds it never exceeds."""

    method: Method
    dist: str  # "geom" or "exp", as the CLI's --dist spells it
    side: Side
    column: str  # its column in the sweep CSV and the scripts' tables
    evaluate: Callable[[GeometricSumSpec | ExponentialSumSpec, TailQuery], BoundResult]
    never_exceeds: tuple[Method, ...] = ()


# The bound functions are looked up on their modules at call time, so the
# table always evaluates what the modules currently hold.
METHODS: tuple[MethodRow, ...] = (
    MethodRow(Method.THM1, "geom", Side.UPPER, "thm1",
              lambda s, q: geom_bounds.upper_tail_thm1(s, q.lam), (Method.COR1,)),
    MethodRow(Method.THM2, "geom", Side.UPPER, "thm2",
              lambda s, q: geom_bounds.upper_tail_thm2(s, q.lam),
              (Method.THM1, Method.COR2)),
    MethodRow(Method.COR1, "geom", Side.UPPER, "cor1",
              lambda s, q: geom_bounds.upper_tail_cor1(q.lam)),
    MethodRow(Method.COR2, "geom", Side.UPPER, "cor2",
              lambda s, q: geom_bounds.upper_tail_cor2(q.lam), (Method.COR1,)),
    MethodRow(Method.OPT_CHERNOFF, "geom", Side.UPPER, "opt_chernoff",
              lambda s, q: geom_bounds.optimized_chernoff(s, q.lam), (Method.THM1,)),
    # lemma1 at z = e^t <= Chernoff at t in [0, p*): termwise as e^t (1 - t) <= 1, prefactor <= 1
    MethodRow(Method.OPT_LEMMA1, "geom", Side.UPPER, "opt_lemma1",
              lambda s, q: geom_bounds.optimized_lemma1(s, q.x), (Method.OPT_CHERNOFF,)),
    MethodRow(Method.TL, "geom", Side.UPPER_FROM_BELOW, "tl_lower",
              lambda s, q: geom_bounds.upper_tail_lower_bound_tl(s, q.lam)),
    MethodRow(Method.TL1, "geom", Side.LOWER, "tl1",
              lambda s, q: geom_bounds.lower_tail_tl1(s, q.lam)),
    MethodRow(Method.TEXP_I, "exp", Side.UPPER, "texp_i",
              lambda s, q: exp_bounds.exp_upper_i(s, q.lam), (Method.TEXP_II,)),
    MethodRow(Method.TEXP_II, "exp", Side.UPPER, "texp_ii",
              lambda s, q: exp_bounds.exp_upper_ii(q.lam)),
    MethodRow(Method.TEXP_IV, "exp", Side.UPPER_FROM_BELOW, "texp_iv",
              lambda s, q: exp_bounds.exp_tail_lower_iv(s, q.lam)),
    MethodRow(Method.TEXP_III, "exp", Side.LOWER, "texp_iii",
              lambda s, q: exp_bounds.exp_lower_tail_iii(s, q.lam)),
)

BY_NAME: dict[str, MethodRow] = {row.method.value: row for row in METHODS}


def rows(dist: str, *sides: Side) -> tuple[MethodRow, ...]:
    """The rows for one distribution and any of the given sides, in table order."""
    return tuple(row for row in METHODS if row.dist == dist and row.side in sides)


_GEOM_UPPER = rows("geom", Side.UPPER)


def best_upper(spec: GeometricSumSpec, lam: float) -> BoundResult:
    """The smallest geometric upper-tail bound, reported under the winning method
    with the evaluations of every root solve behind the choice.

    Ties go to the earlier row of the table.
    """
    require_upper(lam)
    query = make_tail_query(spec.mu, lam=lam)
    candidates = [row.evaluate(spec, query) for row in _GEOM_UPPER]
    best = min(candidates, key=lambda r: r.log_value)
    evaluations = sum(r.evaluations for r in candidates if r.evaluations is not None)
    return dataclasses.replace(best, evaluations=evaluations)
