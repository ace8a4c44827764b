"""Every public entry point on the edges of its domain.

TABLE maps each public callable that takes a tail ratio, a threshold, a
count or another real argument to calls that put one bad value into one
such argument, and to the
answer its docstring documents for each value: an exception class, which
the call must raise with a message naming the value (or, as a pair of the
class and a text, naming that text), or the result it must return. No call
may warn. A public callable that is neither in TABLE nor in
NO_QUERY_ARGUMENT fails test_every_public_callable_is_listed.
"""

import math
import warnings

import pytest

import tailbounds as tb
from tailbounds import DomainError, LambdaOutOfRange, NegativeX, OutOfRange

BIG = 1e308
HUGE = 10**400  # a Python int past the double range: compares exactly, has no float
TEXT = "2.5"  # a string is not a number, though float() would parse it
REAL_INPUTS = (math.nan, math.inf, -math.inf, BIG, HUGE, TEXT)
COUNT_INPUTS = (2.5, True, 10**9, -1)

GEOM = tb.make_geometric_spec([0.3, 0.7, 0.3])
GEOM_ONE = tb.make_geometric_spec([0.5])
EXP = tb.make_exponential_spec([1.0, 2.0])  # partial fractions
ERLANG = tb.make_exponential_spec([1.0, 1.0])  # matrix exponential
CFG = tb.McConfig(samples=200, seed=1)


def upper(v):
    """An upper-tail bound: a finite lam >= 1; at lam = 1e308 the bound is 0."""
    return 0.0 if v == BIG else LambdaOutOfRange


def spec_upper(v):
    """An upper-tail bound on GEOM: a finite lam >= 1 whose threshold
    lam * mu is finite, which it is not at 1e308."""
    return DomainError if v == BIG else LambdaOutOfRange


def lower(v):
    """A lower-tail bound: 0 < lam <= 1."""
    return LambdaOutOfRange


def threshold(v):
    """A finite x >= 0."""
    return NegativeX if v == -math.inf else DomainError


def oracle(whole):
    """An exact geometric oracle: whole or empty at -inf, else a finite x; the
    tied spec at 1e308 needs a grid past the 10^7 cap, which the refusal names."""
    return lambda v: (whole if v == -math.inf else (OutOfRange, "10000000") if v == BIG
                      else DomainError)


def iid_threshold(v):
    """iid_geom_tail: any x <= 1e305, -inf included, where the tail is whole."""
    return 1.0 if v == -math.inf else OutOfRange


def count(big=OutOfRange):
    """An integer count, not a bool, in a range; 10^9 gives big where it is
    in range."""
    return lambda v: big if v == 10**9 else OutOfRange


def mc_threshold(v):
    """mc_tail takes any x but NaN: the upper tail is 1 at -inf and 0 past it,
    and a number past the double range counts as infinite."""
    return {math.inf: 0.0, -math.inf: 1.0, BIG: 0.0, HUGE: 0.0}.get(v, OutOfRange)


# name: [(kind, call with the value in one argument, answer for each value)]
TABLE = {
    "upper_tail_thm1": [("ratio", lambda v: tb.upper_tail_thm1(GEOM, v).value, spec_upper)],
    "upper_tail_thm2": [("ratio", lambda v: tb.upper_tail_thm2(GEOM, v).value, spec_upper)],
    "upper_tail_cor1": [("ratio", lambda v: tb.upper_tail_cor1(v).value, upper)],
    "upper_tail_cor2": [("ratio", lambda v: tb.upper_tail_cor2(v).value, upper)],
    "upper_tail_lower_bound_tl": [
        ("ratio", lambda v: tb.upper_tail_lower_bound_tl(GEOM, v).value, spec_upper)
    ],
    "optimized_chernoff": [
        ("ratio", lambda v: tb.optimized_chernoff(GEOM, v).value, spec_upper)
    ],
    "best_upper": [("ratio", lambda v: tb.best_upper(GEOM, v).value, spec_upper)],
    # EXP's threshold 1e308 * 1.5 is finite, so these two answer 0 there
    "exp_upper_i": [("ratio", lambda v: tb.exp_upper_i(EXP, v).value, upper)],
    "exp_upper_ii": [("ratio", lambda v: tb.exp_upper_ii(v).value, upper)],
    "exp_tail_lower_iv": [("ratio", lambda v: tb.exp_tail_lower_iv(EXP, v).value, upper)],
    "lower_tail_tl1": [("ratio", lambda v: tb.lower_tail_tl1(GEOM, v).value, lower)],
    "exp_lower_tail_iii": [
        ("ratio", lambda v: tb.exp_lower_tail_iii(EXP, v).value, lower)
    ],
    # z = 1 makes the bound 1 at every x
    "lemma1_bound": [
        ("threshold", lambda v: tb.lemma1_bound(GEOM, v, 1.0).value,
         lambda v: 1.0 if v == BIG else threshold(v)),
        ("real", lambda v: tb.lemma1_bound(GEOM, 10.0, v).value, lambda v: DomainError),
    ],
    "optimized_lemma1": [
        ("threshold", lambda v: tb.optimized_lemma1(GEOM, v).value,
         lambda v: 0.0 if v == BIG else threshold(v))
    ],
    # max rate * x must stay below 2^1020 where partial fractions miss 1e-9
    "hypoexp_survival": [
        ("threshold", lambda v: tb.hypoexp_survival(EXP, v).value,
         lambda v: OutOfRange if v == BIG else threshold(v)),
        ("threshold", lambda v: tb.hypoexp_survival(ERLANG, v).value,
         lambda v: OutOfRange if v == BIG else threshold(v)),
    ],
    "geom_tail_exact": [
        ("threshold", lambda v: tb.geom_tail_exact(GEOM, v).value, oracle(1.0))
    ],
    "geom_lower_tail_exact": [
        ("threshold", lambda v: tb.geom_lower_tail_exact(GEOM, v).value,
         oracle(0.0))
    ],
    "iid_geom_tail": [
        ("threshold", lambda v: tb.iid_geom_tail(0.5, 2, v).value, iid_threshold),
        ("count", lambda v: tb.iid_geom_tail(0.5, v, 10.0).value, count()),
        ("real", lambda v: tb.iid_geom_tail(v, 2, 10.0).value, lambda v: OutOfRange),
    ],
    "mc_tail": [
        ("threshold", lambda v: tb.mc_tail(GEOM, v, CFG).value, mc_threshold),
    ],
    "make_tail_query": [
        ("threshold", lambda v: tb.make_tail_query(GEOM.mu, x=v).x,
         lambda v: BIG if v == BIG else DomainError),
        ("ratio", lambda v: tb.make_tail_query(GEOM.mu, lam=v).lam,
         lambda v: DomainError),
    ],
    "log_pgf_geometric": [
        ("real", lambda v: tb.log_pgf_geometric(GEOM, v), lambda v: DomainError),
    ],
    "geom_pmf_convolution": [
        ("count", lambda v: tb.geom_pmf_convolution(GEOM_ONE, v).size,
         lambda v: OutOfRange),
    ],
    "McConfig": [
        ("count", lambda v: tb.McConfig(samples=v).samples, count(10**9)),
        ("count", lambda v: tb.McConfig(samples=1, seed=v).seed, count(10**9)),
    ],
    "uniform_block": [
        ("count", lambda v: tb.uniform_block(v, 0, 4).size, count(4)),
        ("count", lambda v: tb.uniform_block(0, v, 4).size, count(4)),
        ("count", lambda v: tb.uniform_block(0, 0, v).size, count()),
    ],
}

# Public callables that take no tail ratio, threshold, count or other real
# argument: records, enums, spec constructors (validated by their own
# parameter checks) and the parameter-list readers.
NO_QUERY_ARGUMENT = {
    "BoundResult",
    "ExponentialSumSpec",
    "GeometricSumSpec",
    "LogProb",
    "Method",
    "OracleMethod",
    "TailEstimate",
    "TailQuery",
    "make_exponential_spec",
    "make_geometric_spec",
    "parse_params",
    "read_params_file",
}

INPUTS = {"ratio": REAL_INPUTS, "threshold": REAL_INPUTS, "real": REAL_INPUTS,
          "count": COUNT_INPUTS}
CASES = [
    pytest.param(call, answer, value,
                 id=f"{name}-{i}-{kind}-{'10**400' if value == HUGE else repr(value)}")
    for name, entries in TABLE.items()
    for i, (kind, call, answer) in enumerate(entries)
    for value in INPUTS[kind]
]


def test_every_public_callable_is_listed():
    public = {
        name
        for name in tb.__all__
        if callable(getattr(tb, name))
        and not (isinstance(getattr(tb, name), type)
                 and issubclass(getattr(tb, name), Exception))
    }
    assert public - NO_QUERY_ARGUMENT - set(TABLE) == set()
    assert set(TABLE) | NO_QUERY_ARGUMENT <= public


@pytest.mark.parametrize("call, answer, value", CASES)
def test_documented_answer_or_refusal(call, answer, value):
    expected, named = answer(value), str(value)
    if isinstance(expected, tuple):
        expected, named = expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expected, type):
            with pytest.raises(expected) as refusal:
                call(value)
            assert named.lower() in str(refusal.value).lower()
        else:
            assert call(value) == expected
