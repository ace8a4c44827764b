import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import log_inequality_check, mgf_exponential, pgf_geometric
from tailbounds import (
    DomainError,
    EmptyParams,
    LogProb,
    OutOfRange,
    log_pgf_geometric,
    make_exponential_spec,
    make_geometric_spec,
    make_tail_query,
    read_params_file,
)

probs = st.lists(
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False), min_size=1, max_size=8
)
rates = st.lists(
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False), min_size=1, max_size=6
)


class TestGeometricSpec:
    def test_two_halves(self):
        spec = make_geometric_spec([0.5, 0.5])
        assert spec.mu == 4.0
        assert spec.p_min == 0.5
        assert spec.sigma2 == 4.0

    def test_degenerate(self):
        spec = make_geometric_spec([1.0])
        assert (spec.mu, spec.p_min, spec.sigma2) == (1.0, 1.0, 0.0)

    def test_mixed(self):
        spec = make_geometric_spec([0.5, 0.2, 0.1])
        assert spec.mu == pytest.approx(17.0, rel=1e-12)
        assert spec.p_min == 0.1
        assert spec.sigma2 == pytest.approx(112.0, rel=1e-12)

    @pytest.mark.parametrize("params", [
        pytest.param([0.5, 0.2, 0.1], id="floats"),
        pytest.param([1, np.float32(0.5), Fraction(1, 4), True], id="mixed"),
        pytest.param(np.random.default_rng(7).uniform(0.05, 1.0, 10**4).tolist(), id="n1e4"),
    ])
    def test_param_array_is_cached_read_only(self, params):
        spec = make_geometric_spec(params)
        assert spec.param_array.dtype == np.float64
        assert spec.param_array.tolist() == sorted(spec.params)
        # bit for bit the sort of the doubles the spec kept
        want = np.sort(np.array(spec.params, dtype=np.float64))
        assert np.array_equal(spec.param_array.view(np.int64), want.view(np.int64))
        assert spec.params == tuple(map(float, params))  # the caller's order, for Monte Carlo
        assert spec.p_min == spec.param_array[0]
        assert not spec.param_array.flags.writeable
        assert spec.param_array is spec.param_array  # built once, on first use
        # the array takes no part in equality, hashing or repr
        again = make_geometric_spec(params)
        assert spec == again and hash(spec) == hash(again)
        assert "param_array" not in repr(spec)

    def test_empty_rejected(self):
        with pytest.raises(EmptyParams):
            make_geometric_spec([])

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.1, math.nan, 1e-310, "0.5", None,
                                     pytest.param(10**400, id="10**400")])
    def test_out_of_range_rejected(self, bad):
        # 1e-310 is a valid probability, but its mean 1/p overflows; a string
        # or None does not compare with floats, and 10**400 has no double
        with pytest.raises(OutOfRange, match=re.escape(repr(bad))):
            make_geometric_spec([0.5, bad])

    def test_numbers_kept_as_their_doubles(self):
        spec = make_geometric_spec([1, np.float32(0.5), Fraction(1, 4), True])
        assert spec.params == (1.0, 0.5, 0.25, 1.0)
        assert all(type(p) is float for p in spec.params)

    def test_overflowing_mean_rejected(self):
        with pytest.raises(OutOfRange):
            make_geometric_spec([1e-308] * 2)

    def test_overflowing_variance_is_infinite(self):
        # the mean 2.5e154 fits, the variance sum of two 1.6e308 does not
        assert make_geometric_spec([8e-155] * 2).sigma2 == math.inf

    @given(probs)
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, p):
        spec = make_geometric_spec(p)
        assert spec.mu >= spec.n
        assert 0.0 < spec.p_min <= 1.0
        assert spec.p_min * spec.mu >= 1.0 - 1e-12
        assert spec.sigma2 >= 0.0
        if all(v == 1.0 for v in p):
            assert spec.sigma2 == 0.0 and spec.mu == spec.n


class TestExponentialSpec:
    def test_basic(self):
        spec = make_exponential_spec([1.0, 2.0])
        assert spec.mu == 1.5
        assert spec.a_min == 1.0

    def test_rates_kept_in_callers_order(self):
        spec = make_exponential_spec([3.0, 0.5, 2.0])
        assert spec.rates == (3.0, 0.5, 2.0)  # the caller's order, for Monte Carlo
        assert spec.a_min == min(spec.rates)
        again = make_exponential_spec([3.0, 0.5, 2.0])
        assert spec == again and hash(spec) == hash(again)
        assert repr(spec) == "ExponentialSumSpec(rates=(3.0, 0.5, 2.0), mu=2.8333333333333335, a_min=0.5)"

    def test_single(self):
        spec = make_exponential_spec([1.0])
        assert (spec.mu, spec.a_min) == (1.0, 1.0)

    def test_symmetric(self):
        spec = make_exponential_spec([1.0, 1.0])
        assert (spec.mu, spec.a_min) == (2.0, 1.0)

    def test_rejects(self):
        with pytest.raises(EmptyParams):
            make_exponential_spec([])
        with pytest.raises(OutOfRange):
            make_exponential_spec([1.0, 0.0])
        with pytest.raises(OutOfRange):
            make_exponential_spec([-1.0])
        with pytest.raises(OutOfRange):  # the mean 1/a overflows
            make_exponential_spec([1.0, 1e-310])

    @pytest.mark.parametrize("bad", ["1", None, 10**400], ids=["str", "None", "10**400"])
    def test_non_numbers_rejected(self, bad):
        # 10**400 passes a > 0 exactly, but has no double to be finite in
        with pytest.raises(OutOfRange, match=re.escape(f"rate {bad!r} not in (0, inf)")):
            make_exponential_spec([1.0, bad])

    @given(rates)
    @settings(max_examples=100, deadline=None)
    def test_mu_matches_sum(self, a):
        spec = make_exponential_spec(a)
        assert spec.mu == pytest.approx(sum(1.0 / v for v in a), rel=1e-12)
        assert spec.a_min == min(a)


class TestPgf:
    def test_at_one(self):
        assert pgf_geometric(make_geometric_spec([0.5]), 1.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_single_factor(self):
        assert pgf_geometric(make_geometric_spec([0.5]), 1.5) == pytest.approx(
            3.0, rel=1e-12
        )

    def test_product(self):
        assert pgf_geometric(make_geometric_spec([0.5, 0.5]), 1.5) == pytest.approx(
            9.0, rel=1e-12
        )

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            pgf_geometric(make_geometric_spec([0.5]), 2.0)
        with pytest.raises(DomainError):
            pgf_geometric(make_geometric_spec([0.5]), -0.5)

    def test_degenerate_accepts_any_z(self):
        # X is a.s. 1, so E z^X = z for every z >= 0
        assert pgf_geometric(make_geometric_spec([1.0]), 7.0) == pytest.approx(7.0)

    def test_tiny_probability_stays_normalized(self):
        # 1 - (1-p)z collapses to 0 in doubles for p below machine epsilon;
        # the rearranged pole gap keeps the pgf exact at z = 1
        spec = make_geometric_spec([1e-300, 1e-18])
        assert pgf_geometric(spec, 1.0) == 1.0
        assert log_pgf_geometric(spec, 1.0) == 0.0

    def test_log_variant_matches(self):
        spec = make_geometric_spec([0.5, 0.2])
        for z in (0.5, 1.0, 1.2):
            assert math.exp(log_pgf_geometric(spec, z)) == pytest.approx(
                pgf_geometric(spec, z), rel=1e-12
            )
        assert log_pgf_geometric(spec, 0.0) == -math.inf

    def test_pole_message_names_the_summand_at_its_pole(self):
        # at z = 1.5 only p = 0.2 is past its pole 1/(1 - p)
        with pytest.raises(DomainError, match=r"for p=0\.2$"):
            log_pgf_geometric(make_geometric_spec([0.5, 0.2]), 1.5)

    @pytest.mark.parametrize("z", [math.inf, math.nan, -1.0])
    def test_log_variant_rejects_non_finite_z(self, z):
        with pytest.raises(DomainError):
            log_pgf_geometric(make_geometric_spec([1.0, 1.0]), z)

    @given(probs)
    @settings(max_examples=100, deadline=None)
    def test_normalization_and_mean(self, p):
        spec = make_geometric_spec(p)
        assert pgf_geometric(spec, 1.0) == pytest.approx(1.0, rel=1e-12)
        h = 1e-6
        deriv = (pgf_geometric(spec, 1.0 + h) - pgf_geometric(spec, 1.0 - h)) / (2 * h)
        assert deriv == pytest.approx(spec.mu, rel=1e-4)


class TestMgf:
    def test_at_zero_exact(self):
        assert mgf_exponential(make_exponential_spec([1.0]), 0.0) == 1.0

    def test_value(self):
        assert mgf_exponential(make_exponential_spec([1.0, 2.0]), 0.5) == pytest.approx(
            8.0 / 3.0, rel=1e-12
        )

    def test_pole(self):
        with pytest.raises(DomainError):
            mgf_exponential(make_exponential_spec([1.0]), 1.0)

    @given(rates)
    @settings(max_examples=100, deadline=None)
    def test_derivative_is_mean(self, a):
        spec = make_exponential_spec(a)
        assert mgf_exponential(spec, 0.0) == 1.0
        h = 1e-6 * spec.a_min
        deriv = (mgf_exponential(spec, h) - mgf_exponential(spec, -h)) / (2 * h)
        assert deriv == pytest.approx(spec.mu, rel=1e-4)


class TestLogInequality:
    def test_equal_arguments(self):
        assert log_inequality_check(0.5, 0.5)

    def test_spread_arguments(self):
        assert log_inequality_check(0.1, 0.9)

    def test_order_violation(self):
        with pytest.raises(DomainError):
            log_inequality_check(0.5, 0.1)
        with pytest.raises(DomainError):
            log_inequality_check(0.0, 0.5)
        with pytest.raises(DomainError):
            log_inequality_check(0.5, 1.0)

    def test_grid(self):
        grid = [0.99 * (i + 1) / 100.0 for i in range(100)]
        assert all(log_inequality_check(x, y) for y in grid for x in grid if x <= y)

    @given(
        st.floats(min_value=1e-6, max_value=0.99),
        st.floats(min_value=1e-6, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_property(self, u, v):
        x, y = min(u, v), max(u, v)
        assert log_inequality_check(x, y)


class TestTailQuery:
    def test_from_lambda(self):
        q = make_tail_query(4.0, lam=2.0)
        assert (q.lam, q.x) == (2.0, 8.0)

    def test_from_x(self):
        q = make_tail_query(4.0, x=8.0)
        assert (q.lam, q.x) == (2.0, 8.0)

    def test_exactly_one_required(self):
        with pytest.raises(DomainError):
            make_tail_query(4.0)
        with pytest.raises(DomainError):
            make_tail_query(4.0, x=8.0, lam=2.0)

    def test_side_validation(self):
        # a query's side is checked by the bound that receives it
        from tailbounds import LambdaOutOfRange, lower_tail_tl1, upper_tail_thm1

        spec = make_geometric_spec([0.5, 0.5])
        upper = make_tail_query(spec.mu, lam=2.0)
        lower = make_tail_query(spec.mu, lam=0.5)
        upper_tail_thm1(spec, upper.lam)
        lower_tail_tl1(spec, lower.lam)
        with pytest.raises(LambdaOutOfRange):
            upper_tail_thm1(spec, lower.lam)
        with pytest.raises(LambdaOutOfRange):
            lower_tail_tl1(spec, upper.lam)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x": math.nan},
            {"x": math.inf},
            {"x": -math.inf},
            {"lam": math.nan},
            {"lam": math.inf},
            {"lam": 1e308},  # finite ratio, but x = lam * mu overflows
            {"x": 10**400},  # no double value
            {"lam": 10**400},
            {"x": "8"},
            {"lam": None, "x": [8.0]},
        ],
    )
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(DomainError) as refusal:
            make_tail_query(4.0, **kwargs)
        given = kwargs.get("x", kwargs.get("lam"))
        assert str(given) in str(refusal.value)


class TestLogProb:
    def test_positive_log_rejected(self):
        with pytest.raises(OutOfRange):
            LogProb(0.1)

    def test_value(self):
        assert LogProb(0.0).value == 1.0
        assert LogProb(-math.inf).value == 0.0


class TestParamsFile:
    def test_read(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("# success probabilities\n0.5\n0.2, 0.1\n\n  # done\n")
        assert read_params_file(str(path)) == [0.5, 0.2, 0.1]

    def test_junk_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\noops\n")
        with pytest.raises(ValueError):
            read_params_file(str(path))
