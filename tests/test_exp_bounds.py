import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_exp_specs
from tailbounds import (
    DomainError,
    LambdaOutOfRange,
    exact_oracle,
    exp_lower_tail_iii,
    exp_tail_lower_iv,
    exp_upper_i,
    exp_upper_ii,
    hypoexp_survival,
    make_exponential_spec,
    make_geometric_spec,
    upper_tail_thm2,
)

# mpmath-frozen closed-form values
TEXP_I_11_LAM2 = 0.27067056647322538
TEXP_I_12_LAM3 = 0.086233731973045648
TEXP_III_11_LAM05 = 0.67957045711476131
TEXP_III_12_LAM05 = 0.74847253375942801
TEXP_IV_11_LAM2 = 0.012446767091965986
TEXP_IV_11_LAM1 = 0.09196986029286058

UNIT_PAIR = make_exponential_spec([1.0, 1.0])
ONE_TWO = make_exponential_spec([1.0, 2.0])

rate_lists = st.lists(
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False), min_size=1, max_size=6
)


class TestUpperI:
    def test_spots(self):
        assert exp_upper_i(UNIT_PAIR, 2.0).value == pytest.approx(
            TEXP_I_11_LAM2, rel=1e-12
        )
        assert exp_upper_i(ONE_TWO, 3.0).value == pytest.approx(
            TEXP_I_12_LAM3, rel=1e-12
        )
        assert exp_upper_i(UNIT_PAIR, 1.0).value == 1.0

    def test_range(self):
        with pytest.raises(LambdaOutOfRange):
            exp_upper_i(UNIT_PAIR, 0.9)


class TestUpperII:
    def test_spots(self):
        assert exp_upper_ii(1.0).value == 1.0
        assert exp_upper_ii(2.0).value == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert exp_upper_ii(4.0).value == pytest.approx(math.exp(-3.0), rel=1e-12)


class TestLowerTailIII:
    def test_spots(self):
        assert exp_lower_tail_iii(UNIT_PAIR, 1.0).value == 1.0
        assert exp_lower_tail_iii(UNIT_PAIR, 0.5).value == pytest.approx(
            TEXP_III_11_LAM05, rel=1e-12
        )
        assert exp_lower_tail_iii(ONE_TWO, 0.5).value == pytest.approx(
            TEXP_III_12_LAM05, rel=1e-12
        )

    def test_range(self):
        with pytest.raises(LambdaOutOfRange):
            exp_lower_tail_iii(UNIT_PAIR, 1.5)


class TestTailLowerIV:
    def test_spots(self):
        assert exp_tail_lower_iv(UNIT_PAIR, 2.0).value == pytest.approx(
            TEXP_IV_11_LAM2, rel=1e-12
        )
        assert exp_tail_lower_iv(UNIT_PAIR, 1.0).value == pytest.approx(
            TEXP_IV_11_LAM1, rel=1e-12
        )

    def test_below_exact(self):
        for lam in (1.0, 2.0):
            exact = hypoexp_survival(UNIT_PAIR, lam * UNIT_PAIR.mu)
            assert exp_tail_lower_iv(UNIT_PAIR, lam).value <= exact.value + 1e-12


@pytest.mark.parametrize("bound", [exp_upper_i, exp_tail_lower_iv])
def test_overflowing_threshold_refused(bound):
    # lambda mu = 1e10 * 1e300 overflows; 1e8 * 1e300 does not
    spec = make_exponential_spec([1e-300])
    with pytest.raises(DomainError, match="finite threshold"):
        bound(spec, 1e10)
    assert bound(spec, 1e8).log_value > -math.inf


class TestScaleInvariance:
    @given(rate_lists, st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=150, deadline=None)
    def test_bounds_are_scale_free(self, a, c):
        base = make_exponential_spec(a)
        scaled = make_exponential_spec([c * v for v in a])
        for lam in (1.0, 1.7, 3.0):
            assert exp_upper_i(scaled, lam).log_value == pytest.approx(
                exp_upper_i(base, lam).log_value, rel=1e-9, abs=1e-9
            )
            assert exp_tail_lower_iv(scaled, lam).log_value == pytest.approx(
                exp_tail_lower_iv(base, lam).log_value, rel=1e-9, abs=1e-9
            )
        assert exp_lower_tail_iii(scaled, 0.5).log_value == pytest.approx(
            exp_lower_tail_iii(base, 0.5).log_value, rel=1e-9, abs=1e-9
        )


class TestSandwichSample:
    def test_small_sandwich(self):
        for spec in random_exp_specs(seed=11, count=20):
            for lam in (1.0, 1.5, 2.0, 3.0, 5.0):
                exact = hypoexp_survival(spec, lam * spec.mu)
                pad = exact.error_bound + 1e-10
                assert exp_tail_lower_iv(spec, lam).value <= exact.value + pad
                assert exact.value <= exp_upper_i(spec, lam).value + pad
                assert (
                    exp_upper_i(spec, lam).log_value
                    <= exp_upper_ii(lam).log_value + 1e-12
                )

    def test_lower_tail_sample(self):
        for spec in random_exp_specs(seed=13, count=20):
            for lam in (0.2, 0.5, 0.8, 1.0):
                exact_lower = exact_oracle.exact_tail(spec, lam * spec.mu, "lower").value
                bound = exp_lower_tail_iii(spec, lam)
                assert exact_lower <= bound.value + 1e-9


class TestDiscreteLimit:
    def test_bound_level_convergence(self):
        # a geometric spec with p_i = a_i/N approaches the exponential bound:
        # its sharper upper bound converges to the continuous one as N grows
        N = 10_000
        rates = [1.0, 2.0]
        geom = make_geometric_spec([a / N for a in rates])
        cont = make_exponential_spec(rates)
        for lam in (1.5, 2.0, 3.0):
            discrete = upper_tail_thm2(geom, lam).value
            continuous = exp_upper_i(cont, lam).value
            assert discrete == pytest.approx(continuous, rel=0.02)
