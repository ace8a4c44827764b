import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_geom_specs
from tailbounds import (
    DomainError,
    LambdaOutOfRange,
    Method,
    best_upper,
    lemma1_bound,
    lemma_la_check,
    lower_tail_tl1,
    make_geometric_spec,
    optimized_chernoff,
    optimized_lemma1,
    upper_tail_cor1,
    upper_tail_cor2,
    upper_tail_lower_bound_tl,
    upper_tail_thm1,
    upper_tail_thm2,
)
from tailbounds.geom_bounds import _increasing_root, _result

# Frozen expected values, evaluated from the closed forms at 30-digit
# precision with mpmath before being asserted here.
THM1_HALF_HALF_LAM2 = 0.54134113294645077
THM1_DEGENERATE_LAM2 = 0.73575888234288464  # exp(-(1 - ln 2)), p = [1.0]
COR1_LAM2 = 0.73575888234288464
COR1_LAM5 = 0.091578194443670901
THM2_HALF_HALF_LAM2 = 0.21354155096908691
COR2_LAM2 = 0.36787944117144232
COR2_LAM3 = 0.13533528323661269
TL1_HALF_HALF_LAM05 = 0.67957045711476131
TL_HALF_HALF_LAM2 = 0.001953125
TL_HALF_HALF_LAM1 = 0.03125
LEMMA1_X8_Z15 = 0.17558299039780521
LEMMA1_SINGLE_X4_Z19 = 0.14579384749963552

HALF_HALF = make_geometric_spec([0.5, 0.5])

probs = st.lists(
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False), min_size=1, max_size=8
)
lams = st.floats(min_value=1.0, max_value=6.0, allow_nan=False)


@st.composite
def edge_specs(draw):
    """Specs with a tied p_min, summands with p_i = 1, or a tiny p_min."""
    p = draw(probs)
    if draw(st.booleans()):
        p[0] = draw(st.floats(min_value=1e-300, max_value=1e-6))
    p += [min(p)] * draw(st.integers(min_value=0, max_value=2))
    p += [1.0] * draw(st.integers(min_value=0, max_value=2))
    return make_geometric_spec(p)


def log_le(a, b):
    if b.log_value == -math.inf:
        return a.log_value == -math.inf
    return a.log_value <= b.log_value + 1e-12 * (1.0 + abs(b.log_value))


class TestThm1:
    def test_spot(self):
        r = upper_tail_thm1(HALF_HALF, 2.0)
        assert r.value == pytest.approx(THM1_HALF_HALF_LAM2, rel=1e-12)
        assert r.internal_param == pytest.approx(0.25, rel=1e-12)
        assert r.method is Method.THM1

    def test_lambda_one(self):
        assert upper_tail_thm1(HALF_HALF, 1.0).value == 1.0

    def test_degenerate(self):
        # valid but loose: the exact tail is 0 here
        r = upper_tail_thm1(make_geometric_spec([1.0]), 2.0)
        assert r.value == pytest.approx(THM1_DEGENERATE_LAM2, rel=1e-12)

    def test_range(self):
        with pytest.raises(LambdaOutOfRange):
            upper_tail_thm1(HALF_HALF, 0.999)


class TestCor1:
    def test_values(self):
        assert upper_tail_cor1(1.0).value == 1.0
        assert upper_tail_cor1(2.0).value == pytest.approx(COR1_LAM2, rel=1e-12)
        assert upper_tail_cor1(5.0).value == pytest.approx(COR1_LAM5, rel=1e-12)

    def test_range(self):
        with pytest.raises(LambdaOutOfRange):
            upper_tail_cor1(0.5)


class TestThm2:
    def test_spot(self):
        r = upper_tail_thm2(HALF_HALF, 2.0)
        assert r.value == pytest.approx(THM2_HALF_HALF_LAM2, rel=1e-12)

    def test_degenerate_is_zero(self):
        assert upper_tail_thm2(make_geometric_spec([1.0, 1.0]), 2.0).value == 0.0

    def test_lambda_one_is_one(self):
        assert upper_tail_thm2(HALF_HALF, 1.0).value == 1.0
        # 0 * log(0) convention: even the degenerate spec gives 1 at lam = 1
        assert upper_tail_thm2(make_geometric_spec([1.0]), 1.0).value == 1.0


class TestCor2:
    def test_values(self):
        assert upper_tail_cor2(1.0).value == 1.0
        assert upper_tail_cor2(2.0).value == pytest.approx(COR2_LAM2, rel=1e-12)
        assert upper_tail_cor2(3.0).value == pytest.approx(COR2_LAM3, rel=1e-12)


class TestLowerTailTl1:
    def test_lambda_one(self):
        assert lower_tail_tl1(HALF_HALF, 1.0).value == 1.0

    def test_spot(self):
        r = lower_tail_tl1(HALF_HALF, 0.5)
        assert r.value == pytest.approx(TL1_HALF_HALF_LAM05, rel=1e-12)
        assert r.internal_param == pytest.approx(0.5, rel=1e-12)  # (1/lam - 1) p_min

    def test_vanishes_at_zero(self):
        values = [lower_tail_tl1(HALF_HALF, lam).value for lam in (1e-3, 1e-6, 1e-12)]
        assert values[0] > values[1] > values[2]
        assert values[-1] < 1e-20

    def test_range(self):
        with pytest.raises(LambdaOutOfRange):
            lower_tail_tl1(HALF_HALF, 0.0)
        with pytest.raises(LambdaOutOfRange):
            lower_tail_tl1(HALF_HALF, 1.5)


class TestUpperTailLowerBound:
    def test_spot(self):
        r = upper_tail_lower_bound_tl(HALF_HALF, 2.0)
        assert r.value == pytest.approx(TL_HALF_HALF_LAM2, rel=1e-12)

    def test_lambda_one(self):
        assert upper_tail_lower_bound_tl(HALF_HALF, 1.0).value == pytest.approx(
            TL_HALF_HALF_LAM1, rel=1e-12
        )

    def test_degenerate(self):
        assert upper_tail_lower_bound_tl(make_geometric_spec([1.0]), 3.0).value == 0.0


class TestLemma1:
    def test_z_one_is_trivial(self):
        assert lemma1_bound(HALF_HALF, 5.0, 1.0).value == pytest.approx(1.0, rel=1e-12)

    def test_spot(self):
        r = lemma1_bound(HALF_HALF, 8.0, 1.5)
        assert r.value == pytest.approx(LEMMA1_X8_Z15, rel=1e-12)
        assert r.internal_param == 1.5

    def test_single_spot(self):
        r = lemma1_bound(make_geometric_spec([0.5]), 4.0, 1.9)
        assert r.value == pytest.approx(LEMMA1_SINGLE_X4_Z19, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma1_bound(HALF_HALF, 8.0, 2.0)  # z at the pole
        with pytest.raises(DomainError):
            lemma1_bound(HALF_HALF, 8.0, 0.9)
        with pytest.raises(DomainError):
            lemma1_bound(HALF_HALF, -1.0, 1.5)

    def test_clamping_flag(self):
        # at x = 0 and z > 1 the raw product exceeds 1 and is clamped
        r = lemma1_bound(make_geometric_spec([0.5]), 0.0, 1.2)
        assert r.value == 1.0
        assert r.clamped


class TestOptimizedChernoff:
    def test_equal_p_matches_closed_form(self):
        r = optimized_chernoff(HALF_HALF, 2.0)
        assert r.value == pytest.approx(THM1_HALF_HALF_LAM2, rel=1e-9)
        assert r.internal_param == pytest.approx(0.25, abs=1e-6)

    def test_lambda_one(self):
        r = optimized_chernoff(HALF_HALF, 1.0)
        assert r.value == 1.0
        assert r.internal_param == pytest.approx(0.0, abs=1e-9)

    def test_mixed_p_beats_closed_form(self):
        spec = make_geometric_spec([0.5, 0.1])
        assert optimized_chernoff(spec, 2.0).value < upper_tail_thm1(spec, 2.0).value

    @given(probs, lams)
    @settings(max_examples=150, deadline=None)
    def test_never_worse_than_closed_form(self, p, lam):
        spec = make_geometric_spec(p)
        assert log_le(optimized_chernoff(spec, lam), upper_tail_thm1(spec, lam))

    @given(probs, lams)
    @settings(max_examples=100, deadline=None)
    def test_t_in_range(self, p, lam):
        spec = make_geometric_spec(p)
        t = optimized_chernoff(spec, lam).internal_param
        assert 0.0 <= t < spec.p_min


class TestOptimizedLemma1:
    def test_x_zero(self):
        r = optimized_lemma1(HALF_HALF, 0.0)
        assert r.value == 1.0
        assert r.internal_param == pytest.approx(1.0, abs=1e-9)

    def test_beats_fixed_z(self):
        r = optimized_lemma1(HALF_HALF, 8.0)
        assert r.value <= LEMMA1_X8_Z15 * (1.0 + 1e-12)
        assert r.value >= 0.0625  # never crosses below the exact tail

    def test_degenerate(self):
        spec = make_geometric_spec([1.0, 1.0])
        assert optimized_lemma1(spec, 3.0).value == 0.0
        assert optimized_lemma1(spec, 2.0).value == 1.0

    def test_tiny_probability_collapsed_domain(self):
        # no double sits strictly between 1 and the pole, so z = 1 is the
        # whole search domain and the bound degrades gracefully to 1
        spec = make_geometric_spec([1e-300])
        r = optimized_lemma1(spec, 5.0)
        assert r.value == 1.0
        assert r.internal_param == 1.0

    @given(
        st.floats(min_value=1e-3, max_value=0.999),
        st.integers(min_value=2, max_value=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_single_summand_is_exact(self, p, x):
        # for n = 1 the optimum is the pole, where the bound is the exact
        # tail (1-p)^(x-1); z is the largest double below the pole, which
        # costs about eps/p relative, so p stays above 1e-3
        r = optimized_lemma1(make_geometric_spec([p]), float(x))
        exact = (x - 1) * math.log1p(-p)
        assert abs(r.log_value - exact) <= 1e-12 * abs(exact)

    @given(edge_specs(), st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=200, deadline=None)
    def test_reported_z_reproduces_bound(self, spec, lam):
        assume(spec.p_min < 1.0)
        r = optimized_lemma1(spec, lam * spec.mu)
        again = lemma1_bound(spec, lam * spec.mu, r.internal_param)
        assert abs(again.log_value - r.log_value) <= 1e-12 * max(1.0, abs(r.log_value))

    @given(probs, st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_z_in_range(self, p, x):
        spec = make_geometric_spec(p)
        r = optimized_lemma1(spec, x)
        if r.internal_param is not None and spec.p_min < 1.0:
            assert 1.0 <= r.internal_param < 1.0 / (1.0 - spec.p_min)


class TestBestUpper:
    def test_picks_winner(self):
        r = best_upper(HALF_HALF, 2.0)
        assert r.value <= LEMMA1_X8_Z15 * (1.0 + 1e-12)
        assert r.method is Method.OPT_LEMMA1

    def test_lambda_one(self):
        # every closed form is 1 at lam = 1, but the optimized z-bound
        # genuinely improves on them at x = mu, so the minimum sits below 1
        # while still upper-bounding the exact tail P(X >= 4) = 0.5
        r = best_upper(HALF_HALF, 1.0)
        assert r.value == optimized_lemma1(HALF_HALF, 4.0).value
        assert 0.5 <= r.value <= 1.0

    def test_degenerate_zero(self):
        assert best_upper(make_geometric_spec([1.0, 1.0]), 1.5).value == 0.0

    @given(probs, lams)
    @settings(max_examples=100, deadline=None)
    def test_no_worse_than_each_candidate(self, p, lam):
        spec = make_geometric_spec(p)
        r = best_upper(spec, lam)
        for other in (
            upper_tail_thm1(spec, lam),
            upper_tail_thm2(spec, lam),
            upper_tail_cor1(lam),
            upper_tail_cor2(lam),
        ):
            assert log_le(r, other)


class TestDominance:
    @given(probs, lams)
    @settings(max_examples=200, deadline=None)
    def test_chain(self, p, lam):
        spec = make_geometric_spec(p)
        thm1 = upper_tail_thm1(spec, lam)
        thm2 = upper_tail_thm2(spec, lam)
        cor1 = upper_tail_cor1(lam)
        cor2 = upper_tail_cor2(lam)
        assert log_le(thm2, thm1)
        assert log_le(thm1, cor1)
        assert log_le(thm2, cor2)
        assert log_le(cor2, cor1)

    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        lams,
    )
    @settings(max_examples=150, deadline=None)
    def test_closed_form_z_never_beats_thm2_route(self, p, lam):
        # the thm2 closed form is the z-bound with extra relaxations applied,
        # so the raw z-bound at that same z must sit at or below it
        spec = make_geometric_spec(p)
        z = (lam - spec.p_min) / (lam * (1.0 - spec.p_min))
        raw = lemma1_bound(spec, lam * spec.mu, z)
        assert log_le(raw, upper_tail_thm2(spec, lam))

    @given(probs)
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_lambda(self, p):
        spec = make_geometric_spec(p)
        grid = [1.0, 1.2, 1.5, 2.0, 3.0, 4.5, 6.0]
        for fn in (
            lambda lam: upper_tail_thm1(spec, lam),
            lambda lam: upper_tail_thm2(spec, lam),
            lambda lam: upper_tail_cor1(lam),
            lambda lam: upper_tail_cor2(lam),
            lambda lam: optimized_chernoff(spec, lam),
            lambda lam: best_upper(spec, lam),
        ):
            values = [fn(lam).log_value for lam in grid]
            for a, b in zip(values, values[1:]):
                if a == -math.inf:
                    assert b == -math.inf
                else:
                    assert b <= a + 1e-12 * (1.0 + abs(a))


class TestLemmaLaCheck:
    def test_boundary_points(self):
        assert lemma_la_check(1.0, 0.0)
        assert lemma_la_check(1.0, 1.0)
        assert lemma_la_check(4.0, 0.2)

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma_la_check(0.5, 0.1)
        with pytest.raises(DomainError):
            lemma_la_check(4.0, 0.3)

    @given(
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_property(self, A, frac):
        assert lemma_la_check(A, frac / A)


class TestIncreasingRoot:
    @pytest.mark.parametrize("root", [0.3, 1e-200, 5e-324, 0.999])
    def test_exact_to_the_last_double(self, root):
        calls = []

        def g(t):
            calls.append(t)
            return t - root

        assert _increasing_root(g, 0.0, 1.0) == root
        assert len(calls) <= 64

    def test_endpoints_without_sign_change(self):
        assert _increasing_root(lambda t: t + 1.0, 0.0, 1.0) == 0.0
        # g(hi) is never evaluated, so a pole there is harmless
        assert _increasing_root(lambda t: -1.0 / (1.0 - t), 0.0, 1.0) == 1.0


class TestResultClamping:
    def test_positive_log_clamped(self):
        r = _result(Method.COR1, 1.0, 1e-14)
        assert r.value == 1.0
        assert r.clamped

    def test_zero_log_not_clamped(self):
        assert not _result(Method.COR1, 1.0, 0.0).clamped


class TestSandwichSample:
    def test_small_sandwich(self):
        # light version of the full acceptance sandwich
        from tailbounds import geom_tail_exact

        for spec in random_geom_specs(seed=7, count=15):
            for lam in (1.0, 1.5, 2.5):
                exact = geom_tail_exact(spec, lam * spec.mu)
                lower = upper_tail_lower_bound_tl(spec, lam)
                pad = exact.error_bound + 1e-10
                assert lower.value <= exact.value + pad
                assert exact.value <= upper_tail_thm2(spec, lam).value + pad
