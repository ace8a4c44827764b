import math
import random
import statistics
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    OPTIMIZER_LAMS,
    decimal_chernoff_log,
    lemma_la_check,
    optimizer_corpus,
    random_geom_specs,
    reference_chernoff_log,
    reference_lemma1_log,
)
from tailbounds import (
    DomainError,
    LambdaOutOfRange,
    Method,
    best_upper,
    lemma1_bound,
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
from tailbounds import geom_bounds
from tailbounds.geom_bounds import _lemma1_log, _lemma1_terms, _reciprocal_root, _sorted_params
from tailbounds.model import bound_result

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

    def test_t_is_inf_where_one_over_lambda_overflows(self):
        r = lower_tail_tl1(make_geometric_spec([0.5]), 1e-320)
        assert r.internal_param == math.inf
        assert r.log_value == pytest.approx(-0.5 * 2.0 * (1e-320 - 1.0 - math.log(1e-320)),
                                            rel=1e-15)

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
        with pytest.raises(DomainError):
            lemma1_bound(HALF_HALF, math.inf, 1.5)

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

    @given(edge_specs())
    @settings(max_examples=100, deadline=None)
    def test_lam_one_is_t_zero(self, spec):
        # the root is lo = 0 exactly, since R(0) = mu p_min is the target
        r = optimized_chernoff(spec, 1.0)
        assert r.internal_param == 0.0
        assert r.log_value == 0.0
        assert not r.clamped
        assert r.evaluations == 1

    @given(probs, lams)
    @settings(max_examples=100, deadline=None)
    def test_t_in_range(self, p, lam):
        spec = make_geometric_spec(p)
        t = optimized_chernoff(spec, lam).internal_param
        assert 0.0 <= t < spec.p_min

    def test_log_near_one_against_decimal(self):
        # near lam = 1 both terms of -t lam mu - sum ln(1 - t/p_i) approach
        # t lam mu and cancel; at the package's own t the log must hold 1e-14
        # relative, through math up to _LIST_MAX_N summands and log1pmx_array past it
        rng = random.Random(39)
        cases = [([0.3, 0.7, 0.05], 1.0001)]
        for _ in range(600):
            p = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(1, 30))]
            cases.append((p, 1.0 + 10.0 ** rng.uniform(-8.0, 0.0)))
        for p, lam in cases:
            spec = make_geometric_spec(p)
            r = optimized_chernoff(spec, lam)
            expected = decimal_chernoff_log(spec, lam, r.internal_param)
            assert abs(Decimal(r.log_value) - expected) <= Decimal(1e-14) * abs(expected), (
                p[:3], len(p), lam)
        example = optimized_chernoff(make_geometric_spec([0.3, 0.7, 0.05]), 1.0001)
        assert example.log_value == pytest.approx(-7.41984020093832e-09, rel=1e-14)


class TestOptimizedLemma1:
    def test_x_zero(self):
        r = optimized_lemma1(HALF_HALF, 0.0)
        assert r.value == 1.0
        assert r.internal_param == 0.0  # x <= n: w = 0 without a solve
        assert r.evaluations == 0

    def test_beats_fixed_z(self):
        r = optimized_lemma1(HALF_HALF, 8.0)
        assert r.value <= LEMMA1_X8_Z15 * (1.0 + 1e-12)
        assert r.value >= 0.0625  # never crosses below the exact tail

    def test_infinite_x_is_domain_error(self):
        # lambda mu overflows here; slope * ln z was -inf * 0 = nan
        spec = make_geometric_spec([2.2e-308, 0.3])
        with pytest.raises(DomainError):
            optimized_lemma1(spec, math.inf)
        with pytest.raises(DomainError):
            best_upper(spec, 20.0)

    def test_degenerate(self):
        spec = make_geometric_spec([1.0, 1.0])
        assert optimized_lemma1(spec, 3.0).value == 0.0
        assert optimized_lemma1(spec, 2.0).value == 1.0

    def test_tiny_probability_collapsed_domain(self):
        # no double z sits strictly between 1 and the pole 1/(1 - 1e-300), but
        # w = z - 1 resolves [0, 1e-300): the optimum is the pole, where the
        # bound is (1 - x) ln(1 + w), the exact tail (1 - p)^(x - 1)
        spec = make_geometric_spec([1e-300])
        r = optimized_lemma1(spec, 5.0)
        assert r.internal_param == math.nextafter(1e-300, 0.0)
        assert r.log_value == pytest.approx(-4e-300, rel=1e-12)

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
        again = _lemma1_log(*_lemma1_terms(spec), spec.n, lam * spec.mu, r.internal_param)
        assert abs(again - r.log_value) <= 1e-12 * max(1.0, abs(r.log_value))

    @given(probs, st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_z_in_range(self, p, x):
        spec = make_geometric_spec(p)
        r = optimized_lemma1(spec, x)
        if r.internal_param is not None and spec.p_min < 1.0:
            # w may equal the quotient p_min/(1 - p_min) where that rounds down
            w, q_min = r.internal_param, 1.0 - spec.p_min
            assert 0.0 <= w <= spec.p_min / q_min
            assert spec.p_min - q_min * w > 0.0


class TestTinyPmin:
    """opt-lemma1 resolves its domain [0, p_min/(1 - p_min)) in w for any p_min,
    where the doubles z in [1, 1/(1 - p_min)) are too few below p_min ~ 1e-13."""

    @pytest.mark.parametrize("p_min", [1e-13, 1e-80, 1e-300])
    @pytest.mark.parametrize("others", [[0.3, 0.7], ["tie", 0.3], [1.0, 1.0]])
    @pytest.mark.parametrize("lam", [1.01, 2.0, 5.0, 20.0])
    def test_between_chernoff_and_tl(self, p_min, others, lam):
        spec = make_geometric_spec([p_min] + [p_min if o == "tie" else o for o in others])
        lemma1 = optimized_lemma1(spec, lam * spec.mu)
        assert log_le(lemma1, optimized_chernoff(spec, lam))
        assert log_le(upper_tail_lower_bound_tl(spec, lam), lemma1)

    def test_single_tiny_summand_at_the_pole(self):
        # the exact tail (1 - p)^(x - 1) at x = 20/p is e^-20; z = 1 gave e^0
        r = optimized_lemma1(make_geometric_spec([7.37e-81]), 20.0 / 7.37e-81)
        assert r.log_value == pytest.approx(-20.0, rel=1e-12)


class TestOverflowingThreshold:
    """A bound that reads a spec refuses a lambda whose threshold lambda mu
    overflows, as best_upper and the CLI do."""

    @pytest.mark.parametrize("bound", [upper_tail_thm1, upper_tail_thm2, optimized_chernoff,
                                       upper_tail_lower_bound_tl])
    def test_refused(self, bound):
        # lambda mu = 1e10 * 1e300: thm2 and opt-chernoff answered log -inf, an
        # upper bound of 0, though the tail is about e^-1e10 > 0
        spec = make_geometric_spec([1e-300])
        with pytest.raises(DomainError, match="finite threshold"):
            bound(spec, 1e10)
        assert bound(spec, 1e8).log_value > -math.inf  # lambda mu = 1e308 answers


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
    """_reciprocal_root: where the increasing R(s) = sum c/(a_i - b_i s) reaches
    its target."""

    @pytest.mark.parametrize("root", [0.3, 1e-200, 5e-324, 0.999])
    def test_exact_to_the_last_double(self, root):
        # one pole: 1/R is linear, so the first Newton step from next to the
        # pole lands on the root
        hi = max(root, math.nextafter(2.0 * root, 0.0))
        s, evaluations = _reciprocal_root(np.array([2.0 * root]), 1.0, root, 1.0, 0.0, hi)
        assert s == root
        assert evaluations <= 2

    def test_endpoints_without_sign_change(self):
        one = np.array([1.0])
        # R(hi) = 2 stays below the target, as at opt-lemma1's pole optimum
        assert _reciprocal_root(one, one, 1.0, 100.0, 0.0, 0.5) == (0.5, 1)
        # the root 1/3 lies below lo: the solve stops there
        assert _reciprocal_root(one, one, 1.0, 1.5, 0.5, 0.875) == (0.5, 2)

    @pytest.mark.parametrize("slope", [0.0])
    def test_useless_derivative(self, slope):
        # R is constant above its target: Newton cannot step, and the root is
        # below lo (opt-lemma1 when every other summand has p_i = 1)
        b = np.full(2, slope)
        assert _reciprocal_root(np.ones(2), b, 1.0, 1.0, 0.25, 0.875) == (0.25, 2)

    def test_iterates_decrease(self):
        seen = []

        class Recording(np.ndarray):
            """A b that records every s at which the solve evaluates R."""

            def __mul__(self, other):
                if isinstance(other, float):
                    seen.append(other)
                return np.asarray(self) * other

        p = np.array([0.05, 0.05, 0.2, 0.6, 0.9])  # a tied pole at p_min
        target = 3.0 * 0.05 * float((1.0 / p).sum())
        hi = math.nextafter(0.05, 0.0)
        b = np.ones_like(p).view(Recording)
        t, evaluations = _reciprocal_root(p, b, 0.05, target, 0.0, hi)
        assert seen[0] == hi and seen[-1] == t
        assert len(seen) == evaluations >= 3
        assert all(a > b for a, b in zip(seen, seen[1:]))
        assert float((0.05 / (p - t)).sum()) == pytest.approx(target, rel=1e-12)

    def test_optimized_bounds_at_the_endpoints(self):
        # opt-lemma1 for one summand sits at the pole after one evaluation;
        # at x <= n it is 1 at w = 0 without a solve
        spec = make_geometric_spec([0.3])
        r = optimized_lemma1(spec, 10.0)
        assert r.evaluations == 1
        assert 0.3 - 0.7 * r.internal_param > 0.0
        assert 0.3 - 0.7 * math.nextafter(r.internal_param, 1.0) <= 0.0
        r = optimized_lemma1(HALF_HALF, 2.0)
        assert (r.log_value, r.internal_param, r.evaluations) == (0.0, 0.0, 0)
        # opt-chernoff at lam = 1 stops at lo = 0
        assert optimized_chernoff(HALF_HALF, 1.0).internal_param == 0.0


class TestAgainstBisection:
    """The Newton solves against bit bisection with fsum, on the corpus in conftest."""

    def test_no_bound_looser_than_reference(self):
        def assert_no_looser(new, ref, what):
            if ref == -math.inf:
                assert new == -math.inf, what
            else:
                assert new <= ref + 1e-12 * max(1.0, abs(ref)), what

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in optimizer_corpus():
                for lam in OPTIMIZER_LAMS:
                    x = lam * spec.mu
                    what = (spec.params[:4], spec.n, lam)
                    chernoff = reference_chernoff_log(spec, lam)
                    lemma1 = reference_lemma1_log(spec, x)
                    closed = (
                        upper_tail_thm1(spec, lam),
                        upper_tail_thm2(spec, lam),
                        upper_tail_cor1(lam),
                        upper_tail_cor2(lam),
                    )
                    best = min([chernoff, lemma1] + [r.log_value for r in closed])
                    assert_no_looser(optimized_chernoff(spec, lam).log_value, chernoff, what)
                    assert_no_looser(optimized_lemma1(spec, x).log_value, lemma1, what)
                    assert_no_looser(best_upper(spec, lam).log_value, best, what)

    def test_few_evaluations_at_n8(self):
        rng = random.Random(8)
        specs = [
            make_geometric_spec([rng.uniform(0.05, 1.0) for _ in range(8)])
            for _ in range(50)
        ]
        chernoff = [optimized_chernoff(s, lam).evaluations for s in specs for lam in OPTIMIZER_LAMS]
        lemma1 = [
            optimized_lemma1(s, lam * s.mu).evaluations for s in specs for lam in OPTIMIZER_LAMS
        ]
        assert statistics.median(chernoff) <= 5
        assert statistics.median(lemma1) <= 5
        assert max(chernoff + lemma1) <= 16

    def test_best_upper_counts_the_lemma1_solve_alone(self):
        # opt-chernoff never goes below opt-lemma1, so best_upper skips its solve
        spec = make_geometric_spec([0.5, 0.3, 0.2])
        r = best_upper(spec, 3.0)
        lemma1 = optimized_lemma1(spec, 3.0 * spec.mu)
        assert r.evaluations == lemma1.evaluations > 0
        assert optimized_chernoff(spec, 3.0).evaluations > 0
        assert upper_tail_thm1(spec, 3.0).evaluations is None


class TestListAndArrayKernels:
    """Up to _LIST_MAX_N summands, and until numpy is imported, the optimized
    rows solve on Python floats, otherwise on the numpy parameter array. Over
    the same sorted values both kernels take the same Newton steps, and up to
    the cut-off they reach the same bits, so a result does not depend on
    whether numpy was loaded. Above it, where only arrays run, the arrays'
    log-gap sum (numpy's log1p, added by numpy's sum, not math.fsum) may
    differ from the lists' in the last bit, and the logs agree within
    1e-12 (1 + |log|), as _lemma1_log cancels near lam = 1."""

    @staticmethod
    def corpus():
        # n on both sides of the cut-off, with p_i = 1, p_min down to 1e-300 and ties
        rng = random.Random(35)
        specs = []
        for _ in range(120):
            n = rng.randint(1, 2 * geom_bounds._LIST_MAX_N)
            p = [rng.uniform(0.05, 1.0) for _ in range(n)]
            if rng.random() < 0.5:
                p[0] = 10.0 ** rng.uniform(-300.0, -1.0)
            p += [min(p)] * rng.randint(0, 2) + [1.0] * rng.randint(0, 2)
            specs.append(make_geometric_spec(p))
        return specs

    @staticmethod
    def both_kernels(monkeypatch, evaluate):
        """evaluate() with every spec's parameters as a list, then as an array."""
        results = []
        for params in (lambda spec: sorted(spec.params), lambda spec: spec.param_array):
            monkeypatch.setattr(geom_bounds, "_sorted_params", params)
            results.append(evaluate())
        return results

    @staticmethod
    def assert_same_log(listed: float, arrayed: float, n: int, what):
        if n <= geom_bounds._LIST_MAX_N:
            assert repr(listed) == repr(arrayed), what
        else:
            assert abs(listed - arrayed) <= 1e-12 * (1.0 + abs(arrayed)), what

    def test_rows_agree(self, monkeypatch):
        for spec in self.corpus():
            for lam in OPTIMIZER_LAMS + (1.0001,):
                x = lam * spec.mu
                what = (spec.params[:4], spec.n, lam)
                rows = self.both_kernels(monkeypatch, lambda: (
                    optimized_chernoff(spec, lam),
                    optimized_lemma1(spec, x),
                    best_upper(spec, lam),
                ))
                for listed, arrayed in zip(*rows):
                    assert listed.evaluations == arrayed.evaluations, what
                    assert listed.method == arrayed.method, what
                    self.assert_same_log(listed.log_value, arrayed.log_value, spec.n, what)
                    if spec.n <= geom_bounds._LIST_MAX_N:
                        assert repr(listed.internal_param) == repr(arrayed.internal_param), what

    def test_lemma1_agrees(self, monkeypatch):
        for spec in self.corpus():
            if spec.p_min == 1.0:
                continue
            # halfway to the pole in w = z - 1, for z >= 1 a double
            z = 1.0 + 0.5 * spec.p_min / (1.0 - spec.p_min)
            for lam in (1.0, 1.0001, 2.0, 20.0):
                listed, arrayed = self.both_kernels(
                    monkeypatch, lambda: lemma1_bound(spec, lam * spec.mu, z).log_value
                )
                self.assert_same_log(listed, arrayed, spec.n, (spec.n, lam))

    def test_arrays_once_numpy_is_imported(self):
        # as in this process; tests/test_cli.py runs the lists in a fresh one
        spec = make_geometric_spec([0.5, 0.2])
        assert _sorted_params(spec) is spec.param_array


class TestResultClamping:
    def test_positive_log_clamped(self):
        r = bound_result(Method.COR1, 1.0, 1e-14)
        assert r.value == 1.0
        assert r.clamped

    def test_zero_log_not_clamped(self):
        assert not bound_result(Method.COR1, 1.0, 0.0).clamped


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
