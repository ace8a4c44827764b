import importlib.util
import math
import os
import random
import sys
import time
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_pmf,
    brute_force_tail,
    decimal_tail,
    matrix_exp_survival,
    partial_fractions_survival,
    pgf_geometric,
    random_exp_specs,
    random_geom_specs,
    reference_pmf_grid,
)
from tailbounds import exact_oracle, geom_bounds
from tailbounds import (
    DomainError,
    ExponentialSumSpec,
    GeometricSumSpec,
    McConfig,
    NegativeX,
    OracleMethod,
    OutOfRange,
    TailEstimate,
    geom_lower_tail_exact,
    geom_pmf_convolution,
    geom_tail_exact,
    hypoexp_survival,
    iid_geom_tail,
    make_exponential_spec,
    make_geometric_spec,
    mc_tail,
    upper_tail_lower_bound_tl,
    upper_tail_thm2,
)
from tailbounds.exact_oracle import exact_tail

HALF_HALF = make_geometric_spec([0.5, 0.5])
FIFTY = make_geometric_spec(list(np.random.default_rng(5).uniform(0.05, 1.0, 50)))


class TestPmfConvolution:
    def test_single_geometric(self):
        pmf = geom_pmf_convolution(make_geometric_spec([0.5]), 4)
        assert pmf == pytest.approx([0.5, 0.25, 0.125, 0.0625], rel=1e-14)

    def test_pair(self):
        pmf = geom_pmf_convolution(HALF_HALF, 4)
        assert pmf == pytest.approx([0.25, 0.25, 0.1875], rel=1e-14)

    def test_degenerate(self):
        pmf = geom_pmf_convolution(make_geometric_spec([1.0, 1.0]), 6)
        assert pmf[0] == 1.0
        assert np.all(pmf[1:] == 0.0)

    def test_k_too_small(self):
        # K = n - 1: the kernel's one support check refuses it, naming K
        with pytest.raises(OutOfRange, match=r"\[2, 10000000\], got 1$"):
            geom_pmf_convolution(HALF_HALF, 1)

    def test_matches_brute_force(self):
        for spec in random_geom_specs(seed=3, count=10, n_max=4):
            K = spec.n + 25
            pmf = geom_pmf_convolution(spec, K)
            brute = brute_force_pmf(spec.params, K)
            for offset, value in enumerate(pmf):
                assert value == pytest.approx(
                    brute.get(spec.n + offset, 0.0), rel=1e-10, abs=1e-14
                )

    def test_mass_accounting(self):
        for spec in random_geom_specs(seed=5, count=20):
            K = max(spec.n, math.ceil(3.0 * spec.mu))
            pmf = geom_pmf_convolution(spec, K)
            assert np.all(pmf >= 0.0)
            total = float(np.sum(pmf))
            assert total <= 1.0 + 1e-12
            assert total >= 1.0 - upper_tail_thm2(spec, (K + 1) / spec.mu).value - 1e-12


class TestGeomTailExact:
    def test_spot(self):
        assert geom_tail_exact(HALF_HALF, 8.0).value == pytest.approx(
            0.0625, rel=1e-12
        )

    def test_whole_support(self):
        # x <= n needs no cascade
        for x in (2.0, -3.0):
            assert geom_tail_exact(HALF_HALF, x) == TailEstimate(
                1.0, 0.0, OracleMethod.CLOSED_FORM
            )
        assert geom_tail_exact(HALF_HALF, 2.5).method is OracleMethod.CONVOLUTION

    def test_degenerate(self):
        assert geom_tail_exact(make_geometric_spec([1.0]), 1.5).value == 0.0

    def test_deep_tail_branch(self):
        # P(X >= 60) = 60 * 2^-59, read from the cascade's final state
        # with a relative certificate
        est = geom_tail_exact(HALF_HALF, 60.0)
        assert est.value == pytest.approx(60.0 / 2.0**59, rel=1e-9)
        assert est.error_bound <= 2e-9 * est.value + 1e-20

    def test_right_continuity_in_integer_steps(self):
        assert geom_tail_exact(HALF_HALF, 7.2).value == geom_tail_exact(
            HALF_HALF, 8.0
        ).value

    def test_monotone_in_x(self):
        for spec in random_geom_specs(seed=9, count=10):
            xs = [spec.n, spec.mu, 1.5 * spec.mu, 2.5 * spec.mu, 4.0 * spec.mu]
            values = [geom_tail_exact(spec, x).value for x in xs]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12

    def test_matches_brute_force(self):
        for spec in random_geom_specs(seed=21, count=8, n_max=3):
            K = spec.n + 220
            for x in (spec.n + 1, math.ceil(1.3 * spec.mu)):
                if upper_tail_thm2(spec, (K + 1) / spec.mu).value > 1e-13:
                    continue  # brute truncation would dominate the comparison
                assert geom_tail_exact(spec, x).value == pytest.approx(
                    brute_force_tail(spec.params, x, K), rel=1e-9, abs=1e-12
                )

    def test_markov_cross_check(self):
        for spec in random_geom_specs(seed=17, count=10):
            z_hi = 1.0 / (1.0 - spec.p_min) if spec.p_min < 1.0 else 4.0
            for frac in (0.2, 0.6, 0.9):
                z = 1.0 + frac * (min(z_hi, 8.0) - 1.0) * 0.999
                x = 1.5 * spec.mu
                markov = z**-x * pgf_geometric(spec, z)
                assert geom_tail_exact(spec, x).value <= markov * (1.0 + 1e-9) + 1e-300


class TestGeomLowerTail:
    def test_below_support(self):
        # x < n needs no cascade
        assert geom_lower_tail_exact(HALF_HALF, 1.9) == TailEstimate(
            0.0, 0.0, OracleMethod.CLOSED_FORM
        )
        assert geom_lower_tail_exact(HALF_HALF, 2.0).method is OracleMethod.CONVOLUTION

    def test_complements_upper(self):
        for x in (3.0, 5.0, 9.0):
            lower = geom_lower_tail_exact(HALF_HALF, x).value
            upper = geom_tail_exact(HALF_HALF, math.floor(x) + 1).value
            assert lower + upper == pytest.approx(1.0, abs=1e-12)


class TestIidGeomTail:
    def test_single_variable(self):
        # P(X >= 4) = (1-p)^3 for one geometric
        assert iid_geom_tail(0.5, 1, 4.0).value == pytest.approx(0.125, rel=1e-12)

    def test_pair(self):
        assert iid_geom_tail(0.5, 2, 8.0).value == pytest.approx(0.0625, rel=1e-12)

    def test_degenerate(self):
        assert iid_geom_tail(1.0, 3, 3.0).value == 1.0
        assert iid_geom_tail(1.0, 3, 3.5).value == 0.0

    def test_validation(self):
        with pytest.raises(OutOfRange):
            iid_geom_tail(0.0, 2, 4.0)
        with pytest.raises(OutOfRange):
            iid_geom_tail(0.5, 0, 4.0)

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_agreement_with_convolution(self, p, n):
        spec = make_geometric_spec([p] * n)
        for x in (n, math.ceil(1.5 * spec.mu), math.ceil(3.0 * spec.mu)):
            conv = geom_tail_exact(spec, float(x))
            closed = iid_geom_tail(p, n, float(x))
            assert abs(conv.value - closed.value) <= max(1e-12, 1e-9 * closed.value)

    def test_memory_is_one_float_per_summand(self):
        # only the n log terms are kept, 32 bytes each: about 0.3 MB here
        iid_geom_tail(0.5, 10**4, 2.5e4)  # warm-up
        tracemalloc.start()
        try:
            iid_geom_tail(0.5, 10**4, 2.5e4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestTailRatioFloor:
    # P(X >= j) >= (1-p_min)^(j-k) P(X >= k) for j >= k, and the real-argument
    # variant with exponent x - y + 1
    def test_integer_pairs(self):
        for spec in random_geom_specs(seed=29, count=15):
            base = max(spec.n, math.ceil(spec.mu))
            for j, k in ((base, base), (base + 2, base), (base + 9, base + 4)):
                pj = geom_tail_exact(spec, j).value
                pk = geom_tail_exact(spec, k).value
                floor = (1.0 - spec.p_min) ** (j - k) * pk
                assert pj >= floor * (1.0 - 1e-9) - 1e-14

    def test_real_pairs(self):
        for spec in random_geom_specs(seed=31, count=15):
            base = max(float(spec.n), spec.mu)
            for x, y in ((base + 2.6, base + 0.4), (base + 7.1, base + 3.9)):
                px = geom_tail_exact(spec, x).value
                py = geom_tail_exact(spec, y).value
                floor = (1.0 - spec.p_min) ** (x - y + 1.0) * py
                assert px >= floor * (1.0 - 1e-9) - 1e-14


_rates = st.floats(min_value=1e-3, max_value=1e3)

# 1000 distinct rates ~ U(0.1, 10): 349 of the product weights
# prod_{j!=i} a_j/(a_j-a_i) pass the double range, although every term is small
_rng = random.Random(1)
_RANDOM_1E3 = tuple(_rng.uniform(0.1, 10.0) for _ in range(1000))


class TestHypoexpSurvival:
    def test_distinct_rates(self):
        est = hypoexp_survival(make_exponential_spec([1.0, 2.0]), 1.0)
        assert est.value == pytest.approx(0.60042359910627195, rel=1e-12)
        assert est.method is OracleMethod.PARTIAL_FRACTIONS

    def test_erlang(self):
        est = hypoexp_survival(make_exponential_spec([1.0, 1.0]), 2.0)
        assert est.value == pytest.approx(0.40600584970983808, rel=1e-12)
        assert est.method is OracleMethod.MATRIX_EXP

    def test_at_zero(self):
        assert hypoexp_survival(make_exponential_spec([3.0, 0.2]), 0.0).value == 1.0

    def test_negative_x(self):
        with pytest.raises(NegativeX):
            hypoexp_survival(make_exponential_spec([1.0]), -0.1)

    def test_single_rate(self):
        est = hypoexp_survival(make_exponential_spec([2.0]), 1.5)
        assert est.value == pytest.approx(math.exp(-3.0), rel=1e-12)

    def test_routes_agree(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            rates = tuple(np.sort(rng.uniform(0.1, 10.0, n)))
            if any(
                abs(a - b) <= 1e-3 * max(a, b) for a, b in zip(rates, rates[1:])
            ):
                continue
            spec = make_exponential_spec(rates)
            for x in (0.5, 2.0, 5.0):
                pf, _ = partial_fractions_survival(spec, x)
                mx, _ = matrix_exp_survival(spec, x)
                assert abs(pf - mx) <= 1e-9

    def test_erlang_closed_form_family(self):
        # Erlang(n, a): survival = e^(-ax) sum_{k<n} (ax)^k / k!
        for n in (2, 3, 5):
            for x in (0.3, 1.0, 4.0):
                expected = math.exp(-x) * sum(x**k / math.factorial(k) for k in range(n))
                got = hypoexp_survival(make_exponential_spec([1.0] * n), x)
                assert got.value == pytest.approx(expected, rel=1e-12, abs=1e-15)
                assert got.method is OracleMethod.MATRIX_EXP

    def test_product_overflow_spec_is_certified(self):
        # 1000 distinct rates ~ U(0.1, 10), where hundreds of the product
        # weights would overflow: the log-space terms stay small, and their
        # certificate beats the matrix route's absolute one (about 1.1e-7)
        rates = tuple(float(a) for a in np.random.default_rng(2).uniform(0.1, 10.0, 1000))
        spec = make_exponential_spec(rates)
        x = 1.5 * spec.mu
        est = hypoexp_survival(spec, x)
        assert est.method is OracleMethod.PARTIAL_FRACTIONS
        assert abs(Decimal(est.value) - _decimal_exp_sum(rates, x)) <= Decimal(est.error_bound)
        c = [-a * x for a in sorted(spec.rates)]
        assert est.error_bound < exact_oracle._matrix_exp_scaling(c)[1]

    @pytest.mark.parametrize("lam", [1.5, 3.0])
    def test_random_1e3_spec_is_certified(self, lam):
        spec = make_exponential_spec(_RANDOM_1E3)
        x = lam * spec.mu
        est = hypoexp_survival(spec, x)
        assert est.method is OracleMethod.PARTIAL_FRACTIONS
        assert 0.0 < est.value
        assert abs(Decimal(est.value) - _decimal_exp_sum(_RANDOM_1E3, x)) <= Decimal(
            est.error_bound
        )

    def test_numpy_rates_overflow_without_warning(self):
        # 1000 evenly spaced rates at x = 1: one exponent E_i reaches 734, past
        # exp's range, so there is no partial-fraction answer; numpy scalars
        # must not warn on the way, and no answer is an infinite bound
        rates = tuple(np.linspace(0.1, 10.0, 1000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, error = partial_fractions_survival(make_exponential_spec(rates), 1.0)
        assert error == math.inf

    def test_bits_independent_of_the_builtin_sum(self, monkeypatch):
        # Python 3.12 made the builtin sum of floats compensated; the kernel
        # adds its logs left to right itself, so a compensated sum changes no bit
        rng = random.Random(29)
        cases = []
        for _ in range(2000):
            rates = sorted({rng.uniform(0.1, 10.0) for _ in range(rng.randint(2, 12))})
            cases.append((rates, [-a * rng.uniform(0.1, 3.0) for a in rates]))
        before = [exact_oracle._partial_fractions(*case) for case in cases]
        monkeypatch.setattr(exact_oracle, "sum", math.fsum, raising=False)
        assert [exact_oracle._partial_fractions(*case) for case in cases] == before

    @given(
        st.one_of(
            st.lists(_rates, min_size=1, max_size=12),
            st.tuples(_rates, st.lists(st.floats(0.0, 3e-6), min_size=1, max_size=12)).map(
                lambda t: [t[0] * (1.0 + d) for d in t[1]]
            ),
            st.lists(_rates, min_size=1, max_size=6).flatmap(
                lambda r: st.permutations(r + r[:1])
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_route_follows_certificate(self, rates):
        # random, near-tied and tied rate sets: partial fractions are kept
        # unless their bound passes both 1e-9 of their value and the matrix
        # route's bound; tied rates have no partial-fraction answer. Every
        # partial-fraction answer, kept or not, lies within its own bound.
        # (The matrix route's bound is checked by
        # test_matrix_answers_within_their_bound; this reference cannot
        # resolve 12 near-tied rates.)
        spec = make_exponential_spec(rates)
        est = hypoexp_survival(spec, 1.0)
        value, error = partial_fractions_survival(spec, 1.0)
        keep = error <= 1e-9 * value or error <= matrix_exp_survival(spec, 1.0)[1]
        assert (est.method is OracleMethod.PARTIAL_FRACTIONS) == keep
        if len(set(rates)) < len(rates):
            assert error == math.inf and not keep
            return
        assert abs(Decimal(value) - _decimal_exp_sum(rates, 1.0)) <= Decimal(error)
        if keep:
            assert (est.value, est.error_bound) == (value, error)

    def test_matrix_answers_within_their_bound(self):
        # clusters of 2-4 rates within 1e-7 of each other, next to rates up to
        # 1e6 times larger, push hypoexp_survival onto the matrix route with
        # many squarings; each squaring can double the error it inherits
        rng = random.Random(13)
        checked = 0
        for _ in range(1000):
            n = rng.randint(2, 12)
            rates = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(n)]
            k = rng.randint(2, min(4, n))
            b = rates[0]
            rates[:k] = [b * (1.0 + rng.uniform(1e-9, 1e-7)) for _ in range(k)]
            if len(set(rates)) < n:
                continue
            est = hypoexp_survival(make_exponential_spec(rates), 1.0)
            if est.method is not OracleMethod.MATRIX_EXP:
                continue
            checked += 1
            error = abs(Decimal(est.value) - _decimal_exp_sum(rates, 1.0))
            assert error <= Decimal(est.error_bound), rates
        assert checked > 600

    def test_partial_fractions_kept_just_inside_their_tolerance(self):
        # the bound is 1.2e-11 relative, inside 1e-9 but not 1e-12; the matrix
        # route would report 1.83e-13, so only the 1e-9 rule keeps this answer
        est = hypoexp_survival(make_exponential_spec([9.26, 9.49, 8.94]), 0.33)
        assert est.method is OracleMethod.PARTIAL_FRACTIONS
        assert est.value == pytest.approx(0.413340504748, rel=1e-11)
        assert est.error_bound == pytest.approx(5.02290841553e-12, rel=1e-9)

    def test_density_vanishes_at_origin(self):
        # for n >= 2 the density at 0 is 0, so the survival has zero slope
        spec = make_exponential_spec([1.0, 3.0])
        h = 1e-6
        slope = (hypoexp_survival(spec, h).value - 1.0) / h
        assert abs(slope) < 1e-4


class TestMatrixCap:
    # the matrix route is refused past its cap before it allocates; partial
    # fractions are not capped
    def test_tied_rates_past_cap_are_refused(self, monkeypatch):
        monkeypatch.setattr(exact_oracle, "_MAX_MATRIX_N", 16)
        with pytest.raises(OutOfRange, match="n=17"):
            hypoexp_survival(make_exponential_spec([1.0] * 17), 20.0)

    def test_tied_rates_at_cap_answer(self, monkeypatch):
        monkeypatch.setattr(exact_oracle, "_MAX_MATRIX_N", 16)
        est = hypoexp_survival(make_exponential_spec([1.0] * 16), 20.0)
        assert est.method is OracleMethod.MATRIX_EXP
        assert 0.0 < est.value < 1.0

    def test_distinct_rates_past_cap_answer(self, monkeypatch):
        monkeypatch.setattr(exact_oracle, "_MAX_MATRIX_N", 16)
        est = hypoexp_survival(make_exponential_spec([1.0 + k for k in range(17)]), 4.0)
        assert est.method is OracleMethod.PARTIAL_FRACTIONS
        assert 0.0 < est.value < 1.0


class TestOneListOfProducts:
    # both routes read one list of the products -a_i x: the matrix norm doubles
    # a product, not a rate, and its scaling is derived at most once per call
    @pytest.mark.parametrize("rates", [(1e308, 1e308), (9e307, 9e307), (1.7e308,) * 3])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_tied_rates_at_the_top_of_the_double_range(self, rates, lam):
        # Erlang(n): P(X > lam mu) = e^(-lam n) sum_{k<n} (lam n)^k / k!
        spec = make_exponential_spec(rates)
        t = lam * spec.n
        upper = math.exp(-t) * math.fsum(t**k / math.factorial(k) for k in range(spec.n))
        x = lam * spec.mu
        answers = [(hypoexp_survival(spec, x), upper), (exact_tail(spec, x, "upper"), upper),
                   (exact_tail(spec, x, "lower"), 1.0 - upper)]
        for est, truth in answers:
            assert est.method is OracleMethod.MATRIX_EXP
            assert abs(est.value - truth) <= est.error_bound, (rates, lam, est)

    @pytest.mark.parametrize("rates, x, route, calls", [
        ((1.0, 2.0), 1.0, OracleMethod.PARTIAL_FRACTIONS, 0),  # within 1e-9
        ((1.0, 1.000001), 40.0, OracleMethod.PARTIAL_FRACTIONS, 1),  # 8.9e-9, below the matrix
        ((1.0, 1.0), 2.0, OracleMethod.MATRIX_EXP, 1),
        ((2.0, 513.0, 2.00001), 1.0, OracleMethod.MATRIX_EXP, 1),
    ])
    def test_scaling_runs_at_most_once(self, rates, x, route, calls):
        # partial fractions stand within 1e-9 relative, or below the matrix bound
        wraps = exact_oracle._matrix_exp_scaling
        with mock.patch.object(exact_oracle, "_matrix_exp_scaling", wraps=wraps) as scaling:
            est = hypoexp_survival(make_exponential_spec(rates), x)
        assert est.method is route
        assert scaling.call_count == calls

    def test_double_range_guard_binds_only_on_the_matrix_route(self):
        # max(a) x = 1e310 passes 2^1020, yet partial fractions certify the tail,
        # e^-1 to within 1e-300 relative, well within 1e-9: they answer
        est = hypoexp_survival(make_exponential_spec([1e-300, 1e10]), 1e300)
        assert est.method is OracleMethod.PARTIAL_FRACTIONS
        assert abs(est.value - math.exp(-1.0)) <= est.error_bound <= 1e-9 * est.value
        # where they miss 1e-9, the matrix route's 2^s would pass the double range
        for rates in ((1.0, 2.0), (1.0, 1.0)):
            with pytest.raises(OutOfRange, match=r"need max rate \* x <= 2\^1020, got x=1e\+308"):
                hypoexp_survival(make_exponential_spec(rates), 1e308)

    def test_overflowing_squarings_are_refused_without_warnings(self):
        # x is about 1e290: s = 998 squarings, and the a-priori bound is 1.0
        spec = make_exponential_spec([1e10, 1e-10, 1e-10, 1e-10, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="998 squarings"):
                hypoexp_survival(spec, 1e-10 * spec.mu)


_TAIL_SPECS = random_geom_specs(seed=31, count=30) + random_exp_specs(seed=32, count=30)


class TestExactTail:
    # exact_tail picks the oracle of the spec's distribution and side, and
    # returns its answer unchanged; only the exponential lower tail is derived
    @pytest.mark.parametrize("side, lam", [*(("upper", lam) for lam in (1.0, 1.5, 3.0, 5.0)),
                                           *(("lower", lam) for lam in (0.2, 0.5, 1.0))])
    def test_equals_the_routed_oracle(self, side, lam):
        for spec in _TAIL_SPECS:
            x = lam * spec.mu
            est = exact_tail(spec, x, side)
            if isinstance(spec, GeometricSumSpec):
                oracle = geom_tail_exact if side == "upper" else geom_lower_tail_exact
                assert est == oracle(spec, x), (spec, side, lam)
                continue
            s = hypoexp_survival(spec, x)
            if side == "upper":
                assert est == s, (spec, lam)
            else:
                lower = 1.0 - s.value
                assert est == TailEstimate(
                    lower, s.error_bound + math.ulp(lower) / 2, s.method
                ), (spec, lam)

    def test_upper_is_the_default(self):
        for spec in _TAIL_SPECS:
            assert exact_tail(spec, 2.0 * spec.mu) == exact_tail(spec, 2.0 * spec.mu, "upper")

    def test_exp_lower_tail_counts_its_subtraction(self):
        # 1 - v rounds by up to half an ulp of the result when v < 1/2
        spec = make_exponential_spec([1.0, 2.0, 3.0])
        upper = hypoexp_survival(spec, spec.mu)
        lower = exact_tail(spec, spec.mu, "lower")
        assert upper.value < 0.5
        assert lower.value == 1.0 - upper.value
        assert lower.error_bound >= upper.error_bound + math.ulp(lower.value) / 2

    def test_closed_form_edges(self):
        whole = TailEstimate(1.0, 0.0, OracleMethod.CLOSED_FORM)
        empty = TailEstimate(0.0, 0.0, OracleMethod.CLOSED_FORM)
        for spec in _TAIL_SPECS:
            if isinstance(spec, GeometricSumSpec):
                for x in (-math.inf, 0.0, spec.n - 0.5, spec.n):
                    assert exact_tail(spec, x, "upper") == whole
                for x in (-math.inf, 0.0, spec.n - 0.5):
                    assert exact_tail(spec, x, "lower") == empty
                assert exact_tail(spec, spec.n, "lower").method is OracleMethod.CONVOLUTION
            else:
                assert exact_tail(spec, 0.0, "upper") == whole
                assert exact_tail(spec, 0.0, "lower") == empty

    @pytest.mark.parametrize("side", ["Upper", "both", None])
    def test_other_sides_raise_as_mc_tail(self, side):
        with pytest.raises(OutOfRange) as mc:
            mc_tail(HALF_HALF, 3.0, McConfig(samples=10), side=side)
        for spec in (HALF_HALF, make_exponential_spec([1.0, 2.0])):
            with pytest.raises(OutOfRange) as exc:
                exact_tail(spec, 3.0, side)
            assert str(exc.value) == str(mc.value)

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_bad_x_raises_the_routed_oracles_error(self, side):
        with pytest.raises(NegativeX):
            exact_tail(make_exponential_spec([1.0, 2.0]), -1.0, side)
        with pytest.raises(DomainError, match="finite x >= 0, got nan"):
            exact_tail(HALF_HALF, math.nan, side)


class TestSupportCap:
    # the cap is checked where a grid is built, before it is allocated: tied
    # p at x = 1e10 would ask for about 80 GB. NaN and +inf are no threshold
    @pytest.mark.parametrize("x", [1e10, math.inf, math.nan])
    def test_cap_raises(self, x):
        error, named = (OutOfRange, "10000000") if math.isfinite(x) else (DomainError, str(x))
        with pytest.raises(error, match=named):
            geom_tail_exact(HALF_HALF, x)
        with pytest.raises(error, match=named):
            geom_lower_tail_exact(HALF_HALF, x)

    def test_tied_query_past_cap_refused_before_allocation(self):
        tracemalloc.start()
        try:
            for oracle in (geom_tail_exact, geom_lower_tail_exact):
                with pytest.raises(OutOfRange, match="10000000"):
                    oracle(HALF_HALF, 1e10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("p", [[0.5, 0.2], [0.3, 0.5, 0.7, 0.2, 0.9, 0.4, 0.6, 0.25]],
                             ids=["n2", "n8"])
    @pytest.mark.parametrize("x", [2e7, 1e9, 1e300, sys.float_info.max])
    def test_distinct_p_past_cap_need_no_grid(self, p, x):
        # partial fractions answer with no grid, so the cap does not apply:
        # the tail underflows to 0, within a few smallest subnormals (at the
        # largest double, k ln q overflows to -inf for p = 0.9: its term is 0)
        spec = make_geometric_spec(p)
        with _grid_calls() as grid:
            est = geom_tail_exact(spec, x)
        assert grid.call_count == 0
        assert est.method is OracleMethod.PARTIAL_FRACTIONS
        assert est.value == 0.0 and 0.0 < est.error_bound <= spec.n * _TINY

    def test_tails_up_to_cap(self, monkeypatch):
        # the tail needs no grid past k0 - 1, so every x up to the cap + 1 is
        # answered: P(X >= 101) = 101 * 2^-100 ~ 8e-29
        monkeypatch.setattr(exact_oracle, "_MAX_SUPPORT", 100)
        for x in (40.0, 95.0, 100.0, 101.0):
            est = geom_tail_exact(HALF_HALF, x)
            ref = iid_geom_tail(0.5, 2, x)
            assert est.value > 0.0
            assert abs(est.value - ref.value) <= est.error_bound + ref.error_bound

    def test_grid_at_cap_is_tried(self, monkeypatch):
        # the upper tail at x = cap + 1 builds its grid up to K = cap
        monkeypatch.setattr(exact_oracle, "_MAX_SUPPORT", 100)
        with _grid_calls() as grid:
            assert geom_tail_exact(HALF_HALF, 100.0).value > 0.0
            assert geom_tail_exact(HALF_HALF, 101.0).value > 0.0
        assert _sizes(grid) == [99, 100]
        with pytest.raises(OutOfRange, match=r"\[2, 100\], got 101$"):
            geom_tail_exact(HALF_HALF, 102.0)

    def test_minus_infinity_is_whole_or_empty(self):
        assert geom_tail_exact(HALF_HALF, -math.inf).value == 1.0
        assert geom_lower_tail_exact(HALF_HALF, -math.inf).value == 0.0


def _grid_calls():
    """Patch the pmf kernel with a wrapper that records the K of every grid."""
    return mock.patch.object(exact_oracle, "_pmf_grid", wraps=exact_oracle._pmf_grid)


def _cascade(spec, x):
    """geom_tail_exact's cascade route alone, for x above the support."""
    return exact_oracle._pmf_grid(spec, math.ceil(x) - 1)[1]


def _sizes(grid) -> list[int]:
    return [call.args[1] for call in grid.call_args_list]


_TINY = np.finfo(np.float64).smallest_subnormal


def _sum_roundoff(n, K, value, terms):
    """The round-off of a sum of `terms` entries of a pmf grid up to K: eps (2K + n)
    times the sum, plus one smallest subnormal per filter step, n (K + 1), per entry."""
    return exact_oracle._EPS * (2 * K + n) * value + terms * n * (K + 1) * _TINY


def _state_roundoff(spec, k0, value):
    """geom_tail_exact's certificate for P(X >= k0): the round-off of the n final
    states, entries at k0, plus (n + 1) eps for dividing them by p_i and summing;
    the absolute part of each state, divided by p_i and summed, is n (k0 + 1) tiny mu."""
    n = spec.n
    eps = exact_oracle._EPS
    return (eps * (2 * k0 + n) + (n + 1) * eps) * value + n * (k0 + 1) * _TINY * spec.mu


class TestSizedGrid:
    # every tail call above the support builds one pmf grid, up to k0 - 1,
    # and reads P(X >= k0) from the cascade's final state
    @pytest.mark.parametrize(
        "spec, lam", [(HALF_HALF, 1.2), (HALF_HALF, 15.0), (FIFTY, 1.0), (FIFTY, 5.0)],
        ids=["half-half-shallow", "half-half", "fifty-shallow", "fifty"],
    )
    def test_one_grid_per_tail_call(self, spec, lam):
        x = lam * spec.mu
        with _grid_calls() as grid:
            est = _cascade(spec, x)
        assert _sizes(grid) == [math.ceil(x) - 1]
        assert 0.0 < est.value < 1.0

    def test_underflowing_tail(self):
        # P(X >= 3000) ~ 3000 * 2^-2999 ~ 1e-900, where even tl's value is 0
        # (its log is about -2080). The final states underflow to 0, and the
        # certificate is their absolute round-off, n (k0 + 1) tiny mu
        tl = upper_tail_lower_bound_tl(HALF_HALF, 3000.0 / HALF_HALF.mu)
        assert tl.value == 0.0 and -2100.0 < tl.log_value < -2000.0
        with _grid_calls() as grid:
            est = geom_tail_exact(HALF_HALF, 3000.0)
        assert len(_sizes(grid)) == 1
        assert est.value == 0.0
        assert 0.0 < est.error_bound <= 3e-312
        assert est.error_bound == _state_roundoff(HALF_HALF, 3000, 0.0)

    def test_deterministic_sum(self):
        # p_min = 1: the grid is 1 at k = 2 and exactly 0 past it
        with _grid_calls() as grid:
            est = _cascade(make_geometric_spec([1.0, 1.0]), 3.0)
        assert len(_sizes(grid)) == 1
        assert est.value == 0.0

    @given(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=20),
        st.booleans(),
        st.floats(min_value=2.0, max_value=30.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_tail_route_certificate(self, p, iid, lam):
        if iid:
            p = [p[0]] * len(p)
        spec = make_geometric_spec(p)
        x = lam * spec.mu
        k0 = math.ceil(x)
        with _grid_calls() as grid:
            est = _cascade(spec, x)
        assert _sizes(grid) == [k0 - 1]
        assert est.error_bound == _state_roundoff(spec, k0, est.value)
        if iid:
            ref = iid_geom_tail(p[0], spec.n, x)
            assert abs(est.value - ref.value) <= est.error_bound + ref.error_bound


def _kernel_specs():
    """Specs with p = 1 entries, tied p and p down to 1e-6, n from 1 to 10^3."""
    rng = np.random.default_rng(8)
    specs = []
    for n in (1, 2, 3, 8, 20, 50, 200, 1000):
        for _ in range(2):
            p = list(10.0 ** rng.uniform(-6.0, 0.0, n))
            ones = int(rng.integers(0, min(n, 3) + 1))
            p[:ones] = [1.0] * ones
            if n > 1:
                p[-1] = p[-2]
            specs.append(make_geometric_spec(list(rng.permutation(p))))
    specs.append(make_geometric_spec([1.0, 1.0, 1.0]))
    return specs


def _assert_matches_reference(spec, K):
    pmf, tail = exact_oracle._pmf_grid(spec, K)
    ref, ref_tail = reference_pmf_grid(spec, K)
    # the reference's whole grid is zero below the support, and the kernel
    # returns the rest
    assert ref.shape == (K + 1,) and np.all(ref[: spec.n] == 0.0)
    ref = ref[spec.n :]
    # the round-off scale of the certificates, plus one smallest subnormal
    # for each of the n (K + 1) filter steps: where the head of the pmf
    # underflows, the two summation orders round to different subnormals
    tol = exact_oracle._EPS * (2 * K + spec.n) * ref + spec.n * (K + 1) * _TINY
    assert pmf.shape == ref.shape
    assert np.all(np.abs(pmf - ref) <= tol)
    assert np.all(pmf >= 0.0)
    # the kernel's tail within its certificate, plus the reference's round-off
    assert abs(tail.value - ref_tail) <= tail.error_bound + _state_roundoff(spec, K + 1, ref_tail)


def _bench_pool():
    """bench/pool.py, which regenerates the reference file's specs from their seeds."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "pool.py")
    spec = importlib.util.spec_from_file_location("bench_pool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _uniform_params(seed: int, n: int) -> list[float]:
    """n draws of U(0.05, 1) from random.Random(seed)."""
    rng = random.Random(seed)
    return [rng.uniform(0.05, 1.0) for _ in range(n)]


class TestDecimalReference:
    """conftest.decimal_tail, the tests' geometric tails at any depth."""

    def test_matches_reference_file(self):
        # the file's values agree with mpmath to 55 digits and keep 25 of them
        pool = _bench_pool()
        for entry in pool.load_reference()["geom8"][::20]:
            spec = make_geometric_spec(pool.spec_params(entry))
            for side in ("upper", "lower"):
                for lam, (_, value) in entry[side].items():
                    tail = decimal_tail(spec, float(entry["x"][lam]), side)
                    with localcontext() as ctx:
                        ctx.prec = 25
                        assert +tail == Decimal(value), (entry["seed"], side, lam)

    @pytest.mark.parametrize("p, lam, side, log", [
        ([0.5, 0.5], 750.0, "upper", -2070.742026931626),  # x = 3000
        (_uniform_params(0, 8), 400.0, "upper", -2303.7294908061726),
        # x = 20 = n, so P(X <= x) = prod p_i, where geom_lower_tail_exact
        # answers 0 +- 2.1e-321
        ([1e-20] * 20, 1e-20, "lower", -921.0340371976183),
    ], ids=["half-half", "random0", "lower-1e-20x20"])
    def test_known_deep_logs(self, p, lam, side, log):
        # all lie below the double range, where the oracles answer 0
        spec = make_geometric_spec(p)
        tail = decimal_tail(spec, lam * spec.mu, side)
        assert float(tail.ln()) == pytest.approx(log, abs=1e-12)


def test_float_constants_match_numpy():
    # taken from the standard library, so that the module loads without numpy
    assert exact_oracle._EPS == np.finfo(np.float64).eps
    assert exact_oracle._TINY == np.finfo(np.float64).smallest_subnormal


class TestPmfKernel:
    # the one-call sosfilt cascade against the per-summand lfilter loop

    @pytest.mark.parametrize("K", [0, 2.5, math.nan, exact_oracle._MAX_SUPPORT + 1])
    def test_bad_support_refused_before_allocation(self, K):
        # the kernel imports numpy when it runs, so numpy.zeros itself is patched
        spec = make_geometric_spec([0.5])
        with mock.patch("numpy.zeros", side_effect=AssertionError):
            with pytest.raises(OutOfRange):
                geom_pmf_convolution(spec, K)
            with pytest.raises(OutOfRange):
                exact_oracle._pmf_grid(spec, K)

    @pytest.mark.parametrize("spec", _kernel_specs(), ids=lambda s: f"n{s.n}")
    def test_matches_reference(self, spec):
        _assert_matches_reference(spec, spec.n + 2000)

    def test_matches_reference_on_tail_grid(self):
        # the grid of a tail call at n = 10^3, lambda = 3
        rng = np.random.default_rng(3)
        spec = make_geometric_spec(list(rng.uniform(0.05, 1.0, 1000)))
        with _grid_calls() as grid:
            geom_tail_exact(spec, 3.0 * spec.mu)
        (K,) = _sizes(grid)
        assert K == math.ceil(3.0 * spec.mu) - 1
        _assert_matches_reference(spec, K)

    def test_grid_without_state_is_identical(self):
        # the pmf with its lower tail skips scipy's filter-state path, with the
        # same grid, and the two tails add up to 1 within their certificates
        for spec in _kernel_specs():
            for K in (spec.n, spec.n + 40, spec.n + 500):
                grid, lower = exact_oracle._pmf_grid(spec, K, upper=False)
                same, upper = exact_oracle._pmf_grid(spec, K)
                assert grid.tobytes() == same.tobytes()
                assert lower.error_bound == _sum_roundoff(
                    spec.n, K, lower.value, K + 1 - spec.n)
                slack = lower.error_bound + upper.error_bound + exact_oracle._EPS
                assert abs(lower.value + upper.value - 1.0) <= slack

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        for spec in _kernel_specs():
            K = spec.n + 500
            grid, tail = exact_oracle._pmf_grid(spec, K)
            shuffled = make_geometric_spec(list(rng.permutation(spec.params)))
            shuffled_grid, shuffled_tail = exact_oracle._pmf_grid(shuffled, K)
            assert shuffled_grid.tobytes() == grid.tobytes()
            assert shuffled_tail == tail

    @pytest.mark.parametrize("oracle, K", [
        (geom_tail_exact, lambda x: math.ceil(x) - 1),
        (geom_lower_tail_exact, math.floor),
    ], ids=["upper", "lower"])
    def test_filters_only_the_support_above_n(self, oracle, K):
        # the cascade filters K + 1 - n samples, an impulse of 2^1000, not the
        # n leading zeros of the grid
        import scipy.signal

        x = 3.0 * FIFTY.mu
        with mock.patch.object(scipy.signal, "sosfilt", wraps=scipy.signal.sosfilt) as filt:
            est = oracle(FIFTY, x)
        assert est.method is OracleMethod.CONVOLUTION
        ((_, impulse), _), = filt.call_args_list
        assert impulse.shape == (K(x) + 1 - FIFTY.n,)
        assert impulse[0] == 2.0**1000 and not impulse[1:].any()

    @pytest.mark.parametrize(
        "p", [(1e-300, 0.5), (1e-300, 1.0, 0.3), (1e-300, 1e-300, 1e-300, 1.0)],
        ids=["two", "three", "four"],
    )
    def test_lifted_grid_stays_in_range(self, p):
        # 1 - 1e-300 rounds to 1, so the first section emits p 2^1000 forever and
        # its state divided by p is 2^1000 again: the lift leaves room for it
        spec = make_geometric_spec(list(p))
        K = spec.n + 2000
        grid, tail = exact_oracle._pmf_grid(spec, K)
        assert np.all(np.isfinite(grid)) and np.all((grid >= 0.0) & (grid <= 1.0))
        assert math.isfinite(tail.value) and 0.0 <= tail.value <= 1.0
        _assert_matches_reference(spec, K)

    def test_oracles_within_certificate_of_reference_kernel(self):
        # 200 queries on the upper and on the lower tail: where the cascade
        # answers, its value is within its own certificate of the tail of
        # the reference kernel's grid up to the same K
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            p = list(rng.uniform(0.05, 1.0, n))
            if rng.random() < 0.3:
                p[0] = 1.0
            if n > 1 and rng.random() < 0.3:
                p[1] = p[-1]
            spec = make_geometric_spec(p)
            x = float(rng.uniform(0.3, 12.0)) * spec.mu
            upper = rng.random() < 0.7
            with _grid_calls() as grid:
                est = (geom_tail_exact if upper else geom_lower_tail_exact)(spec, x)
            if grid.call_count == 0:
                assert est.method is not OracleMethod.CONVOLUTION
                continue
            (K,) = _sizes(grid)
            assert K == (math.ceil(x) - 1 if upper else math.floor(x))
            ref = reference_pmf_grid(spec, K, upper)[1]
            assert abs(est.value - min(ref, 1.0)) <= est.error_bound


def _decimal_exp_sum(rates, x):
    """Hypoexponential survival by partial fractions in decimal arithmetic.

    Each term carries 60 significant digits. Where the terms cancel, the sum
    is redone with the digits they cancel added, so about 50 always remain.
    """
    digits = 60
    while True:
        with localcontext() as ctx:
            ctx.prec = digits
            a = [Decimal(r) for r in rates]
            whole = math.prod(a)
            terms = [
                whole / ai / math.prod(aj - ai for aj in a if aj is not ai)
                * (-ai * Decimal(x)).exp()
                for ai in a
            ]
            total = sum(terms)
            lost = (sum(map(abs, terms)) / abs(total)).adjusted() if total else digits
            if digits - lost >= 50:
                return total
            digits = 50 + lost


def _decimal_negbin_tail(p, n, m):
    """P(Binomial(m-1, p) <= n-1) in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        dp = Decimal(p)
        dq = 1 - dp
        return sum(
            math.comb(m - 1, j) * dp**j * dq ** (m - 1 - j) for j in range(n)
        )


# Rejected draws after which _distinct_params gives up; its callers here
# reject at most 28.
_MAX_REJECTED = 1000


def _distinct_params(rng, n, lo=0.05):
    """n success probabilities on (lo, 0.99), pairwise more than 1% apart relative,
    so that the partial-fraction weights stay far inside 50 digits.

    Raises ValueError after _MAX_REJECTED rejected draws: (lo, 0.99) holds only
    about ln(0.99 / lo) / 0.01 such values, fewer still when drawn at random.
    """
    p: list[float] = []
    rejected = 0
    while len(p) < n:
        c = float(rng.uniform(lo, 0.99))
        if all(abs(c - b) > 0.01 * max(c, b) for b in p):
            p.append(c)
        else:
            rejected += 1
            if rejected == _MAX_REJECTED:
                raise ValueError(f"{n} values on ({lo}, 0.99) 1% apart: "
                                 f"{_MAX_REJECTED} draws rejected")
    return p


def test_distinct_params_gives_up():
    # about 21 such values fit on (0.8, 0.99); drawn at random, far fewer
    start = time.perf_counter()
    with pytest.raises(ValueError):
        _distinct_params(np.random.default_rng(0), 20, 0.8)
    assert time.perf_counter() - start < 1.0


def _decimal_geom_tail(params, k0):
    """P(X >= k0) for distinct p < 1 by partial fractions, in 50-digit decimal.

    prod_i p_i z / (1 - q_i z) = z^n prod_i p_i sum_i A_i / (1 - q_i z) with
    A_i = prod_{j!=i} q_i / (q_i - q_j), so P(X = k) = prod_i p_i sum_i A_i q_i^(k-n)
    and P(X >= k0) = prod_i p_i sum_i A_i q_i^(k0-n) / p_i.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        p = [Decimal(v) for v in params]
        q = [1 - v for v in p]
        total = Decimal(0)
        for i, qi in enumerate(q):
            a = Decimal(1)
            for j, qj in enumerate(q):
                if j != i:
                    a *= qi / (qi - qj)
            total += a * qi ** (k0 - len(p)) / p[i]
        weight = Decimal(1)
        for v in p:
            weight *= v
        return weight * total


def _decimal_recursion_tail(params, k0):
    """P(X >= k0) = 1 - P(X < k0) for any p, in 400-digit decimal arithmetic.

    The pmf of X - n comes from c_i(m) = p_i c_{i-1}(m) + (1 - p_i) c_i(m - 1);
    a tail near 1e-315 cancels about 315 of the 400 digits.
    """
    with localcontext() as ctx:
        ctx.prec = 400
        c = [Decimal(1)] + [Decimal(0)] * (k0 - 1 - len(params))
        for v in params:
            p = Decimal(v)
            prev = Decimal(0)
            for m in range(len(c)):
                prev = c[m] = p * c[m] + (1 - p) * prev
        return 1 - sum(c)


def _decimal_lower_tail(params, k1):
    """P(X <= k1) from the pmf of X - n, convolved in 50-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = [Decimal(1)] + [Decimal(0)] * (k1 - len(params))
        for v in params:
            p = Decimal(v)
            q = 1 - p
            prev = Decimal(0)
            for j, old in enumerate(d):  # d_i(j) = q d_i(j-1) + p d_{i-1}(j)
                prev = q * prev + p * old
                d[j] = prev
        return sum(d)


class TestCertificates:
    # Each value must lie within its own error_bound of a 50-digit reference,
    # including in deep tails where rounding the exponent dominates.
    def test_partial_fractions(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 300:
            n = int(rng.integers(1, 7))
            rates = tuple(float(a) for a in np.sort(rng.uniform(0.1, 10.0, n)))
            if any(b - a <= 1e-3 * b for a, b in zip(rates, rates[1:])):
                continue
            lam = float(rng.choice([0.5, 1.0, 2.0, 5.0, 10.0, 20.0]))
            x = lam * math.fsum(1.0 / a for a in rates)
            value, error = partial_fractions_survival(make_exponential_spec(rates), x)
            assert abs(Decimal(value) - _decimal_exp_sum(rates, x)) <= Decimal(error)
            checked += 1

    def test_iid_closed_form(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            p = float(rng.uniform(0.02, 0.98))
            n = int(rng.integers(1, 21))
            x = float(rng.choice([1.5, 2.0, 3.0, 5.0, 10.0])) * n / p
            est = iid_geom_tail(p, n, x)
            ref = _decimal_negbin_tail(p, n, math.ceil(x))
            assert abs(Decimal(est.value) - ref) <= Decimal(est.error_bound)

    def test_geom_lower_tail(self):
        # a sum of nonnegative pmf terms: the certificate is relative, down
        # to lower tails of 1e-100 (prod p_i at x = n, with p down to 3e-5)
        rng = np.random.default_rng(67)
        values = []
        for _ in range(80):
            n = int(rng.integers(1, 51))
            spec = make_geometric_spec(list(10.0 ** rng.uniform(-4.5, 0.0, n)))
            x = n + float(rng.uniform(0.0, 1.0)) ** 2 * min(spec.mu - n, 200.0)
            est = geom_lower_tail_exact(spec, x)
            k1 = math.floor(x)
            ref = _decimal_lower_tail(spec.params, k1)
            assert abs(Decimal(est.value) - ref) <= Decimal(est.error_bound)
            assert est.error_bound <= _sum_roundoff(spec.n, k1, est.value, k1 + 1 - n)
            values.append(est.value)
        assert min(values) < 1e-100 and max(values) > 1e-3

    @pytest.mark.parametrize("p", [(1e-160, 1e-160), (1e-160, 1e-160, 0.5)], ids=["two", "three"])
    def test_subnormal_lower_tail_within_one_subnormal(self, p):
        # every pmf entry, about 1e-320, is subnormal, but the lifted entries
        # are normal and their sum is scaled back once; scaling each entry back
        # before the sum would round it on its own (2 to 5 subnormals off here)
        est = geom_lower_tail_exact(make_geometric_spec(list(p)), len(p) + 1000)
        assert 0.0 < est.value < np.finfo(np.float64).smallest_normal
        ref = _decimal_lower_tail(p, len(p) + 1000)
        assert abs(Decimal(est.value) - ref) <= Decimal(_TINY)


class TestLogConcaveCertificate:
    # The upper tail is read from the cascade's final state, a sum of n
    # nonnegative terms, so its certificate is relative at every depth and
    # needs none of the bounds that the oracle checks.

    def test_against_decimal_reference(self):
        # distinct p, n <= 12, lambda from 1.5 to 30: values from about 0.1
        # down to about 1e-240 (p_min near 0.8)
        rng = np.random.default_rng(71)
        values = []
        while len(values) < 150:
            n = int(rng.integers(1, 13))
            spec = make_geometric_spec(_distinct_params(rng, n, rng.choice([0.05, 0.4, 0.8])))
            x = float(rng.uniform(1.5, 30.0)) * spec.mu
            k0 = math.ceil(x)
            est = _cascade(spec, x)
            ref = _decimal_geom_tail(spec.params, k0)
            assert abs(Decimal(est.value) - ref) <= Decimal(est.error_bound)
            assert est.error_bound == _state_roundoff(spec, k0, est.value)
            values.append(est.value)
        assert min(values) < 1e-200 and max(values) > 1e-3

    @pytest.mark.parametrize("x", [2030, 2050])
    def test_subnormal_tail_within_one_subnormal(self, x):
        # tied p, so the cascade answers; the tails, 7.7e-312 and 6.2e-315,
        # are computed lifted by 2^1000 as normal numbers and rounded once
        # when scaled back (a cascade of subnormals is 5.5 and 7 of them off)
        p = (0.3, 0.3, 0.7)
        est = geom_tail_exact(make_geometric_spec(list(p)), x)
        assert est.method is OracleMethod.CONVOLUTION
        assert 0.0 < est.value < np.finfo(np.float64).smallest_normal
        assert abs(Decimal(est.value) - _decimal_recursion_tail(p, x)) <= Decimal(_TINY)

    @pytest.mark.parametrize("lam", [3.0, 5.0, 10.0])
    def test_relative_certificate_in_shallow_tails(self, lam):
        # values from about 1e-3 down to 1e-12, where a complement 1 - CDF
        # is certified only to eps (2 k0 + n) absolute, far above 1e-12 relative
        rng = np.random.default_rng(83)
        values = []
        for _ in range(40):
            spec = make_geometric_spec(_distinct_params(rng, int(rng.integers(1, 9))))
            x = lam * spec.mu
            est = geom_tail_exact(spec, x)
            ref = _decimal_geom_tail(spec.params, math.ceil(x))
            if not 1e-12 <= ref <= 1e-3:
                continue
            assert abs(Decimal(est.value) - ref) <= Decimal(est.error_bound)
            assert est.error_bound <= 1e-12 * est.value
            values.append(est.value)
        assert len(values) >= 10

    def test_independent_of_thm2(self):
        # no module-level name of the oracle comes from the bounds it checks
        for name, value in vars(exact_oracle).items():
            assert value is not geom_bounds, name
            assert getattr(value, "__module__", None) != geom_bounds.__name__, name


def _floor(spec, k0):
    """The cascade's absolute floor at k0, n (k0 + 1) tiny mu."""
    return spec.n * (k0 + 1) * _TINY * spec.mu


class TestGeomPartialFractions:
    # small n: P(X > k) = sum_i w_i q_i^k runs before the cascade and stands
    # when its certificate is within 1e-12 relative or below the cascade's floor

    def test_against_decimal_reference(self):
        # distinct p, n <= 20, lambda from 1 to 30: values from about 0.5
        # down to about 1e-90
        rng = np.random.default_rng(89)
        values = []
        for _ in range(400):
            n = int(rng.integers(1, 21))
            lo = rng.choice([0.05, 0.4, 0.8] if n <= 8 else [0.05, 0.4])
            spec = make_geometric_spec(_distinct_params(rng, n, lo))
            x = float(rng.uniform(1.0, 30.0)) * spec.mu
            k0 = math.ceil(x)
            est = geom_tail_exact(spec, x)
            if est.method is not OracleMethod.PARTIAL_FRACTIONS:
                continue
            ref = _decimal_geom_tail(spec.params, k0)
            assert abs(Decimal(est.value) - ref) <= Decimal(est.error_bound)
            assert (est.error_bound <= 1e-12 * est.value
                    or est.error_bound <= _floor(spec, k0))
            values.append(est.value)
        assert len(values) >= 200
        assert min(values) < 1e-80 and max(values) > 0.1

    def test_cascade_answers_just_outside_the_tolerance(self):
        # partial fractions' bound here is 2.13e-12 relative: past 1e-12 and above
        # the cascade's floor, though below the cascade's whole bound
        est = geom_tail_exact(make_geometric_spec([0.1, 0.2]), 6000)
        assert est.method is OracleMethod.CONVOLUTION
        assert est.value == pytest.approx(6.33642242323e-275, rel=1e-11)
        assert est.error_bound == pytest.approx(1.68906558053e-286, rel=1e-9)

    def test_certain_summands_are_dropped(self):
        # a summand with p = 1 adds exactly 1: X >= k0 iff the rest reach k0 - 2
        spec = make_geometric_spec([0.3, 1.0, 0.6, 1.0])
        for k0 in (5, 9, 40):
            with _grid_calls() as grid:
                est = geom_tail_exact(spec, k0)
            assert grid.call_count == 0
            assert est.method is OracleMethod.PARTIAL_FRACTIONS
            ref = _decimal_geom_tail([0.3, 0.6], k0 - 2)
            assert abs(Decimal(est.value) - ref) <= Decimal(est.error_bound)
            cascade = _cascade(spec, k0)
            assert abs(est.value - cascade.value) <= est.error_bound + cascade.error_bound
        # every summand certain: X = n exactly
        est = geom_tail_exact(make_geometric_spec([1.0, 1.0]), 3.0)
        assert (est.value, est.error_bound) == (0.0, 0.0)

    @pytest.mark.parametrize("p", [[0.5, 0.5], [0.3, 0.7, 0.3], [0.2, 0.9, 0.9, 1.0]])
    def test_tied_p_falls_back_to_cascade(self, p):
        spec = make_geometric_spec(p)
        with _grid_calls() as grid:
            est = geom_tail_exact(spec, 3.0 * spec.mu)
        assert est.method is OracleMethod.CONVOLUTION
        assert _sizes(grid) == [math.ceil(3.0 * spec.mu) - 1]

    def test_certified_small_query_builds_no_grid(self):
        rng = np.random.default_rng(97)
        answered = 0
        for _ in range(30):
            spec = make_geometric_spec(_distinct_params(rng, 8))
            for lam in (1.5, 3.0, 10.0):
                with _grid_calls() as grid:
                    est = geom_tail_exact(spec, lam * spec.mu)
                if est.method is OracleMethod.PARTIAL_FRACTIONS:
                    assert grid.call_count == 0
                    answered += 1
                else:
                    assert grid.call_count == 1
        assert answered >= 60

    @pytest.mark.parametrize("lam", [1.0, 1.1, 2.0, 3.0])
    def test_large_shallow_query_skips_the_kernel(self, lam):
        # at n = 10^3 the O(n^2) pass would cost more than the cascade
        rng = np.random.default_rng(101)
        spec = make_geometric_spec(list(rng.uniform(0.05, 1.0, 1000)))
        with mock.patch.object(exact_oracle, "_partial_fractions",
                               side_effect=AssertionError("kernel called")):
            est = geom_tail_exact(spec, lam * spec.mu)
        assert est.method is OracleMethod.CONVOLUTION


class TestTailEstimateValidation:
    def test_rejects_bad_value(self):
        with pytest.raises(OutOfRange):
            TailEstimate(1.5, 0.0, OracleMethod.CONVOLUTION)
        with pytest.raises(OutOfRange):
            TailEstimate(0.5, -1.0, OracleMethod.CONVOLUTION)


@given(
    st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=1, max_size=5),
    st.floats(min_value=0.0, max_value=30.0),
)
@settings(max_examples=80, deadline=None)
def test_tail_in_unit_interval(p, x):
    spec = make_geometric_spec(p)
    est = geom_tail_exact(spec, x)
    assert 0.0 <= est.value <= 1.0
    assert est.error_bound >= 0.0
