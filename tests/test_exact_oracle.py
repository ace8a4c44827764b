import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_pmf, brute_force_tail, random_geom_specs
from tailbounds import exact_oracle
from tailbounds import (
    KTooSmall,
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
    matrix_exp_survival,
    partial_fractions_survival,
    pgf_geometric,
    upper_tail_thm2,
)

HALF_HALF = make_geometric_spec([0.5, 0.5])


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
        with pytest.raises(KTooSmall):
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
        assert geom_tail_exact(HALF_HALF, 2.0).value == 1.0
        assert geom_tail_exact(HALF_HALF, -3.0).value == 1.0

    def test_degenerate(self):
        assert geom_tail_exact(make_geometric_spec([1.0]), 1.5).value == 0.0

    def test_rel_tol_validated(self):
        with pytest.raises(OutOfRange):
            geom_tail_exact(HALF_HALF, 8.0, rel_tol=0.5)
        with pytest.raises(OutOfRange):
            geom_tail_exact(HALF_HALF, 8.0, rel_tol=0.0)

    def test_deep_tail_branch(self):
        # P(X >= 60) = 60 * 2^-59: far below the complement switch, so this
        # exercises the direct summation with the analytic remainder
        est = geom_tail_exact(HALF_HALF, 60.0, rel_tol=1e-9)
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
        assert geom_lower_tail_exact(HALF_HALF, 1.9).value == 0.0

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
        rel_tol = 1e-9
        for x in (n, math.ceil(1.5 * spec.mu), math.ceil(3.0 * spec.mu)):
            conv = geom_tail_exact(spec, float(x), rel_tol=rel_tol)
            closed = iid_geom_tail(p, n, float(x))
            assert abs(conv.value - closed.value) <= max(
                1e-12, rel_tol * closed.value
            )


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
            for x in (0.5, 2.0, 5.0):
                pf, _ = partial_fractions_survival(rates, x)
                mx, _ = matrix_exp_survival(rates, x)
                assert abs(pf - mx) <= 1e-9

    def test_erlang_closed_form_family(self):
        # Erlang(n, a): survival = e^(-ax) sum_{k<n} (ax)^k / k!
        for n in (2, 3, 5):
            for x in (0.3, 1.0, 4.0):
                expected = math.exp(-x) * sum(x**k / math.factorial(k) for k in range(n))
                got = hypoexp_survival(make_exponential_spec([1.0] * n), x)
                assert got.value == pytest.approx(expected, rel=1e-12, abs=1e-15)
                assert got.method is OracleMethod.MATRIX_EXP

    def test_overflowing_weights_are_refused(self):
        # 1000 well-separated rates ~ U(0.1, 10): hundreds of the products
        # prod_{j!=i} a_j/(a_j-a_i) pass the double range
        rates = np.random.default_rng(2).uniform(0.1, 10.0, 1000)
        ordered = np.sort(rates)
        assert np.all(np.diff(ordered) > exact_oracle._RATE_GAP * ordered[1:])
        spec = make_exponential_spec(list(rates))
        with pytest.raises(OutOfRange, match="partial-fraction weights overflow"):
            hypoexp_survival(spec, 1.5 * spec.mu)

    def test_density_vanishes_at_origin(self):
        # for n >= 2 the density at 0 is 0, so the survival has zero slope
        spec = make_exponential_spec([1.0, 3.0])
        h = 1e-6
        slope = (hypoexp_survival(spec, h).value - 1.0) / h
        assert abs(slope) < 1e-4


class TestSupportCap:
    # the cap is checked before the grid is allocated: x = 1e10 would ask
    # for about 80 GB
    @pytest.mark.parametrize("x", [1e10, math.inf, math.nan])
    def test_cap_raises(self, x):
        with pytest.raises(OutOfRange):
            geom_tail_exact(HALF_HALF, x)
        with pytest.raises(OutOfRange):
            geom_lower_tail_exact(HALF_HALF, x)

    def test_grid_growth_stops_at_cap(self, monkeypatch):
        monkeypatch.setattr(exact_oracle, "_MAX_SUPPORT", 100)
        assert geom_tail_exact(HALF_HALF, 40.0).value > 0.0
        # P(X >= 95) ~ 5e-27 sends the query to the tail sum, which cannot be
        # certified on a grid of 100 points
        with pytest.raises(OutOfRange):
            geom_tail_exact(HALF_HALF, 95.0)

    def test_grid_at_cap_is_tried(self, monkeypatch):
        monkeypatch.setattr(exact_oracle, "_MAX_SUPPORT", 100)
        # doubling from k0 = 60 overshoots to 120; the grid clamped at 100
        # certifies the tail (remainder ~2e-27 against ~1e-16)
        est = geom_tail_exact(HALF_HALF, 60.0)
        ref = iid_geom_tail(0.5, 2, 60.0)
        assert est.value > 0.0
        assert abs(est.value - ref.value) <= est.error_bound + ref.error_bound
        with pytest.raises(OutOfRange, match="cap"):
            geom_tail_exact(HALF_HALF, 101.0)

    def test_minus_infinity_is_whole_or_empty(self):
        assert geom_tail_exact(HALF_HALF, -math.inf).value == 1.0
        assert geom_lower_tail_exact(HALF_HALF, -math.inf).value == 0.0


def _decimal_exp_sum(rates, x):
    """Hypoexponential survival in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        a = [Decimal(r) for r in rates]
        total = Decimal(0)
        for i, ai in enumerate(a):
            w = Decimal(1)
            for j, aj in enumerate(a):
                if j != i:
                    w *= aj / (aj - ai)
            total += w * (-ai * Decimal(x)).exp()
        return total


def _decimal_negbin_tail(p, n, m):
    """P(Binomial(m-1, p) <= n-1) in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        dp = Decimal(p)
        dq = 1 - dp
        return sum(
            math.comb(m - 1, j) * dp**j * dq ** (m - 1 - j) for j in range(n)
        )


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
            value, error = partial_fractions_survival(rates, x)
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
