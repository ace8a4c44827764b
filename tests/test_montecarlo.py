import math

import numpy as np
import pytest

from conftest import SplitMix64Stream, sample_exponential_sum, sample_geometric_sum
from tailbounds import (
    McConfig,
    OracleMethod,
    OutOfRange,
    geom_tail_exact,
    hypoexp_survival,
    make_exponential_spec,
    make_geometric_spec,
    mc_tail,
    uniform_block,
    wilson_interval,
)
from tailbounds.montecarlo import _sums_block

HALF_HALF = make_geometric_spec([0.5, 0.5])


class TestConfig:
    def test_defaults(self):
        cfg = McConfig(samples=100)
        assert cfg.seed == 0
        assert cfg.confidence == 0.99

    def test_validation(self):
        with pytest.raises(OutOfRange):
            McConfig(samples=0)
        with pytest.raises(OutOfRange):
            McConfig(samples=10, seed=-1)
        with pytest.raises(OutOfRange):
            McConfig(samples=10, seed=2**64)
        with pytest.raises(OutOfRange):
            McConfig(samples=10, confidence=1.0)


class TestUniformStream:
    def test_open_interval(self):
        u = uniform_block(12345, 0, 100_000)
        assert np.all(u > 0.0)
        assert np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.005

    def test_stateless_blocks_match_stream(self):
        stream = SplitMix64Stream(seed=99)
        sequential = [stream.uniform() for _ in range(64)]
        assert sequential == pytest.approx(list(uniform_block(99, 0, 64)), abs=0.0)

    def test_block_split_invariance(self):
        whole = uniform_block(7, 0, 1000)
        parts = np.concatenate([uniform_block(7, s, 100) for s in range(0, 1000, 100)])
        assert np.array_equal(whole, parts)

    def test_different_seeds_differ(self):
        assert not np.array_equal(uniform_block(1, 0, 32), uniform_block(2, 0, 32))


class TestSamplers:
    def test_degenerate_always_n(self):
        rng = SplitMix64Stream(seed=5)
        spec = make_geometric_spec([1.0, 1.0])
        assert all(sample_geometric_sum(spec, rng) == 2 for _ in range(50))

    def test_geometric_support(self):
        rng = SplitMix64Stream(seed=6)
        for _ in range(200):
            assert sample_geometric_sum(HALF_HALF, rng) >= 2

    def test_geometric_mean_single(self):
        # empirical mean over 1e6 draws of Ge(0.5): mu = 2
        spec = make_geometric_spec([0.5])
        sums = _sums_block(spec, seed=0, start=0, count=1_000_000)
        assert abs(sums.mean() - 2.0) < 0.01

    def test_geometric_mean_mixed(self):
        spec = make_geometric_spec([0.5, 0.2])
        sums = _sums_block(spec, seed=1, start=0, count=1_000_000)
        assert abs(sums.mean() - 7.0) < 0.03

    def test_exponential_means(self):
        spec = make_exponential_spec([1.0])
        sums = _sums_block(spec, seed=2, start=0, count=1_000_000)
        assert abs(sums.mean() - 1.0) < 0.01
        spec = make_exponential_spec([1.0, 2.0])
        sums = _sums_block(spec, seed=3, start=0, count=1_000_000)
        assert abs(sums.mean() - 1.5) < 0.01

    def test_scalar_matches_vectorized(self):
        for spec in (HALF_HALF, make_geometric_spec([0.3, 1.0, 0.8])):
            rng = SplitMix64Stream(seed=77)
            scalar = [float(sample_geometric_sum(spec, rng)) for _ in range(40)]
            block = _sums_block(spec, seed=77, start=0, count=40)
            assert scalar == pytest.approx(list(block), abs=0.0)
        spec = make_exponential_spec([0.4, 2.5])
        rng = SplitMix64Stream(seed=78)
        scalar = [sample_exponential_sum(spec, rng) for _ in range(40)]
        block = _sums_block(spec, seed=78, start=0, count=40)
        assert scalar == pytest.approx(list(block), rel=1e-12)


class TestMcTail:
    def test_spot_geometric(self):
        cfg = McConfig(samples=1_000_000, seed=42)
        est = mc_tail(HALF_HALF, 8.0, cfg)
        assert est.method is OracleMethod.MONTE_CARLO
        assert abs(est.value - 0.0625) <= 0.00073  # 3 sigma at 1e6 samples

    def test_trivial_threshold(self):
        cfg = McConfig(samples=10, seed=0)
        assert mc_tail(HALF_HALF, -1.0, cfg).value == 1.0

    def test_spot_exponential(self):
        cfg = McConfig(samples=1_000_000, seed=7)
        est = mc_tail(make_exponential_spec([1.0, 2.0]), 1.0, cfg)
        assert abs(est.value - 0.60042359910627195) <= 0.0015

    def test_lower_side(self):
        cfg = McConfig(samples=200_000, seed=11)
        upper = mc_tail(HALF_HALF, 8.0, cfg, side="upper").value
        lower = mc_tail(HALF_HALF, 7.0, cfg, side="lower").value
        assert upper + lower == pytest.approx(1.0, abs=1e-12)

    def test_side_validated(self):
        with pytest.raises(OutOfRange):
            mc_tail(HALF_HALF, 8.0, McConfig(samples=10), side="middle")

    def test_reproducible_across_chunkings(self):
        cfg = McConfig(samples=100_001, seed=314159)
        baseline = mc_tail(HALF_HALF, 8.0, cfg)
        for chunk in (37, 1024, 65536, 10**6):
            again = mc_tail(HALF_HALF, 8.0, cfg, chunk_size=chunk)
            assert again.value == baseline.value
            assert again.error_bound == baseline.error_bound

    def test_reproducible_across_runs(self):
        cfg = McConfig(samples=50_000, seed=2718)
        a = mc_tail(make_exponential_spec([0.5, 3.0]), 4.0, cfg)
        b = mc_tail(make_exponential_spec([0.5, 3.0]), 4.0, cfg)
        assert a.value == b.value


class TestWilson:
    def test_zero_hits(self):
        lo, hi = wilson_interval(0, 1000, 0.99)
        assert lo == 0.0
        assert 0.0 < hi < 0.02

    def test_contains_phat_for_moderate_counts(self):
        lo, hi = wilson_interval(62, 1000, 0.99)
        assert lo <= 0.062 <= hi

    def test_width_shrinks(self):
        lo1, hi1 = wilson_interval(62, 1000, 0.99)
        lo2, hi2 = wilson_interval(6200, 100_000, 0.99)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_coverage_sample(self):
        # smaller version of the acceptance calibration run
        exact = geom_tail_exact(HALF_HALF, 8.0).value
        covered = 0
        samples = 4000
        for seed in range(40):
            est = mc_tail(HALF_HALF, 8.0, McConfig(samples=samples, seed=seed))
            hits = round(est.value * samples)
            lo, hi = wilson_interval(hits, samples, 0.99)
            covered += lo <= exact <= hi
        assert covered >= 36

    def test_error_bound_covers_truth_generously(self):
        exact = hypoexp_survival(make_exponential_spec([1.0, 2.0]), 1.0).value
        for seed in (0, 1, 2, 3):
            est = mc_tail(
                make_exponential_spec([1.0, 2.0]),
                1.0,
                McConfig(samples=30_000, seed=seed),
            )
            assert abs(est.value - exact) <= 4.0 * est.error_bound
