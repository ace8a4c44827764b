import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import (
    UniformStream,
    reference_sums_block,
    sample_exponential_sum,
    sample_geometric_sum,
)
from tailbounds import (
    McConfig,
    OracleMethod,
    OutOfRange,
    geom_tail_exact,
    hypoexp_survival,
    make_exponential_spec,
    make_geometric_spec,
    mc_tail,
    montecarlo,
    uniform_block,
)
from tailbounds.montecarlo import (
    BLOCK_DRAWS,
    _inversion,
    _row_sums,
    _sums_block,
    _two_sided_z,
    _uniforms,
    _wilson_interval as wilson_interval,
)

HALF_HALF = make_geometric_spec([0.5, 0.5])


def sums_block(spec, seed, start, count):
    gen = np.random.Generator(np.random.PCG64DXSM(seed).advance(start * spec.n))
    return _sums_block(*_inversion(spec, count), gen, np.empty(count * spec.n), count)


def big_geometric_spec(seed=3, n=1000):
    rng = random.Random(seed)
    return make_geometric_spec([rng.uniform(0.05, 1.0) for _ in range(n)])


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

    @pytest.mark.parametrize("samples", [10.5, 10.0, True, "10"])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(OutOfRange):
            McConfig(samples=samples)

    @pytest.mark.parametrize("confidence", ["0.9", None])
    def test_confidence_must_be_a_number(self, confidence):
        with pytest.raises(OutOfRange, match=f"confidence {confidence!r} not in"):
            McConfig(samples=10, confidence=confidence)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(OutOfRange):
            McConfig(samples=10, seed=seed)

    def test_numpy_integers_accepted(self):
        cfg = McConfig(samples=np.int64(100), seed=np.uint64(3))
        assert mc_tail(HALF_HALF, 8.0, cfg) == mc_tail(HALF_HALF, 8.0, McConfig(100, 3))


class TestUniformStream:
    def test_open_interval(self):
        u = uniform_block(12345, 0, 100_000)
        assert np.all(u > 0.0)
        assert np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.005

    def test_stateless_blocks_match_stream(self):
        stream = UniformStream(seed=99)
        sequential = [stream.uniform() for _ in range(64)]
        assert sequential == pytest.approx(list(uniform_block(99, 0, 64)), abs=0.0)

    def test_block_split_invariance(self):
        whole = uniform_block(7, 0, 1000)
        parts = np.concatenate([uniform_block(7, s, 100) for s in range(0, 1000, 100)])
        assert np.array_equal(whole, parts)

    def test_different_seeds_differ(self):
        assert not np.array_equal(uniform_block(1, 0, 32), uniform_block(2, 0, 32))

    def test_pinned_stream(self):
        # numpy's PCG64DXSM stream and Generator.random, pinned exactly
        assert list(uniform_block(0, 0, 4)) == [
            0.8495832729381353, 0.5546033266790702, 0.07552235432853116, 0.33538733475252547]
        assert list(uniform_block(2**64 - 1, 2**63, 4)) == [
            0.2226910950426516, 0.5622092153108676, 0.14665674780711802, 0.7990282058745312]

    def test_ends_of_random_stay_open(self):
        # random() at k = 0 and k = 2^53 - 1, the ends of its range k * 2^-53
        class Ends:
            def random(self, out):
                out[:] = [0.0, 1.0 - 2.0**-53]

        u = _uniforms(Ends(), np.empty(2))
        assert np.all((0.0 < u) & (u < 1.0))
        geom = make_geometric_spec([0.5])
        assert np.all(_sums_block(*_inversion(geom, 2), Ends(), np.empty(2), 2) >= 1.0)
        exp = make_exponential_spec([1.0])
        assert np.all(_sums_block(*_inversion(exp, 2), Ends(), np.empty(2), 2) > 0.0)


class TestSamplers:
    def test_degenerate_always_n(self):
        rng = UniformStream(seed=5)
        spec = make_geometric_spec([1.0, 1.0])
        assert all(sample_geometric_sum(spec, rng) == 2 for _ in range(50))

    def test_geometric_support(self):
        rng = UniformStream(seed=6)
        for _ in range(200):
            assert sample_geometric_sum(HALF_HALF, rng) >= 2

    def test_geometric_mean_single(self):
        # empirical mean over 1e6 draws of Ge(0.5): mu = 2
        spec = make_geometric_spec([0.5])
        sums = sums_block(spec, seed=0, start=0, count=1_000_000)
        assert abs(sums.mean() - 2.0) < 0.01

    def test_geometric_mean_mixed(self):
        spec = make_geometric_spec([0.5, 0.2])
        sums = sums_block(spec, seed=1, start=0, count=1_000_000)
        assert abs(sums.mean() - 7.0) < 0.03

    def test_exponential_means(self):
        spec = make_exponential_spec([1.0])
        sums = sums_block(spec, seed=2, start=0, count=1_000_000)
        assert abs(sums.mean() - 1.0) < 0.01
        spec = make_exponential_spec([1.0, 2.0])
        sums = sums_block(spec, seed=3, start=0, count=1_000_000)
        assert abs(sums.mean() - 1.5) < 0.01

    def test_scalar_matches_vectorized(self):
        for spec in (HALF_HALF, make_geometric_spec([0.3, 1.0, 0.8])):
            rng = UniformStream(seed=77)
            scalar = [float(sample_geometric_sum(spec, rng)) for _ in range(40)]
            block = sums_block(spec, seed=77, start=0, count=40)
            assert scalar == pytest.approx(list(block), abs=0.0)
        spec = make_exponential_spec([0.4, 2.5])
        rng = UniformStream(seed=78)
        scalar = [sample_exponential_sum(spec, rng) for _ in range(40)]
        block = sums_block(spec, seed=78, start=0, count=40)
        assert scalar == pytest.approx(list(block), rel=1e-12)


class TestBlockSampler:
    """The in-place block sampler against the column-by-column reference."""

    def assert_matches(self, spec, seed, start, count):
        got = sums_block(spec, seed, start, count)
        assert np.array_equal(got, reference_sums_block(spec, seed, start, count))

    def test_geometric_with_degenerate_columns(self):
        spec = make_geometric_spec([1.0, 0.3, 1e-6, 1.0, 0.999, 1.0])
        for start in (0, 1, 4097):
            self.assert_matches(spec, 11, start, 5000)

    def test_sums_that_round(self):
        # summands near 1e300, so the sums round and their order matters
        spec = make_geometric_spec([1e-300, 0.5, 3e-299, 1.0, 1e-290] * 3)
        self.assert_matches(spec, 10, 3, 5000)

    def test_all_degenerate(self):
        spec = make_geometric_spec([1.0] * 5)
        assert np.array_equal(sums_block(spec, 0, 3, 100), np.full(100, 5.0))

    def test_exponential(self):
        for spec in (make_exponential_spec([0.4, 2.5, 1e-3]),
                     make_exponential_spec([0.1 + 0.01 * i for i in range(1000)])):
            self.assert_matches(spec, 12, 7, 300)

    def test_n1_and_n1e3(self):
        self.assert_matches(make_geometric_spec([0.2]), 13, 12345, 100_000)
        self.assert_matches(make_exponential_spec([3.0]), 13, 5, 100_000)
        big = big_geometric_spec()
        for start in (0, 65, 1001):
            self.assert_matches(big, 14, start, 131)

    @pytest.mark.parametrize("n", [9, 12, 15])
    def test_tree_and_remainder(self, n):
        # 8 < n < 16: the pairwise tree of the first 8 summands, then the rest
        rng = random.Random(n)
        p = [10.0 ** rng.uniform(-6.0, 0.0) for _ in range(n)]
        self.assert_matches(make_geometric_spec(p), n, 17, 5000)
        a = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(n)]
        self.assert_matches(make_exponential_spec(a), n, 17, 5000)

    def test_random_specs(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.choice([1, 2, 3, 8, rng.randint(1, 1000)])
            p = [10.0 ** rng.uniform(-6.0, 0.0) for _ in range(n)]
            for _ in range(rng.randint(0, 2)):
                p[rng.randrange(n)] = 1.0
            spec = make_geometric_spec(p)
            self.assert_matches(spec, rng.getrandbits(64), rng.randrange(10**6),
                                rng.randint(1, max(1, 20_000 // n)))


class TestRowSums:
    """The column-add row sums against numpy's own u.sum(axis=1), bit for bit."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_matches_numpy(self, n):
        # mixed signs from 1e-8 to 1e8, where the order of the adds shows in
        # the sums, and a last row of -0.0
        rng = np.random.default_rng(n)
        for rows in (1, 7, 8192):
            u = (rng.choice([-1.0, 1.0], (rows, n))
                 * 10.0 ** rng.uniform(-8.0, 8.0, (rows, n)))
            if rows > 1:
                u[-1] = -0.0
            expected = u.sum(axis=1)
            assert np.array_equal(_row_sums(u).view(np.int64), expected.view(np.int64))
        if n >= 3:
            assert not np.array_equal(np.roll(u, 1, axis=1).sum(axis=1), expected)


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

    def test_reproducible_across_chunkings(self, monkeypatch):
        cfg = McConfig(samples=100_001, seed=314159)
        baseline = mc_tail(HALF_HALF, 8.0, cfg)
        for draws in (74, 2048, BLOCK_DRAWS - 1):
            monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", draws)
            again = mc_tail(HALF_HALF, 8.0, cfg)
            assert again.value == baseline.value
            assert again.error_bound == baseline.error_bound

    def test_reproducible_across_chunkings_n1e3(self, monkeypatch):
        spec = big_geometric_spec()
        cfg = McConfig(samples=1001, seed=27)
        x = 1.03 * spec.mu
        baseline = mc_tail(spec, x, cfg)
        assert 0.0 < baseline.value < 1.0
        # blocks of 1 (fewer draws than n), 7 and 64 rows
        for draws in (1, 7 * spec.n, BLOCK_DRAWS - spec.n):
            monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", draws)
            assert mc_tail(spec, x, cfg) == baseline

    def test_memory_bounded_by_block(self):
        spec = big_geometric_spec()
        cfg = McConfig(samples=10_000, seed=1)
        tracemalloc.start()
        try:
            mc_tail(spec, 1.03 * spec.mu, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_nan_threshold_refused(self):
        with pytest.raises(OutOfRange):
            mc_tail(HALF_HALF, math.nan, McConfig(samples=10))

    def test_non_number_threshold_refused(self):
        with pytest.raises(OutOfRange, match="got '8'"):
            mc_tail(HALF_HALF, "8", McConfig(samples=10))

    def test_infinite_thresholds(self):
        cfg = McConfig(samples=100)
        assert mc_tail(HALF_HALF, math.inf, cfg).value == 0.0
        assert mc_tail(HALF_HALF, math.inf, cfg, side="lower").value == 1.0

    def test_reproducible_across_runs(self):
        cfg = McConfig(samples=50_000, seed=2718)
        a = mc_tail(make_exponential_spec([0.5, 3.0]), 4.0, cfg)
        b = mc_tail(make_exponential_spec([0.5, 3.0]), 4.0, cfg)
        assert a.value == b.value


BIG = big_geometric_spec()
WIDE = make_exponential_spec([0.5 + (i % 7) for i in range(BLOCK_DRAWS + 3)])

# (spec, x, side, samples, seed): several blocks with a partial last one,
# p = 1 columns, both sides, one row per block (n > BLOCK_DRAWS), and fewer
# samples than one block.
BLOCK_CASES = [
    (make_geometric_spec([0.3, 1.0, 0.8, 1.0]), 6.0, "upper", 100_001, 5),
    (make_exponential_spec([0.5, 3.0]), 1.0, "lower", 200_000, 9),
    (make_exponential_spec([0.5, 3.0]), 1.0, "upper", 200_000, 9),
    (BIG, 1.03 * BIG.mu, "upper", 1001, 27),
    (WIDE, WIDE.mu, "upper", 5, 2**64 - 1),
    (HALF_HALF, 4.0, "lower", 20, 1),
]


class TestBlocks:
    """mc_tail's blocks, drawn one after another into one reused buffer."""

    @pytest.mark.parametrize("case", [BLOCK_CASES[k] for k in (0, 1, 2, 4, 5)])
    def test_bit_identical_across_chunkings(self, monkeypatch, case):
        spec, x, side, samples, seed = case
        cfg = McConfig(samples=samples, seed=seed)
        baseline = mc_tail(spec, x, cfg, side=side)
        for rows in (3, 997):  # one row a block where n passes the default
            monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", min(rows * spec.n, BLOCK_DRAWS))
            assert mc_tail(spec, x, cfg, side=side) == baseline

    @pytest.mark.parametrize("case, expected", [
        (BLOCK_CASES[0], (0.5453145468545314, 0.004058835865821009)),
        (BLOCK_CASES[1], (0.28331, 0.002602521815291692)),
        (BLOCK_CASES[3], (0.22677322677322678, 0.035826020284199095)),
        (BLOCK_CASES[4], (0.2, 0.5182213297653173)),
    ])
    def test_pinned_values(self, case, expected):
        # (value, error_bound) at the default confidence, pinned exactly
        spec, x, side, samples, seed = case
        est = mc_tail(spec, x, McConfig(samples=samples, seed=seed), side=side)
        assert (est.value, est.error_bound) == expected


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

    # sqrt(2) erfinv(c) at the double c, frozen from mpmath at 40 digits
    @pytest.mark.parametrize("confidence, z", [
        (0.9, 1.644853626951472822510732),
        (0.999, 3.290526731491894543338878),
        (1.0 - 1e-6, 4.891638475692931771825297),
    ])
    def test_z_matches_normal_quantile(self, confidence, z):
        assert abs(_two_sided_z(confidence) - z) <= 1e-15 * z
