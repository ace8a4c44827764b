"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values tagged as frozen were evaluated from the closed forms
at 30-digit precision with mpmath.
"""

import math
from contextlib import contextmanager

import numpy as np

from conftest import (
    matrix_exp_survival,
    partial_fractions_survival,
    random_exp_specs,
    random_geom_specs,
)
from tailbounds import (
    McConfig,
    exp_tail_lower_iv,
    exp_upper_i,
    exp_upper_ii,
    geom_lower_tail_exact,
    geom_tail_exact,
    hypoexp_survival,
    iid_geom_tail,
    lemma1_bound,
    lemma_la_check,
    log_inequality_check,
    lower_tail_tl1,
    make_exponential_spec,
    make_geometric_spec,
    mc_tail,
    montecarlo,
    optimized_chernoff,
    upper_tail_cor1,
    upper_tail_cor2,
    upper_tail_lower_bound_tl,
    upper_tail_thm1,
    upper_tail_thm2,
)
from tailbounds.montecarlo import _wilson_interval as wilson_interval

SLACK = 1e-10
UPPER_LAMBDAS = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0)
LOWER_LAMBDAS = (0.2, 0.5, 0.8, 1.0)
EXP_LAMBDAS = (1.0, 1.5, 2.0, 3.0, 5.0)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    print(f"criterion {number:2d} ({name}): PASS")


def test_criterion_01_spot_values():
    with criterion(1, "spot values for p=[0.5, 0.5], lambda=2"):
        spec = make_geometric_spec([0.5, 0.5])
        frozen = [
            (upper_tail_thm1(spec, 2.0).value, 0.54134113294645077),
            (upper_tail_cor1(2.0).value, 0.73575888234288464),
            (upper_tail_cor2(2.0).value, 0.36787944117144232),
            (upper_tail_thm2(spec, 2.0).value, 0.21354155096908691),
            (upper_tail_lower_bound_tl(spec, 2.0).value, 0.001953125),
            (lemma1_bound(spec, 8.0, 1.5).value, 0.17558299039780521),
            (geom_tail_exact(spec, 8.0).value, 0.0625),
        ]
        for got, expected in frozen:
            assert abs(got - expected) <= 1e-6 * expected, (got, expected)


def test_criterion_02_upper_tail_sandwich():
    with criterion(2, "sandwich on 200 random geometric specs"):
        violations = 0
        for spec in random_geom_specs(seed=20250810, count=200):
            for lam in UPPER_LAMBDAS:
                exact = geom_tail_exact(spec, lam * spec.mu)
                tl = upper_tail_lower_bound_tl(spec, lam).value
                thm1 = upper_tail_thm1(spec, lam).value
                thm2 = upper_tail_thm2(spec, lam).value
                cor1 = upper_tail_cor1(lam).value
                cor2 = upper_tail_cor2(lam).value
                pad = exact.error_bound + SLACK
                chain = (
                    tl <= exact.value + pad
                    and exact.value <= thm2 + pad
                    and thm2 <= thm1 + SLACK
                    and thm1 <= cor1 + SLACK
                    and exact.value <= cor2 + pad
                )
                violations += not chain
        assert violations == 0


def test_criterion_03_lower_tail_suite():
    with criterion(3, "lower-tail bound on 200 random geometric specs"):
        violations = 0
        for spec in random_geom_specs(seed=20250810, count=200):
            for lam in LOWER_LAMBDAS:
                exact = geom_lower_tail_exact(spec, lam * spec.mu)
                bound = lower_tail_tl1(spec, lam).value
                violations += not (
                    exact.value <= bound + exact.error_bound + SLACK
                )
        assert violations == 0


def test_criterion_04_exponential_suite():
    with criterion(4, "exponential sandwich and oracle route agreement"):
        violations = 0
        for spec in random_exp_specs(seed=20250811, count=200):
            for lam in EXP_LAMBDAS:
                x = lam * spec.mu
                exact = hypoexp_survival(spec, x)
                pad = exact.error_bound + SLACK
                chain = (
                    exp_tail_lower_iv(spec, lam).value <= exact.value + pad
                    and exact.value <= exp_upper_i(spec, lam).value + pad
                    and exp_upper_i(spec, lam).value
                    <= exp_upper_ii(lam).value + SLACK
                )
                violations += not chain
                pf, _ = partial_fractions_survival(spec, x)
                mx, _ = matrix_exp_survival(spec, x)
                violations += not abs(pf - mx) <= 1e-9
        assert violations == 0


def test_criterion_05_optimizer_consistency():
    with criterion(5, "optimized exponent vs closed form"):
        for p in (0.05, 0.3, 0.7, 1.0):
            for n in (1, 3, 6):
                spec = make_geometric_spec([p] * n)
                for lam in (1.0, 1.5, 2.0, 5.0):
                    opt = optimized_chernoff(spec, lam).value
                    closed = upper_tail_thm1(spec, lam).value
                    assert abs(opt - closed) <= 1e-9 * closed
        rng = np.random.default_rng(20250812)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = rng.uniform(0.05, 1.0, n)
            while p.max() / p.min() < 1.1:
                p = rng.uniform(0.05, 1.0, n)
            spec = make_geometric_spec(list(p))
            for lam in (1.25, 1.5, 2.0, 3.0, 5.0):
                opt = optimized_chernoff(spec, lam)
                closed = upper_tail_thm1(spec, lam)
                assert opt.log_value < closed.log_value
            assert (
                optimized_chernoff(spec, 1.0).value
                <= upper_tail_thm1(spec, 1.0).value
            )


def test_criterion_06_tail_ratio_floor():
    with criterion(6, "tail-ratio floor on oracle outputs"):
        for spec in random_geom_specs(seed=20250813, count=50):
            base = max(spec.n, math.ceil(spec.mu))
            pmin = spec.p_min
            for j, k in ((base, base), (base + 3, base), (base + 10, base + 2)):
                pj = geom_tail_exact(spec, j)
                pk = geom_tail_exact(spec, k)
                floor = (1.0 - pmin) ** (j - k) * pk.value
                pad = pj.error_bound + pk.error_bound + SLACK
                assert pj.value >= floor * (1.0 - 3e-9) - pad
            for x, y in (
                (base + 2.6, base + 0.4),
                (base + 7.1, base + 3.9),
                (base + 0.5, base + 0.5),
            ):
                px = geom_tail_exact(spec, x)
                py = geom_tail_exact(spec, y)
                floor = (1.0 - pmin) ** (x - y + 1.0) * py.value
                pad = px.error_bound + py.error_bound + SLACK
                assert px.value >= floor * (1.0 - 3e-9) - pad


def test_criterion_07_single_variable_sharpness():
    with criterion(7, "near-sharpness of the parameter-free bound at n=1"):
        p, lam = 0.01, 2.0
        mu = 1.0 / p
        exact = iid_geom_tail(p, 1, lam * mu).value
        direct = (1.0 - p) ** (math.ceil(lam * mu) - 1)
        assert abs(exact - direct) <= 1e-12 * direct
        # the exact tail decays at the same exponential rate e^(-lam) that the
        # parameter-free bounds carry, up to a factor e^O(lam p)
        ratio = math.log(exact) / (-lam)
        assert 0.8 <= ratio <= 1.2
        assert 1.0 / 1.2 <= exact / math.exp(-lam) <= 1.2
        assert exact <= upper_tail_cor1(lam).value


def test_criterion_08_discrete_to_continuous_limit():
    with criterion(8, "geometric-to-exponential limit at N=10^4"):
        N = 10_000
        rates = [1.0, 2.0]
        lam = 2.0
        geom = make_geometric_spec([a / N for a in rates])
        cont = make_exponential_spec(rates)
        discrete = geom_tail_exact(geom, lam * geom.mu)
        continuous = hypoexp_survival(cont, lam * cont.mu)
        assert abs(discrete.value - continuous.value) <= 0.02 * continuous.value


def test_criterion_09_mc_calibration(monkeypatch):
    with criterion(9, "Monte Carlo coverage and bit reproducibility"):
        spec = make_geometric_spec([0.5, 0.5])
        exact = geom_tail_exact(spec, 8.0).value
        samples = 20_000
        covered = 0
        for seed in range(100):
            est = mc_tail(spec, 8.0, McConfig(samples=samples, seed=seed))
            hits = round(est.value * samples)
            lo, hi = wilson_interval(hits, samples, 0.99)
            covered += lo <= exact <= hi
            assert abs(est.value - exact) <= 4.0 * est.error_bound
        assert covered >= 95
        cfg = McConfig(samples=10_001, seed=424242)
        baseline = mc_tail(spec, 8.0, cfg)
        for draws in (2, 194, 8192):  # blocks of 1, 97 and 4096 samples
            monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", draws)
            est = mc_tail(spec, 8.0, cfg)
            assert est.value == baseline.value
            assert est.error_bound == baseline.error_bound


def test_criterion_10_helper_inequalities():
    with criterion(10, "helper inequality grids"):
        grid = [0.99 * (i + 1) / 100.0 for i in range(100)]
        assert all(
            log_inequality_check(x, y) for y in grid for x in grid if x <= y
        )
        for A in np.geomspace(1.0, 1e3, 50):
            for x in np.linspace(0.0, 1.0 / A, 50):
                assert lemma_la_check(float(A), float(x))
