"""Tests for the goodness-of-fit statistics, decision rule, and resampling ops."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom, hypergeom

import wshift
from wshift import hypotest
from wshift._seeds import derive_rng
from wshift.distributions import (
    EmpiricalDistribution,
    _sorted_blocks,
    affine,
    gaussian,
    sample,
    sine_distribution,
    tail_distribution,
    truncate,
    two_point,
    uniform01,
)
from wshift.errors import ParameterError
from wshift.hypotest import (
    LimitLawCritical,
    ResamplingCritical,
    TabulatedCritical,
    TestConfig,
    TestOutcome,
    ks_statistics_sorted,
    resampling_critical_value,
    resampling_power,
    run_test,
    wasserstein_statistic,
)
from wshift.limitlaw import LimitLawSampler
from wshift.transport import (
    displacement_interpolate,
    lebesgue,
    plan_scaled_statistic,
    quadratic_weight,
    scaled_statistics,
)


class TestWassersteinStatistic:
    def test_single_point_sample(self):
        # analytic oracle: int (0.5 - u)^2 du = x^2 - x + 1/3 at x = 0.5
        got = wasserstein_statistic(EmpiricalDistribution([0.5]), uniform01())
        assert abs(got - 1.0 / 12.0) < 1e-12

    def test_perfect_sample(self):
        # per-segment integral of (x_i - u)^2 with x_i at the segment midpoint:
        # each contributes 1/(12 n^3), so the scaled statistic is 1/(12 n)
        n = 10
        xs = (np.arange(1, n + 1) - 0.5) / n
        got = wasserstein_statistic(EmpiricalDistribution(xs), uniform01())
        assert abs(got - 1.0 / 120.0) < 1e-12

    def test_large_sample_is_the_exact_slot_integral(self):
        # slot j contributes h ((x_j - m_j)^2 + h^2 / 12) around its midpoint m_j;
        # an uncentred x^2 m0 - 2 x m1 + m2 sum loses digits to cancellation at this n
        n = 100_000
        x = np.sort(np.random.default_rng(3).random(n))
        h = 1.0 / n
        mids = (np.arange(n) + 0.5) * h
        want = n * math.fsum(h * ((x - mids) ** 2 + h * h / 12.0))
        got = wasserstein_statistic(EmpiricalDistribution(x), uniform01())
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("null, omega, bound_mib", [
        # O(n) closed form per slot (eight Gauss-Legendre nodes per slot peaked near 370 MiB)
        pytest.param(uniform01(), lebesgue(), 128, id="lebesgue"),
        pytest.param(uniform01(), quadratic_weight(2.0), 128, id="quadratic"),
        # panels evaluated a block at a time peak at 31.5 MiB; all 8e6 nodes at
        # once peaked at 305 MiB
        pytest.param(gaussian(0.0, 1.0, -4.0, 4.0), lebesgue(), 40, id="gaussian-lebesgue"),
        pytest.param(gaussian(0.0, 1.0, -4.0, 4.0), quadratic_weight(2.0, trim=0.01), 40,
                     id="gaussian-quadratic-trimmed"),
    ])
    def test_large_sample_against_uniform_memory(self, null, omega, bound_mib):
        data = EmpiricalDistribution(np.random.default_rng(4).random(1_000_000))
        tracemalloc.start()
        try:
            wasserstein_statistic(data, null, omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        values = rng.random(50)
        a = wasserstein_statistic(EmpiricalDistribution(values), uniform01())
        b = wasserstein_statistic(EmpiricalDistribution(values[::-1]), uniform01())
        assert a == b

    def test_affine_equivariance(self):
        # statistic for (a X + b, a P + b) equals a^2 times the original
        rng = np.random.default_rng(1)
        values = rng.random(40)
        base = wasserstein_statistic(EmpiricalDistribution(values), uniform01())
        for a, b in ((2.0, -1.0), (0.5, 3.0)):
            moved = wasserstein_statistic(
                EmpiricalDistribution(a * values + b), affine(uniform01(), a, b))
            assert abs(moved - a * a * base) < 1e-9 * max(1.0, a * a * base)

    def test_warns_without_compact_support(self):
        # the limit law's sampler warns, on the trimmed window it computes on
        with pytest.warns(UserWarning, match="compact support.*trimmed window"):
            LimitLawSampler.from_distributions(gaussian(0.0, 1.0), omega=lebesgue(trim=0.05))

    @pytest.mark.parametrize("null, outcome", [
        pytest.param(uniform01(), "silent", id="uniform01"),
        pytest.param(gaussian(0.0, 1.0), "warns", id="gaussian"),
        pytest.param(gaussian(0.0, 1.0, -8.0, 8.0), "silent", id="truncated-gaussian"),
        pytest.param(sine_distribution(0.5), "silent", id="sine-0.5"),
        pytest.param(sine_distribution(1.0), "warns", id="sine-1"),
        pytest.param(tail_distribution(0.3), "silent", id="tail"),
        pytest.param(two_point(0.0, 1.0), "refused", id="twopoint"),
        pytest.param(truncate(two_point(0.0, 1.0), -0.5, 0.5), "refused",
                     id="truncated-twopoint"),
        pytest.param(affine(uniform01(), 2.0, -1.0), "silent", id="affine"),
        pytest.param(displacement_interpolate(uniform01(), sine_distribution(0.5), 0.3),
                     "refused", id="displacement"),
        pytest.param(EmpiricalDistribution([0.2, 0.4, 0.7]), "refused", id="empirical"),
    ])
    def test_compact_support_warning_by_null_kind(self, null, outcome):
        # a law with a density warns exactly when it is not compact; one without is refused
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if outcome == "refused":
                with pytest.raises(ParameterError, match="needs a null with a density"):
                    LimitLawSampler.from_distributions(null, omega=lebesgue(trim=0.05))
            else:
                LimitLawSampler.from_distributions(null, omega=lebesgue(trim=0.05))
        assert any("compact" in str(w.message) for w in caught) == (outcome == "warns")

    def test_statistic_and_resampling_do_not_warn(self):
        # neither reads the limit law, so neither warns about its assumption
        data = EmpiricalDistribution(np.linspace(-1.0, 1.0, 40))
        config = TestConfig(null_dist=gaussian(0.0, 1.0), omega=lebesgue(trim=0.05),
                            critical_source=ResamplingCritical(reps=200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wasserstein_statistic(data, gaussian(0.0, 1.0), lebesgue(trim=0.05))
            assert run_test(data, config, seed=1).provenance["source"] == "resampling"


class TestTypeICalibration:
    def test_rejection_frequency_near_alpha(self):
        # 1000 seeded null trials at n = 1e4 against the tabulated 0.46136
        n, trials = 10_000, 1000
        plan = plan_scaled_statistic(uniform01(), lebesgue(), n)
        rng = derive_rng(2024, "type1-calibration")
        rejected = 0
        for _ in range(10):
            u = rng.random((trials // 10, n)) + 2.0 ** -54
            u.sort(axis=1)
            rejected += int(np.count_nonzero(scaled_statistics(u, plan) > 0.46136))
        assert 0.035 <= rejected / trials <= 0.065


class TestKsStatistic:
    def test_single_point(self):
        got = ks_statistics_sorted(EmpiricalDistribution([0.5]).values, uniform01())[0]
        assert got == 0.5

    def test_brute_force_grid_sample(self):
        # exhaustive check over the 9 indices for x_i = i / 10
        n = 9
        xs = np.arange(1, n + 1) / (n + 1)
        got = ks_statistics_sorted(EmpiricalDistribution(xs).values, uniform01())[0]
        want = math.sqrt(n) * max(
            max(i / n - i / 10.0, i / 10.0 - (i - 1) / n) for i in range(1, n + 1))
        assert abs(got - want) < 1e-12

    def test_threshold_decision(self):
        # reject at level 0.05 iff the statistic exceeds 1.36
        shifted = EmpiricalDistribution(np.linspace(0.3, 0.9, 1000))
        assert ks_statistics_sorted(shifted.values, uniform01())[0] > 1.36
        calm = sample(uniform01(), 1000, seed=3)
        assert ks_statistics_sorted(calm.values, uniform01())[0] < 1.36

    @pytest.mark.parametrize("null", [
        uniform01(), tail_distribution(0.3),
        dataclasses.replace(uniform01(), cdf_fn=lambda x: x),
    ], ids=["uniform", "tail", "cdf-returns-its-input"])
    def test_bits_of_the_formula_and_the_rows_kept(self, null):
        # twice per size, so the second call reads the cached steps
        for n in (500, 37, 500):
            x = np.sort(np.random.default_rng(n).random((4, n)), axis=1)
            kept = x.copy()
            f = null.cdf_fn(kept.copy())
            i = np.arange(1, n + 1)
            want = math.sqrt(n) * np.maximum(np.max(i / n - f, axis=1),
                                             np.max(f - (i - 1) / n, axis=1))
            assert ks_statistics_sorted(x, null).tobytes() == want.tobytes()
            assert x.tobytes() == kept.tobytes()

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.random((5, 60)), axis=1)
        batch = ks_statistics_sorted(x, uniform01())
        singles = [ks_statistics_sorted(r, uniform01())[0] for r in x]
        assert np.allclose(batch, singles, rtol=1e-12)


class TestRunTest:
    def test_decision_consistency(self):
        outcomes = []
        data = sample(uniform01(), 500, seed=4)
        for source in (TabulatedCritical(0.46136, reps=2000, grid_k=256),
                       LimitLawCritical(reps=2000, grid_k=256),
                       ResamplingCritical(reps=200)):
            cfg = TestConfig(null_dist=uniform01(), critical_source=source)
            outcomes.append(run_test(data, cfg, seed=5))
        for out in outcomes:
            assert out.reject == (out.statistic > out.critical_value)
            assert 0.0 < out.p_value <= 1.0
            assert out.n == 500

    def test_deterministic_given_seed(self):
        data = sample(uniform01(), 300, seed=6)
        cfg = TestConfig(null_dist=uniform01(),
                         critical_source=LimitLawCritical(reps=1000, grid_k=256))
        a = run_test(data, cfg, seed=7)
        b = run_test(data, cfg, seed=7)
        assert a == b

    def test_pvalue_floor_never_zero(self):
        # a statistic above every reference draw gets the add-one floor
        far = EmpiricalDistribution(np.linspace(40.0, 41.0, 100))
        cfg = TestConfig(null_dist=uniform01(),
                         critical_source=LimitLawCritical(reps=1000, grid_k=256))
        out = run_test(far, cfg, seed=8)
        assert out.reject
        assert out.p_value == 1.0 / 1001.0

    def test_resampling_against_empirical_null(self):
        ref = sample(uniform01(), 4000, seed=9)
        data = sample(ref, 300, seed=10)
        cfg = TestConfig(null_dist=ref, critical_source=ResamplingCritical(reps=400))
        out = run_test(data, cfg, seed=11)
        assert not out.reject
        assert out.provenance["source"] == "resampling"

    def test_resampling_needs_100_reps(self):
        data = sample(uniform01(), 50, seed=1)
        cfg = TestConfig(null_dist=uniform01(),
                         critical_source=ResamplingCritical(reps=99))
        with pytest.raises(ParameterError, match="reference draws"):
            run_test(data, cfg, seed=1)

    def test_limitlaw_reps_rule_shared_with_critical_value(self):
        data = sample(uniform01(), 50, seed=1)
        cfg = TestConfig(null_dist=uniform01(),
                         critical_source=LimitLawCritical(reps=10, grid_k=64))
        with pytest.raises(ParameterError, match=r"need \(1 - alpha\) \* reps >= 10"):
            run_test(data, cfg, seed=1)

    @pytest.mark.parametrize("null, want", [
        (sample(uniform01(), 200, seed=5), ResamplingCritical()),
        (uniform01(), LimitLawCritical()),
        (two_point(0.0, 1.0), ResamplingCritical()),
        (displacement_interpolate(uniform01(), sine_distribution(0.5), 0.3),
         ResamplingCritical()),
    ], ids=["data-null", "analytic-null", "twopoint", "displacement"])
    def test_default_source_follows_the_null(self, null, want):
        # the limit law needs the null's density; a null without one is resampled
        assert TestConfig(null_dist=null).critical_source == want

    def test_data_null_without_a_source_resamples(self):
        ref = sample(uniform01(), 400, seed=6)
        out = run_test(sample(ref, 60, seed=7), TestConfig(null_dist=ref), seed=8)
        assert out.provenance["source"] == "resampling"

    def test_limitlaw_needs_analytic_null(self):
        ref = sample(uniform01(), 100, seed=2)
        cfg = TestConfig(null_dist=ref, critical_source=LimitLawCritical(reps=1000))
        with pytest.raises(ParameterError, match="needs a null with a density"):
            run_test(sample(ref, 50, seed=3), cfg, seed=4)

    def test_outcome_invariant_enforced(self):
        with pytest.raises(AssertionError):
            TestOutcome(statistic=1.0, critical_value=2.0, reject=True,
                        p_value=0.5, n=10, provenance={})

    def test_outcome_invariant_enforced_under_optimize(self):
        # python -O strips assert statements; the invariant must still raise
        src = str(Path(wshift.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("from wshift.hypotest import TestOutcome\n"
                "TestOutcome(statistic=1.0, critical_value=2.0, reject=True,"
                " p_value=0.5, n=10, provenance={})\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "AssertionError" in proc.stderr

    def test_alpha_validated(self):
        with pytest.raises(ParameterError):
            TestConfig(null_dist=uniform01(), alpha=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_tabulated_value_is_positive_and_finite(self, value):
        # NaN and infinite critical values can never reject
        with pytest.raises(ParameterError, match="positive and finite"):
            TabulatedCritical(value)

    @pytest.mark.parametrize("source, keys", [
        (TabulatedCritical(0.46136, reps=300, grid_k=64), {"reps": 300, "grid_k": 64}),
        (LimitLawCritical(reps=300, grid_k=64), {"reps": 300, "grid_k": 64}),
        (ResamplingCritical(reps=300, replace=False), {"reps": 300, "replace": False}),
    ], ids=["tabulated", "limitlaw", "resampling"])
    def test_provenance_names_the_source_and_its_fields(self, source, keys):
        out = run_test(sample(uniform01(), 40, seed=2),
                       TestConfig(null_dist=uniform01(), critical_source=source), seed=3)
        assert list(out.provenance) == ["seed", "null", "omega", "alpha", "source", *keys]
        assert out.provenance["source"] == source.name
        assert {k: out.provenance[k] for k in keys} == keys


class TestPValueUniformity:
    def test_null_pvalues_near_uniform(self):
        # ECDF of 500 null p-values within 0.08 of uniform in sup norm
        ref = sample(uniform01(), 1000, seed=31)
        cfg = TestConfig(null_dist=ref, critical_source=ResamplingCritical(reps=1000))
        rng = derive_rng(32, "pvalue-uniformity")
        pvals = []
        for trial in range(500):
            idx = rng.integers(0, ref.n, size=100)
            data = EmpiricalDistribution(ref.values[idx])
            pvals.append(run_test(data, cfg, seed=10_000 + trial).p_value)
        pvals = np.sort(pvals)
        ecdf = np.arange(1, 501) / 500
        sup = np.max(np.abs(ecdf - pvals))
        assert sup <= 0.08


class TestResamplingCriticalValue:
    def test_degenerate_permutation_is_zero(self):
        ref = sample(uniform01(), 200, seed=12)
        got = resampling_critical_value(ref, 200, 0.05, 150, seed=13, replace=False)
        assert got == 0.0

    def test_nonincreasing_in_n(self):
        ref = sample(uniform01(), 5000, seed=14)
        values = [resampling_critical_value(ref, n, 0.05, 400, seed=15)
                  for n in (10, 100, 1000)]
        assert values[0] > values[1] > values[2]

    def test_matches_analytic_null_route(self):
        # sqrt(q / n) with q the 0.95-quantile of the integrated squared bridge
        ref = sample(uniform01(), 10_000, seed=16)
        got = resampling_critical_value(ref, 100, 0.05, 800, seed=17)
        want = math.sqrt(0.46136 / 100.0)
        assert abs(got - want) <= 0.15 * want

    def test_is_the_root_of_the_scaled_statistic_quantile(self):
        # the order statistic of n W2^2 over the resampled rows, reported as sqrt(q / n)
        ref = sample(uniform01(), 500, seed=26)
        n, alpha, reps = 40, 0.05, 300
        plan = plan_scaled_statistic(ref, lebesgue(), n)
        blocks = _sorted_blocks(ref, n, reps, derive_rng(27, "resampling-critval"))
        stats = np.sort(np.concatenate([scaled_statistics(b, plan) for b in blocks]))
        q = stats[math.ceil((1.0 - alpha) * reps) - 1]
        assert resampling_critical_value(ref, n, alpha, reps, seed=27) == math.sqrt(q / n)

    def test_reps_resolution_validated(self):
        ref = sample(uniform01(), 100, seed=18)
        with pytest.raises(ParameterError, match="too small"):
            resampling_critical_value(ref, 10, 0.05, 10, seed=19)

    def test_sample_size_checked_by_the_plan(self):
        ref = sample(uniform01(), 100, seed=18)
        with pytest.raises(ParameterError, match="^sample size must be >= 1$"):
            resampling_critical_value(ref, 0, 0.05, 100, seed=19)

    def test_source_never_reads_the_largest_draw(self, monkeypatch):
        # ceil(0.999 * 100) = 100 passes the source's own floor of 100 draws, but the
        # 0.999-quantile would be the top draw: rejected before any sample is redrawn
        monkeypatch.setattr(hypotest, "_sorted_blocks", lambda *a: pytest.fail("drew"))
        ref = sample(uniform01(), 200, seed=30)
        config = TestConfig(ref, alpha=0.001, critical_source=ResamplingCritical(reps=100))
        with pytest.raises(ParameterError, match="too small"):
            run_test(ref, config, seed=31)

    def test_without_replacement_needs_enough(self):
        ref = sample(uniform01(), 50, seed=20)
        with pytest.raises(ParameterError, match="without replacement"):
            resampling_critical_value(ref, 100, 0.05, 150, seed=21, replace=False)


def _exact_resampled_mean(ref: EmpiricalDistribution, plan, replace: bool) -> float:
    """``E[n W2^2]`` of a size-n sample redrawn from ``ref``, exactly.

    It is ``n (sum_j m0_j E[(X_(j) - c_j)^2] + spread)`` with the plan's slot
    masses m0, centers c and spread. ``X_(j)`` is at most the i-th smallest
    reference value when at least j of the n draws land among the i smallest:
    a binomial count with replacement, a hypergeometric one without.
    """
    m, n = ref.n, plan.n
    j, i = np.arange(1, n + 1)[:, None], np.arange(m + 1)[None, :]
    cdf = binom.sf(j - 1, n, i / m) if replace else hypergeom.sf(j - 1, m, i, n)
    second = (np.diff(cdf, axis=1) * (ref.values - plan.center[:, None]) ** 2).sum(axis=1)
    return n * (float(plan.m0 @ second) + plan.spread)


class TestResamplingExactMean:
    # 200 reference points rounded to 0.1, so ties are common
    REF = EmpiricalDistribution(np.round(np.random.default_rng(40).normal(size=200), 1))
    REPS = 20_000

    @pytest.mark.parametrize("omega", [lebesgue(), quadratic_weight(2.0, 0.05)],
                             ids=["lebesgue", "quadratic-trimmed"])
    @pytest.mark.parametrize("replace", [True, False], ids=["replace", "no-replace"])
    @pytest.mark.parametrize("n", [1, 7, 25, 150])
    def test_mean_of_the_reference_statistics(self, n, replace, omega):
        # without replacement n = 1, 7 and 25 (8n <= 200) draw whole blocks of subsets,
        # n = 25 in 16 blocks, and n = 150 one rng.choice call per row.
        # z = (mean - exact) / SE over 30 seeds per cell had standard deviation 0.7 to 1.2
        # and |z| <= 3.2 (without replacement at 10^6 draws: z = 1.0 at n = 7 and -1.3 at
        # n = 25; n = 150: z = 0.3 at 4 * 10^5); the bound is 4 SE at seed 41
        plan = plan_scaled_statistic(self.REF, omega, n)
        stats = hypotest._resampled_critical(self.REF, plan, 0.05, self.REPS,
                                             derive_rng(41, "exact-mean"), replace)[1]
        se = stats.std(ddof=1) / math.sqrt(self.REPS)
        assert abs(stats.mean() - _exact_resampled_mean(self.REF, plan, replace)) <= 4.0 * se


class TestResamplingPower:
    def test_null_calibration(self):
        ref = sample(uniform01(), 3000, seed=22)
        power = resampling_power(ref, ref, 100, 0.05, trials=200, reps=400, seed=23)
        se = math.sqrt(0.05 * 0.95 / 200)
        assert abs(power - 0.05) <= 3.0 * se

    def test_strong_shift_saturates(self):
        ref = sample(uniform01(), 2000, seed=24)
        shifted = EmpiricalDistribution(ref.values + 0.5)
        power = resampling_power(ref, shifted, 10, 0.05, trials=200, reps=400, seed=25)
        assert power == 1.0

    def test_needs_ten_draws_at_or_below_the_quantile(self, monkeypatch):
        # (1 - 0.5) * 19 < 10, though the quantile, the 10th of 19 draws, is not the top one
        for name in ("_sorted_blocks", "_interleaved_blocks"):  # reference and trials
            monkeypatch.setattr(hypotest, name, lambda *a: pytest.fail("drew"))
        ref = sample(uniform01(), 200, seed=32)
        with pytest.raises(ParameterError, match="too small"):
            resampling_power(ref, ref, 10, 0.5, trials=20, reps=19, seed=33)

    def test_one_plan_per_call(self, monkeypatch):
        calls = []

        def counting_plan(*args):
            calls.append(args)
            return plan_scaled_statistic(*args)

        monkeypatch.setattr(hypotest, "plan_scaled_statistic", counting_plan)
        ref = sample(uniform01(), 500, seed=28)
        resampling_power(ref, ref, 20, 0.05, trials=30, reps=100, seed=29)
        assert len(calls) == 1

    def test_nondecreasing_in_n(self):
        ref = sample(uniform01(), 4000, seed=26)
        shifted = EmpiricalDistribution(ref.values + 0.12)
        powers = [resampling_power(ref, shifted, n, 0.05, trials=150, reps=300, seed=27)
                  for n in (10, 50, 100, 500)]
        assert all(powers[i + 1] >= powers[i] for i in range(len(powers) - 1))
        assert powers[-1] > powers[0]
