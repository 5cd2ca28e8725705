"""Tests for the distribution primitives and built-in families."""

import dataclasses
import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wshift.distributions
from wshift._seeds import derive_rng
from wshift.distributions import (
    EmpiricalDistribution,
    _bisect,
    _distinct_subsets,
    _interleaved_blocks,
    _open_uniforms,
    _sorted_blocks,
    _subset_width,
    affine,
    gaussian,
    sample,
    sine_distribution,
    sine_quantile,
    tail_distribution,
    tail_quantile,
    truncate,
    two_point,
    uniform01,
)
from wshift.errors import DomainError, EmptySampleError, ParameterError
from wshift.transport import (
    displacement_interpolate,
    lebesgue,
    plan_scaled_statistic,
    quadratic_weight,
    scaled_statistics,
)


CONTINUOUS_FAMILIES = [
    uniform01(),
    gaussian(0.0, 1.0),
    gaussian(2.0, 0.5),
    gaussian(0.0, 1.0, -8.0, 8.0),
    sine_distribution(0.5),
    sine_distribution(1.0),
    tail_distribution(0.3),
]


class TestQuantileCdfDuality:
    @pytest.mark.parametrize("dist", CONTINUOUS_FAMILIES, ids=lambda d: d.name)
    def test_cdf_of_quantile_is_identity(self, dist):
        rng = np.random.default_rng(101)
        u = rng.uniform(1e-6, 1.0 - 1e-6, size=1000)
        err = np.abs(dist.cdf(dist.quantile(u)) - u)
        assert err.max() <= 1e-9

    @pytest.mark.parametrize("dist", [sine_distribution(0.7), tail_distribution(0.3)],
                             ids=lambda d: d.name)
    def test_bisected_cdf_inverts_the_quantile(self, dist):
        # the cdf is the quantile inverted by _bisect, out to 1e-9 from either end
        u = np.concatenate([[1e-9, 1e-7, 1.0 - 1e-7, 1.0 - 1e-9], np.linspace(1e-3, 0.999, 999)])
        assert np.abs(dist.cdf_fn(dist.quantile_fn(u)) - u).max() <= 1e-13

    @given(st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=1, max_size=20),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bisect_is_elementwise(self, points, seed):
        # a point inverts alike alone and among 2000 others, whose brackets
        # close at other steps (the Gaussian's close later where |hi| > 1)
        u = np.concatenate([points, np.random.default_rng(seed).random(2000)])
        gaussian_cdf = gaussian(0.0, 1.0).cdf_fn
        for fn in (lambda v: _bisect(gaussian_cdf, v, -40.0, 40.0),
                   sine_distribution(0.7).cdf_fn, tail_distribution(0.3).cdf_fn):
            together = fn(u)[:len(points)]
            alone = np.concatenate([fn(np.array([p])) for p in points])
            assert together.tobytes() == alone.tobytes()

    def test_bisect_returns_the_left_end_of_a_step(self):
        # the two-point cdf is 1/2 on [0, 1): the generalized inverse of 1/2 is 0
        cdf = two_point(0.0, 1.0).cdf_fn
        assert abs(_bisect(cdf, 0.5, -1.0, 2.0)) <= 1e-12
        got = _bisect(cdf, np.array([0.25, 0.5, 0.75, 1.0]), -1.0, 2.0)
        assert np.abs(got - [0.0, 0.0, 1.0, 1.0]).max() <= 1e-12

    @pytest.mark.parametrize("dist", CONTINUOUS_FAMILIES, ids=lambda d: d.name)
    def test_quantile_nondecreasing(self, dist):
        u = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
        q = dist.quantile(u)
        assert np.all(np.diff(q) >= -1e-12)

    def test_galois_inequality_two_point(self):
        # generalized inverse: cdf(quantile(u)) >= u even for discrete laws
        d = two_point(-1.0, 3.0)
        u = np.linspace(0.01, 0.99, 99)
        assert np.all(d.cdf(d.quantile(u)) >= u)

    def test_quantile_domain_validation(self):
        with pytest.raises(DomainError):
            uniform01().quantile(0.0)
        with pytest.raises(DomainError):
            uniform01().quantile(1.0)


_DATA = EmpiricalDistribution(np.random.default_rng(3).normal(size=37))

# one law of every kind: each factory, each transformation, each path, a sample
EVERY_LAW_KIND = [
    pytest.param(uniform01(), id="uniform01"),
    pytest.param(gaussian(0.0, 1.0), id="gaussian"),
    pytest.param(sine_distribution(0.6), id="sine"),
    pytest.param(tail_distribution(0.2), id="tail"),
    pytest.param(two_point(-1.0, 2.0), id="twopoint"),
    pytest.param(truncate(gaussian(0.0, 1.0), -2.0, 2.0), id="truncate"),
    pytest.param(affine(sine_distribution(0.4), -2.0, 1.0), id="affine"),
    pytest.param(displacement_interpolate(uniform01(), _DATA, 0.3), id="displacement"),
    pytest.param(_DATA, id="empirical"),
]


class TestDistributionProtocol:
    @pytest.mark.parametrize("dist", EVERY_LAW_KIND)
    def test_fields_present(self, dist):
        assert isinstance(dist.name, str) and dist.name
        assert callable(dist.quantile_fn) and callable(dist.cdf_fn)
        assert dist.density_fn is None or callable(dist.density_fn)
        assert isinstance(dist.quantile_is_identity, bool)
        bks = np.asarray(dist.quantile_breakpoints, dtype=float)
        assert np.all((bks > 0.0) & (bks < 1.0)) and np.all(np.diff(bks) > 0.0)
        lo, hi = dist.support
        assert isinstance(lo, float) and isinstance(hi, float) and lo <= hi
        q = dist.quantile_fn(np.linspace(0.001, 0.999, 999))
        assert np.all((lo <= q) & (q <= hi))

    @pytest.mark.parametrize("dist", EVERY_LAW_KIND)
    def test_callables_match_public_methods(self, dist):
        u = np.linspace(0.001, 0.999, 999)
        x = np.linspace(-3.0, 3.0, 601)
        assert np.array_equal(dist.quantile_fn(u), dist.quantile(u))
        assert np.array_equal(dist.cdf_fn(x), dist.cdf(x))

    def test_empirical_fields(self):
        d = EmpiricalDistribution([3.0, 1.0, 2.0, 2.0])
        assert d.name == "empirical(n=4)"
        assert np.array_equal(d.quantile_breakpoints, [0.25, 0.5, 0.75])
        assert d.density_fn is None and d.support == (1.0, 3.0)
        assert not d.quantile_is_identity


class TestEmpirical:
    def test_single_sample_constant(self):
        d = EmpiricalDistribution([3.0])
        assert d.quantile(0.7) == 3.0

    def test_order_statistic_convention(self):
        d = EmpiricalDistribution([1.0, 2.0, 3.0])
        assert d.quantile(0.5) == 2.0  # ceil(3 * 0.5) = 2nd order statistic

    def test_generalized_inverse_oracle(self):
        # minimal value x with #{values <= x} >= ceil(n u), checked by brute force
        d = EmpiricalDistribution([1.0, 2.0, 3.0])
        for u in (1.0 / 3.0, 0.2, 0.34, 0.99, 1.0):
            got = d.quantile(u)
            k = math.ceil(d.n * u)
            assert np.count_nonzero(d.values <= got) >= k
            smaller = d.values[d.values < got]
            assert all(np.count_nonzero(d.values <= s) < k for s in smaller)

    def test_quantile_step_function_range(self):
        rng = np.random.default_rng(7)
        d = EmpiricalDistribution(rng.normal(size=40))
        u = np.linspace(0.001, 1.0, 5000)
        q = d.quantile(u)
        assert np.all(np.diff(q) >= 0)
        assert set(np.unique(q)) == set(d.values)

    def test_ties_allowed(self):
        d = EmpiricalDistribution([1.0, 1.0, 2.0])
        assert d.quantile(0.5) == 1.0
        assert d.quantile(1.0) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySampleError, match="empty empirical"):
            EmpiricalDistribution([])

    def test_domain_errors(self):
        d = EmpiricalDistribution([1.0, 2.0])
        with pytest.raises(DomainError):
            d.quantile(0.0)
        with pytest.raises(DomainError):
            d.quantile(1.5)

    def test_values_read_only(self):
        d = EmpiricalDistribution([2.0, 1.0])
        assert d.values[0] == 1.0
        with pytest.raises(ValueError):
            d.values[0] = 0.0

    @given(st.floats(min_value=1e-9, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_galois_inequality_property(self, u):
        d = EmpiricalDistribution([0.5, 1.5, 1.5, 4.0, 9.0])
        assert d.cdf(d.quantile(u)) >= u - 1e-15


class TestSineQuantile:
    def test_p_zero_is_identity(self):
        assert sine_quantile(0.0, 0.3) == 0.3

    def test_direct_value(self):
        got = sine_quantile(1.0, 0.25)
        assert abs(got - (0.25 + 1.0 / (2.0 * math.pi))) < 1e-12

    def test_midpoint_fixed(self):
        for p in (0.1, 0.5, 1.0):
            assert abs(sine_quantile(p, 0.5) - 0.5) < 1e-15

    def test_parameter_validation(self):
        with pytest.raises(ParameterError, match="monotonicity"):
            sine_quantile(1.5, 0.3)
        with pytest.raises(ParameterError):
            sine_quantile(-0.1, 0.3)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 1.0])
    def test_nondecreasing_on_grid(self, p):
        u = np.linspace(0.0, 1.0, 10_000)
        assert np.all(np.diff(sine_quantile(p, u)) >= -1e-12)


class TestTailQuantile:
    def test_middle_branch_identity(self):
        assert tail_quantile(0.25, 0.5) == 0.5

    def test_lower_end_value(self):
        got = tail_quantile(0.25, 0.0)
        assert abs(got - 0.45 * (0.5 / math.pi)) < 1e-9

    def test_antisymmetry(self):
        for u in (0.1, 0.02, 0.37):
            lhs = tail_quantile(0.25, 1.0 - u)
            rhs = 1.0 - tail_quantile(0.25, u)
            assert abs(lhs - rhs) < 1e-12

    def test_continuity_at_joins(self):
        for p in (0.1, 0.3, 0.5):
            for join in (p, 1.0 - p):
                below = tail_quantile(p, join - 1e-11)
                above = tail_quantile(p, join + 1e-11)
                assert abs(above - below) < 1e-9

    def test_parameter_validation(self):
        for bad in (0.0, 0.6, -0.2):
            with pytest.raises(ParameterError):
                tail_quantile(bad, 0.5)

    @pytest.mark.parametrize("p", [0.025, 0.3, 0.5])
    def test_bits_of_the_piecewise_formula(self, p):
        # each tail is evaluated on its own points only, with the same expressions
        u = np.random.default_rng(3).random((40, 250))
        u[0, :4] = (0.0, p, 1.0 - p, 1.0)
        amp = 0.45 * (2.0 * p / math.pi)
        lower = u + amp * np.cos(math.pi * u / (2.0 * p))
        upper = u - amp * np.cos(math.pi * (1.0 - u) / (2.0 * p))
        want = np.where(u <= p, lower, np.where(u < 1.0 - p, u, upper))
        assert tail_quantile(p, u).tobytes() == want.tobytes()
        assert tail_quantile(p, float(u[1, 1])) == float(want[1, 1])

    @pytest.mark.parametrize("p", [0.025, 0.1, 0.3, 0.5])
    def test_strictly_increasing_on_grid(self, p):
        u = np.linspace(0.0, 1.0, 10_000)
        q = tail_quantile(p, u)
        # slope bounded below by 1 - 0.45
        assert np.all(np.diff(q) >= 0.5 * (1.0 / 9999))


class TestLawsFromQuantiles:
    """sine and tail laws: one helper builds the cdf, density and support from the quantile."""

    X = np.concatenate([[0.0, 0.5, 1.0], np.linspace(-0.1, 1.1, 1201),
                        np.random.default_rng(5).random(500)])
    U = np.concatenate([[0.0, 0.5, 1.0], np.random.default_rng(6).random(500)])

    @staticmethod
    def check_bits(law, q, slope, lo, hi):
        # the support ends are in the grid; dividing by a vanishing slope must not warn
        x = np.concatenate([TestLawsFromQuantiles.X, [lo, hi]])
        cdf = _bisect(q, x, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            density = np.where((x >= lo) & (x <= hi),
                               1.0 / slope(_bisect(q, np.clip(x, lo, hi), 0.0, 1.0)), 0.0)
        assert law.support == (lo, hi)
        assert law.quantile_fn(TestLawsFromQuantiles.U).tobytes() == q(
            TestLawsFromQuantiles.U).tobytes()
        assert law.cdf_fn(x).tobytes() == cdf.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert law.density_fn(x).tobytes() == density.tobytes()

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_sine_bits_of_the_explicit_formulas(self, p):
        # at p = 1 the slope vanishes at u = 1/2, where x = 1/2
        law = sine_distribution(p)
        self.check_bits(law, lambda u: u + (p / (2.0 * math.pi)) * np.sin(2.0 * math.pi * u),
                        lambda u: 1.0 + p * np.cos(2.0 * math.pi * u), 0.0, 1.0)
        assert law.compact_support_ok == (p < 1.0) and law.quantile_breakpoints == ()

    @pytest.mark.parametrize("p", [0.025, 0.3, 0.5])
    def test_tail_bits_of_the_explicit_formulas(self, p):
        amp = 0.45 * (2.0 * p / math.pi)

        def slope(u):
            return np.where(u <= p, 1.0 - 0.45 * np.sin(math.pi * u / (2.0 * p)),
                            np.where(u < 1.0 - p, 1.0,
                                     1.0 - 0.45 * np.sin(math.pi * (1.0 - u) / (2.0 * p))))

        law = tail_distribution(p)
        self.check_bits(law, lambda u: tail_quantile(p, u), slope, amp, 1.0 - amp)
        assert law.compact_support_ok and law.quantile_breakpoints == (p, 1.0 - p)

    @pytest.mark.parametrize("build, p", [(sine_distribution, 1.5), (sine_distribution, -0.1),
                                          (tail_distribution, 0.0), (tail_distribution, 0.6)])
    def test_parameter_checked_when_built(self, build, p):
        with pytest.raises(ParameterError, match="requires p in"):
            build(p)

    def test_sine_zero_is_the_uniform_law(self):
        assert sine_distribution(0.0).name == "uniform01"
        assert sine_distribution(0.0).quantile_is_identity


class TestSampling:
    def test_deterministic(self):
        a = sample(uniform01(), 5, seed=123)
        b = sample(uniform01(), 5, seed=123)
        assert np.array_equal(a.values, b.values)

    def test_empirical_resampling_deterministic(self):
        base = EmpiricalDistribution([1.0, 2.0, 5.0])
        a = sample(base, 10, seed=9)
        b = sample(base, 10, seed=9)
        assert np.array_equal(a.values, b.values)
        assert set(a.values) <= set(base.values)

    def test_two_point_balance(self):
        # binomial concentration: P(|frac - 1/2| > 0.05) < 1e-6 at n = 1e4
        s = sample(two_point(0.0, 1.0), 10_000, seed=21)
        frac = float(np.mean(s.values == 1.0))
        assert 0.45 <= frac <= 0.55

    def test_gaussian_mean_concentration(self):
        # CLT bound: 5 sigma / sqrt(n) < 0.02 at n = 1e5
        s = sample(gaussian(0.0, 1.0), 100_000, seed=4)
        assert abs(float(s.values.mean())) < 0.02

    def test_output_sorted(self):
        s = sample(gaussian(0.0, 1.0), 100, seed=2)
        assert np.all(np.diff(s.values) >= 0)

    def test_size_validation(self):
        with pytest.raises(ParameterError):
            sample(uniform01(), 0, seed=1)

    @pytest.mark.parametrize("dist", EVERY_LAW_KIND)
    @pytest.mark.parametrize("n", [1, 50, 40_000])
    def test_sample_is_one_sorted_block_row(self, dist, n):
        # every law, a data sample included, is drawn one way
        [want] = np.concatenate(list(_sorted_blocks(dist, n, 1, derive_rng(17, "sample"))))
        assert sample(dist, n, seed=17).values.tobytes() == want.tobytes()

    def test_open_uniforms_strictly_inside_unit_interval(self):
        # the extreme draws of rng.random(): 1 - 2^-53 plus the offset rounds
        # half-to-even to exactly 1.0 unless it is capped
        class ExtremeDraws:
            def random(self, n):
                return np.array([1.0 - 2.0 ** -53, 0.0])[:n]

        u = _open_uniforms(ExtremeDraws(), 2)
        assert np.all((u > 0.0) & (u < 1.0))
        assert np.all(np.isfinite(gaussian(0.0, 1.0).quantile_fn(u)))


class TestSortedBlocks:
    """Contract of the one generator of sorted-sample blocks."""

    @pytest.fixture()
    def small_budget(self, monkeypatch):
        # 7 rows of n = 7 per block, so 23 rows span four blocks
        monkeypatch.setattr(wshift.distributions, "_BLOCK_SCALARS", 50)

    def test_rows_add_up_across_block_boundaries(self, small_budget):
        blocks = list(_sorted_blocks(uniform01(), 7, 23, np.random.default_rng(1)))
        assert [b.shape for b in blocks] == [(7, 7), (7, 7), (7, 7), (2, 7)]

    def test_every_row_sorted(self, small_budget):
        # without replacement, 7 of 40 is drawn a row at a time and 7 of 60 a block at a time
        base, wide = EmpiricalDistribution(np.arange(40.0)), EmpiricalDistribution(np.arange(60.0))
        for dist, replace in ((gaussian(0.0, 1.0), True), (base, True), (base, False),
                              (wide, False)):
            for block in _sorted_blocks(dist, 7, 23, np.random.default_rng(2), replace):
                assert np.all(np.diff(block, axis=1) >= 0)

    def test_analytic_rows_equal_one_unblocked_draw(self, small_budget):
        dist = tail_distribution(0.3)
        got = np.concatenate(list(_sorted_blocks(dist, 7, 23, np.random.default_rng(3))))
        want = np.sort(dist.quantile_fn(
            _open_uniforms(np.random.default_rng(3), 23 * 7).reshape(23, 7)), axis=1)
        assert np.array_equal(got, want)

    def test_resampling_with_replacement_yields_sample_values(self, small_budget):
        base = EmpiricalDistribution([0.5, 1.5, 4.0])
        rows = np.concatenate(list(_sorted_blocks(base, 7, 23, np.random.default_rng(4))))
        assert rows.shape == (23, 7)
        assert set(np.unique(rows)) <= {0.5, 1.5, 4.0}

    @pytest.mark.parametrize("budget", [7, 20, 50])
    def test_resampled_rows_do_not_depend_on_the_budget(self, monkeypatch, budget):
        """Resampled rows, with replacement or without, do not depend on the block size.

        7 of 60 values without replacement is drawn a block at a time. The one
        exception is a subset row drawn again for lack of distinct values: its
        draws follow its block, so the rows from it on depend on where the
        block ends. At seed 8 no row is drawn again.
        """
        # 1, 2 and 7 rows of n = 7 per block: blocks of 7, 14 and 49 indices
        base = EmpiricalDistribution(np.arange(60.0) ** 2)

        def rows(replace):
            return np.concatenate(list(_sorted_blocks(base, 7, 23, np.random.default_rng(8),
                                                      replace)))

        unblocked = [rows(True), rows(False)]
        monkeypatch.setattr(wshift.distributions, "_BLOCK_SCALARS", budget)
        assert np.array_equal(rows(True), unblocked[0])
        assert np.array_equal(rows(False), unblocked[1])

    def test_resampling_without_replacement_yields_distinct_indices(self, small_budget):
        base = EmpiricalDistribution(np.arange(10.0))  # value k sits at index k
        rows = np.concatenate(list(_sorted_blocks(base, 7, 23, np.random.default_rng(5),
                                                  replace=False)))
        assert rows.shape == (23, 7)
        assert np.all(np.diff(rows, axis=1) > 0)

    def test_scored_blocks_memory(self):
        # 3000 rows of n = 1000 in blocks of 32 rows (8 MB blocks peaked near 16 MiB)
        plan = plan_scaled_statistic(uniform01(), lebesgue(), 1000)
        tracemalloc.start()
        try:
            for block in _sorted_blocks(uniform01(), 1000, 3000, np.random.default_rng(7)):
                scaled_statistics(block, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_without_replacement_needs_enough_observations(self):
        base = EmpiricalDistribution(np.arange(5.0))
        with pytest.raises(ParameterError, match="without replacement"):
            next(_sorted_blocks(base, 6, 3, np.random.default_rng(6), replace=False))


def _assert_uniform_subsets(rows, N: int) -> None:
    """Each row is an increasing n-subset of ``range(N)``, and each of the
    C(N, n) subsets appears at its expected frequency.

    A subset's count over R rows is Binomial(R, 1/C). The bound is 5 standard
    deviations: a two-sided chance of 5.7e-7 for one subset, and below 1.2e-3
    over the 2024 subsets of the largest case.
    """
    rows = np.asarray(rows).astype(np.int64)
    reps, n = rows.shape
    assert np.all(np.diff(rows, axis=1) > 0) and rows.min() >= 0 and rows.max() < N
    _, counts = np.unique(rows @ N ** np.arange(n), return_counts=True)
    p = 1.0 / math.comb(N, n)
    assert counts.size == math.comb(N, n)  # every subset appears
    assert np.all(np.abs(counts - reps * p) <= 5.0 * math.sqrt(reps * p * (1.0 - p)))


class CountingDraws:
    """A generator that records the shape of each ``integers`` draw."""

    def __init__(self, seed):
        self.rng, self.shapes = np.random.default_rng(seed), []

    def integers(self, *args, size, **kwargs):
        self.shapes.append(size)
        return self.rng.integers(*args, size=size, **kwargs)


class TestSubsetsWithoutReplacement:
    """Exactness of subsampling without replacement, on both of its paths."""

    @pytest.mark.parametrize("N, n", [(9, 1), (9, 2), (9, 4)])
    def test_every_subset_is_equally_likely(self, N, n):
        # 8n <= N draws 1 of 9 a block at a time; 2 and 4 of 9 one row at a time
        base = EmpiricalDistribution(np.arange(float(N)))  # value k sits at index k
        reps = 400 * math.comb(N, n)
        _assert_uniform_subsets(np.concatenate(list(_sorted_blocks(
            base, n, reps, np.random.default_rng(14), replace=False))), N)

    @pytest.mark.parametrize("N, n", [(9, 2), (9, 4), (9, 8)])
    def test_block_subsets_are_uniform_at_any_size(self, N, n):
        # the block sampler is exact for every n <= N, not only where it is used
        _assert_uniform_subsets(
            _distinct_subsets(np.random.default_rng(15), N, n, 400 * math.comb(N, n)), N)

    @pytest.mark.parametrize("N, n", [(16, 2), (24, 3)])
    def test_redrawn_rows_stay_uniform(self, monkeypatch, N, n):
        # with no margin a row holds only the mean number of draws, so many rows
        # fall short of n distinct values and are drawn again at twice the width
        monkeypatch.setattr(wshift.distributions, "_SUBSET_SDS", 0.0)
        monkeypatch.setattr(wshift.distributions, "_SUBSET_PAD", 0)
        base = EmpiricalDistribution(np.arange(float(N)))
        rng = CountingDraws(16)
        rows = np.concatenate(list(_sorted_blocks(base, n, 400 * math.comb(N, n), rng,
                                                  replace=False)))
        width = _subset_width(N, n)
        assert {shape[1] for shape in rng.shapes} >= {width, 2 * width}
        _assert_uniform_subsets(rows, N)

    def test_the_block_path_needs_8n_at_most_N(self, monkeypatch):
        calls = []

        def spy(rng, N, n, m):
            calls.append((N, n))
            return _distinct_subsets(rng, N, n, m)

        monkeypatch.setattr(wshift.distributions, "_distinct_subsets", spy)
        for N, n in ((80, 10), (79, 10), (8000, 1000), (8000, 1001)):
            base = EmpiricalDistribution(np.arange(float(N)))
            rows = np.concatenate(list(_sorted_blocks(base, n, 3, np.random.default_rng(17),
                                                      replace=False)))
            assert np.all(np.diff(rows, axis=1) > 0)
        assert calls == [(80, 10), (8000, 1000)]


# Laws drawn by inverse transform: every quantile shape ``_sorted_blocks`` maps
# sorted uniforms through, a deliberately non-monotone one included.
INVERSE_TRANSFORM_LAWS = {
    "uniform01": uniform01(),
    "gaussian": gaussian(0.0, 1.0, -8.0, 8.0),
    "sine": sine_distribution(0.9),
    "tail": tail_distribution(0.3),
    "displacement": displacement_interpolate(uniform01(), gaussian(0.0, 1.0, -8.0, 8.0), 0.3),
    "non-monotone": dataclasses.replace(uniform01(), quantile_fn=lambda u: np.cos(9.0 * u)),
}


class SharedDraws:
    """A generator's ``random`` that counts calls across every instance of one ``log``.

    Each call records its thread; the call numbered ``fail`` raises, and the
    calls after the first wait for ``gate`` when one is given.
    """

    def __init__(self, seed, log, fail=None, gate=None):
        self.rng, self.log, self.fail, self.gate = np.random.default_rng(seed), log, fail, gate

    def random(self, size):
        self.log.append(threading.get_ident())
        if self.gate is not None and len(self.log) > 1:
            self.gate.wait()
        if len(self.log) == self.fail:
            raise RuntimeError("draw failed")
        return self.rng.random(size)


class TestSortedUniforms:
    """Sorting the uniforms before the quantile, with two blocks drawn ahead."""

    @pytest.fixture(params=[1, 2], ids=["inline", "worker"])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(wshift.distributions, "_available_cpus", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("name", INVERSE_TRANSFORM_LAWS)
    @pytest.mark.parametrize("n, reps", [(7, 23), (1000, 300), (40000, 3)])
    def test_rows_equal_sorting_after_the_quantile(self, cpus, name, n, reps):
        # the reference maps all the uniforms at once, then sorts each row
        dist = INVERSE_TRANSFORM_LAWS[name]
        got = np.concatenate(list(_sorted_blocks(dist, n, reps, np.random.default_rng(9))))
        u = _open_uniforms(np.random.default_rng(9), reps * n).reshape(reps, n)
        assert got.tobytes() == np.sort(dist.quantile_fn(u), axis=1).tobytes()

    def test_rows_do_not_depend_on_the_budget(self, monkeypatch):
        # 32 rows of n = 1000 per block, or all 300 rows in one
        def rows(budget):
            monkeypatch.setattr(wshift.distributions, "_BLOCK_SCALARS", budget)
            return np.concatenate(list(_sorted_blocks(
                INVERSE_TRANSFORM_LAWS["displacement"], 1000, 300, np.random.default_rng(13))))

        assert rows(1 << 15).tobytes() == rows(1 << 20).tobytes()

    def test_closing_after_the_first_block_stops_the_worker(self, monkeypatch):
        monkeypatch.setattr(wshift.distributions, "_available_cpus", lambda: 2)
        before = threading.active_count()
        blocks = _sorted_blocks(uniform01(), 1000, 300, np.random.default_rng(10))
        next(blocks)
        assert threading.active_count() == before + 1  # drawing the next block
        blocks.close()
        assert threading.active_count() == before

    def test_a_failed_draw_reaches_the_caller(self, cpus):
        class FailsOnSecondBlock:
            def __init__(self):
                self.calls, self.rng = 0, np.random.default_rng(11)

            def random(self, size):
                self.calls += 1
                if self.calls == 2:
                    raise RuntimeError("draw failed")
                return self.rng.random(size)

        before = threading.active_count()
        blocks = _sorted_blocks(uniform01(), 1000, 300, FailsOnSecondBlock())
        next(blocks)
        with pytest.raises(RuntimeError, match="draw failed"):
            next(blocks)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n, reps, budget", [(7, 23, 50), (1000, 300, 1 << 15)],
                             ids=["short-last-block", "tile"])
    def test_interleaved_rows_equal_each_cell_drawn_alone(self, monkeypatch, cpus, n, reps,
                                                          budget):
        # 7 rows per block, 4 blocks of 7, 7, 7 and 2 rows; or 32 rows, the last block 12;
        # a resampled cell rides along, drawn inline between the others
        monkeypatch.setattr(wshift.distributions, "_BLOCK_SCALARS", budget)
        laws = [*INVERSE_TRANSFORM_LAWS.values(), EmpiricalDistribution(np.arange(40.0))]
        cells = [(dist, np.random.default_rng(c)) for c, dist in enumerate(laws)]
        order, rows = [], {c: [] for c in range(len(laws))}
        for c, block in _interleaved_blocks(cells, n, reps):
            order.append(c)
            rows[c].append(block)
        blocks = -(-reps // max(1, budget // n))
        assert order == list(range(len(laws))) * blocks  # round-robin
        for c, dist in enumerate(laws):
            alone = np.concatenate(list(_sorted_blocks(dist, n, reps, np.random.default_rng(c))))
            assert np.concatenate(rows[c]).tobytes() == alone.tobytes()

    def test_closing_with_two_draws_in_flight_leaves_no_worker(self, monkeypatch):
        # the second draw waits for the gate while the third is queued behind it
        monkeypatch.setattr(wshift.distributions, "_available_cpus", lambda: 2)
        log, gate = [], threading.Event()
        cells = [(uniform01(), SharedDraws(c, log, gate=gate)) for c in range(3)]
        before = threading.active_count()
        blocks = _interleaved_blocks(cells, 1000, 100)
        next(blocks)
        assert threading.active_count() == before + 1
        opener = threading.Timer(1.0, gate.set)
        opener.start()
        blocks.close()
        opener.join()
        assert len(log) == 2  # the queued draw was cancelled, not run
        assert threading.active_count() == before

    def test_the_worker_draws_two_blocks_ahead(self, monkeypatch):
        # while the caller holds the first block, draws 2 and 3 run, and no fourth
        monkeypatch.setattr(wshift.distributions, "_available_cpus", lambda: 2)
        log = []
        blocks = _interleaved_blocks([(uniform01(), SharedDraws(c, log)) for c in range(2)],
                                     1000, 100)
        next(blocks)
        deadline = time.monotonic() + 10.0
        while len(log) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.05)
        assert len(log) == 3
        blocks.close()

    def test_at_most_one_worker_thread(self, cpus):
        log = []
        cells = [(dist, SharedDraws(c, log)) for c, dist in enumerate(
            INVERSE_TRANSFORM_LAWS.values())]
        before = threading.active_count()
        for _ in _interleaved_blocks(cells, 1000, 100):
            assert threading.active_count() <= before + 1
        workers = set(log) - {threading.get_ident()}
        assert len(workers) == cpus - 1
        assert len(log) == 4 * len(cells)  # 4 blocks of at most 32 rows per cell
        assert threading.active_count() == before

    @pytest.mark.parametrize("fail", [2, 3], ids=["first-slot", "second-slot"])
    def test_a_failed_draw_in_either_slot_reaches_the_caller(self, cpus, fail):
        # after the first block, draws 2 and 3 are the two in flight on a worker
        log = []
        cells = [(uniform01(), SharedDraws(c, log, fail=fail)) for c in range(2)]
        before = threading.active_count()
        blocks = _interleaved_blocks(cells, 1000, 100)
        for _ in range(fail - 1):
            next(blocks)
        with pytest.raises(RuntimeError, match="draw failed"):
            next(blocks)
        assert threading.active_count() == before

    @pytest.mark.parametrize("weight, n, exact", [
        (lebesgue(), 10, 1.0 / 6.0),
        (lebesgue(), 1000, 1.0 / 6.0),
        (quadratic_weight(2.0), 10, 0.160778),
        (quadratic_weight(2.0), 1000, 0.155611),
    ], ids=["lebesgue-10", "lebesgue-1000", "quadratic2-10", "quadratic2-1000"])
    def test_exact_mean_under_the_uniform_null(self, monkeypatch, weight, n, exact):
        # U_(j) is Beta(j, n + 1 - j) and the plan is exact for a polynomial
        # weight, so E[stat] = n (sum_j m0_j (Var U_(j) + (E U_(j) - center_j)^2)
        # + spread) at every n; 2 * 10^7 values span hundreds of blocks
        monkeypatch.setattr(wshift.distributions, "_available_cpus", lambda: 2)
        reps = 20_000_000 // n
        plan = plan_scaled_statistic(uniform01(), weight, n)
        stats = np.concatenate([scaled_statistics(block, plan) for block in _sorted_blocks(
            uniform01(), n, reps, np.random.default_rng(12))])
        se = stats.std(ddof=1) / math.sqrt(reps)
        assert abs(stats.mean() - exact) <= 4.0 * se
        assert abs(_exact_uniform_null_mean(weight, n) - exact) <= 1e-6

    @pytest.mark.parametrize("weight", [lebesgue(trim=0.1), quadratic_weight(2.0, trim=0.05)],
                             ids=["lebesgue-trim0.1", "quadratic2-trim0.05"])
    @pytest.mark.parametrize("n", [10, 1000])
    def test_exact_mean_under_a_trimmed_weight(self, weight, n):
        # over 30 seeds per cell, z = (mean - exact) / SE had standard deviation
        # 0.97 to 1.05 and |z| <= 3.2; the bound is 4 SE at seed 12
        plan = plan_scaled_statistic(uniform01(), weight, n)
        stats = np.concatenate([scaled_statistics(block, plan) for block in _sorted_blocks(
            uniform01(), n, 20_000, np.random.default_rng(12))])
        se = stats.std(ddof=1) / math.sqrt(stats.size)
        assert abs(stats.mean() - _exact_uniform_null_mean(weight, n)) <= 4.0 * se

    @pytest.mark.parametrize("null", [sine_distribution(0.5), gaussian(0.0, 1.0, -3.0, 3.0)],
                             ids=["sine0.5", "gaussian-trunc3"])
    @pytest.mark.parametrize("n", [10, 1000])
    def test_exact_mean_under_a_non_uniform_null(self, null, n):
        # one set of draws per null, scored under both weights; over seeds 0 to 29,
        # z = (mean - exact) / SE had standard deviation 0.93 to 1.06 and |z| <= 2.6
        weights = (lebesgue(), quadratic_weight(2.0, trim=0.05))
        plans = [plan_scaled_statistic(null, omega, n) for omega in weights]
        stats = [[], []]
        for block in _sorted_blocks(null, n, 20_000, np.random.default_rng(12)):
            for scored, plan in zip(stats, plans):
                scored.append(scaled_statistics(block, plan))
        for omega, scored in zip(weights, stats):
            scored = np.concatenate(scored)
            se = scored.std(ddof=1) / math.sqrt(scored.size)
            assert abs(scored.mean() - _exact_null_mean(null, omega, n)) <= 4.0 * se

    def test_exact_null_mean_reproduces_the_uniform_closed_form(self):
        for omega in (lebesgue(), quadratic_weight(2.0, trim=0.05)):
            for n in (10, 1000):
                got = _exact_null_mean(uniform01(), omega, n)
                assert got == pytest.approx(_exact_uniform_null_mean(omega, n), rel=1e-8)


def _exact_null_mean(null, omega, n: int) -> float:
    """``E[n W2^2]`` of n draws from an analytic null against it, by quadrature.

    On slot j, ((j-1)/n, j/n), the empirical quantile is ``X_(j) = Q(U_(j))`` with
    ``U_(j)`` ~ Beta(j, n + 1 - j), so the mean is
    ``n sum_j (A_j E X_(j)^2 - 2 B_j E X_(j) + C_j)``, where A_j, B_j and C_j integrate
    omega, omega Q and omega Q^2 over slot j cut to the window (64 Gauss-Legendre nodes),
    and ``E X_(j)^k`` integrates ``Q^k`` against the Beta density over its mean +- 20 SD
    (256 nodes; the mass left out is below 1e-9).
    """
    from scipy.special import betaln

    t, w = np.polynomial.legendre.leggauss(64)
    j = np.arange(1, n + 1)[:, None]
    lo, hi = omega.window
    a, b = np.clip((j - 1) / n, lo, hi), np.clip(j / n, lo, hi)
    u = a + (b - a) * (t + 1.0) / 2.0
    slot = (b - a) / 2.0 * w * omega.density(u)
    q = null.quantile_fn(u)
    tb, wb = np.polynomial.legendre.leggauss(256)
    mean = j / (n + 1.0)
    sd = np.sqrt(j * (n + 1.0 - j) / ((n + 1.0) ** 2 * (n + 2.0)))
    v_lo, v_hi = np.maximum(mean - 20.0 * sd, 0.0), np.minimum(mean + 20.0 * sd, 1.0)
    v = v_lo + (v_hi - v_lo) * (tb + 1.0) / 2.0
    beta = (v_hi - v_lo) / 2.0 * wb * np.exp(
        (j - 1) * np.log(v) + (n - j) * np.log1p(-v) - betaln(j, n + 1 - j))
    qv = null.quantile_fn(v)
    first, second = (beta * qv).sum(axis=1), (beta * qv * qv).sum(axis=1)
    return n * float(np.sum(slot.sum(axis=1) * second - 2.0 * (slot * q).sum(axis=1) * first
                            + (slot * q * q).sum(axis=1)))


def _exact_uniform_null_mean(omega, n: int) -> float:
    """``E[n W2^2]`` of n uniform draws against the uniform null, from Beta order statistics.

    The empirical quantile is ``U_(j)`` ~ Beta(j, n + 1 - j) on the slot ((j-1)/n, j/n),
    with ``E U_(j) = j/(n+1)`` and ``E U_(j)^2 = j(j+1)/((n+1)(n+2))``, so the mean is
    ``n sum_j (E U_(j)^2 I0_j - 2 E U_(j) I1_j + I2_j)``, where ``Ik_j`` integrates
    ``u^k`` against the (polynomial) weight over slot j cut to the window.
    """
    poly = np.polynomial.polynomial
    j = np.arange(1, n + 1)
    lo, hi = omega.window
    a, b = np.clip((j - 1) / n, lo, hi), np.clip(j / n, lo, hi)
    i0, i1, i2 = (poly.polyval(b, anti) - poly.polyval(a, anti)
                  for anti in (poly.polyint(np.concatenate([np.zeros(k), omega.poly]))
                               for k in range(3)))
    first, second = j / (n + 1), j * (j + 1) / ((n + 1) * (n + 2))
    return n * float(np.sum(second * i0 - 2.0 * first * i1 + i2))


class TestTransformations:
    def test_truncate_renormalizes(self):
        t = truncate(uniform01(), 0.2, 0.7)
        assert abs(t.cdf(0.45) - 0.5) < 1e-12
        assert abs(t.quantile(0.5) - 0.45) < 1e-12
        assert t.support == (0.2, 0.7)
        assert truncate(gaussian(0.0, 1.0), -8.0, 8.0).support == (-8.0, 8.0)

    def test_truncated_gaussian_matches_parent_inside(self):
        g = gaussian(0.0, 1.0)
        t = truncate(g, -8.0, 8.0)
        u = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(t.quantile(u) - g.quantile(u))) < 1e-9

    def test_truncate_zero_mass_window(self):
        with pytest.raises(ParameterError, match="zero mass"):
            truncate(uniform01(), 5.0, 6.0)

    def test_truncate_empirical(self):
        d = EmpiricalDistribution([0.0, 1.0, 2.0, 3.0])
        t = truncate(d, 0.5, 2.5)
        assert list(t.values) == [1.0, 2.0]

    def test_affine_positive_scale(self):
        g = gaussian(0.0, 1.0)
        h = affine(g, 2.0, 1.0)
        u = np.linspace(0.05, 0.95, 19)
        assert np.allclose(h.quantile(u), 2.0 * g.quantile(u) + 1.0, atol=1e-12)

    def test_affine_negative_scale(self):
        # -X ~ N(0,1) again by symmetry
        g = gaussian(0.0, 1.0)
        h = affine(g, -1.0)
        u = np.linspace(0.05, 0.95, 19)
        assert np.allclose(h.quantile(u), g.quantile(u), atol=1e-12)

    def test_affine_empirical(self):
        d = EmpiricalDistribution([1.0, 3.0])
        h = affine(d, -2.0, 1.0)
        assert list(h.values) == [-5.0, -1.0]

    def test_affine_zero_scale_rejected(self):
        with pytest.raises(ParameterError):
            affine(uniform01(), 0.0)


class TestTwoPoint:
    def test_quantile_step(self):
        d = two_point(0.0, 1.0)
        assert d.quantile(0.3) == 0.0
        assert d.quantile(0.5) == 0.0
        assert d.quantile(0.51) == 1.0

    def test_cdf_step(self):
        d = two_point(0.0, 1.0)
        assert d.cdf(-0.1) == 0.0
        assert d.cdf(0.0) == 0.5
        assert d.cdf(0.99) == 0.5
        assert d.cdf(1.0) == 1.0

    def test_ordering_validated(self):
        with pytest.raises(ParameterError):
            two_point(1.0, 1.0)

    def test_no_density(self):
        d = two_point(0.0, 1.0)
        assert d.density_fn is None
        with pytest.raises(ParameterError):
            d.density(0.5)
