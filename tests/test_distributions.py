"""Tests for the distribution primitives and built-in families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wshift.distributions import (
    EmpiricalDistribution,
    _open_uniforms,
    affine,
    empirical_quantile,
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
from wshift.transport import displacement_interpolate, linear_interpolate


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
    pytest.param(linear_interpolate(uniform01(), tail_distribution(0.3), 0.4), id="mixture"),
    pytest.param(_DATA, id="empirical"),
]


class TestDistributionProtocol:
    @pytest.mark.parametrize("dist", EVERY_LAW_KIND)
    def test_fields_present(self, dist):
        assert isinstance(dist.name, str) and dist.name
        assert callable(dist.quantile_fn) and callable(dist.cdf_fn)
        assert dist.density_fn is None or callable(dist.density_fn)
        assert dist.sampler_fn is None or callable(dist.sampler_fn)
        assert isinstance(dist.bounded_support, bool)
        assert isinstance(dist.quantile_is_identity, bool)
        bks = np.asarray(dist.quantile_breakpoints, dtype=float)
        assert np.all((bks > 0.0) & (bks < 1.0)) and np.all(np.diff(bks) > 0.0)
        lo, hi = dist.support
        assert lo <= hi

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
        assert d.density_fn is None and d.sampler_fn is None
        assert d.bounded_support and not d.quantile_is_identity


class TestEmpirical:
    def test_single_sample_constant(self):
        d = EmpiricalDistribution([3.0])
        assert empirical_quantile(d, 0.7) == 3.0

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

    @pytest.mark.parametrize("p", [0.025, 0.1, 0.3, 0.5])
    def test_strictly_increasing_on_grid(self, p):
        u = np.linspace(0.0, 1.0, 10_000)
        q = tail_quantile(p, u)
        # slope bounded below by 1 - 0.45
        assert np.all(np.diff(q) >= 0.5 * (1.0 / 9999))


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

    def test_open_uniforms_strictly_inside_unit_interval(self):
        # the extreme draws of rng.random(): 1 - 2^-53 plus the offset rounds
        # half-to-even to exactly 1.0 unless it is capped
        class ExtremeDraws:
            def random(self, n):
                return np.array([1.0 - 2.0 ** -53, 0.0])[:n]

        u = _open_uniforms(ExtremeDraws(), 2)
        assert np.all((u > 0.0) & (u < 1.0))
        assert np.all(np.isfinite(gaussian(0.0, 1.0).quantile_fn(u)))


class TestTransformations:
    def test_truncate_renormalizes(self):
        t = truncate(uniform01(), 0.2, 0.7)
        assert abs(t.cdf(0.45) - 0.5) < 1e-12
        assert abs(t.quantile(0.5) - 0.45) < 1e-12
        assert t.support == (0.2, 0.7)
        assert t.bounded_support

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
        assert not d.has_density
        with pytest.raises(ParameterError):
            d.density(0.5)
