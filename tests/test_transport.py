"""Tests for weight measures, distances, and interpolation paths."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wshift.distributions import (
    EmpiricalDistribution,
    affine,
    gaussian,
    sample,
    sine_distribution,
    tail_distribution,
    two_point,
    truncate,
    uniform01,
)
from wshift.errors import ParameterError, UnboundedSupportError
from wshift.transport import (
    Histogram,
    custom_weight,
    displacement_interpolate,
    lebesgue,
    linear_interpolate,
    plan_scaled_statistic,
    quadratic_weight,
    relative_distance_curve,
    scaled_statistics,
    transport_map,
    tv_distance,
    w2_weighted,
    w2_weighted_squared,
    wp_distance,
)


def riemann_sq_gap(mu, nu, omega, m=2_000_001):
    """Independent oracle: midpoint Riemann sum of the squared quantile gap."""
    u = (np.arange(m) + 0.5) / m
    qa = mu.quantile(u) if isinstance(mu, EmpiricalDistribution) else mu.quantile_fn(u)
    qb = nu.quantile(u) if isinstance(nu, EmpiricalDistribution) else nu.quantile_fn(u)
    return float(np.sum((qa - qb) ** 2 * omega.density(u)) / m)


class TestWeightMeasures:
    @pytest.mark.parametrize("a", [0.0, 1.0, 2.0, 6.0])
    def test_quadratic_unit_mass(self, a):
        # numerical integration oracle on a fine grid
        w = quadratic_weight(a)
        u = (np.arange(1_000_001) + 0.5) / 1_000_001
        assert abs(np.mean(w.density_fn(u)) - 1.0) < 1e-10
        assert w.total_mass == 1.0

    def test_quadratic_positivity_bound(self):
        with pytest.raises(ParameterError):
            quadratic_weight(12.0)
        with pytest.raises(ParameterError):
            quadratic_weight(-0.5)

    def test_custom_weight_mass(self):
        w = custom_weight(lambda u: 2.0 * u)
        assert abs(w.total_mass - 1.0) < 1e-6

    def test_trim_window(self):
        w = lebesgue(trim=0.1)
        assert w.window == (0.1, 0.9)
        assert w.density(0.05) == 0.0
        assert w.density(0.5) == 1.0
        with pytest.raises(ParameterError):
            lebesgue(trim=0.5)


class TestWeightedDistance:
    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
    def test_sine_closed_form(self, p):
        got = w2_weighted_squared(uniform01(), sine_distribution(p))
        want = p * p / (8.0 * math.pi ** 2)
        assert abs(got - want) <= 1e-6 * want

    def test_identical_zero(self):
        for omega in (lebesgue(), quadratic_weight(2.0), lebesgue(trim=0.05)):
            assert w2_weighted(uniform01(), uniform01(), omega) == 0.0

    def test_truncated_gaussian_pair(self):
        # closed-form Gaussian W2^2 = tau^2 + (sigma - 1)^2 = 2, up to truncation
        a = gaussian(0.0, 1.0, -8.0, 8.0)
        b = gaussian(1.0, 2.0, -15.0, 17.0)
        got = w2_weighted_squared(a, b)
        assert abs(got - 2.0) < 1e-3
        assert abs(got - riemann_sq_gap(a, b, lebesgue())) < 1e-6

    def test_unbounded_support_rejected(self):
        with pytest.raises(UnboundedSupportError, match="trim"):
            w2_weighted(gaussian(0.0, 1.0), uniform01())

    def test_trim_makes_unbounded_computable(self):
        got = w2_weighted_squared(gaussian(0.0, 1.0), uniform01(), lebesgue(trim=0.05))
        want = riemann_sq_gap(gaussian(0.0, 1.0), uniform01(), lebesgue(trim=0.05))
        assert abs(got - want) < 1e-6 * max(1.0, want)

    def test_symmetry_exact(self):
        a = sine_distribution(0.7)
        b = tail_distribution(0.3)
        for omega in (lebesgue(), quadratic_weight(2.0)):
            assert w2_weighted(a, b, omega) == w2_weighted(b, a, omega)

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(11)
        pool = [
            uniform01(),
            sine_distribution(0.9),
            tail_distribution(0.25),
            EmpiricalDistribution(rng.random(37)),
            truncate(gaussian(0.4, 0.3), -2.0, 3.0),
            two_point(0.1, 0.8),
        ]
        for omega in (lebesgue(), quadratic_weight(3.0)):
            for _ in range(10):
                a, b, c = rng.choice(len(pool), size=3, replace=False)
                dab = w2_weighted(pool[a], pool[b], omega)
                dbc = w2_weighted(pool[b], pool[c], omega)
                dac = w2_weighted(pool[a], pool[c], omega)
                assert dac <= dab + dbc + 1e-9

    @pytest.mark.parametrize("a", [-2.0, 0.5, 3.0])
    def test_affine_equivariance(self, a):
        # symmetric weights: W(aX+b, aY+b) = |a| W(X, Y)
        x = sine_distribution(0.6)
        y = tail_distribution(0.4)
        for omega in (lebesgue(), quadratic_weight(2.0)):
            base = w2_weighted(x, y, omega)
            moved = w2_weighted(affine(x, a, 1.3), affine(y, a, 1.3), omega)
            assert abs(moved - abs(a) * base) < 1e-9

    def test_empirical_matches_riemann_oracle(self):
        rng = np.random.default_rng(3)
        emp = EmpiricalDistribution(rng.random(37))
        cases = [
            (emp, uniform01(), lebesgue()),
            (emp, uniform01(), quadratic_weight(2.0)),
            (emp, truncate(gaussian(0.3, 0.7), -3.0, 4.0), lebesgue()),
            (emp, EmpiricalDistribution(rng.random(23) * 2.0), quadratic_weight(1.0)),
            (emp, two_point(0.0, 1.0), lebesgue(trim=0.02)),
            (emp, uniform01(), custom_weight(lambda u: 1.0 + u)),
        ]
        for mu, nu, omega in cases:
            got = w2_weighted_squared(mu, nu, omega)
            want = riemann_sq_gap(mu, nu, omega)
            assert abs(got - want) <= 2e-4 * max(1.0, abs(want))


class TestWpDistance:
    def test_p2_agrees_with_weighted(self):
        a, b = uniform01(), sine_distribution(0.8)
        assert abs(wp_distance(a, b, 2.0) - w2_weighted(a, b)) < 1e-12

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_shift_is_constant(self, p):
        a = uniform01()
        b = affine(uniform01(), 1.0, 0.37)
        assert abs(wp_distance(a, b, p) - 0.37) < 1e-9

    def test_point_masses(self):
        d0 = EmpiricalDistribution([0.0])
        d1 = EmpiricalDistribution([1.0])
        assert abs(wp_distance(d0, d1, 1.0) - 1.0) < 1e-12

    def test_order_validated(self):
        with pytest.raises(ParameterError):
            wp_distance(uniform01(), uniform01(), 0.5)


class TestTransportMap:
    def test_gaussian_affine(self):
        t = transport_map(gaussian(0.0, 1.0), gaussian(1.0, 2.0))
        xs = np.array([-2.0, 0.0, 0.5, 3.0])
        assert np.max(np.abs(t(xs) - (2.0 * xs + 1.0))) < 1e-9

    def test_identity_transport(self):
        t = transport_map(uniform01(), uniform01())
        assert abs(t(0.42) - 0.42) < 1e-12

    def test_sine_example(self):
        t = transport_map(uniform01(), sine_distribution(0.5))
        want = 0.25 + (0.5 / (2.0 * math.pi)) * math.sin(math.pi / 2.0)
        assert abs(t(0.25) - want) < 1e-9

    def test_domain_checked(self):
        t = transport_map(uniform01(), sine_distribution(0.5))
        with pytest.raises(ParameterError):
            t(1.5)

    def test_pushforward_matches_target(self):
        # samples mapped through T should look like the target (KS closeness)
        from wshift.hypotest import ks_statistic
        t = transport_map(uniform01(), tail_distribution(0.3))
        src = sample(uniform01(), 20_000, seed=8)
        pushed = EmpiricalDistribution(t(src.values))
        assert ks_statistic(pushed, tail_distribution(0.3)) < 2.0


class TestDisplacementInterpolation:
    def test_endpoints(self):
        p, q = uniform01(), sine_distribution(0.5)
        assert displacement_interpolate(p, q, 0.0) is p
        assert displacement_interpolate(p, q, 1.0) is q

    def test_gaussian_displacement(self):
        got = displacement_interpolate(gaussian(0.0, 1.0), gaussian(1.0, 2.0), 0.5)
        want = gaussian(0.5, 1.5)
        u = np.linspace(0.001, 0.999, 1000)
        assert np.max(np.abs(got.quantile_fn(u) - want.quantile_fn(u))) < 1e-9

    def test_quantile_identity_pointwise(self):
        p, q = uniform01(), tail_distribution(0.3)
        eps = 0.37
        mid = displacement_interpolate(p, q, eps)
        u = np.linspace(0.0005, 0.9995, 1000)
        want = (1 - eps) * p.quantile_fn(u) + eps * q.quantile_fn(u)
        assert np.array_equal(mid.quantile_fn(u), want)

    @pytest.mark.parametrize("p_order", [1.0, 2.0])
    def test_geodesic_identity(self, p_order):
        a, b = uniform01(), sine_distribution(0.8)
        total = wp_distance(a, b, p_order)
        for eps in np.linspace(0.0, 1.0, 11):
            mid = displacement_interpolate(a, b, float(eps))
            assert abs(wp_distance(a, mid, p_order) - eps * total) < 1e-6

    def test_geodesic_ratio_by_quadrature(self):
        a, b = uniform01(), sine_distribution(0.8)
        mid = displacement_interpolate(a, b, 0.3)
        ratio = w2_weighted(a, mid) / w2_weighted(a, b)
        assert abs(ratio - 0.3) < 1e-6

    def test_parameter_validated(self):
        with pytest.raises(ParameterError):
            displacement_interpolate(uniform01(), uniform01(), 1.5)

    def test_discrete_target_splits_support(self):
        # moving the uniform toward a two-point law opens a gap around 1/2:
        # the quantile jumps from (1 - eps)/2 to (1 - eps)/2 + eps at u = 1/2
        eps = 0.4
        mid = displacement_interpolate(uniform01(), two_point(0.0, 1.0), eps)
        below = float(mid.quantile_fn(np.asarray(0.5)))
        above = float(mid.quantile_fn(np.asarray(np.nextafter(0.5, 1.0))))
        assert abs(below - (1 - eps) / 2) < 1e-12
        assert abs(above - below - eps) < 1e-12
        # and the distance to the discrete law is analytic: 2 int_0^1/2 u^2 du
        got = w2_weighted_squared(uniform01(), two_point(0.0, 1.0))
        assert abs(got - 1.0 / 12.0) < 1e-12


class TestLinearInterpolation:
    def test_endpoints(self):
        p, q = uniform01(), sine_distribution(0.5)
        assert linear_interpolate(p, q, 0.0) is p
        assert linear_interpolate(p, q, 1.0) is q

    def test_mixture_cdf_value(self):
        p = uniform01()
        q = affine(uniform01(), 1.0, 2.0)  # Unif[2, 3]
        mix = linear_interpolate(p, q, 0.5)
        assert abs(mix.cdf(0.5) - 0.25) < 1e-12

    def test_quantile_inverts_cdf(self):
        mix = linear_interpolate(uniform01(), gaussian(0.5, 0.2), 0.3)
        u = np.linspace(0.01, 0.99, 99)
        x = mix.quantile(u)
        assert np.max(np.abs(mix.cdf(x) - u)) < 1e-9

    def test_sampling_component_fractions(self):
        p = uniform01()
        q = affine(uniform01(), 1.0, 10.0)
        mix = linear_interpolate(p, q, 0.3)
        s = sample(mix, 20_000, seed=6)
        frac_target = float(np.mean(s.values > 5.0))
        assert abs(frac_target - 0.3) < 0.02


class TestTvDistance:
    def test_identical(self):
        rng = np.random.default_rng(0)
        d = EmpiricalDistribution(rng.random(100))
        assert tv_distance(d, d, bins=16) == 0.0

    def test_disjoint(self):
        a = EmpiricalDistribution([0.0, 0.1, 0.2])
        b = EmpiricalDistribution([5.0, 5.1, 5.2])
        assert tv_distance(a, b, bins=8) == 1.0

    def test_mixture_linearity_exact(self):
        # brute-force over bins: TV(P, (1-g) P + g Q) = g TV(P, Q)
        edges = np.array([0.0, 1.0, 2.0, 3.0])
        p = np.array([0.2, 0.5, 0.3])
        q = np.array([0.6, 0.1, 0.3])
        for g in (0.1, 0.4, 0.9):
            mix = Histogram(edges, (1 - g) * p + g * q)
            lhs = tv_distance(Histogram(edges, p), mix)
            rhs = g * tv_distance(Histogram(edges, p), Histogram(edges, q))
            assert abs(lhs - rhs) < 1e-12

    def test_mismatched_binning_rejected(self):
        h1 = Histogram(np.array([0.0, 1.0]), np.array([1.0]))
        h2 = Histogram(np.array([0.0, 2.0]), np.array([1.0]))
        with pytest.raises(ParameterError, match="binning"):
            tv_distance(h1, h2)

    def test_zero_width_bins_rejected(self):
        with pytest.raises(ParameterError, match="zero-width"):
            Histogram(np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.5]))

    def test_non_covering_rejected(self):
        h = Histogram(np.array([0.0, 1.0]), np.array([1.0]))
        d = EmpiricalDistribution([0.5, 2.0])
        with pytest.raises(ParameterError, match="cover"):
            tv_distance(h, d)


class TestRelativeDistanceCurve:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(12)
        series = [EmpiricalDistribution(rng.random(50) + t) for t in (0.0, 0.2, 1.0)]
        curve = relative_distance_curve(series, "w2")
        assert curve[0] == 0.0 and curve[-1] == 1.0

    def test_geodesic_midpoint(self):
        # large-sample oracle: samples along the path sit at relative distance ~t
        p, q = uniform01(), sine_distribution(0.8)
        series = [
            sample(displacement_interpolate(p, q, t), 50_000, seed=100 + i)
            for i, t in enumerate((0.0, 0.5, 1.0))
        ]
        curve = relative_distance_curve(series, "w2")
        assert abs(curve[1] - 0.5) < 0.07

    def test_w1_and_tv_metrics_run(self):
        rng = np.random.default_rng(4)
        series = [EmpiricalDistribution(rng.normal(t, 1.0, 400)) for t in (0.0, 0.5, 1.0)]
        for metric in ("w1", "tv"):
            curve = relative_distance_curve(series, metric)
            assert curve[0] == 0.0 and curve[-1] == 1.0

    def test_coinciding_endpoints_rejected(self):
        d = EmpiricalDistribution([1.0, 2.0])
        with pytest.raises(ParameterError, match="coincide"):
            relative_distance_curve([d, d], "w2")


class TestStatisticPlan:
    def test_plan_matches_direct_distance(self):
        rng = np.random.default_rng(5)
        values = np.sort(rng.random(200))
        emp = EmpiricalDistribution(values)
        cases = [
            (uniform01(), lebesgue()),
            (uniform01(), quadratic_weight(2.0)),
            (uniform01(), lebesgue(trim=0.05)),
            (truncate(gaussian(0.5, 0.4), -2.0, 3.0), lebesgue()),
            (EmpiricalDistribution(rng.random(500)), quadratic_weight(1.0)),
        ]
        for null, omega in cases:
            plan = plan_scaled_statistic(null, omega, 200)
            got = float(scaled_statistics(values[None, :], plan)[0]) / 200
            want = riemann_sq_gap(emp, null, omega)
            assert abs(got - want) <= 2e-4 * max(1.0, want)

    def test_batch_rows_independent(self):
        # batch BLAS vs per-row evaluation may reorder sums; values must agree
        rng = np.random.default_rng(6)
        x = np.sort(rng.random((4, 100)), axis=1)
        plan = plan_scaled_statistic(uniform01(), lebesgue(), 100)
        batch = scaled_statistics(x, plan)
        singles = [scaled_statistics(x[i][None, :], plan)[0] for i in range(4)]
        assert np.allclose(batch, singles, rtol=1e-12, atol=1e-15)

    def test_repeat_calls_bit_identical(self):
        rng = np.random.default_rng(6)
        x = np.sort(rng.random((4, 100)), axis=1)
        plan = plan_scaled_statistic(uniform01(), lebesgue(), 100)
        assert np.array_equal(scaled_statistics(x, plan), scaled_statistics(x, plan))

    def test_size_mismatch_rejected(self):
        plan = plan_scaled_statistic(uniform01(), lebesgue(), 10)
        with pytest.raises(ParameterError):
            scaled_statistics(np.zeros((2, 9)), plan)


# Values on a half-integer lattice give ties; free floats give distinct values.
_VALUES = st.lists(st.one_of(st.integers(-6, 6).map(lambda k: 0.5 * k),
                             st.floats(-3.0, 3.0, allow_nan=False)),
                   min_size=1, max_size=300)
_WEIGHTS = st.builds(
    lambda a, trim: lebesgue(trim) if a is None else quadratic_weight(a, trim),
    st.sampled_from([None, 0.0, 2.0, 11.0]),
    st.sampled_from([0.0, 0.05, 0.2, 0.25, 0.49]),
)


class TestSinglePlanLayout:
    @given(null_values=_VALUES, sample_values=_VALUES, omega=_WEIGHTS)
    @example(null_values=[0.0], sample_values=[1.0], omega=lebesgue())
    @example(null_values=[0.0, 1.0, 1.0], sample_values=[0.5, 2.0, 2.0, 2.0, 3.0],
             omega=quadratic_weight(2.0, 0.2))
    @settings(max_examples=150, deadline=None)
    def test_empirical_null_matches_direct_distance(self, null_values, sample_values,
                                                    omega):
        # ties, n = 1, n > N, n not dividing N and trimmed windows
        null = EmpiricalDistribution(null_values)
        x = np.sort(np.asarray(sample_values, dtype=float))
        plan = plan_scaled_statistic(null, omega, x.size)
        got = float(scaled_statistics(x[None, :], plan)[0]) / x.size
        want = w2_weighted_squared(EmpiricalDistribution(x), null, omega)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("null", [
        uniform01(),
        sine_distribution(0.5),
        truncate(gaussian(0.5, 0.4), -2.0, 3.0),
        EmpiricalDistribution([0.0, 1.0, 1.0, 4.0, 9.0]),
    ], ids=["uniform", "sine", "truncated-gaussian", "empirical"])
    @pytest.mark.parametrize("omega", [lebesgue(), quadratic_weight(2.0, trim=0.1)],
                             ids=["lebesgue", "quadratic-trimmed"])
    @pytest.mark.parametrize("n", [1, 3, 300])
    def test_one_moment_slot_per_observation(self, null, omega, n):
        plan = plan_scaled_statistic(null, omega, n)
        assert plan.m0.shape == plan.m1.shape == (n,)
