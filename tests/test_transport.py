"""Tests for weight measures, distances, and the displacement path."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wshift.transport
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
    _fd_edges,
    _panel_layout,
    _quadrature,
    _segment_edges,
    displacement_interpolate,
    lebesgue,
    plan_scaled_statistic,
    quadratic_weight,
    relative_distance_curve,
    scaled_statistics,
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

    def test_quadratic_positivity_bound(self):
        with pytest.raises(ParameterError):
            quadratic_weight(12.0)
        with pytest.raises(ParameterError):
            quadratic_weight(-0.5)

    def test_trim_window(self):
        w = lebesgue(trim=0.1)
        assert w.window == (0.1, 0.9)
        assert w.density(0.05) == 0.0
        assert w.density(0.5) == 1.0
        with pytest.raises(ParameterError):
            lebesgue(trim=0.5)

    @pytest.mark.parametrize("a", [0.0, 1.0, 6.0, 11.5])
    def test_quadratic_density_closed_form(self, a):
        # the stored coefficients expand a (u - 1/2)^2 + 1 - a/12
        u = np.linspace(0.0, 1.0, 1001)
        expected = a * (u - 0.5) ** 2 + 1.0 - a / 12.0
        assert np.max(np.abs(quadratic_weight(a).density_fn(u) - expected)) < 1e-13

    def test_describe(self):
        assert lebesgue(trim=0.1).describe() == {"tag": "lebesgue", "trim": 0.1}
        assert quadratic_weight(2, trim=0.01).describe() == {
            "tag": "quadratic", "trim": 0.01, "a": 2.0}


class TestWeightedDistance:
    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
    def test_sine_closed_form(self, p):
        got = w2_weighted_squared(uniform01(), sine_distribution(p))
        want = p * p / (8.0 * math.pi ** 2)
        assert abs(got - want) <= 1e-6 * want

    def test_identical_zero(self):
        values = np.random.default_rng(8).normal(size=301)
        emp, copy = EmpiricalDistribution(values), EmpiricalDistribution(values.copy())
        for omega in (lebesgue(), quadratic_weight(2.0), lebesgue(trim=0.05)):
            assert w2_weighted(uniform01(), uniform01(), omega) == 0.0
            assert w2_weighted(emp, copy, omega) == 0.0

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

    def test_an_infinite_support_end_needs_a_trim(self):
        # the support alone says whether the quantile diverges at an end of (0, 1)
        half_line = dataclasses.replace(truncate(gaussian(0.0, 1.0), -4.0, 4.0),
                                        quantile_fn=lambda u: np.log(u), support=(-math.inf, 0.0))
        with pytest.raises(UnboundedSupportError, match="trim"):
            w2_weighted_squared(half_line, uniform01())
        assert math.isfinite(w2_weighted_squared(half_line, uniform01(), lebesgue(trim=0.05)))

    def test_trim_makes_unbounded_computable(self):
        got = w2_weighted_squared(gaussian(0.0, 1.0), uniform01(), lebesgue(trim=0.05))
        want = riemann_sq_gap(gaussian(0.0, 1.0), uniform01(), lebesgue(trim=0.05))
        assert abs(got - want) < 1e-6 * max(1.0, want)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(9)
        emp = EmpiricalDistribution(rng.random(37))
        pairs = [(sine_distribution(0.7), tail_distribution(0.3)),
                 (emp, uniform01()),
                 (emp, EmpiricalDistribution(rng.random(23) * 2.0))]
        for a, b in pairs:
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

    @pytest.mark.parametrize("source, target", [
        (uniform01(), gaussian(0.0, 1.0, -8.0, 8.0)),
        (uniform01(), tail_distribution(0.3)),
        (gaussian(0.0, 1.0, -8.0, 8.0), uniform01()),
        (uniform01(), uniform01()),
    ], ids=["to-gaussian", "to-tail", "to-identity", "identity-both"])
    def test_quantile_keeps_its_input(self, source, target):
        # the bits of (1 - e) qa(u) + e qb(u); the identity quantile returns u
        # itself, and the sorted uniforms it maps must not change
        e = 0.37
        u = np.sort(np.random.default_rng(14).random((3, 500)), axis=1)
        kept = u.copy()
        got = displacement_interpolate(source, target, e).quantile_fn(u)
        want = (1.0 - e) * source.quantile_fn(kept) + e * target.quantile_fn(kept)
        assert got.tobytes() == want.tobytes()
        assert u.tobytes() == kept.tobytes()

    def test_breakpoints_are_the_unique_of_both_laws(self):
        # merged, not sorted again: the bits of one np.unique, in a read-only array
        rng = np.random.default_rng(16)
        a, b = EmpiricalDistribution(rng.random(1000)), EmpiricalDistribution(rng.random(300))
        mid = displacement_interpolate(a, b, 0.4)
        own = np.array([0.25, 0.5])  # a law's own writable array stays writable
        law = dataclasses.replace(uniform01(), quantile_breakpoints=own)
        for source, target in ((a, b), (b, a), (a, tail_distribution(0.5)),
                               (tail_distribution(0.5), sine_distribution(0.5)),
                               (mid, a), (law, mid), (uniform01(), law),
                               (uniform01(), sine_distribution(0.8))):
            got = displacement_interpolate(source, target, 0.3).quantile_breakpoints
            want = np.unique(np.concatenate([source.quantile_breakpoints,
                                             target.quantile_breakpoints]))
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert own.flags.writeable

    def test_laws_with_array_breakpoints_hash_and_compare(self):
        # breakpoints are left out of == and hash: an array field would make
        # hash() raise and == between two laws of equal size ambiguous
        rng = np.random.default_rng(17)
        a, b = EmpiricalDistribution(rng.random(500)), EmpiricalDistribution(rng.random(500))
        one, other = displacement_interpolate(a, b, 0.3), displacement_interpolate(a, b, 0.6)
        scaled = affine(one, 2.0, 1.0)
        assert isinstance(scaled.quantile_breakpoints, np.ndarray)
        assert len({one, other, scaled, one}) == 3
        assert one == one and one != other and scaled != one

    def test_between_samples_is_a_step_law(self):
        # its quantile is constant between the union of the two jump grids, so a
        # distance to it takes one midpoint per segment, as between two samples
        rng = np.random.default_rng(9)
        a = EmpiricalDistribution(rng.normal(0.0, 1.0, 700))
        b = EmpiricalDistribution(rng.normal(0.5, 1.5, 300))
        assert a.quantile_is_step and not uniform01().quantile_is_step
        assert not displacement_interpolate(a, uniform01(), 0.5).quantile_is_step
        total = w2_weighted(a, b)
        for t in (0.1, 0.5, 0.9):
            mid = displacement_interpolate(a, b, t)
            assert mid.quantile_is_step
            edges = _segment_edges(lebesgue(), a, mid)
            [(points, weights)] = _quadrature(edges, lebesgue(), a, mid)  # one block
            assert points.size == edges.size - 1
            assert math.isclose(weights.sum(), 1.0, rel_tol=1e-14)
            assert math.isclose(w2_weighted(a, mid), t * total, rel_tol=1e-14)

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


class TestTvDistance:
    def test_identical(self):
        h = Histogram(np.linspace(0.0, 1.0, 17), np.random.default_rng(0).random(16))
        assert tv_distance(h, h) == 0.0

    def test_disjoint(self):
        edges = np.array([0.0, 1.0, 2.0, 3.0])
        a = Histogram(edges, np.array([3.0, 0.0, 0.0]))
        b = Histogram(edges, np.array([0.0, 1.0, 2.0]))
        assert tv_distance(a, b) == 1.0

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

    def test_unnormalized_masses(self):
        edges = np.array([0.0, 1.0, 2.0, 3.0])
        p = np.array([0.2, 0.5, 0.3])
        q = np.array([0.6, 0.1, 0.3])
        unit = tv_distance(Histogram(edges, p), Histogram(edges, q))
        assert abs(unit - 0.4) < 1e-15
        assert tv_distance(Histogram(edges, 7.0 * p), Histogram(edges, 300.0 * q)) == unit


class TestHistogramQuantile:
    def test_mass_spreads_uniformly_over_each_bin(self):
        h = Histogram(np.array([0.0, 1.0, 3.0]), np.array([2.0, 2.0]))
        u = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(h.quantile(u), [0.0, 0.5, 1.0, 2.0, 3.0])

    def test_empty_bins_hold_no_quantile(self):
        h = Histogram(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0]))
        u = np.linspace(0.0, 1.0, 201)
        q = h.quantile(u)
        assert not np.any((q > 1.0) & (q < 2.0))
        assert h.quantile(np.array([0.75]))[0] == 2.5

    def test_inverts_the_binned_cdf(self):
        rng = np.random.default_rng(5)
        edges = np.cumsum(rng.random(12) + 0.1)
        h = Histogram(edges, rng.random(11) + 0.05)
        q = h.quantile((np.arange(999) + 0.5) / 999)
        cdf = np.interp(q, edges, np.concatenate([[0.0], np.cumsum(h.probabilities)]))
        assert np.all(np.diff(q) > 0.0)
        assert np.max(np.abs(cdf - (np.arange(999) + 0.5) / 999)) < 1e-12


class TestFdEdges:
    def test_constant_sample_gets_one_unit_bin(self):
        assert np.array_equal(_fd_edges(np.full(5, 2.0)), [1.5, 2.5])

    def test_freedman_diaconis_width_over_the_range(self):
        x = np.random.default_rng(8).normal(0.0, 1.0, 1000)
        edges = _fd_edges(x)
        q75, q25 = np.percentile(x, [75.0, 25.0])
        h = 2.0 * (q75 - q25) * x.size ** (-1.0 / 3.0)
        assert edges[0] == x.min() and edges[-1] == x.max()
        assert edges.size - 1 == math.ceil((x.max() - x.min()) / h)
        assert np.allclose(np.diff(edges), (x.max() - x.min()) / (edges.size - 1))

    def test_bin_count_bounds(self):
        # a zero interquartile range gives 64 bins; a far outlier hits the 4096 cap
        assert _fd_edges(np.array([0.0] * 10 + [1.0])).size == 65
        assert _fd_edges(np.concatenate([np.linspace(0.0, 1.0, 100), [1e6]])).size == 4097


class TestRelativeDistanceCurve:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(12)
        series = [EmpiricalDistribution(rng.random(50) + t) for t in (0.0, 0.2, 1.0)]
        curve = relative_distance_curve(series)
        assert curve[0] == 0.0 and curve[-1] == 1.0

    def test_geodesic_midpoint(self):
        # large-sample oracle: samples along the path sit at relative distance ~t
        p, q = uniform01(), sine_distribution(0.8)
        series = [
            sample(displacement_interpolate(p, q, t), 50_000, seed=100 + i)
            for i, t in enumerate((0.0, 0.5, 1.0))
        ]
        curve = relative_distance_curve(series)
        assert abs(curve[1] - 0.5) < 0.07

    def test_coinciding_endpoints_rejected(self):
        d = EmpiricalDistribution([1.0, 2.0])
        with pytest.raises(ParameterError, match="coincide"):
            relative_distance_curve([d, d])


class TestStatisticPlan:
    def test_scoring_keeps_the_rows(self):
        x = np.sort(np.random.default_rng(15).random((3, 300)), axis=1)
        kept = x.copy()
        for null in (uniform01(), gaussian(0.5, 0.2, 0.0, 1.0)):
            scaled_statistics(x, plan_scaled_statistic(null, lebesgue(), 300))
        assert x.tobytes() == kept.tobytes()

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

    @pytest.mark.parametrize("n", [600, 10_000])
    def test_one_panel_per_slot(self, n, monkeypatch):
        # (j + 1)/n - j/n rounds one ulp above 1/n in 318 of 600 slots; each takes
        # one panel
        layouts = []

        def recording_layout(edges, max_panel, first, last):
            layouts.append(np.maximum(1, np.ceil(np.diff(edges) / max_panel)))
            return _panel_layout(edges, max_panel, first, last)

        monkeypatch.setattr(wshift.transport, "_panel_layout", recording_layout)
        plan_scaled_statistic(gaussian(0.0, 1.0, -4.0, 4.0), lebesgue(), n)
        counts = np.concatenate(layouts)
        assert counts.size == n and np.all(counts == 1)

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

    @pytest.mark.parametrize("omega", [lebesgue(), quadratic_weight(2.0, trim=0.01)],
                             ids=["lebesgue", "quadratic-trimmed"])
    @pytest.mark.parametrize("make_null, n, bound_mib", [
        # a data null's quantile is constant between its jumps: one point per
        # segment (eight Gauss-Legendre nodes per segment peaked near 370 MiB)
        pytest.param(lambda: EmpiricalDistribution(np.random.default_rng(10).normal(size=1_000_000)),
                     1000, 128, id="data"),
        # panels evaluated a block at a time peak at 12.2 MiB; all 2.6e6 nodes
        # at once peaked at 108 MiB
        pytest.param(lambda: gaussian(0.0, 1.0, -4.0, 4.0), 200_000, 16, id="gaussian"),
    ])
    def test_large_empirical_null_memory(self, make_null, n, bound_mib, omega):
        null = make_null()
        tracemalloc.start()
        try:
            plan_scaled_statistic(null, omega, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20

    def test_size_mismatch_rejected(self):
        plan = plan_scaled_statistic(uniform01(), lebesgue(), 10)
        with pytest.raises(ParameterError):
            scaled_statistics(np.zeros((2, 9)), plan)


def _segment_edges_by_unique(omega, *dists):
    """The window's ends and the laws' breakpoints inside it, by one np.unique."""
    lo, hi = omega.window
    pts = [np.array([lo, hi])]
    for d in dists:
        b = np.asarray(d.quantile_breakpoints, dtype=float)
        if b.size:
            pts.append(b[(b > lo) & (b < hi)])
    return np.unique(np.concatenate(pts))


class TestSegmentEdges:
    """Breakpoints merged into a sample's grid give the edges of one np.unique."""

    @given(n=st.integers(1, 40), m=st.integers(1, 25), trim=st.sampled_from([0.0, 0.1, 0.25]),
           picks=st.lists(st.integers(0, 200), max_size=12),
           extra=st.lists(st.floats(-0.5, 1.5), max_size=4))
    @settings(max_examples=200, deadline=None)
    @example(n=10, m=4, trim=0.1, picks=[8, 9, 9, 0, 40, 41], extra=[])
    def test_edges_equal_the_unique_of_every_breakpoint(self, n, m, trim, picks, extra):
        # the law's breakpoints, unsorted and repeated, are drawn from the sample's
        # grid, the window's ends, points outside the window and any others
        omega = lebesgue(trim)
        candidates = np.concatenate([np.arange(1, n) / n, [trim, 1.0 - trim, 0.0, 1.0, 0.5],
                                     extra])
        law = dataclasses.replace(uniform01(), quantile_breakpoints=tuple(
            float(candidates[i % candidates.size]) for i in picks))
        rng = np.random.default_rng(n)
        x, y = EmpiricalDistribution(rng.random(n)), EmpiricalDistribution(rng.random(m))
        for dists in ((x, law), (law, x), (law,), (x,), (x, y), (x, law, tail_distribution(0.5)),
                      (uniform01(),)):
            got = _segment_edges(omega, *dists)
            assert got.tobytes() == _segment_edges_by_unique(omega, *dists).tobytes()


class TestPanelBlocks:
    """Panels evaluated a block at a time give the numbers of one block of every panel."""

    # a block of 64 scalars lays out one segment; this one holds every segment below
    ONE_BLOCK = 64 << 20

    @staticmethod
    def _values():
        null = gaussian(0.0, 1.0, -4.0, 4.0)
        tail = tail_distribution(0.2)  # breakpoints at 0.2 and 0.8
        x = EmpiricalDistribution(np.clip(np.random.default_rng(12).normal(size=2000), -3.9, 3.9))
        values = [w2_weighted_squared(x, null, omega)
                  for omega in (lebesgue(), quadratic_weight(2.0, trim=0.01))]
        values.append(w2_weighted_squared(tail, gaussian(0.5, 0.2, 0.0, 1.0)))
        values += [wp_distance(tail, null, p) for p in (1.0, 3.0)]
        return np.array(values), plan_scaled_statistic(null, quadratic_weight(2.0, trim=0.01), 1500)

    @pytest.mark.parametrize("segments", [1, 3, 512])
    def test_blocks_agree_with_one_block(self, monkeypatch, segments):
        monkeypatch.setattr(wshift.transport, "_BLOCK_SCALARS", self.ONE_BLOCK)
        want, want_plan = self._values()
        monkeypatch.setattr(wshift.transport, "_BLOCK_SCALARS", 64 * segments)
        got, plan = self._values()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        for field in ("m0", "center", "spread"):
            np.testing.assert_allclose(getattr(plan, field), getattr(want_plan, field),
                                       rtol=1e-12, atol=0.0, err_msg=field)

    @pytest.mark.parametrize("segments", [1, 3, 512])
    def test_blocks_hold_the_flat_layout(self, monkeypatch, segments):
        # only the window's first and last panel are refined, never a block's
        null, tail = gaussian(0.0, 1.0, -4.0, 4.0), tail_distribution(0.2)
        x = EmpiricalDistribution(np.random.default_rng(13).random(1100))
        omega = quadratic_weight(2.0, trim=0.01)
        edges = _segment_edges(omega, x, tail, null)
        flat_panels = _panel_layout(edges, 1.0 / 32.0, True, True)[1].size
        monkeypatch.setattr(wshift.transport, "_BLOCK_SCALARS", self.ONE_BLOCK)
        [(want_points, want_weights)] = _quadrature(edges, omega, x, tail, null)
        monkeypatch.setattr(wshift.transport, "_BLOCK_SCALARS", 64 * segments)
        blocks = list(_quadrature(edges, omega, x, tail, null))
        assert all(points.size <= 8 * segments for points, _ in blocks)
        assert want_points.size == 8 * flat_panels
        assert np.array_equal(np.concatenate([points for points, _ in blocks]), want_points)
        assert np.array_equal(np.concatenate([w for _, w in blocks]), want_weights)


class TestRowContraction:
    """A row's statistic is bit-identical in every block it can be scored in."""

    @pytest.mark.parametrize("omega", [lebesgue(), quadratic_weight(2.0)],
                             ids=["lebesgue", "quadratic:2"])
    @pytest.mark.parametrize("n", [500, 16_383, 16_384, 30_000, 100_000])
    def test_rows_score_alike_in_any_block(self, n, omega):
        # einsum sums a lone row of 16383 or more values in another order
        x = np.sort(np.random.default_rng(n).random((7, n)), axis=1)
        plan = plan_scaled_statistic(uniform01(), omega, n)
        whole = scaled_statistics(x, plan)
        for rows in (2, 3, 5):
            for start in range(7 - rows + 1):
                part = scaled_statistics(x[start:start + rows], plan)
                assert np.array_equal(part, whole[start:start + rows])
        for i in range(7):
            assert np.array_equal(scaled_statistics(x[i], plan), whole[i:i + 1])
            assert np.array_equal(scaled_statistics(x[i:i + 1].copy(), plan), whole[i:i + 1])


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
        assert plan.m0.shape == plan.center.shape == (n,)
