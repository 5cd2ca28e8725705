"""Tests for the Brownian-bridge simulation and limit-law Monte Carlo."""

import itertools
import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import wshift.limitlaw
from wshift.cli import main
from wshift.distributions import (
    EmpiricalDistribution,
    affine,
    gaussian,
    sine_distribution,
    two_point,
    uniform01,
)
from wshift._seeds import derive_rng
from wshift.errors import ParameterError, SingularDensityError, UnboundedSupportError
from wshift.experiments import (PowerMapConfig, WeightComparisonConfig, run_power_map,
                                run_weight_comparison)
from wshift.hypotest import LimitLawCritical, TabulatedCritical, TestConfig, run_test
from wshift.limitlaw import (
    BridgeGrid,
    LimitLawSampler,
    _CHUNK_NORMALS,
    _node_coefficients,
    _null_quantile,
    _order_stat_quantile,
    _quantile_standard_error,
    case_ii_variance,
    critical_value,
    sample_psi_components,
    sample_psi_null,
    theoretical_type2,
)
from wshift.transport import _row_dots, lebesgue, quadratic_weight

# Largest relative gap between a draw contracted on the walk and the same draw
# contracted on the pinned bridge (_bridge_batch), over the laws of
# TestWalkContraction: 3.8e-13 measured for gaussian(0,1,-4,4) at K=4096 on x86-64.
WALK_CONTRACTION_RTOL = 2e-12


def make_sampler(signal=None, omega=None, k=1024, seed=0):
    return LimitLawSampler.from_distributions(
        uniform01(), signal, omega if omega is not None else lebesgue(),
        BridgeGrid(k), seed=seed)


def _bridge_batch(walk, bridge, rng):
    """Fill ``bridge`` (rows, K - 1) with bridge values at the interior nodes (exact joint law).

    The pinned-bridge oracle: ``B_k = (W_k - (k/K) W_K) / sqrt(K)`` on the walk of
    ``rng``'s normals, with ``walk`` (rows, K) as scratch space.
    """
    k = walk.shape[1]
    rng.standard_normal(out=walk)
    np.cumsum(walk, axis=1, out=walk)
    np.multiply(walk[:, -1:], np.arange(1, k) / k, out=bridge)
    np.subtract(walk[:, :-1], bridge, out=bridge)
    bridge /= math.sqrt(k)
    return bridge


def bridges(k, rows, rng):
    return _bridge_batch(np.empty((rows, k)), np.empty((rows, k - 1)), rng)


class TestBridgeGrid:
    def test_validation(self):
        with pytest.raises(ParameterError):
            BridgeGrid(32)
        with pytest.raises(ParameterError):
            BridgeGrid(1000)  # not a power of two
        assert BridgeGrid(64).nodes.shape == (63,)

    def test_nodes_exclude_endpoints(self):
        nodes = BridgeGrid(128).nodes
        assert nodes[0] > 0.0 and nodes[-1] < 1.0


class TestBridgeSimulation:
    def test_variance_at_half(self):
        b = bridges(256, 100_000, np.random.default_rng(3))
        mid = b[:, 256 // 2 - 1]
        assert abs(mid.var() - 0.25) < 0.01

    def test_covariance_pairs(self):
        # E[B_u B_v] = u ^ v - u v at 10 random node pairs, within 3 SE
        k = 256
        b = bridges(k, 100_000, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        nodes = np.arange(1, k) / k
        for _ in range(10):
            i, j = rng.integers(0, k - 1, size=2)
            u, v = nodes[i], nodes[j]
            want = min(u, v) - u * v
            prod = b[:, i] * b[:, j]
            se = prod.std(ddof=1) / math.sqrt(prod.size)
            assert abs(prod.mean() - want) <= 3.0 * se + 1e-12

    def test_deterministic(self):
        assert np.array_equal(bridges(128, 3, derive_rng(7, "bridge-paths")),
                              bridges(128, 3, derive_rng(7, "bridge-paths")))

    def test_implied_endpoint_pinning(self):
        # reconstructing the walk at k = K gives exactly zero after pinning
        k = 64
        rng = np.random.default_rng(1)
        z = rng.standard_normal((1, k))
        walk = np.cumsum(z, axis=1)
        pinned_end = walk[0, -1] - (k / k) * walk[0, -1]
        assert pinned_end == 0.0


class TestWalkContraction:
    """The kernel contracts the walk; the pinned bridge of _bridge_batch is its oracle."""

    @pytest.mark.parametrize("null, signal, omega", [
        (uniform01(), sine_distribution(0.8), lebesgue()),
        (uniform01(), sine_distribution(0.5), quadratic_weight(2.0)),
        # tail nodes where W_j ~ u_j W_K carry the largest coefficients: the most cancellation
        (gaussian(0.0, 1.0, -4.0, 4.0), gaussian(0.5, 1.0, -3.5, 4.5), lebesgue()),
    ], ids=["uniform-lebesgue", "quadratic-2", "gaussian-4"])
    def test_agrees_with_the_pinned_bridge(self, null, signal, omega):
        k, reps, seed = 4096, 200, 71  # one chunk, so one stream: ("bridge-paths", 0)
        s = LimitLawSampler.from_distributions(null, signal, omega, BridgeGrid(k), seed=seed)
        quad, cross = sample_psi_components(s, reps)
        b = bridges(k, reps, derive_rng(seed, "bridge-paths", 0))
        c_quad, c_cross = _node_coefficients(null, signal, omega, s.grid)
        want_cross, want_quad = _row_dots(b, c_cross), _row_dots(b * b, c_quad)
        assert np.max(np.abs(quad - want_quad) / want_quad) <= WALK_CONTRACTION_RTOL
        # cross terms cross zero, so their gap is measured against the largest
        scale = np.max(np.abs(want_cross))
        assert np.max(np.abs(cross - want_cross)) <= WALK_CONTRACTION_RTOL * scale


class TestStackedLaws:
    """One bridge draw serves a stack of signals or weights; no column sees the others."""

    K = 256
    REPS = 2 * (_CHUNK_NORMALS // K) + 5  # two chunks and a remainder, many tiles each

    def test_signal_columns_are_the_one_signal_draws(self):
        signals = [sine_distribution(0.2), sine_distribution(0.5), sine_distribution(0.9)]
        s = make_sampler(k=self.K, seed=81)
        quad, cross = sample_psi_components(s, self.REPS, signals=signals)
        assert cross.shape == (self.REPS, len(signals))
        for j, signal in enumerate(signals):
            one = make_sampler(signal=signal, k=self.K, seed=81)
            one_quad, one_cross = sample_psi_components(one, self.REPS)
            assert np.array_equal(quad, one_quad)
            assert np.array_equal(cross[:, j], one_cross)

    def test_weight_columns_are_the_one_weight_draws(self):
        omegas = [lebesgue(), quadratic_weight(1.0), quadratic_weight(2.0), lebesgue(trim=0.01)]
        psi = sample_psi_null(make_sampler(k=self.K, seed=82), self.REPS, omegas=omegas)
        assert psi.shape == (self.REPS, len(omegas))
        for j, omega in enumerate(omegas):
            one = make_sampler(omega=omega, k=self.K, seed=82)
            assert np.array_equal(psi[:, j], sample_psi_null(one, self.REPS))

    def test_every_stacked_law_is_checked(self):
        with pytest.raises(ParameterError, match="signal"):
            sample_psi_components(make_sampler(k=64), 10, signals=[sine_distribution(0.5), None])
        with pytest.raises(UnboundedSupportError, match="trim"):
            sample_psi_components(make_sampler(k=64), 10,
                                  signals=[sine_distribution(0.5), gaussian(0.5, 1.0)])
        gaussian_null = LimitLawSampler.from_distributions(
            gaussian(0.0, 1.0), omega=lebesgue(trim=0.01), grid=BridgeGrid(64))
        with pytest.raises(UnboundedSupportError, match="trim"):
            sample_psi_null(gaussian_null, 10, omegas=[lebesgue(trim=0.01), lebesgue()])

    @pytest.mark.parametrize("run", [
        lambda: run_power_map(PowerMapConfig(deltas=(0.03, 0.05, 0.07), gammas=(5.5, 9.5),
                                             n=200, trials=20, law_reps=300, grid_k=64)),
        lambda: run_weight_comparison(WeightComparisonConfig(
            a_values=(0.0, 1.0, 2.0), p_grid=(0.3,), gammas=(4.0,), n=200, trials=20,
            law_reps=300, grid_k=64)),
    ], ids=["power-map-3-deltas", "weight-comparison-2-weights"])
    def test_experiments_draw_the_law_once(self, monkeypatch, run):
        batches = []
        component_batches = wshift.limitlaw._component_batches

        def recording_batches(*args, **kwargs):
            batches.append(args)
            return component_batches(*args, **kwargs)

        monkeypatch.setattr(wshift.limitlaw, "_component_batches", recording_batches)
        run()
        assert len(batches) == 1


class TestPsiNull:
    def test_mean_matches_analytic(self):
        # E int B^2 du = int u(1-u) du = 1/6
        psi = sample_psi_null(make_sampler(seed=2), 100_000)
        se = psi.std(ddof=1) / math.sqrt(psi.size)
        assert abs(psi.mean() - 1.0 / 6.0) <= 3.0 * se + 1e-4

    def test_nonnegative(self):
        psi = sample_psi_null(make_sampler(seed=3), 2000)
        assert np.all(psi >= 0.0)

    def test_scale_equivariance(self):
        # halving the null doubles its density-at-quantile (exactly 2) and
        # divides every draw by 4, exactly
        grid = BridgeGrid(512)
        a = sample_psi_null(make_sampler(k=512, seed=17), 500)
        b = sample_psi_null(
            LimitLawSampler.from_distributions(affine(uniform01(), 0.5), grid=grid, seed=17),
            500)
        assert np.array_equal(b, a / 4.0)

    @pytest.mark.parametrize("compute", [
        lambda: sample_psi_null(LimitLawSampler.from_distributions(
            affine(uniform01(), 1e12), grid=BridgeGrid(128)), 10),
        lambda: case_ii_variance(affine(uniform01(), 1e12),
                                 affine(sine_distribution(0.5), 1e12)),
    ], ids=["sample_psi_null", "case_ii_variance"])
    def test_singular_density_fails_loudly(self, compute):
        # density 1e-12 at every quantile: below the floor, never clipped
        with pytest.raises(SingularDensityError):
            compute()

    def test_deterministic(self):
        s = make_sampler(seed=9, k=256)
        assert np.array_equal(sample_psi_null(s, 100), sample_psi_null(s, 100))


class TestChunkStreams:
    """Chunks have their own streams, so the draws do not depend on the worker count."""

    K = 4096
    ROWS = _CHUNK_NORMALS // K  # bridge rows per chunk

    @pytest.fixture
    def pools(self, monkeypatch):
        started = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(wshift.limitlaw, "ThreadPoolExecutor", RecordingPool)
        return started

    @pytest.mark.parametrize("draw", [
        lambda s, reps: sample_psi_null(s, reps),
        lambda s, reps: np.stack(sample_psi_components(s, reps)),
    ], ids=["sample_psi_null", "sample_psi_components"])
    def test_worker_count_does_not_change_draws(self, monkeypatch, pools, draw):
        s = make_sampler(signal=sine_distribution(0.8), k=self.K, seed=51)
        reps = 2 * self.ROWS + 5
        monkeypatch.setattr(wshift.limitlaw, "_available_cpus", lambda: 1)
        one = draw(s, reps)
        assert pools == []
        monkeypatch.setattr(wshift.limitlaw, "_available_cpus", lambda: 2)
        two = draw(s, reps)
        assert pools == [2]
        assert np.array_equal(one, two)

    def test_draws_are_a_prefix_of_longer_runs(self):
        s = make_sampler(signal=sine_distribution(0.8), k=self.K, seed=52)
        short, long = self.ROWS + 3, 3 * self.ROWS
        assert np.array_equal(sample_psi_null(s, short), sample_psi_null(s, long)[:short])
        for a, b in zip(sample_psi_components(s, short), sample_psi_components(s, long)):
            assert np.array_equal(a, b[:short])

    @pytest.mark.parametrize("k", [16384, 32768])
    def test_one_row_chunk_is_a_prefix_at_large_grids(self, k):
        # a lone row of 16383 or more values is where einsum's summation order
        # used to change; the short run ends in a one-row chunk
        rows = _CHUNK_NORMALS // k
        s = make_sampler(signal=sine_distribution(0.8), omega=quadratic_weight(2.0),
                         k=k, seed=5)
        short, long = rows + 1, 2 * rows
        assert np.array_equal(sample_psi_null(s, short), sample_psi_null(s, long)[:short])
        for a, b in zip(sample_psi_components(s, short), sample_psi_components(s, long)):
            assert np.array_equal(a, b[:short])

    @pytest.mark.parametrize("tile_rows", [1, 3, 7])
    def test_tile_size_does_not_change_draws(self, monkeypatch, tile_rows):
        # two chunks plus a remainder, cut into tiles of 1, 3 and 7 rows
        k = 256
        s = make_sampler(signal=sine_distribution(0.8), k=k, seed=54)
        reps = 2 * (_CHUNK_NORMALS // k) + 5
        null, components = sample_psi_null(s, reps), sample_psi_components(s, reps)
        monkeypatch.setattr(wshift.limitlaw, "_BLOCK_SCALARS", tile_rows * k)
        assert np.array_equal(sample_psi_null(s, reps), null)
        for a, b in zip(sample_psi_components(s, reps), components):
            assert np.array_equal(a, b)

    def test_chunk_memory(self, monkeypatch):
        # a chunk holds two tile buffers, not its (rows, K) walk (16 MiB at K=4096)
        s = make_sampler(signal=sine_distribution(0.8), k=self.K, seed=55)
        monkeypatch.setattr(wshift.limitlaw, "_available_cpus", lambda: 1)
        sample_psi_components(s, 1)  # module imports are not the kernel's memory
        tracemalloc.start()
        try:
            sample_psi_components(s, 2 * self.ROWS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_single_chunk_starts_no_pool(self, monkeypatch, pools):
        s = make_sampler(k=self.K, seed=53)
        monkeypatch.setattr(wshift.limitlaw, "_available_cpus", lambda: 8)
        psi = sample_psi_null(s, self.ROWS)
        assert psi.shape == (self.ROWS,) and pools == []


class TestCriticalValue:
    def test_tabulated_anchor(self):
        # 95% point of the integrated squared bridge, uniform weight: 0.46136
        cv = critical_value(make_sampler(k=4096, seed=12), 0.05, 100_000)
        assert abs(cv.value - 0.46136) < 0.005
        assert cv.standard_error < 0.01

    def test_monotone_in_alpha(self):
        s = make_sampler(seed=5)
        c_small = critical_value(s, 0.01, 20_000)
        c_large = critical_value(s, 0.10, 20_000)
        assert c_small.value >= c_large.value

    def test_scale_equivariance(self):
        base = make_sampler(k=512, seed=3)
        scaled = LimitLawSampler.from_distributions(affine(uniform01(), 0.5),
                                                    grid=BridgeGrid(512), seed=3)
        a = critical_value(base, 0.05, 5000)
        b = critical_value(scaled, 0.05, 5000)
        assert b.value == a.value / 4.0

    def test_insufficient_reps(self):
        # need (1 - alpha) * reps >= 10
        with pytest.raises(ParameterError, match="reps"):
            critical_value(make_sampler(), 0.05, 5)

    @pytest.mark.parametrize("reps", [11, 15, 19])
    def test_the_largest_draw_is_never_the_quantile(self, monkeypatch, reps):
        # (1 - 0.05) * reps >= 10, but ceil(0.95 * reps) = reps: the top draw would be
        # read as the 0.95-quantile, so every consumer rejects before a bridge is drawn;
        # every chunk of the kernel draws its normals from its own derive_rng stream
        monkeypatch.setattr(wshift.limitlaw, "derive_rng", lambda *a: pytest.fail("drew"))
        rule = r"ceil\(\(1 - alpha\) \* reps\) < reps"
        s = make_sampler(signal=sine_distribution(0.5), k=256, seed=1)
        with pytest.raises(ParameterError, match=rule):
            critical_value(s, 0.05, reps)
        with pytest.raises(ParameterError, match=rule):
            theoretical_type2(s, 3.0, 0.05, reps, critical=None)
        with pytest.raises(ParameterError, match=rule):
            WeightComparisonConfig(law_reps=reps)

    def test_twenty_draws_suffice_at_five_percent(self):
        # the 19th smallest of 20 draws (0x1.1624da1223b05p-2 on x86-64)
        s = make_sampler(k=256, seed=1)
        cv = critical_value(s, 0.05, 20)
        assert cv.value == np.sort(sample_psi_null(s, 20))[18]
        assert cv.value == pytest.approx(0.27162495361055533, rel=1e-12)

    def test_null_quantile_is_the_critical_value(self):
        s = make_sampler(k=256, seed=6)
        psi, value = _null_quantile(s, 0.05, 3000)
        assert psi.shape == (3000,)
        assert value == critical_value(s, 0.05, 3000).value

    def test_bootstrap_only_where_reported(self, monkeypatch):
        # the standard error is reported by critical_value alone; callers that
        # need only the quantile must not pay for it
        calls = []
        standard_error = wshift.limitlaw._quantile_standard_error

        def recording_standard_error(values, alpha):
            calls.append(values.size)
            return standard_error(values, alpha)

        monkeypatch.setattr(wshift.limitlaw, "_quantile_standard_error",
                            recording_standard_error)
        s = make_sampler(signal=sine_distribution(0.5), k=64, seed=7)
        theoretical_type2(s, 3.0, 0.05, 400)
        run_weight_comparison(WeightComparisonConfig(
            a_values=(1.0,), p_grid=(0.3,), gammas=(4.0,), n=200, trials=20,
            law_reps=400, grid_k=64, seed=8))
        assert calls == []
        critical_value(s, 0.05, 400)
        assert calls == [400]

    def test_grid_refinement_stability(self):
        # discretization bias must be inside the Monte Carlo noise band
        cv_coarse = critical_value(make_sampler(k=2048, seed=21), 0.05, 20_000)
        cv_fine = critical_value(make_sampler(k=8192, seed=22), 0.05, 20_000)
        combined = math.hypot(cv_coarse.standard_error, cv_fine.standard_error)
        assert abs(cv_coarse.value - cv_fine.value) < 2.0 * combined


class TestExactStandardError:
    @pytest.mark.parametrize("values", [
        [0.3, 1.2, 0.7, 2.0],
        [1.0, 2.0, 2.0, 3.5, 0.5],  # ties
        np.random.default_rng(60).chisquare(3.0, 6),
    ], ids=["n4", "n5-ties", "n6"])
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5])
    def test_equals_every_resample(self, values, alpha):
        # the bootstrap over all n^n resamples, enumerated
        x = np.asarray(values, dtype=float)
        rows = np.array(list(itertools.product(range(x.size), repeat=x.size)))
        quantiles = np.array([_order_stat_quantile(x[row], alpha) for row in rows])
        want = quantiles.std()
        assert abs(_quantile_standard_error(x, alpha) - want) <= 1e-12 * want

    def test_matches_resampling_at_critval_size(self):
        # 4000 resamples of 8000 null draws: their SE is about 1.1% of the target
        psi = sample_psi_null(make_sampler(k=256, seed=61), 8000)
        rng = np.random.default_rng(62)
        boots = [_order_stat_quantile(psi[rng.integers(0, psi.size, psi.size)], 0.05)
                 for _ in range(4000)]
        want = np.std(boots, ddof=1)
        assert abs(_quantile_standard_error(psi, 0.05) - want) <= 0.05 * want


class TestPsiBoundary:
    def test_quadratic_column_is_the_null_law(self):
        s = make_sampler(signal=sine_distribution(0.8), seed=31)
        assert np.array_equal(sample_psi_components(s, 500)[0], sample_psi_null(s, 500))

    def test_cross_term_mean_zero(self):
        s = make_sampler(signal=sine_distribution(0.8), seed=32, k=1024)
        _, cross = sample_psi_components(s, 100_000)
        se = cross.std(ddof=1) / math.sqrt(cross.size)
        assert abs(cross.mean()) <= 3.0 * se

    def test_cross_term_variance_matches_quadrature(self):
        # the deterministic double integral is the oracle, 5% relative
        p = 0.7
        s = make_sampler(signal=sine_distribution(p), seed=33, k=2048)
        _, cross = sample_psi_components(s, 100_000)
        quad = case_ii_variance(uniform01(), sine_distribution(p)) / 4.0
        assert abs(cross.var(ddof=1) - quad) <= 0.05 * quad

    def test_requires_signal(self):
        with pytest.raises(ParameterError, match="signal"):
            sample_psi_components(make_sampler(), 10)


class TestTheoreticalType2:
    def test_vanishing_gamma_gives_one_minus_alpha(self):
        s = make_sampler(signal=sine_distribution(0.8), seed=41)
        t2 = theoretical_type2(s, 1e-6, 0.05, 30_000, critical=0.46136)
        assert abs(t2 - 0.95) < 0.01

    def test_huge_gamma_gives_zero(self):
        s = make_sampler(signal=sine_distribution(0.8), seed=42)
        assert theoretical_type2(s, 100.0, 0.05, 10_000, critical=0.46136) == 0.0

    def test_monotone_in_signal_strength(self):
        # fixed gamma, increasing Delta: Type II error nonincreasing (2 SE slack)
        gamma = 8.0
        values = []
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            s = make_sampler(signal=sine_distribution(p), seed=43)
            values.append(theoretical_type2(s, gamma, 0.05, 20_000, critical=0.46136))
        slack = 2.0 * math.sqrt(0.25 / 20_000)
        assert all(values[i + 1] <= values[i] + slack for i in range(len(values) - 1))

    @pytest.mark.parametrize("gamma", [0.0, -1.0, (3.0, 0.0), [5.0, -2.0]])
    def test_gamma_must_be_positive(self, gamma):
        s = make_sampler(signal=sine_distribution(0.5))
        with pytest.raises(ParameterError):
            theoretical_type2(s, gamma, 0.05, 1000)

    @pytest.mark.parametrize("alpha, critical", [
        (0.05, math.nan), (0.05, math.inf), (0.05, 0.0), (0.05, -1.0), (None, None)],
        ids=["nan", "inf", "zero", "negative", "no-alpha"])
    def test_bad_critical_or_level_fails_before_any_draw(self, monkeypatch, alpha, critical):
        # a NaN critical value read as Type II 0.0; a missing level raised TypeError
        monkeypatch.setattr(wshift.limitlaw, "_component_batches",
                            lambda *args, **kwargs: pytest.fail("drew before checking"))
        s = make_sampler(signal=sine_distribution(0.5))
        with pytest.raises(ParameterError):
            theoretical_type2(s, 3.0, alpha, 1000, critical=critical)

    @pytest.mark.parametrize("critical", [None, 0.46136])
    def test_gamma_sequence_is_the_scalar_calls(self, critical):
        # every gamma reads the same boundary draws, so the values match bit for bit
        s = make_sampler(signal=sine_distribution(0.5), k=256, seed=44)
        gammas = (2.0, 5.5, 9.0)
        got = theoretical_type2(s, gammas, 0.05, 4000, critical=critical)
        assert got == [theoretical_type2(s, g, 0.05, 4000, critical=critical) for g in gammas]

    def test_simulated_critical_is_read_off_the_one_draw(self, monkeypatch):
        # C_alpha comes from the boundary draws' quadratic column, which is the null
        # draw of _null_quantile, so the limit law is drawn once
        s = make_sampler(signal=sine_distribution(0.5), k=256, seed=45)
        batches, quantiles = [], []
        component_batches = wshift.limitlaw._component_batches
        order_stat_quantile = wshift.limitlaw._order_stat_quantile

        def recording_batches(*args, **kwargs):
            batches.append(args)
            return component_batches(*args, **kwargs)

        def recording_quantile(values, alpha):
            quantiles.append(order_stat_quantile(values, alpha))
            return quantiles[-1]

        monkeypatch.setattr(wshift.limitlaw, "_component_batches", recording_batches)
        monkeypatch.setattr(wshift.limitlaw, "_order_stat_quantile", recording_quantile)
        theoretical_type2(s, (2.0, 5.5), 0.05, 4000)
        assert len(batches) == 1 and len(quantiles) == 1
        assert quantiles[0] == _null_quantile(s, 0.05, 4000)[1]


class TestUnboundedLaws:
    """A law whose quantile diverges inside an untrimmed window fails before any draw."""

    @pytest.mark.parametrize("compute", [
        lambda: LimitLawSampler.from_distributions(gaussian(0.0, 1.0)),
        lambda: LimitLawSampler.from_distributions(uniform01(), gaussian(0.5, 1.0)),
        lambda: case_ii_variance(gaussian(0.0, 1.0), gaussian(0.5, 1.0)),
        lambda: case_ii_variance(uniform01(), gaussian(0.5, 1.0)),
    ], ids=["sampler-null", "sampler-signal", "case-ii-null", "case-ii-signal"])
    def test_untrimmed_weight_fails(self, monkeypatch, compute):
        monkeypatch.setattr(wshift.limitlaw, "_component_batches",
                            lambda *args, **kwargs: pytest.fail("drew before checking"))
        with pytest.raises(UnboundedSupportError, match="trim"):
            compute()

    def test_trimmed_weight_builds(self):
        s = LimitLawSampler.from_distributions(gaussian(0.0, 1.0), gaussian(0.5, 1.0),
                                               lebesgue(trim=0.01), BridgeGrid(64))
        assert sample_psi_null(s, 20).shape == (20,)
        assert case_ii_variance(s.null, s.signal, s.omega) > 0.0

    def test_critval_exits_1_and_writes_nothing(self, tmp_path, capsys):
        # it used to print grid values of a law whose mean diverges
        out = tmp_path / "cv"
        assert main(["critval", "--null", "gaussian:0,1", "--reps", "2000",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "wshift critval: error: gaussian(0,1) has unbounded support")
        assert not out.exists()


class TestCaseIIVariance:
    def test_zero_for_identical(self):
        assert case_ii_variance(uniform01(), uniform01()) == 0.0

    def test_matches_analytic_value(self):
        # eigen expansion gives exactly 1 / (8 pi^4) for the unit sine bump
        got = case_ii_variance(uniform01(), sine_distribution(1.0))
        want = 1.0 / (8.0 * math.pi ** 4)
        assert abs(got - want) <= 1e-4 * want

    def test_symmetric_kernel(self):
        got = case_ii_variance(uniform01(), sine_distribution(0.5), quadratic_weight(2.0))
        again = case_ii_variance(uniform01(), sine_distribution(0.5), quadratic_weight(2.0))
        assert got == again
        assert got > 0.0

    def test_density_required(self):
        from wshift.distributions import two_point
        with pytest.raises(ParameterError):
            case_ii_variance(two_point(0.0, 1.0), sine_distribution(0.5))

    @pytest.mark.parametrize("null, signal, omega", [
        (uniform01(), sine_distribution(1.0), lebesgue()),
        (uniform01(), sine_distribution(0.5), quadratic_weight(2.0)),
        (gaussian(0.0, 1.0, -4.0, 4.0), gaussian(0.5, 1.0, -3.5, 4.5), lebesgue(trim=0.01)),
    ], ids=["sine", "quadratic", "gaussian-trimmed"])
    def test_is_the_drawn_cross_term_variance(self, null, signal, omega):
        # four times t' S t, S the bridge covariance u ^ v - u v on the default grid's
        # nodes: the variance of the cross term drawn there, built densely by row blocks
        grid = BridgeGrid()
        u = grid.nodes
        t = _node_coefficients(null, signal, omega, grid)[1]
        form = 0.0
        for lo in range(0, u.size, 512):
            rows = u[lo:lo + 512, None]
            form += t[lo:lo + 512] @ ((np.minimum(rows, u) - rows * u) @ t)
        got = case_ii_variance(null, signal, omega)
        assert abs(got - 4.0 * form) <= 1e-12 * 4.0 * form

    def test_truncated_gaussian_null_runs(self):
        v = case_ii_variance(gaussian(0.0, 1.0, -4.0, 4.0), gaussian(0.5, 1.0, -3.5, 4.5),
                             lebesgue(trim=0.01))
        assert v > 0.0 and np.isfinite(v)


def _raised_message(compute):
    def message(tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # two_point warns that the law may not apply
            with pytest.raises(ParameterError) as info:
                compute()
        return str(info.value)
    return message


def _critval_message(null_spec):
    def message(tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("value\n0.1\n0.2\n0.9\n")
        argv = ["critval", "--null", null_spec.format(path=path), "--reps", "1000",
                "--grid-k", "128"]
        assert main(argv) == 1
        return capsys.readouterr().err.strip().split(": error: ", 1)[1]
    return message


_DATA_NULL = EmpiricalDistribution(np.linspace(0.05, 0.95, 19))


def _run_test(null, source):
    data = EmpiricalDistribution(np.linspace(0.1, 0.9, 9))
    return lambda: run_test(data, TestConfig(null_dist=null, critical_source=source))


class TestNullWithoutDensity:
    """Every route into the limit law rejects a null without a density with one message."""

    @pytest.mark.parametrize("message", [
        _raised_message(lambda: LimitLawSampler.from_distributions(two_point(0.0, 1.0))),
        _raised_message(_run_test(_DATA_NULL, LimitLawCritical(reps=1000, grid_k=64))),
        _raised_message(_run_test(two_point(0.0, 1.0), LimitLawCritical(reps=1000, grid_k=64))),
        _raised_message(_run_test(_DATA_NULL, TabulatedCritical(0.46136, 1000, 64))),
        _raised_message(_run_test(two_point(0.0, 1.0), TabulatedCritical(0.46136, 1000, 64))),
        _raised_message(lambda: case_ii_variance(two_point(0.0, 1.0), sine_distribution(0.5))),
        _critval_message("csv:{path}:value"),
        _critval_message("twopoint:0,1"),
    ], ids=["sampler", "limitlaw-empirical", "limitlaw-twopoint", "tabulated-empirical",
            "tabulated-twopoint", "case-ii", "critval-csv", "critval-twopoint"])
    def test_one_message(self, tmp_path, capsys, message):
        with pytest.raises(ParameterError) as info:
            LimitLawSampler.from_distributions(_DATA_NULL)
        want = str(info.value)
        assert "analytic" in want and "resampling" in want
        assert message(tmp_path, capsys) == want
