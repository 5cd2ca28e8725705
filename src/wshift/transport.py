"""Weighted Wasserstein distances, weight measures, and interpolation paths.

Distances between one-dimensional laws are integrals of quantile
differences over the unit interval. The integrator partitions (0, 1) at
every breakpoint of the integrand (empirical quantile jumps, piecewise
boundaries of analytic quantiles, trim endpoints) and handles each segment
with either a closed form or fixed-order Gauss-Legendre panels:

* polynomial weight density against piecewise-constant / identity
  quantiles: exact antiderivative evaluation;
* everything else: 8-node Gauss-Legendre on panels no wider than 1/32,
  with geometric refinement toward the window endpoints so that the mild
  endpoint singularities of bounded quantiles (e.g. truncated Gaussians)
  are integrated accurately.

The batched statistic ``n W2^2(sample, null)`` has one plan layout for
every null: per-sample-slot moments of the null quantile (see
:class:`StatisticPlan`). They come from the same Gauss-Legendre panels laid
over the slot edges joined with the null's breakpoints, so an empirical
null's piecewise-constant quantile is integrated exactly under a polynomial
weight. Only the uniform null under a polynomial weight takes closed-form
antiderivatives instead.

The module also provides the monotone transport map, displacement and
linear (mixture) interpolation between two laws, total-variation distance
on binned data, and relative-distance curves along a series of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import (
    AnalyticDistribution,
    Distribution,
    EmpiricalDistribution,
    _cdf_from_quantile,
    _invert_cdf,
    _open_uniforms,
)
from .errors import DomainError, ParameterError, UnboundedSupportError

__all__ = [
    "WeightMeasure",
    "lebesgue",
    "quadratic_weight",
    "custom_weight",
    "Histogram",
    "w2_weighted",
    "w2_weighted_squared",
    "wp_distance",
    "tv_distance",
    "transport_map",
    "displacement_interpolate",
    "linear_interpolate",
    "relative_distance_curve",
    "StatisticPlan",
    "plan_scaled_statistic",
    "scaled_statistics",
]


# ---------------------------------------------------------------------------
# Weight measures on (0, 1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightMeasure:
    """A finite measure on (0, 1) given by a density, with optional trimming.

    ``poly`` holds ascending polynomial coefficients of the density when it
    is polynomial (enables exact segment integrals); ``trim`` restricts the
    measure to the window [trim, 1 - trim], outside which the density is
    treated as zero. ``total_mass`` is the integral of the untrimmed
    density over (0, 1).
    """

    tag: str
    density_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    poly: Optional[tuple[float, ...]]
    total_mass: float
    trim: float = 0.0
    a: Optional[float] = None

    def __post_init__(self):
        if not (0.0 <= self.trim < 0.5):
            raise ParameterError(f"trim must lie in [0, 0.5), got {self.trim}")
        if self.total_mass <= 0.0:
            raise ParameterError("weight measure must have positive mass")

    @property
    def window(self) -> tuple[float, float]:
        return (self.trim, 1.0 - self.trim)

    def density(self, u):
        """Density including the trim window (zero outside it)."""
        uu = np.asarray(u, dtype=float)
        lo, hi = self.window
        inside = (uu >= lo) & (uu <= hi)
        return np.where(inside, self.density_fn(uu), 0.0)

    def with_trim(self, trim: float) -> "WeightMeasure":
        return WeightMeasure(self.tag, self.density_fn, self.poly,
                             self.total_mass, float(trim), self.a)

    def describe(self) -> dict:
        d = {"tag": self.tag, "trim": self.trim}
        if self.a is not None:
            d["a"] = self.a
        return d


def _poly_density(coeffs: tuple[float, ...]) -> Callable[[np.ndarray], np.ndarray]:
    c = np.asarray(coeffs, dtype=float)
    return lambda u: np.polynomial.polynomial.polyval(np.asarray(u, dtype=float), c)


def lebesgue(trim: float = 0.0) -> WeightMeasure:
    """Uniform weight on (0, 1); the weighted distance then equals plain W2."""
    return WeightMeasure("lebesgue", _poly_density((1.0,)), (1.0,), 1.0, trim)


def quadratic_weight(a: float, trim: float = 0.0) -> WeightMeasure:
    """Weight with density ``a (u - 1/2)^2 + 1 - a/12``; unit total mass.

    ``a`` must lie in [0, 12) so the density stays positive; larger ``a``
    puts more weight on both tails.
    """
    if not (0.0 <= a < 12.0):
        raise ParameterError(f"quadratic weight requires a in [0, 12), got {a}")
    coeffs = (1.0 + a / 6.0, -a, a)  # expansion of a(u - 1/2)^2 + 1 - a/12
    return WeightMeasure("quadratic", _poly_density(coeffs), coeffs, 1.0, trim, a=float(a))


def custom_weight(density: Callable, trim: float = 0.0, tag: str = "custom") -> WeightMeasure:
    """Weight measure from an arbitrary nonnegative density on (0, 1)."""
    fn = lambda u: np.asarray(density(np.asarray(u, dtype=float)), dtype=float)
    nodes, wts = _panel_nodes(np.array([0.0, 1.0]), max_panel=1.0 / 64.0)
    mass = float(np.dot(fn(nodes), wts))
    return WeightMeasure(tag, fn, None, mass, trim)


def _moment_antiderivative(poly: Sequence[float], k: int) -> np.ndarray:
    """Coefficients of the antiderivative of ``u^k * density(u)``."""
    c = np.zeros(len(poly) + k + 1)
    for j, cj in enumerate(poly):
        c[j + k + 1] = cj / (j + k + 1)
    return c


def _polyval(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(u, coeffs)


# ---------------------------------------------------------------------------
# Gauss-Legendre panel machinery
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_DEFAULT_MAX_PANEL = 1.0 / 32.0
_END_REFINE_WIDTH = 1e-13


def _refine_panels(lefts: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Geometrically split the outermost panels toward the window endpoints."""
    if widths.size and widths[0] > _END_REFINE_WIDTH:
        l0, w0 = lefts[0], widths[0]
        levels = max(1, int(math.ceil(math.log2(w0 / _END_REFINE_WIDTH))))
        cuts = w0 * (0.5 ** np.arange(levels + 1))  # w0, w0/2, ..., ~1e-13
        new_l = np.concatenate(([l0], l0 + cuts[:0:-1]))
        new_w = np.concatenate(([cuts[-1]], -np.diff(cuts)[::-1]))
        lefts = np.concatenate((new_l, lefts[1:]))
        widths = np.concatenate((new_w, widths[1:]))
    if widths.size and widths[-1] > _END_REFINE_WIDTH:
        w1 = widths[-1]
        r1 = lefts[-1] + w1
        levels = max(1, int(math.ceil(math.log2(w1 / _END_REFINE_WIDTH))))
        cuts = w1 * (0.5 ** np.arange(levels + 1))
        new_l = np.concatenate((r1 - cuts[:-1], [r1 - cuts[-1]]))
        new_w = np.concatenate((-np.diff(cuts), [cuts[-1]]))
        lefts = np.concatenate((lefts[:-1], new_l))
        widths = np.concatenate((widths[:-1], new_w))
    return lefts, widths


def _panel_layout(edges: np.ndarray, max_panel: float,
                  refine_ends: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(lefts, widths) of quadrature panels tiling the given segments."""
    edges = np.asarray(edges, dtype=float)
    lengths = np.diff(edges)
    keep = lengths > 0.0
    starts, lengths = edges[:-1][keep], lengths[keep]
    if starts.size == 0:
        return np.empty(0), np.empty(0)
    counts = np.maximum(1, np.ceil(lengths / max_panel).astype(np.int64))
    widths = np.repeat(lengths / counts, counts)
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    lefts = np.repeat(starts, counts) + offsets * widths
    if refine_ends:
        lefts, widths = _refine_panels(lefts, widths)
    return lefts, widths


def _panel_nodes(edges: np.ndarray, max_panel: float = _DEFAULT_MAX_PANEL,
                 refine_ends: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Flattened Gauss-Legendre nodes and weights for the panel layout."""
    lefts, widths = _panel_layout(edges, max_panel, refine_ends)
    half = 0.5 * widths
    nodes = lefts[:, None] + half[:, None] * (_GL_X + 1.0)[None, :]
    wts = half[:, None] * _GL_W[None, :]
    return nodes.ravel(), wts.ravel()


# ---------------------------------------------------------------------------
# Integration support
# ---------------------------------------------------------------------------

def _check_integrable(dist: Distribution, omega: WeightMeasure) -> None:
    if not dist.bounded_support and omega.trim == 0.0:
        raise UnboundedSupportError(
            f"{dist.name} has unbounded support; its quantile diverges at the ends of "
            "(0, 1). Use a trimmed weight measure (trim > 0) or truncate the "
            "distribution to a bounded interval."
        )


def _segment_edges(omega: WeightMeasure, *dists: Distribution) -> np.ndarray:
    lo, hi = omega.window
    pts = [np.array([lo, hi])]
    for d in dists:
        b = np.asarray(d.quantile_breakpoints, dtype=float)
        if b.size:
            pts.append(b[(b > lo) & (b < hi)])
    return np.unique(np.concatenate(pts))


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def _gap_power_integral(mu: Distribution, nu: Distribution, omega: WeightMeasure,
                        power: float) -> float:
    edges = _segment_edges(omega, mu, nu)
    nodes, wts = _panel_nodes(edges)
    gap = mu.quantile_fn(nodes) - nu.quantile_fn(nodes)
    if power == 2.0:
        integrand = gap * gap
    else:
        integrand = np.abs(gap) ** power
    return float(np.dot(integrand * omega.density_fn(nodes), wts))


def _emp_emp_sq(mu: EmpiricalDistribution, nu: EmpiricalDistribution,
                omega: WeightMeasure) -> float:
    edges = _segment_edges(omega, mu, nu)
    masses = _segment_masses(edges, omega)
    mids = 0.5 * (edges[:-1] + edges[1:])
    gap = mu.quantile(mids) - nu.quantile(mids)
    return float(np.dot(gap * gap, masses))


def _segment_masses(edges: np.ndarray, omega: WeightMeasure) -> np.ndarray:
    """Omega-mass of each consecutive segment (exact for polynomial densities)."""
    if omega.poly is not None:
        anti = _moment_antiderivative(omega.poly, 0)
        return np.diff(_polyval(anti, edges))
    lefts = edges[:-1]
    half = 0.5 * np.diff(edges)
    nodes = lefts[:, None] + half[:, None] * (_GL_X + 1.0)[None, :]
    vals = omega.density_fn(nodes.ravel()).reshape(nodes.shape)
    return (vals @ _GL_W) * half


def w2_weighted_squared(mu: Distribution, nu: Distribution,
                        omega: WeightMeasure | None = None) -> float:
    """Squared weighted Wasserstein-2 distance between two laws."""
    omega = omega if omega is not None else lebesgue()
    _check_integrable(mu, omega)
    _check_integrable(nu, omega)
    if isinstance(mu, EmpiricalDistribution) and isinstance(nu, EmpiricalDistribution):
        return _emp_emp_sq(mu, nu, omega)
    if isinstance(nu, EmpiricalDistribution):  # keep the empirical side first
        mu, nu = nu, mu
    if (isinstance(mu, EmpiricalDistribution) and nu.quantile_is_identity
            and omega.poly is not None):
        plan = plan_scaled_statistic(nu, omega, mu.n)
        return float(scaled_statistics(mu.values[None, :], plan)[0]) / mu.n
    return _gap_power_integral(mu, nu, omega, 2.0)


def w2_weighted(mu: Distribution, nu: Distribution,
                omega: WeightMeasure | None = None) -> float:
    """Weighted Wasserstein-2 distance: the weighted L2 norm of the quantile gap.

    Symmetric in its arguments and zero exactly when the quantiles agree
    omega-almost everywhere. With the uniform weight this is the usual
    Wasserstein-2 distance.
    """
    return math.sqrt(max(0.0, w2_weighted_squared(mu, nu, omega)))


def wp_distance(mu: Distribution, nu: Distribution, p: float) -> float:
    """Unweighted Wasserstein-p distance for p >= 1."""
    if p < 1.0:
        raise ParameterError(f"Wasserstein order must satisfy p >= 1, got {p}")
    omega = lebesgue()
    _check_integrable(mu, omega)
    _check_integrable(nu, omega)
    value = _gap_power_integral(mu, nu, omega, float(p))
    return float(max(0.0, value) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Total variation on binned data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Histogram:
    """Binned masses over explicit edges (the masses need not be normalized)."""

    edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        m = np.asarray(self.masses, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ParameterError("histogram needs at least one bin")
        if np.any(np.diff(e) <= 0.0):
            raise ParameterError("histogram edges must be strictly increasing (zero-width bin)")
        if m.shape != (e.size - 1,):
            raise ParameterError("histogram masses must have one entry per bin")
        if np.any(m < 0.0) or m.sum() <= 0.0:
            raise ParameterError("histogram masses must be nonnegative with positive total")
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "masses", m)

    @property
    def probabilities(self) -> np.ndarray:
        return self.masses / self.masses.sum()

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Quantile of the law spreading each bin's mass uniformly over the bin."""
        cum = np.concatenate([[0.0], np.cumsum(self.masses)]) / self.masses.sum()
        idx = np.clip(np.searchsorted(cum, u, side="left") - 1, 0, self.masses.size - 1)
        lo_mass = cum[idx]
        width = cum[idx + 1] - lo_mass
        frac = np.where(width > 0, (u - lo_mass) / np.where(width > 0, width, 1.0), 0.0)
        return self.edges[idx] + frac * (self.edges[idx + 1] - self.edges[idx])


def _fd_edges(pooled: np.ndarray) -> np.ndarray:
    """Freedman-Diaconis binning of the pooled sample."""
    lo, hi = float(pooled.min()), float(pooled.max())
    if hi == lo:
        return np.array([lo - 0.5, hi + 0.5])
    q75, q25 = np.percentile(pooled, [75.0, 25.0])
    iqr = q75 - q25
    h = 2.0 * iqr * pooled.size ** (-1.0 / 3.0)
    nbins = int(np.ceil((hi - lo) / h)) if h > 0 else 64
    nbins = min(max(nbins, 1), 4096)
    return np.linspace(lo, hi, nbins + 1)


def _bin_empirical(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    if values.min() < edges[0] or values.max() > edges[-1]:
        raise ParameterError("binning does not cover the sample support")
    counts, _ = np.histogram(values, bins=edges)
    return counts / counts.sum()


def tv_distance(mu, nu, bins="fd") -> float:
    """Total variation distance between binned representations.

    Both arguments may be :class:`EmpiricalDistribution` or
    :class:`Histogram`. Two histograms must share their binning; empirical
    inputs are binned on the common edges (``bins`` may be ``"fd"`` for
    Freedman-Diaconis on the pooled sample, an integer bin count, or
    explicit edges).
    """
    if isinstance(mu, Histogram) and isinstance(nu, Histogram):
        if not np.array_equal(mu.edges, nu.edges):
            raise ParameterError("histograms must share a common binning")
        return 0.5 * float(np.abs(mu.probabilities - nu.probabilities).sum())

    if isinstance(mu, Histogram) or isinstance(nu, Histogram):
        hist, emp = (mu, nu) if isinstance(mu, Histogram) else (nu, mu)
        p = hist.probabilities
        q = _bin_empirical(emp.values, hist.edges)
        return 0.5 * float(np.abs(p - q).sum())

    pooled = np.concatenate([mu.values, nu.values])
    if isinstance(bins, str):
        if bins != "fd":
            raise ParameterError(f"unknown binning spec {bins!r}")
        edges = _fd_edges(pooled)
    elif np.isscalar(bins):
        if int(bins) < 1:
            raise ParameterError("bin count must be positive")
        edges = np.linspace(pooled.min(), pooled.max(), int(bins) + 1)
        if edges[0] == edges[-1]:
            edges = np.array([edges[0] - 0.5, edges[0] + 0.5])
    else:
        edges = np.asarray(bins, dtype=float)
        if np.any(np.diff(edges) <= 0.0):
            raise ParameterError("histogram edges must be strictly increasing (zero-width bin)")
    p = _bin_empirical(mu.values, edges)
    q = _bin_empirical(nu.values, edges)
    return 0.5 * float(np.abs(p - q).sum())


# ---------------------------------------------------------------------------
# Transport map and interpolation paths
# ---------------------------------------------------------------------------

_CDF_CLIP = 2.0 ** -54


def transport_map(source: AnalyticDistribution, target: Distribution) -> Callable:
    """The monotone map pushing ``source`` forward to ``target``.

    Returns a callable ``T(x) = G^{-1}(F(x))`` defined on the support of
    the source; evaluation outside the support raises a domain error.
    """
    slo, shi = source.support
    target_q = target.quantile_fn
    source_cdf = source.cdf_fn

    def T(x):
        scalar = np.isscalar(x)
        xx = np.asarray(x, dtype=float)
        if np.any((xx < slo) | (xx > shi)):
            raise DomainError(
                f"transport map of {source.name} is defined on [{slo:g}, {shi:g}]")
        u = np.clip(source_cdf(xx), _CDF_CLIP, 1.0 - _CDF_CLIP)
        out = target_q(u)
        return float(out) if scalar else out

    return T


def displacement_interpolate(source: Distribution, target: Distribution,
                             eps: float) -> Distribution:
    """The law a fraction ``eps`` of the way from source to target along
    the optimal-transport path.

    Its quantile is the convex combination ``(1 - eps) F^{-1} + eps G^{-1}``;
    the path is a constant-speed geodesic for every Wasserstein-p distance.
    """
    if not (0.0 <= eps <= 1.0):
        raise ParameterError(f"interpolation parameter must lie in [0, 1], got {eps}")
    if eps == 0.0:
        return source
    if eps == 1.0:
        return target
    qa, qb = source.quantile_fn, target.quantile_fn
    e = float(eps)

    def quantile(u):
        return (1.0 - e) * qa(u) + e * qb(u)

    cdf = _cdf_from_quantile(quantile, _CDF_CLIP, 1.0 - _CDF_CLIP)
    bks = np.unique(np.concatenate([source.quantile_breakpoints,
                                    target.quantile_breakpoints]))
    slo_a, shi_a = source.support
    slo_b, shi_b = target.support
    return AnalyticDistribution(
        name=f"displacement({source.name},{target.name},{e:g})",
        cdf_fn=cdf,
        quantile_fn=quantile,
        density_fn=None,
        support=((1 - e) * slo_a + e * slo_b, (1 - e) * shi_a + e * shi_b),
        bounded_support=source.bounded_support and target.bounded_support,
        compact_support_ok=False,
        quantile_breakpoints=tuple(bks),
    )


def linear_interpolate(source: Distribution, target: Distribution,
                       gamma: float) -> Distribution:
    """Mixture law with cdf ``(1 - gamma) F + gamma G``.

    Sampling draws from the source with probability ``1 - gamma`` and from
    the target otherwise.
    """
    if not (0.0 <= gamma <= 1.0):
        raise ParameterError(f"mixture parameter must lie in [0, 1], got {gamma}")
    if gamma == 0.0:
        return source
    if gamma == 1.0:
        return target
    g = float(gamma)
    fa, fb = source.cdf_fn, target.cdf_fn
    qa, qb = source.quantile_fn, target.quantile_fn

    def cdf(x):
        return (1.0 - g) * fa(x) + g * fb(x)

    def bracket(u):
        va, vb = qa(u), qb(u)
        return np.minimum(va, vb), np.maximum(va, vb)

    quantile = _invert_cdf(cdf, bracket)

    dens = None
    da, db = source.density_fn, target.density_fn
    if da is not None and db is not None:
        dens = lambda x: (1.0 - g) * da(x) + g * db(x)

    def sampler(n, rng):
        pick_target = rng.random(n) < g
        u = _open_uniforms(rng, n)
        return np.where(pick_target, qb(u), qa(u))

    slo_a, shi_a = source.support
    slo_b, shi_b = target.support
    return AnalyticDistribution(
        name=f"mixture({source.name},{target.name},{g:g})",
        cdf_fn=cdf,
        quantile_fn=quantile,
        density_fn=dens,
        support=(min(slo_a, slo_b), max(shi_a, shi_b)),
        bounded_support=source.bounded_support and target.bounded_support,
        compact_support_ok=False,
        sampler_fn=sampler,
    )


def relative_distance_curve(series: Sequence[Distribution],
                            metric: str = "w2", bins="fd") -> list[float]:
    """Distances from the first element, normalized by the first-to-last distance.

    ``metric`` is one of ``"w2"``, ``"w1"``, ``"tv"``; TV bins samples, so
    it needs empirical laws, and uses a binning shared across the whole
    series (pooled Freedman-Diaconis by default).
    The first element is 0 and the last is 1 by construction.
    """
    if len(series) < 2:
        raise ParameterError("relative distance curve needs at least two distributions")
    first, last = series[0], series[-1]
    if metric == "w2":
        dist = lambda x: w2_weighted(first, x)
    elif metric == "w1":
        dist = lambda x: wp_distance(first, x, 1.0)
    elif metric == "tv":
        if isinstance(bins, str) and bins == "fd":
            pooled = np.concatenate([d.values for d in series])
            bins = _fd_edges(pooled)
        dist = lambda x: tv_distance(first, x, bins=bins)
    else:
        raise ParameterError(f"unknown metric {metric!r}; use w2, w1 or tv")
    denom = dist(last)
    if denom == 0.0:
        raise ParameterError(f"endpoints coincide under metric {metric!r}")
    out = [dist(d) / denom for d in series]
    out[0] = 0.0
    out[-1] = 1.0
    return out


# ---------------------------------------------------------------------------
# Batched scaled statistics n * W2^2(sample, null)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatisticPlan:
    """Precomputed per-slot moments for the statistic against a fixed null.

    A sorted sample ``x`` of size ``n`` has the empirical quantile ``x_j`` on
    the slot ``(j/n, (j + 1)/n)``, ``j = 0, ..., n - 1``, so its squared
    weighted distance to the null is
    ``sum_j x_j^2 m0_j - 2 x_j m1_j + m2_total``. Here ``m0_j`` and ``m1_j``
    are the omega-integrals of ``1`` and of the null quantile over slot
    ``j``, and ``m2_total`` is the omega-integral of the squared null
    quantile over the window. One layout serves every null; the plan is
    reusable across any number of samples of the same size.
    """

    n: int
    m0: np.ndarray
    m1: np.ndarray
    m2_total: float


def _plan_identity_poly(omega: WeightMeasure, n: int) -> StatisticPlan:
    lo, hi = omega.window
    grid = np.clip(np.arange(n + 1) / n, lo, hi)
    a0 = _moment_antiderivative(omega.poly, 0)
    a1 = _moment_antiderivative(omega.poly, 1)
    a2 = _moment_antiderivative(omega.poly, 2)
    m0 = np.diff(_polyval(a0, grid))
    m1 = np.diff(_polyval(a1, grid))
    m2 = np.diff(_polyval(a2, grid))
    return StatisticPlan(n, m0, m1, float(m2.sum()))


def _plan_by_quadrature(null: Distribution, omega: WeightMeasure,
                        n: int) -> StatisticPlan:
    lo, hi = omega.window
    grid = np.clip(np.arange(n + 1) / n, lo, hi)
    # the null's breakpoints (an empirical null's jumps included) split the
    # slots, so every panel sees a smooth null quantile
    edges = np.unique(np.concatenate([grid, _segment_edges(omega, null)]))
    lefts, widths = _panel_layout(edges, max_panel=min(_DEFAULT_MAX_PANEL, 1.0 / n))
    half = 0.5 * widths
    nodes = (lefts[:, None] + half[:, None] * (_GL_X + 1.0)[None, :]).ravel()
    wts = (half[:, None] * _GL_W[None, :]).ravel()
    w = omega.density_fn(nodes) * wts
    q = null.quantile_fn(nodes)
    # each node belongs to the sample slot whose constancy interval contains it
    slot = np.minimum(np.searchsorted(grid[1:-1], nodes, side="left"), n - 1)
    m0 = np.bincount(slot, weights=w, minlength=n)
    m1 = np.bincount(slot, weights=w * q, minlength=n)
    m2 = np.bincount(slot, weights=w * q * q, minlength=n)
    return StatisticPlan(n, m0, m1, float(m2.sum()))


def plan_scaled_statistic(null: Distribution, omega: WeightMeasure,
                          n: int) -> StatisticPlan:
    """Build the reusable per-slot moment plan for samples of size ``n``."""
    if n < 1:
        raise ParameterError("sample size must be >= 1")
    _check_integrable(null, omega)
    if null.quantile_is_identity and omega.poly is not None:
        return _plan_identity_poly(omega, n)
    return _plan_by_quadrature(null, omega, n)


def scaled_statistics(sorted_samples: np.ndarray, plan: StatisticPlan) -> np.ndarray:
    """``n * W2^2(sample_row, null)`` for each row of a sorted-sample matrix."""
    x = np.atleast_2d(np.asarray(sorted_samples, dtype=float))
    if x.shape[1] != plan.n:
        raise ParameterError(f"plan built for n={plan.n}, got rows of size {x.shape[1]}")
    quad = (x * x) @ plan.m0 - 2.0 * (x @ plan.m1) + plan.m2_total
    return plan.n * quad
