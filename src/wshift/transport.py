"""Weighted Wasserstein distances, weight measures, and the displacement path.

Distances between one-dimensional laws are integrals of a function of their
quantiles over the unit interval. The integrator partitions (0, 1) at
every breakpoint of the integrand (empirical quantile jumps, piecewise
boundaries of analytic quantiles, trim endpoints) and follows one of three
rules:

* when every law's quantile is a step function (a data sample, or the
  displacement between two), each segment gets one midpoint carrying
  its omega-mass (the antiderivative of the weight's polynomial density);
* against the identity quantile, each sample slot takes closed-form
  moments of the weight about its midpoint;
* everything else takes 8-node Gauss-Legendre panels no wider than 1/32,
  with geometric refinement toward the window endpoints so that the mild
  endpoint singularities of bounded quantiles (e.g. truncated Gaussians)
  are integrated accurately. The panels are laid out and evaluated a block
  of at most ``_BLOCK_SCALARS // 8`` nodes at a time, so the memory of a
  distance or plan beyond its O(n) slot arrays stays within one work tile
  at any n. The 8-node rule is built on first use, so importing the module
  does not load ``numpy.polynomial``.

``_quadrature`` gives the points of the first and third rules, block by
block; its consumers sum over the blocks. The batched
statistic ``n W2^2(sample, null)`` has one plan layout for every null (see
:class:`StatisticPlan`); a single sample is scored with it against the
identity quantile, and other distances integrate the gap directly. Every
sum of products is an einsum (``_dot``, or ``_row_dots`` for blocks of
rows), whose rounding does not follow the core count.

The module also provides displacement interpolation between two laws,
along which ``wp_distance`` grows linearly for every p, the total-variation
distance between two histograms on one binning, and the relative W2
distance curve along a series of laws.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .distributions import (
    AnalyticDistribution,
    Distribution,
    EmpiricalDistribution,
    _BLOCK_SCALARS,
    _cdf_from_quantile,
)
from .errors import ParameterError, UnboundedSupportError

__all__ = [
    "WeightMeasure",
    "lebesgue",
    "quadratic_weight",
    "Histogram",
    "w2_weighted",
    "w2_weighted_squared",
    "wp_distance",
    "tv_distance",
    "displacement_interpolate",
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
    """A measure on (0, 1) with a polynomial density, with optional trimming.

    ``poly`` holds the ascending coefficients of the density (so segment
    integrals are exact); ``trim`` restricts the measure to the window
    [trim, 1 - trim], outside which the density is treated as zero.
    """

    tag: str
    poly: tuple[float, ...]
    trim: float = 0.0
    a: Optional[float] = None

    def __post_init__(self):
        if not (0.0 <= self.trim < 0.5):
            raise ParameterError(f"trim must lie in [0, 0.5), got {self.trim}")

    @property
    def window(self) -> tuple[float, float]:
        return (self.trim, 1.0 - self.trim)

    def density_fn(self, u: np.ndarray) -> np.ndarray:
        """The untrimmed density."""
        return _polyval(np.asarray(self.poly, dtype=float), np.asarray(u, dtype=float))

    def density(self, u):
        """Density including the trim window (zero outside it)."""
        uu = np.asarray(u, dtype=float)
        lo, hi = self.window
        inside = (uu >= lo) & (uu <= hi)
        return np.where(inside, self.density_fn(uu), 0.0)

    def describe(self) -> dict:
        d = {"tag": self.tag, "trim": self.trim}
        if self.a is not None:
            d["a"] = self.a
        return d


def lebesgue(trim: float = 0.0) -> WeightMeasure:
    """Uniform weight on (0, 1); the weighted distance then equals plain W2."""
    return WeightMeasure("lebesgue", (1.0,), trim)


def quadratic_weight(a: float, trim: float = 0.0) -> WeightMeasure:
    """Weight with density ``a (u - 1/2)^2 + 1 - a/12``; unit total mass.

    ``a`` must lie in [0, 12) so the density stays positive; larger ``a``
    puts more weight on both tails.
    """
    if not (0.0 <= a < 12.0):
        raise ParameterError(f"quadratic weight requires a in [0, 12), got {a}")
    coeffs = (1.0 + a / 6.0, -a, a)  # expansion of a(u - 1/2)^2 + 1 - a/12
    return WeightMeasure("quadratic", coeffs, trim, a=float(a))


def _antiderivative(poly: Sequence[float]) -> np.ndarray:
    """Coefficients of the antiderivative of a polynomial density."""
    return np.concatenate(([0.0], np.asarray(poly, dtype=float) / np.arange(1, len(poly) + 1)))


def _polyval(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(u, coeffs)


# ---------------------------------------------------------------------------
# Gauss-Legendre panel machinery
# ---------------------------------------------------------------------------

_DEFAULT_MAX_PANEL = 1.0 / 32.0
_END_REFINE_WIDTH = 1e-13


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """8-node Gauss-Legendre nodes and weights on [0, 1], built on first use."""
    x, w = np.polynomial.legendre.leggauss(8)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _refine_panels(lefts: np.ndarray, widths: np.ndarray, first: bool,
                   last: bool) -> tuple[np.ndarray, np.ndarray]:
    """Geometrically split the first and/or the last panel toward the window endpoints."""
    if first and widths[0] > _END_REFINE_WIDTH:
        l0, w0 = lefts[0], widths[0]
        levels = max(1, int(math.ceil(math.log2(w0 / _END_REFINE_WIDTH))))
        cuts = w0 * (0.5 ** np.arange(levels + 1))  # w0, w0/2, ..., ~1e-13
        new_l = np.concatenate(([l0], l0 + cuts[:0:-1]))
        new_w = np.concatenate(([cuts[-1]], -np.diff(cuts)[::-1]))
        lefts = np.concatenate((new_l, lefts[1:]))
        widths = np.concatenate((new_w, widths[1:]))
    if last and widths[-1] > _END_REFINE_WIDTH:
        w1 = widths[-1]
        r1 = lefts[-1] + w1
        levels = max(1, int(math.ceil(math.log2(w1 / _END_REFINE_WIDTH))))
        cuts = w1 * (0.5 ** np.arange(levels + 1))
        new_l = np.concatenate((r1 - cuts[:-1], [r1 - cuts[-1]]))
        new_w = np.concatenate((-np.diff(cuts), [cuts[-1]]))
        lefts = np.concatenate((lefts[:-1], new_l))
        widths = np.concatenate((widths[:-1], new_w))
    return lefts, widths


def _panel_layout(edges: np.ndarray, max_panel: float, first: bool,
                  last: bool) -> tuple[np.ndarray, np.ndarray]:
    """(lefts, widths) of panels tiling the segments between strictly increasing ``edges``.

    ``first`` and ``last`` say whether the segments begin and end the window,
    whose outermost panels are refined.
    """
    lengths = np.diff(edges)
    counts = np.maximum(1, np.ceil(lengths / max_panel).astype(np.int64))
    widths = np.repeat(lengths / counts, counts)
    offsets = np.arange(widths.size) - np.repeat(np.cumsum(counts) - counts, counts)
    lefts = np.repeat(edges[:-1], counts) + offsets * widths
    return _refine_panels(lefts, widths, first, last)


# ---------------------------------------------------------------------------
# Integration support
# ---------------------------------------------------------------------------

def _check_integrable(dist: Distribution, omega: WeightMeasure) -> None:
    if not all(map(math.isfinite, dist.support)) and omega.trim == 0.0:
        raise UnboundedSupportError(
            f"{dist.name} has unbounded support; its quantile diverges at the ends of "
            "(0, 1). Use a trimmed weight measure (trim > 0) or truncate the "
            "distribution to a bounded interval."
        )


def _segment_edges(omega: WeightMeasure, *dists: Distribution) -> np.ndarray:
    """The window's ends and every law's quantile breakpoints inside it, increasing.

    The laws' breakpoints are merged from the fewest to the most, so a
    sample's grid of ``n - 1`` breakpoints is copied once, by the last merge.
    """
    lo, hi = omega.window
    inside = []
    for d in dists:
        b = _increasing_breakpoints(d)
        inside.append(b[np.searchsorted(b, lo, side="right"):np.searchsorted(b, hi)])
    edges = np.array([lo, hi])
    for b in sorted(inside, key=len):
        edges = _merge_increasing(edges, b)
    return edges


def _increasing_breakpoints(dist: Distribution) -> np.ndarray:
    """A law's quantile breakpoints, strictly increasing."""
    b = np.asarray(dist.quantile_breakpoints, dtype=float)
    return b if np.all(b[1:] > b[:-1]) else np.unique(b)  # a sample's grid already increases


def _merge_increasing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The values of two strictly increasing arrays, strictly increasing."""
    if a.size < b.size:
        a, b = b, a
    if not b.size:
        return a
    at = np.searchsorted(a, b)
    new = a[np.minimum(at, a.size - 1)] != b
    return np.insert(a, at[new], b[new])


def _dot(v: np.ndarray, w: np.ndarray) -> float:
    """Sum of ``v * w`` by einsum, whose rounding, unlike BLAS ddot's, ignores the core count."""
    return float(np.einsum("j,j->", v, w))


def _row_dots(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``b @ c`` rounded the same way for a row whatever the number of rows in ``b``."""
    # einsum, not BLAS gemv: gemv rounds a row differently with the number of
    # rows and of BLAS threads (which follows the CPU count). einsum sums a lone
    # row of 16383 or more values in another order than the same row inside a
    # block, so a one-row matrix is contracted as two views of itself.
    if b.shape[0] == 1:
        return np.einsum("ij,j->i", np.broadcast_to(b, (2, b.shape[1])), c)[:1]
    return np.einsum("ij,j->i", b, c)


def _quadrature(edges: np.ndarray, omega: WeightMeasure, *laws: Distribution,
                max_panel: float = _DEFAULT_MAX_PANEL) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of points and omega-weights integrating a function of the laws' quantiles.

    The points increase within and across blocks over the segments between
    ``edges``, which must increase strictly and hold every quantile breakpoint
    of the laws. When every law's quantile is constant between them (a data sample,
    or the displacement between two), one block holds each segment's midpoint
    and its exact omega-mass. Otherwise the points are Gauss-Legendre panel
    nodes: the panels are laid out ``_BLOCK_SCALARS // 64`` segments at a time
    and yielded at most that many at a time, so no block exceeds
    ``_BLOCK_SCALARS // 8`` nodes.
    """
    if all(d.quantile_is_step for d in laws):
        yield 0.5 * (edges[:-1] + edges[1:]), np.diff(_polyval(_antiderivative(omega.poly), edges))
        return
    gl_x, gl_w = _gauss_legendre()
    block = _BLOCK_SCALARS // 64
    segments = edges.size - 1
    for start in range(0, segments, block):
        lefts, widths = _panel_layout(edges[start:start + block + 1], max_panel,
                                      start == 0, start + block >= segments)
        for i in range(0, widths.size, block):
            width = widths[i:i + block, None]
            nodes = (lefts[i:i + block, None] + width * gl_x).ravel()
            yield nodes, omega.density_fn(nodes) * (width * gl_w).ravel()


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def _gap_power_integral(mu: Distribution, nu: Distribution, omega: WeightMeasure,
                        power: float) -> float:
    total = 0.0
    for points, weights in _quadrature(_segment_edges(omega, mu, nu), omega, mu, nu):
        gap = mu.quantile_fn(points) - nu.quantile_fn(points)
        total += _dot(gap * gap if power == 2.0 else np.abs(gap) ** power, weights)
    return total


def w2_weighted_squared(mu: Distribution, nu: Distribution,
                        omega: WeightMeasure | None = None) -> float:
    """Squared weighted Wasserstein-2 distance between two laws."""
    omega = omega if omega is not None else lebesgue()
    _check_integrable(mu, omega)
    _check_integrable(nu, omega)
    sample, other = (mu, nu) if isinstance(mu, EmpiricalDistribution) else (nu, mu)
    if isinstance(sample, EmpiricalDistribution) and other.quantile_is_identity:
        # the closed-form plan is O(n) and exact per slot
        plan = plan_scaled_statistic(other, omega, sample.n)
        return float(scaled_statistics(sample.values[None, :], plan)[0]) / sample.n
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


def tv_distance(mu: Histogram, nu: Histogram) -> float:
    """Total variation distance between two histograms on one binning."""
    if not np.array_equal(mu.edges, nu.edges):
        raise ParameterError("histograms must share a common binning")
    return 0.5 * float(np.abs(mu.probabilities - nu.probabilities).sum())


# ---------------------------------------------------------------------------
# Displacement interpolation
# ---------------------------------------------------------------------------

_CDF_CLIP = 2.0 ** -54


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
        # the same bits as (1 - e) qa(u) + e qb(u), with one temporary: qb(u) is
        # scaled in place unless it is u itself, as the identity quantile returns
        q = qb(u)
        if np.may_share_memory(q, u):
            q = e * q
        else:
            q *= e
        q += (1.0 - e) * qa(u)
        return q

    cdf = _cdf_from_quantile(quantile, _CDF_CLIP, 1.0 - _CDF_CLIP)
    # a view, so that no law's own array is made read-only
    bks = _merge_increasing(*map(_increasing_breakpoints, (source, target))).view()
    bks.flags.writeable = False
    slo_a, shi_a = source.support
    slo_b, shi_b = target.support
    return AnalyticDistribution(
        name=f"displacement({source.name},{target.name},{e:g})",
        cdf_fn=cdf,
        quantile_fn=quantile,
        density_fn=None,
        support=((1 - e) * slo_a + e * slo_b, (1 - e) * shi_a + e * shi_b),
        compact_support_ok=False,
        quantile_breakpoints=bks,
        quantile_is_step=source.quantile_is_step and target.quantile_is_step,
    )


def relative_distance_curve(series: Sequence[Distribution]) -> list[float]:
    """W2 distances from the first element, normalized by the first-to-last distance.

    The first element is 0 and the last is 1 by construction.
    """
    if len(series) < 2:
        raise ParameterError("relative distance curve needs at least two distributions")
    first = series[0]
    denom = w2_weighted(first, series[-1])
    if denom == 0.0:
        raise ParameterError("endpoints coincide under W2")
    out = [w2_weighted(first, d) / denom for d in series]
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
    the slot ``(j/n, (j + 1)/n)``, so its squared weighted distance to the
    null is ``sum_j m0_j (x_j - center_j)^2 + spread``: ``m0_j`` is the
    omega-mass of slot ``j``, ``center_j`` the omega-mean of the null quantile
    over it and ``spread`` the omega-integral of the squared gap between them.
    No term is negative, so nothing cancels at large ``n``. One layout serves
    every null and any number of samples of size ``n``.
    """

    n: int
    m0: np.ndarray
    center: np.ndarray
    spread: float


def _identity_slot_moments(poly: Sequence[float], mid: np.ndarray,
                           r: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Omega-integrals of 1 and s per slot, and of s^2 in all, for s = u - mid over |s| < r."""
    # term by term in the density's Taylor expansion at mid; odd powers of s integrate to 0
    moments = [np.zeros_like(mid), np.zeros_like(mid), 0.0]
    for k in range(len(poly)):
        taylor = _polyval(np.array([math.comb(i, k) * c for i, c in enumerate(poly)][k:]), mid)
        for p in range(k % 2, 3, 2):
            term = taylor * r ** (p + k + 1) * (2.0 / (p + k + 1))
            moments[p] += term if p < 2 else float(term.sum())
    return tuple(moments)


def plan_scaled_statistic(null: Distribution, omega: WeightMeasure,
                          n: int) -> StatisticPlan:
    """Build the reusable per-slot moment plan for samples of size ``n``."""
    if n < 1:
        raise ParameterError("sample size must be >= 1")
    _check_integrable(null, omega)
    lo, hi = omega.window
    grid = np.clip(np.arange(n + 1) / n, lo, hi)
    mid = 0.5 * (grid[:-1] + grid[1:])
    # moments of the null quantile's deviation from its value at each slot's
    # midpoint, so a slot where it is constant gets that value as its exact center
    base = null.quantile_fn(mid)
    if null.quantile_is_identity:
        m0, s1, s2 = _identity_slot_moments(omega.poly, mid, 0.5 * np.diff(grid))
    else:
        # the null's breakpoints (an empirical null's jumps included) split the
        # slots, so every segment sees a smooth or constant null quantile
        edges = np.unique(np.concatenate([grid, _segment_edges(omega, null)]))
        m0, s1, s2 = np.zeros(n), np.zeros(n), 0.0
        # one panel per slot: the widest slot, not 1/n, which slots one ulp wider exceed
        widest = float(np.max(np.diff(grid)))
        for points, w in _quadrature(edges, omega, null,
                                     max_panel=min(_DEFAULT_MAX_PANEL, widest)):
            # each point belongs to the sample slot whose constancy interval
            # contains it; a block's points are increasing, so its slots are a range
            slot = np.minimum(np.searchsorted(grid[1:-1], points, side="left"), n - 1)
            dev = null.quantile_fn(points) - base[slot]
            lo, hi = slot[0], slot[-1] + 1
            m0[lo:hi] += np.bincount(slot - lo, weights=w)
            s1[lo:hi] += np.bincount(slot - lo, weights=w * dev)
            s2 += _dot(w * dev, dev)
    shift = np.divide(s1, m0, out=s1, where=m0 > 0.0)  # the center's offset from base
    return StatisticPlan(n, m0, base + shift, s2 - _dot(m0 * shift, shift))


def scaled_statistics(sorted_samples: np.ndarray, plan: StatisticPlan) -> np.ndarray:
    """``n * W2^2(sample_row, null)`` for each row of a sorted-sample matrix."""
    x = np.atleast_2d(np.asarray(sorted_samples, dtype=float))
    if x.shape[1] != plan.n:
        raise ParameterError(f"plan built for n={plan.n}, got rows of size {x.shape[1]}")
    gap = x - plan.center
    gap *= gap
    return plan.n * (_row_dots(gap, plan.m0) + plan.spread)
