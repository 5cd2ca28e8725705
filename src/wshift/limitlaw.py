"""Monte Carlo simulation of the asymptotic laws of the scaled test statistic.

Under the null, ``n W2^2(P_n, P)`` converges to the integral of the squared
Brownian bridge divided by the squared null density-at-quantile, weighted
by the omega density. At the detection boundary (sample-size-scaled shift
parameter equal to a constant ``gamma``) the limit gains a linear
cross term against the quantile gap between signal and null.

Bridges are simulated by pinning a scaled Gaussian random walk
(``B_k = W_k - (k/K) W_K``), which has the exact finite-dimensional bridge
law at the grid nodes in O(K) per path. Integrals over (0, 1) use the
trapezoid rule on the grid; with the bridge pinned to zero at both ends,
the rule reduces to a mean over interior nodes.

All sampling is replica-parallel in principle: draws depend only on
(configuration, seed), and every function here is a pure function of its
arguments.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._seeds import derive_rng, derive_seed
from .distributions import AnalyticDistribution, Distribution
from .errors import ParameterError, SingularDensityError
from .transport import WeightMeasure, lebesgue, w2_weighted_squared

__all__ = [
    "BridgeGrid",
    "LimitLawSampler",
    "CriticalValue",
    "simulate_bridge",
    "sample_psi_null",
    "sample_psi_components",
    "sample_psi_boundary",
    "critical_value",
    "theoretical_type2",
    "case_ii_variance",
]

_DENSITY_FLOOR = 1e-8
_BATCH_SCALARS = 4_000_000  # normals held in memory per simulation batch


@dataclass(frozen=True)
class BridgeGrid:
    """Uniform grid u_k = k/K, k = 1..K-1; the endpoints are pinned to zero."""

    k: int = 4096

    def __post_init__(self):
        if self.k < 64:
            raise ParameterError(f"bridge grid needs K >= 64, got {self.k}")
        if self.k & (self.k - 1):
            raise ParameterError(f"bridge grid size must be a power of two, got {self.k}")

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(1, self.k) / self.k


def _bridge_batch(k: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of bridge values at the interior nodes (exact joint law)."""
    z = rng.standard_normal((rows, k))
    walk = np.cumsum(z, axis=1)
    frac = np.arange(1, k) / k
    bridge = walk[:, :-1] - np.outer(walk[:, -1], frac)
    bridge /= math.sqrt(k)
    return bridge


def simulate_bridge(grid: BridgeGrid, seed: int) -> np.ndarray:
    """One Brownian bridge path at the interior grid nodes."""
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed, "bridge-paths")
    return _bridge_batch(grid.k, 1, rng)[0]


@dataclass(frozen=True)
class LimitLawSampler:
    """Seeded sampler of the null and boundary limit laws.

    ``null_density_at_quantile`` maps u to f(F^{-1}(u)) for the null law;
    ``signal_gap`` maps u to the quantile gap G^{-1}(u) - F^{-1}(u) and may
    be omitted when only the null law is needed. ``signal_strength_sq``
    caches the squared weighted distance between signal and null when the
    sampler is built from distributions; otherwise it is recovered from the
    gap by the trapezoid rule.
    """

    null_density_at_quantile: Callable[[np.ndarray], np.ndarray]
    signal_gap: Optional[Callable[[np.ndarray], np.ndarray]]
    omega: WeightMeasure
    grid: BridgeGrid
    seed: int
    signal_strength_sq: Optional[float] = None

    @classmethod
    def from_distributions(cls, null: AnalyticDistribution,
                           signal: Distribution | None = None,
                           omega: WeightMeasure | None = None,
                           grid: BridgeGrid | None = None,
                           seed: int = 0) -> "LimitLawSampler":
        if null.density_fn is None:
            raise ParameterError("limit-law sampling needs an analytic null with a density")
        omega = omega if omega is not None else lebesgue()
        grid = grid if grid is not None else BridgeGrid()
        null_q, null_d = null.quantile_fn, null.density_fn

        def pf(u):
            return null_d(null_q(np.asarray(u, dtype=float)))

        gap = None
        strength = None
        if signal is not None:
            signal_q = signal.quantile_fn

            def gap(u):
                uu = np.asarray(u, dtype=float)
                return signal_q(uu) - null_q(uu)

            strength = w2_weighted_squared(null, signal, omega)
        return cls(pf, gap, omega, grid, int(seed), strength)

    def with_seed(self, seed: int) -> "LimitLawSampler":
        return dataclasses.replace(self, seed=int(seed))


def _node_coefficients(sampler: LimitLawSampler, need_cross: bool):
    """Per-node trapezoid coefficients of the quadratic (and cross) integrals."""
    u = sampler.grid.nodes
    w = sampler.omega.density(u)
    pf = sampler.null_density_at_quantile(u)
    active = w > 0.0
    if np.any(pf[active] < _DENSITY_FLOOR):
        raise SingularDensityError(
            "null density at quantile falls below 1e-8 inside the integration window; "
            "trim the weight measure or truncate the null instead of relying on clipping"
        )
    h = 1.0 / sampler.grid.k
    with np.errstate(divide="ignore", invalid="ignore"):
        c_quad = np.where(active, w / (pf * pf), 0.0) * h
    c_cross = None
    if need_cross:
        if sampler.signal_gap is None:
            raise ParameterError("sampler has no signal gap; build it with a signal distribution")
        gap = sampler.signal_gap(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            c_cross = np.where(active, gap * w / pf, 0.0) * h
    return c_quad, c_cross


def _component_batches(sampler: LimitLawSampler, reps: int, need_cross: bool):
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    c_quad, c_cross = _node_coefficients(sampler, need_cross)
    k = sampler.grid.k
    rng = derive_rng(sampler.seed, "bridge-paths")
    rows = max(1, min(int(reps), _BATCH_SCALARS // k))
    done = 0
    while done < reps:
        m = min(rows, int(reps) - done)
        b = _bridge_batch(k, m, rng)
        quad = (b * b) @ c_quad
        cross = b @ c_cross if need_cross else None
        yield quad, cross
        done += m


def sample_psi_null(sampler: LimitLawSampler, reps: int) -> np.ndarray:
    """Draws of the null limit: the weighted integral of (B_u / f(F^{-1}(u)))^2."""
    parts = [quad for quad, _ in _component_batches(sampler, reps, need_cross=False)]
    return np.concatenate(parts)


def sample_psi_components(sampler: LimitLawSampler, reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Paired draws (quadratic term, cross term) sharing one bridge per draw.

    The boundary limit at parameter gamma is ``quad + 2 * gamma * cross``,
    so one pass yields the law for every gamma at once.
    """
    quads, crosses = [], []
    for quad, cross in _component_batches(sampler, reps, need_cross=True):
        quads.append(quad)
        crosses.append(cross)
    return np.concatenate(quads), np.concatenate(crosses)


def sample_psi_boundary(sampler: LimitLawSampler, gamma: float, reps: int) -> np.ndarray:
    """Draws of the boundary limit law at shift strength ``gamma``."""
    if gamma < 0.0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0:
        return sample_psi_null(sampler, reps)
    quad, cross = sample_psi_components(sampler, reps)
    return quad + (2.0 * gamma) * cross


@dataclass(frozen=True)
class CriticalValue:
    """Empirical (1 - alpha)-quantile of the simulated null limit law."""

    alpha: float
    value: float
    reps: int
    seed: int
    standard_error: float


def _order_stat_quantile(values: np.ndarray, alpha: float) -> float:
    k = int(math.ceil((1.0 - alpha) * values.size))
    k = min(max(k, 1), values.size)
    return float(np.partition(values, k - 1)[k - 1])


def _null_quantile(sampler: LimitLawSampler, alpha: float,
                   reps: int) -> tuple[np.ndarray, float]:
    """``reps`` draws of the null law and their (1 - alpha)-quantile.

    The quantile is the order statistic at index ceil((1 - alpha) * reps).
    """
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if (1.0 - alpha) * reps < 10.0:
        raise ParameterError(
            f"reps={reps} too small to estimate the {1 - alpha:g}-quantile; "
            "need (1 - alpha) * reps >= 10")
    psi = sample_psi_null(sampler, reps)
    return psi, _order_stat_quantile(psi, alpha)


def critical_value(sampler: LimitLawSampler, alpha: float, reps: int,
                   bootstrap: int = 200) -> CriticalValue:
    """Critical value of the level-alpha test from the simulated null law.

    The quantile is the order statistic at index ceil((1 - alpha) * reps);
    its standard error is estimated by a resampling bootstrap.
    """
    psi, value = _null_quantile(sampler, alpha, reps)
    rng = derive_rng(sampler.seed, "critval-bootstrap")
    boots = np.empty(bootstrap)
    for i in range(bootstrap):
        resample = psi[rng.integers(0, psi.size, psi.size)]
        boots[i] = _order_stat_quantile(resample, alpha)
    return CriticalValue(float(alpha), value, int(reps), int(sampler.seed),
                         float(boots.std(ddof=1)))


def _signal_strength_sq(sampler: LimitLawSampler) -> float:
    if sampler.signal_strength_sq is not None:
        return float(sampler.signal_strength_sq)
    if sampler.signal_gap is None:
        raise ParameterError("sampler has no signal gap; build it with a signal distribution")
    u = sampler.grid.nodes
    gap = sampler.signal_gap(u)
    w = sampler.omega.density(u)
    return float(np.dot(gap * gap, w) / sampler.grid.k)


def theoretical_type2(sampler: LimitLawSampler, gamma: float, alpha: float,
                      reps: int, critical: float | None = None) -> float:
    """Asymptotic Type II error at the detection boundary.

    Fraction of boundary-law draws that fall at or below
    ``C_alpha - gamma^2 * Delta^2`` where Delta is the weighted distance
    between signal and null. Pass ``critical`` to reuse a known C_alpha
    (e.g. the tabulated uniform-null value); otherwise it is simulated
    from the sampler's own seed.
    """
    if gamma <= 0.0:
        raise ParameterError(f"boundary strength gamma must be positive, got {gamma}")
    if critical is None:
        critical = _null_quantile(sampler, alpha, reps)[1]
    threshold = float(critical) - gamma * gamma * _signal_strength_sq(sampler)
    boundary_sampler = sampler.with_seed(derive_seed(sampler.seed, "type2-boundary"))
    quad, cross = sample_psi_components(boundary_sampler, reps)
    return float(np.mean(quad + (2.0 * gamma) * cross <= threshold))


def case_ii_variance(null: AnalyticDistribution, signal: Distribution,
                     omega: WeightMeasure | None = None,
                     resolution: int = 2048) -> float:
    """Variance of the Gaussian limit in the fully detectable regime.

    Deterministic double quadrature (midpoint rule on a resolution^2 grid) of
    ``4 (u ^ v - u v) / (f(F^{-1}(u)) f(F^{-1}(v))) gap(u) gap(v)`` against
    omega x omega, where gap is the signal-minus-null quantile difference.
    Equals four times the variance of the cross term of the boundary law.
    """
    if null.density_fn is None:
        raise ParameterError("case (ii) variance needs an analytic null with a density")
    omega = omega if omega is not None else lebesgue()
    lo, hi = omega.window
    cell = (hi - lo) / resolution
    u = lo + (np.arange(resolution) + 0.5) * cell
    w = omega.density_fn(u)
    pf = null.density_fn(null.quantile_fn(u))
    if np.any(pf[w > 0.0] < _DENSITY_FLOOR):
        raise SingularDensityError(
            "null density at quantile is numerically singular on the window")
    gap = signal.quantile_fn(u) - null.quantile_fn(u)
    t = np.where(w > 0.0, gap * w / pf, 0.0) * cell
    kernel = np.minimum.outer(u, u) - np.outer(u, u)
    return float(4.0 * t @ kernel @ t)
