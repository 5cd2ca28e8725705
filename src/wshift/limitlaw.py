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

A :class:`LimitLawSampler` is a plain description of the law: the null,
the optional signal, the weight, the grid and the seed. The per-node
coefficients read the null's density at its quantile and the quantile gap
straight from the two laws, and the squared weighted distance between
them is :func:`~wshift.transport.w2_weighted_squared`. A null without a
density is rejected when the sampler is built, and a density at quantile
below 1e-8 inside the weight window raises :class:`SingularDensityError`;
:func:`case_ii_variance` goes through the same two checks.

Bridges are drawn in chunks of 2^20 / K rows (``_CHUNK_NORMALS`` normals;
the last chunk may be shorter). Chunk ``i`` draws from its own stream, labelled
("bridge-paths", i) under the sampler's seed, so ``_CHUNK_NORMALS`` fixes
every stream: changing it moves every limit-law output. The chunks run on a
thread pool of up to eight workers (one per CPU the process may use), or
inline when there is one worker or one chunk. The chunks are joined in
order, so the draws depend only on (seed, K, reps), never on the number of
workers, and the draws for ``reps`` are a prefix of the draws for any
larger ``reps``, at every K: ``transport._row_dots`` rounds a row the same
way whatever rows sit beside it, a lone row included.

Inside a chunk the work runs in tiles of ``_BLOCK_SCALARS // K`` rows (at
least one), reusing one walk and one bridge buffer per chunk. Each tile
continues the chunk's stream, so the tile size bounds memory and changes
no output.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._seeds import derive_rng, derive_seed
from .distributions import Distribution, _BLOCK_SCALARS, _available_cpus
from .errors import ParameterError, SingularDensityError
from .transport import WeightMeasure, _dot, _row_dots, lebesgue, w2_weighted_squared

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
_MAX_WORKERS = 8
# Resamples behind a critical value's standard error.
_BOOTSTRAP = 200
# Normals per bridge chunk; it sets the chunk streams ("bridge-paths", i), so
# it cannot change without moving every limit-law output.
_CHUNK_NORMALS = 1 << 20


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


def _bridge_batch(walk: np.ndarray, bridge: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill ``bridge`` (rows, K - 1) with bridge values at the interior nodes (exact joint law).

    ``walk`` (rows, K) is scratch space; both buffers are the caller's, and
    the draws continue ``rng``'s stream.
    """
    k = walk.shape[1]
    rng.standard_normal(out=walk)
    np.cumsum(walk, axis=1, out=walk)
    np.multiply(walk[:, -1:], np.arange(1, k) / k, out=bridge)
    np.subtract(walk[:, :-1], bridge, out=bridge)
    bridge /= math.sqrt(k)
    return bridge


def simulate_bridge(grid: BridgeGrid, seed: int) -> np.ndarray:
    """One Brownian bridge path at the interior grid nodes."""
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed, "bridge-paths")
    return _bridge_batch(np.empty((1, grid.k)), np.empty((1, grid.k - 1)), rng)[0]


def _require_density(null: Distribution) -> None:
    if null.density_fn is None:
        raise ParameterError(
            "limit-law sampling needs an analytic null with a density; "
            "use a resampling critical source for data-defined nulls")


@dataclass(frozen=True)
class LimitLawSampler:
    """Seeded sampler of the null and boundary limit laws of (null, signal, omega).

    The null law is read through ``null.density_fn(null.quantile_fn(u))``,
    the boundary cross term through the quantile gap
    ``signal.quantile_fn(u) - null.quantile_fn(u)``. ``signal`` may be
    ``None`` when only the null law is needed. A null without a density is
    rejected when the sampler is built.
    """

    null: Distribution
    signal: Optional[Distribution]
    omega: WeightMeasure
    grid: BridgeGrid
    seed: int

    def __post_init__(self):
        _require_density(self.null)

    @classmethod
    def from_distributions(cls, null: Distribution,
                           signal: Distribution | None = None,
                           omega: WeightMeasure | None = None,
                           grid: BridgeGrid | None = None,
                           seed: int = 0) -> "LimitLawSampler":
        return cls(null, signal, omega if omega is not None else lebesgue(),
                   grid if grid is not None else BridgeGrid(), int(seed))


def _law_on_nodes(null: Distribution, signal: Distribution | None, omega: WeightMeasure,
                  u: np.ndarray) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Weight, null density at quantile and quantile gap (or None) at the nodes u."""
    w = omega.density(u)
    pf = null.density_fn(null.quantile_fn(u))
    if np.any(pf[w > 0.0] < _DENSITY_FLOOR):
        raise SingularDensityError(
            "null density at quantile falls below 1e-8 inside the integration window; "
            "trim the weight measure or truncate the null instead of relying on clipping"
        )
    gap = None if signal is None else signal.quantile_fn(u) - null.quantile_fn(u)
    return w, pf, gap


def _node_coefficients(sampler: LimitLawSampler, need_cross: bool):
    """Per-node trapezoid coefficients of the quadratic (and cross) integrals."""
    if need_cross and sampler.signal is None:
        raise ParameterError("sampler has no signal; build it with a signal distribution")
    w, pf, gap = _law_on_nodes(sampler.null, sampler.signal if need_cross else None,
                               sampler.omega, sampler.grid.nodes)
    active = w > 0.0
    h = 1.0 / sampler.grid.k
    with np.errstate(divide="ignore", invalid="ignore"):
        c_quad = np.where(active, w / (pf * pf), 0.0) * h
        c_cross = np.where(active, gap * w / pf, 0.0) * h if need_cross else None
    return c_quad, c_cross


def _component_batches(sampler: LimitLawSampler, reps: int, need_cross: bool):
    """(quad, cross) per chunk of bridge rows, in chunk order."""
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    c_quad, c_cross = _node_coefficients(sampler, need_cross)
    k, reps = sampler.grid.k, int(reps)
    rows = max(1, _CHUNK_NORMALS // k)
    chunks = -(-reps // rows)

    def chunk(i: int):
        rng = derive_rng(sampler.seed, "bridge-paths", i)
        n = min(rows, reps - i * rows)
        tile = min(n, max(1, _BLOCK_SCALARS // k))
        walk, bridge = np.empty((tile, k)), np.empty((tile, k - 1))
        quad, cross = np.empty(n), np.empty(n) if need_cross else None
        for lo in range(0, n, tile):
            t = min(tile, n - lo)
            b = _bridge_batch(walk[:t], bridge[:t], rng)
            if need_cross:
                cross[lo:lo + t] = _row_dots(b, c_cross)
            np.square(b, out=b)
            quad[lo:lo + t] = _row_dots(b, c_quad)
        return quad, cross

    workers = min(_available_cpus(), chunks, _MAX_WORKERS)
    if workers == 1:
        yield from map(chunk, range(chunks))
    else:
        with ThreadPoolExecutor(workers) as pool:
            yield from pool.map(chunk, range(chunks))


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


def _check_quantile_reps(alpha: float | None, reps: int) -> None:
    """``alpha`` is a level and ``reps`` draws are enough for its null quantile."""
    if alpha is None or not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if (1.0 - alpha) * reps < 10.0:
        raise ParameterError(
            f"reps={reps} too small to estimate the {1 - alpha:g}-quantile; "
            "need (1 - alpha) * reps >= 10")


def _check_critical(value: float, what: str = "critical value") -> None:
    """A critical value of ``n W2^2`` is positive and finite (NaN is neither)."""
    if not 0.0 < value < math.inf:
        raise ParameterError(f"{what} must be positive and finite, got {value}")


def _null_quantile(sampler: LimitLawSampler, alpha: float,
                   reps: int) -> tuple[np.ndarray, float]:
    """``reps`` draws of the null law and their (1 - alpha)-quantile.

    The quantile is the order statistic at index ceil((1 - alpha) * reps).
    """
    _check_quantile_reps(alpha, reps)
    psi = sample_psi_null(sampler, reps)
    return psi, _order_stat_quantile(psi, alpha)


def critical_value(sampler: LimitLawSampler, alpha: float, reps: int) -> CriticalValue:
    """Critical value of the level-alpha test from the simulated null law.

    The quantile is the order statistic at index ceil((1 - alpha) * reps);
    its standard error is estimated by a bootstrap of ``_BOOTSTRAP`` resamples.
    """
    psi, value = _null_quantile(sampler, alpha, reps)
    rng = derive_rng(sampler.seed, "critval-bootstrap")
    boots = np.empty(_BOOTSTRAP)
    for i in range(_BOOTSTRAP):
        resample = psi[rng.integers(0, psi.size, psi.size)]
        boots[i] = _order_stat_quantile(resample, alpha)
    return CriticalValue(float(alpha), value, int(reps), int(sampler.seed),
                         float(boots.std(ddof=1)))


def theoretical_type2(sampler: LimitLawSampler, gamma: float | Sequence[float],
                      alpha: float | None, reps: int,
                      critical: float | None = None) -> float | list[float]:
    """Asymptotic Type II error at the detection boundary, for one gamma or a sequence.

    Fraction of boundary-law draws at or below ``C_alpha - gamma^2 * Delta^2``,
    Delta the weighted distance between signal and null: a float for a number
    ``gamma``, a list for a sequence, every gamma read off the same draws (stream
    "type2-boundary" under the sampler's seed). Pass ``critical`` to reuse a known
    C_alpha (e.g. the tabulated uniform-null value); otherwise it is simulated at
    level ``alpha`` from the sampler's own seed, and ``alpha`` is read only then.
    """
    gammas = [float(g) for g in np.atleast_1d(gamma)]
    if any(g <= 0.0 for g in gammas):
        raise ParameterError(f"boundary strength gamma must be positive, got {gamma}")
    if critical is None:
        critical = _null_quantile(sampler, alpha, reps)[1]
    _check_critical(critical)
    boundary_sampler = dataclasses.replace(
        sampler, seed=derive_seed(sampler.seed, "type2-boundary"))
    quad, cross = sample_psi_components(boundary_sampler, reps)
    delta_sq = w2_weighted_squared(sampler.null, sampler.signal, sampler.omega)
    type2 = [float(np.mean(quad + (2.0 * g) * cross <= float(critical) - g * g * delta_sq))
             for g in gammas]
    return type2 if np.ndim(gamma) else type2[0]


def case_ii_variance(null: Distribution, signal: Distribution,
                     omega: WeightMeasure | None = None,
                     resolution: int = 2048) -> float:
    """Variance of the Gaussian limit in the fully detectable regime.

    Deterministic double quadrature (midpoint rule on a resolution^2 grid) of
    ``4 (u ^ v - u v) / (f(F^{-1}(u)) f(F^{-1}(v))) gap(u) gap(v)`` against
    omega x omega, where gap is the signal-minus-null quantile difference.
    Equals four times the variance of the cross term of the boundary law.
    The kernel is semiseparable, so with ascending nodes the quadratic form
    is ``sum_i t_i u_i (t_i + 2 sum_{j>i} t_j) - (sum_i t_i u_i)^2``, in
    O(resolution) time and memory.
    """
    _require_density(null)
    omega = omega if omega is not None else lebesgue()
    lo, hi = omega.window
    cell = (hi - lo) / resolution
    u = lo + (np.arange(resolution) + 0.5) * cell
    w, pf, gap = _law_on_nodes(null, signal, omega, u)
    t = np.where(w > 0.0, gap * w / pf, 0.0) * cell
    after = np.append(np.cumsum(t[:0:-1])[::-1], 0.0)  # sum of t_j over j > i
    tu = t * u
    return float(4.0 * (_dot(tu, t + 2.0 * after) - tu.sum() ** 2))
