"""Monte Carlo simulation of the asymptotic laws of the scaled test statistic.

Under the null, ``n W2^2(P_n, P)`` converges to the integral of the squared
Brownian bridge divided by the squared null density-at-quantile, weighted
by the omega density. At the detection boundary (sample-size-scaled shift
parameter equal to a constant ``gamma``) the limit gains a linear
cross term against the quantile gap between signal and null.

Bridges are the pinned scaled Gaussian random walk
``B_k = (W_k - (k/K) W_K) / sqrt(K)``, which has the exact finite-dimensional
bridge law at the grid nodes in O(K) per path. Integrals over (0, 1) use the
trapezoid rule on the grid; with the bridge pinned to zero at both ends,
the rule reduces to a mean over interior nodes. The kernel folds the pinning
into the coefficients and contracts the walk: ``sum c B = W.(c/sqrt K) -
W_K sum c u/sqrt K``, ``sum d B^2 = W^2.(d/K) - W_K W.(2du/K) + W_K^2 sum d u^2/K``.

A :class:`LimitLawSampler` is a plain description of the law: the null,
the optional signal, the weight, the grid and the seed. A null without a
density, and a law unbounded under an untrimmed weight, are rejected when it
is built; a density at quantile below 1e-8 inside the weight window raises
:class:`SingularDensityError`. :func:`case_ii_variance` checks alike.

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
least one) in one walk buffer; each tile continues the chunk's stream, so
the tile size bounds memory and changes no output. One draw contracts a
stack of coefficient rows (``omegas=``, ``signals=``), each alone, so its
column is the same bit for bit whatever is stacked beside it: the power map
draws once for all deltas (label "law"), the weight comparison once for all
weights ("critval-weight"). The chunks are the only streams: a critical
value's standard error is its exact bootstrap value, and
:func:`theoretical_type2` reads C_alpha off its draws' quadratic column.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._seeds import derive_rng
from .distributions import Distribution, _BLOCK_SCALARS, _available_cpus
from .errors import ParameterError, SingularDensityError
from .transport import (WeightMeasure, _check_integrable, _dot, _row_dots, lebesgue,
                        w2_weighted_squared)

__all__ = [
    "BridgeGrid",
    "LimitLawSampler",
    "CriticalValue",
    "sample_psi_null",
    "sample_psi_components",
    "critical_value",
    "theoretical_type2",
    "case_ii_variance",
]

_DENSITY_FLOOR = 1e-8
_MAX_WORKERS = 8
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


def _check_laws(null: Distribution, signal: Distribution | None, omega: WeightMeasure) -> None:
    """The null has a density, and no quantile diverges inside omega's window."""
    if null.density_fn is None:
        raise ParameterError(
            "limit-law sampling needs an analytic null with a density; "
            "use a resampling critical source for data-defined nulls")
    for law in (null, signal):
        if law is not None:
            _check_integrable(law, omega)


@dataclass(frozen=True)
class LimitLawSampler:
    """Seeded sampler of the null and boundary limit laws of (null, signal, omega).

    The null law is read through ``null.density_fn(null.quantile_fn(u))``,
    the boundary cross term through the quantile gap
    ``signal.quantile_fn(u) - null.quantile_fn(u)``. ``signal`` may be
    ``None`` when only the null law is needed. Building it runs :func:`_check_laws`.
    """

    null: Distribution
    signal: Optional[Distribution]
    omega: WeightMeasure
    grid: BridgeGrid
    seed: int

    def __post_init__(self):
        _check_laws(self.null, self.signal, self.omega)

    @classmethod
    def from_distributions(cls, null: Distribution,
                           signal: Distribution | None = None,
                           omega: WeightMeasure | None = None,
                           grid: BridgeGrid | None = None,
                           seed: int = 0) -> "LimitLawSampler":
        return cls(null, signal, omega if omega is not None else lebesgue(),
                   grid if grid is not None else BridgeGrid(), int(seed))


def _node_coefficients(null: Distribution, signal: Distribution | None, omega: WeightMeasure,
                       grid: BridgeGrid) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Quadratic and (with a signal) cross coefficients on the grid's nodes (checked laws)."""
    _check_laws(null, signal, omega)
    u, h = grid.nodes, 1.0 / grid.k
    w = omega.density(u)
    q = null.quantile_fn(u)
    pf = null.density_fn(q)
    active = w > 0.0
    if np.any(pf[active] < _DENSITY_FLOOR):
        raise SingularDensityError(
            "null density at quantile falls below 1e-8 inside the integration window; "
            "trim the weight measure or truncate the null instead of relying on clipping"
        )
    gap = None if signal is None else signal.quantile_fn(u) - q
    with np.errstate(divide="ignore", invalid="ignore"):
        c_quad = np.where(active, w / (pf * pf), 0.0) * h
        c_cross = None if gap is None else np.where(active, gap * w / pf, 0.0) * h
    return c_quad, c_cross


def _component_batches(sampler: LimitLawSampler, reps: int, omegas: Sequence[WeightMeasure],
                       signals: Sequence[Distribution]):
    """(quad, cross) over ``reps`` bridges, in chunk order.

    ``quad`` has a column per weight in ``omegas``, ``cross`` one per law in
    ``signals`` (under the sampler's weight); each column is contracted alone.
    """
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    if any(s is None for s in signals):
        raise ParameterError("sampler has no signal; build it with a signal distribution")
    grid = sampler.grid
    k, reps, u = grid.k, int(reps), grid.nodes
    # the walk's coefficients (module docstring)
    quad_rows = [(d, 2.0 * u * d, _dot(d, u * u)) for d in
                 (_node_coefficients(sampler.null, None, w, grid)[0] / k for w in omegas)]
    cross_rows = [(c, _dot(c, u)) for c in
                  (_node_coefficients(sampler.null, s, sampler.omega, grid)[1] / math.sqrt(k)
                   for s in signals)]
    rows = max(1, _CHUNK_NORMALS // k)
    chunks = -(-reps // rows)

    def chunk(i: int):
        rng = derive_rng(sampler.seed, "bridge-paths", i)
        n = min(rows, reps - i * rows)
        tile = min(n, max(1, _BLOCK_SCALARS // k))
        buffer = np.empty((tile, k))
        quad, cross = np.empty((n, len(quad_rows))), np.empty((n, len(cross_rows)))
        for lo in range(0, n, tile):
            t = min(tile, n - lo)
            walk = buffer[:t]
            rng.standard_normal(out=walk)
            np.cumsum(walk, axis=1, out=walk)
            end, walk = walk[:, -1].copy(), walk[:, :-1]
            for j, (c, cu) in enumerate(cross_rows):
                cross[lo:lo + t, j] = _row_dots(walk, c) - end * cu
            linear = [_row_dots(walk, du) for _, du, _ in quad_rows]
            np.square(walk, out=walk)
            for j, ((d, _, duu), lin) in enumerate(zip(quad_rows, linear)):
                quad[lo:lo + t, j] = _row_dots(walk, d) - end * lin + (end * end) * duu
        return quad, cross

    workers = min(_available_cpus(), chunks, _MAX_WORKERS)
    if workers == 1:
        quads, crosses = zip(*map(chunk, range(chunks)))
    else:
        with ThreadPoolExecutor(workers) as pool:
            quads, crosses = zip(*pool.map(chunk, range(chunks)))
    return np.concatenate(quads), np.concatenate(crosses)


def sample_psi_null(sampler: LimitLawSampler, reps: int,
                    omegas: Sequence[WeightMeasure] | None = None) -> np.ndarray:
    """Draws of the null limit: the weighted integral of (B_u / f(F^{-1}(u)))^2.

    With ``omegas``, a (reps, len(omegas)) array on shared bridges whose column j is
    the draw for weight ``omegas[j]``.
    """
    psi, _ = _component_batches(sampler, reps, (sampler.omega,) if omegas is None else omegas, ())
    return psi[:, 0] if omegas is None else psi


def sample_psi_components(sampler: LimitLawSampler, reps: int,
                          signals: Sequence[Distribution] | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Paired draws (quadratic term, cross term) sharing one bridge per draw.

    The boundary limit at parameter gamma is ``quad + 2 * gamma * cross``,
    so one pass yields the law for every gamma at once. With ``signals``, ``cross``
    is a (reps, len(signals)) array whose column j is the draw for signal ``signals[j]``.
    """
    quad, cross = _component_batches(sampler, reps, (sampler.omega,),
                                     (sampler.signal,) if signals is None else signals)
    return quad[:, 0], cross[:, 0] if signals is None else cross


@dataclass(frozen=True)
class CriticalValue:
    """Empirical (1 - alpha)-quantile of the simulated null limit law."""

    alpha: float
    value: float
    reps: int
    seed: int
    standard_error: float


def _order_stat_index(size: int, alpha: float) -> int:
    """k such that the (1 - alpha)-quantile of ``size`` values is their k-th smallest."""
    return min(max(math.ceil((1.0 - alpha) * size), 1), size)


def _order_stat_quantile(values: np.ndarray, alpha: float) -> float:
    k = _order_stat_index(values.size, alpha)
    return float(np.partition(values, k - 1)[k - 1])


def _quantile_standard_error(values: np.ndarray, alpha: float) -> float:
    """Exact bootstrap standard error of :func:`_order_stat_quantile` (Hutson & Ernst 2000).

    The k-th smallest of n values redrawn with replacement is the j-th smallest
    ``x_(j)`` with probability ``w_j = I_{j/n}(k, n-k+1) - I_{(j-1)/n}(k, n-k+1)``
    (I the regularized incomplete beta function), ties included, so the error
    is ``sqrt(sum_j w_j (x_(j) - m)^2)`` with ``m = sum_j w_j x_(j)``.
    """
    from scipy.special import betainc  # deferred: importing the package loads no scipy

    x = np.sort(values)
    n = x.size
    k = _order_stat_index(n, alpha)
    w = np.diff(betainc(k, n - k + 1, np.arange(n + 1) / n))
    dev = x - _dot(w, x)
    return math.sqrt(_dot(w * dev, dev))


def _check_quantile_reps(alpha: float | None, reps: int) -> None:
    """``alpha`` is a level and ``reps`` draws are enough for its (1 - alpha)-quantile.

    The one rule for every critical value read off draws: ``(1 - alpha) * reps >= 10``, and
    the quantile, the k-th smallest draw (:func:`_order_stat_index`), is not the largest.
    """
    if alpha is None or not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if (1.0 - alpha) * reps < 10.0 or _order_stat_index(reps, alpha) >= reps:
        raise ParameterError(
            f"reps={reps} too small to estimate the {1 - alpha:g}-quantile; need "
            "(1 - alpha) * reps >= 10 and a draw above it (ceil((1 - alpha) * reps) < reps)")


def _check_critical(value: float, what: str = "critical value") -> None:
    """A critical value of ``n W2^2`` is positive and finite (NaN is neither)."""
    if not 0.0 < value < math.inf:
        raise ParameterError(f"{what} must be positive and finite, got {value}")


def _null_quantile(sampler: LimitLawSampler, alpha: float,
                   reps: int) -> tuple[np.ndarray, float]:
    """``reps`` draws of the null law and their (1 - alpha)-quantile (an order statistic)."""
    _check_quantile_reps(alpha, reps)
    psi = sample_psi_null(sampler, reps)
    return psi, _order_stat_quantile(psi, alpha)


def critical_value(sampler: LimitLawSampler, alpha: float, reps: int) -> CriticalValue:
    """Critical value of the level-alpha test from the simulated null law.

    The quantile is :func:`_null_quantile`'s, under :func:`_check_quantile_reps`; its standard
    error is the exact bootstrap one (:func:`_quantile_standard_error`), which draws nothing.
    """
    psi, value = _null_quantile(sampler, alpha, reps)
    return CriticalValue(float(alpha), value, int(reps), int(sampler.seed),
                         _quantile_standard_error(psi, alpha))


def _type2(quad, cross, critical: float, delta_sq: float, gammas) -> list[float]:
    """Per gamma, the share of ``quad + 2 gamma cross <= critical - gamma^2 delta_sq``."""
    return [float(np.mean(quad + (2.0 * g) * cross <= critical - g * g * delta_sq))
            for g in gammas]


def theoretical_type2(sampler: LimitLawSampler, gamma: float | Sequence[float],
                      alpha: float | None, reps: int,
                      critical: float | None = None) -> float | list[float]:
    """Asymptotic Type II error at the detection boundary, for one gamma or a sequence.

    Fraction of boundary-law draws at or below ``C_alpha - gamma^2 * Delta^2``,
    Delta the weighted distance between signal and null: a float for a number
    ``gamma``, a list for a sequence, every gamma read off the same draws of
    :func:`sample_psi_components`. Pass ``critical`` to reuse a known C_alpha
    (e.g. the tabulated uniform-null value); otherwise it is the level-``alpha``
    quantile of the draws' quadratic column, the draws of :func:`_null_quantile`.
    """
    gammas = [float(g) for g in np.atleast_1d(gamma)]
    if any(g <= 0.0 for g in gammas):
        raise ParameterError(f"boundary strength gamma must be positive, got {gamma}")
    if critical is None:
        _check_quantile_reps(alpha, reps)
    else:
        _check_critical(critical)  # before any draw
    quad, cross = sample_psi_components(sampler, reps)
    critical = _order_stat_quantile(quad, alpha) if critical is None else float(critical)
    _check_critical(critical)
    type2 = _type2(quad, cross, critical,
                   w2_weighted_squared(sampler.null, sampler.signal, sampler.omega), gammas)
    return type2 if np.ndim(gamma) else type2[0]


def case_ii_variance(null: Distribution, signal: Distribution,
                     omega: WeightMeasure | None = None) -> float:
    """Variance of the Gaussian limit in the fully detectable regime.

    Four times the variance of the cross term that :func:`sample_psi_components`
    draws on the default :class:`BridgeGrid`: the quadratic form of the node
    coefficients t (:func:`_node_coefficients`) under the bridge covariance
    ``u ^ v - u v``, i.e. the trapezoid rule for
    ``4 (u ^ v - u v) / (f(F^{-1}(u)) f(F^{-1}(v))) gap(u) gap(v)`` against
    omega x omega, where gap is the signal-minus-null quantile difference.
    The kernel is semiseparable, so with ascending nodes the form is
    ``sum_i t_i u_i (t_i + 2 sum_{j>i} t_j) - (sum_i t_i u_i)^2``, in O(K).
    """
    grid = BridgeGrid()
    u = grid.nodes
    t = _node_coefficients(null, signal, omega if omega is not None else lebesgue(), grid)[1]
    after = np.append(np.cumsum(t[:0:-1])[::-1], 0.0)  # sum of t_j over j > i
    tu = t * u
    return float(4.0 * (_dot(tu, t + 2.0 * after) - tu.sum() ** 2))
