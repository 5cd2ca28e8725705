"""One-dimensional distribution primitives.

Every law exposes the same fields, whether it is analytic or a data
sample: ``name``, the vectorized callables ``quantile_fn`` / ``cdf_fn`` /
``density_fn`` (``None`` when there is no density; each returns a new
array, or its input where it is the identity), ``support`` (an
infinite end means the quantile diverges there), ``quantile_breakpoints``
(points of (0, 1) where the quantile jumps or changes formula; the grid
``k/n`` for a sample), ``quantile_is_identity`` and ``quantile_is_step``
(the quantile is constant between its breakpoints, as a sample's is).
Distances, transport paths, statistics and limit laws read these fields
and need not know which kind of law they hold, and every law is drawn by
:func:`_interleaved_blocks`. A law given by its quantile alone (a
perturbation family, a displacement) gets its CDF from :func:`_bisect` over
a fixed bracket. The public :meth:`quantile` / :meth:`cdf` methods add
domain validation and scalar passthrough on top of the callables.

Analytic laws (:class:`AnalyticDistribution`) store the fields directly;
empirical laws (:class:`EmpiricalDistribution`) are sorted samples with
the order-statistic quantile and derive them from the values. The
built-in families cover the reference and signal distributions used by the
testing and experiment layers: the unit uniform, (truncated) Gaussians,
two quantile perturbations of the uniform (a sinusoidal bump and a
tails-only deviation), and a symmetric two-point law.

Conventions
-----------
* Quantiles are generalized inverses, ``F^{-1}(u) = inf{x : F(x) >= u}``;
  the empirical version at ``u`` is the ``ceil(n*u)``-th order statistic.
* All distribution objects are immutable and safe to share across threads.
  Sampling takes an explicit seed (or Generator), so parallel callers own
  independent streams.
* Monte Carlo work runs in tiles of ``_BLOCK_SCALARS`` = 2^15 values (256 KiB
  per array), here and inside the limit law's bridge chunks. Every draw
  continues its stream across tiles and every quantile is elementwise, so
  the tile size bounds memory and changes no output (save after a subset
  row that :func:`_distinct_subsets` redraws, which is rare); the limit
  law's streams are fixed by its chunk of 2^20 normals
  (``limitlaw._CHUNK_NORMALS``).
* Sorted samples of a law drawn by inverse transform sort the uniforms
  first and then apply the quantile, which gives the same values as sorting
  after the quantile (a block whose quantile rounds a row out of order is
  sorted again). One call may draw several cells, each a law with its own
  generator, whose blocks it interleaves round-robin
  (:func:`_interleaved_blocks`; :func:`_sorted_blocks` is its one-cell
  case). When a call spans two or more blocks and the process may use more
  than one CPU, one worker thread draws and sorts the uniforms of the next
  two scheduled blocks, each from its own cell's stream, while the caller
  maps and scores the current one; the worker touches only the generators
  and ``ndarray.sort``. Resampled data blocks are drawn inline, and a
  subsample of n of N values without replacement is drawn a block at a
  time while 8n <= N. Outputs depend on neither the order of sorting, the
  interleaving nor the core count.
* :func:`gaussian` imports scipy's ``ndtr`` / ``ndtri`` when it is called,
  as the limit law's critical-value standard error imports ``betainc``; so
  importing the package never loads scipy, nor does a command that builds no
  Gaussian law and reports no such standard error.
"""

from __future__ import annotations

import collections
import contextlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from ._seeds import derive_rng
from .errors import DomainError, EmptySampleError, ParameterError

__all__ = [
    "AnalyticDistribution",
    "EmpiricalDistribution",
    "Distribution",
    "sine_quantile",
    "tail_quantile",
    "uniform01",
    "gaussian",
    "sine_distribution",
    "tail_distribution",
    "two_point",
    "truncate",
    "affine",
    "sample",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Offset and cap keeping inverse-transform uniforms strictly inside (0, 1).
_U_EPS = 2.0 ** -54
_U_MAX = 1.0 - 2.0 ** -53  # the largest double below 1
# Values per tile of Monte Carlo work (256 KiB per array): sorted-sample blocks
# here and the bridge tiles inside each limit-law chunk. It moves no draw.
_BLOCK_SCALARS = 1 << 15
# Draws per row when subsampling n of N without replacement: the mean number
# of draws that collects n distinct values, plus _SUBSET_SDS standard
# deviations, plus _SUBSET_PAD. A row that still falls short is redrawn.
_SUBSET_SDS = 8.0
_SUBSET_PAD = 2
# Sample blocks whose uniforms a worker thread draws and sorts ahead of the caller.
_AHEAD = 2


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _scalar_or_array(out: np.ndarray, scalar_input: bool):
    return float(out) if scalar_input else out


@dataclass(frozen=True)
class AnalyticDistribution:
    """A distribution given by explicit cdf/quantile (and optional density).

    The callables stored in ``cdf_fn``/``quantile_fn``/``density_fn`` are
    vectorized (ndarray in, ndarray out); the public :meth:`cdf`,
    :meth:`quantile`, :meth:`density` methods add domain validation and
    scalar passthrough.

    ``compact_support_ok`` records whether the density is continuous and
    bounded away from zero on a compact support: test routines that rely on
    this property warn (rather than fail) when it is absent.
    """

    name: str
    cdf_fn: Callable[[np.ndarray], np.ndarray]
    quantile_fn: Callable[[np.ndarray], np.ndarray]
    density_fn: Optional[Callable[[np.ndarray], np.ndarray]]
    support: tuple[float, float]
    compact_support_ok: bool
    quantile_breakpoints: tuple[float, ...] = ()
    quantile_is_identity: bool = False
    quantile_is_step: bool = False

    def cdf(self, x):
        scalar = np.isscalar(x)
        return _scalar_or_array(self.cdf_fn(_as_float_array(x)), scalar)

    def quantile(self, u):
        scalar = np.isscalar(u)
        uu = _as_float_array(u)
        if np.any((uu <= 0.0) | (uu >= 1.0)):
            raise DomainError(f"quantile of {self.name} requires u in (0, 1)")
        return _scalar_or_array(self.quantile_fn(uu), scalar)

    def density(self, x):
        if self.density_fn is None:
            raise ParameterError(f"{self.name} has no density")
        scalar = np.isscalar(x)
        return _scalar_or_array(self.density_fn(_as_float_array(x)), scalar)

    def __repr__(self) -> str:  # compact, the callables are not informative
        return f"AnalyticDistribution({self.name})"


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """A sorted sample with step cdf and order-statistic quantile.

    Exposes the same fields as :class:`AnalyticDistribution`, derived from
    the values: the quantile jumps on the grid ``k/n``, the support is the
    sample range, and there is no density.
    """

    values: np.ndarray = field(repr=False)

    density_fn = None
    quantile_is_identity = False
    quantile_is_step = True

    def __post_init__(self):
        v = np.sort(_as_float_array(self.values).ravel())
        if v.size == 0:
            raise EmptySampleError("empty empirical distribution")
        if not np.all(np.isfinite(v)):
            raise ParameterError("empirical values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def name(self) -> str:
        return f"empirical(n={self.n})"

    @property
    def support(self) -> tuple[float, float]:
        return float(self.values[0]), float(self.values[-1])

    @property
    def quantile_breakpoints(self) -> np.ndarray:
        grid = np.arange(1, self.n, dtype=float)
        grid /= self.n
        return grid

    def quantile_fn(self, u: np.ndarray) -> np.ndarray:
        idx = np.clip(np.ceil(self.n * u).astype(np.int64), 1, self.n)
        return self.values[idx - 1]

    def cdf_fn(self, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.values, x, side="right") / self.n

    def quantile(self, u):
        """Order-statistic quantile: the ``ceil(n*u)``-th sorted value, u in (0, 1]."""
        scalar = np.isscalar(u)
        uu = _as_float_array(u)
        if np.any((uu <= 0.0) | (uu > 1.0)):
            raise DomainError("empirical quantile requires u in (0, 1]")
        return _scalar_or_array(self.quantile_fn(uu), scalar)

    def cdf(self, x):
        scalar = np.isscalar(x)
        out = self.cdf_fn(_as_float_array(x))
        return _scalar_or_array(np.asarray(out, dtype=float), scalar)

    def __repr__(self) -> str:
        lo, hi = self.support
        return f"EmpiricalDistribution(n={self.n}, range=[{lo:g}, {hi:g}])"


Distribution = Union[AnalyticDistribution, EmpiricalDistribution]


# ---------------------------------------------------------------------------
# Quantile perturbation families
# ---------------------------------------------------------------------------

def sine_quantile(p: float, u):
    """Sinusoidally perturbed uniform quantile ``u + (p / 2 pi) sin(2 pi u)``.

    Nondecreasing for ``p in [0, 1]`` since the derivative is
    ``1 + p cos(2 pi u) >= 1 - p``.
    """
    if not (0.0 <= p <= 1.0):
        raise ParameterError(f"sine distribution requires p in [0, 1], got {p} "
                             "(monotonicity fails beyond 1)")
    scalar = np.isscalar(u)
    uu = _as_float_array(u)
    return _scalar_or_array(uu + (p / (2.0 * math.pi)) * np.sin(2.0 * math.pi * uu), scalar)


def tail_quantile(p: float, u):
    """Uniform quantile deviated only on the tails ``[0, p]`` and ``[1 - p, 1]``.

    Piecewise: ``u + 0.45 (2p/pi) cos(pi u / 2p)`` on the lower tail, the
    identity in the middle, and the point-symmetric image on the upper tail.
    Continuous at the joins and strictly increasing (slope >= 0.55).
    """
    if not (0.0 < p <= 0.5):
        raise ParameterError(f"tail distribution requires p in (0, 1/2], got {p}")
    scalar = np.isscalar(u)
    uu = _as_float_array(u)
    amp = 0.45 * (2.0 * p / math.pi)
    out = uu.copy()
    lower = uu <= p
    upper = ~lower & ~(uu < 1.0 - p)  # the tails hold a fraction 2p of the points
    ul, uh = uu[lower], uu[upper]
    out[lower] = ul + amp * np.cos(math.pi * ul / (2.0 * p))
    out[upper] = uh - amp * np.cos(math.pi * (1.0 - uh) / (2.0 * p))
    return _scalar_or_array(out, scalar)


def _tail_quantile_slope(p: float, u: np.ndarray) -> np.ndarray:
    lower = 1.0 - 0.45 * np.sin(math.pi * u / (2.0 * p))
    upper = 1.0 - 0.45 * np.sin(math.pi * (1.0 - u) / (2.0 * p))
    return np.where(u <= p, lower, np.where(u < 1.0 - p, 1.0, upper))


# ---------------------------------------------------------------------------
# Monotone inversion (vectorized bisection)
# ---------------------------------------------------------------------------

def _bisect(fn: Callable[[np.ndarray], np.ndarray], target, lo: float,
            hi: float) -> np.ndarray:
    """Generalized inverse ``inf{z in [lo, hi] : fn(z) >= target}`` of a nondecreasing fn.

    The numbers ``lo`` and ``hi`` must bracket the result. The upper end keeps
    ``fn(hi) >= target``, so step functions invert to the left end of each
    step. Each point stops once its own bracket is narrower than 1e-14 times
    ``max(1, |hi|)``, so an elementwise ``fn`` inverts a point alike alone or
    in any array; the upper end is returned.
    """
    t = np.asarray(target, dtype=float)
    lo = np.full(t.shape, lo, dtype=float)
    hi = np.full(t.shape, hi, dtype=float)
    for _ in range(200):
        open_ = hi - lo > 1e-14 * np.maximum(1.0, np.abs(hi))
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        ge = fn(mid) >= t
        hi = np.where(open_ & ge, mid, hi)
        lo = np.where(open_ & ~ge, mid, lo)
    return hi


def _cdf_from_quantile(quantile_fn: Callable[[np.ndarray], np.ndarray],
                       lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    """CDF of a law with a continuous nondecreasing quantile, by :func:`_bisect`.

    The search runs over ``u in [lo, hi]``: laws whose quantile is defined
    on the closed unit interval pass ``(0, 1)``, laws whose quantile may
    diverge at the ends pass a bracket strictly inside it.
    """
    return lambda x: _bisect(quantile_fn, x, lo, hi)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def uniform01() -> AnalyticDistribution:
    """The uniform distribution on [0, 1]; its quantile is the identity."""
    return AnalyticDistribution(
        name="uniform01",
        cdf_fn=lambda x: np.clip(x, 0.0, 1.0),
        quantile_fn=lambda u: np.asarray(u, dtype=float),
        density_fn=lambda x: ((x >= 0.0) & (x <= 1.0)).astype(float),
        support=(0.0, 1.0),
        compact_support_ok=True,
        quantile_is_identity=True,
    )


def gaussian(mean: float = 0.0, sd: float = 1.0,
             lo: float | None = None, hi: float | None = None) -> AnalyticDistribution:
    """Gaussian law, optionally truncated (and renormalized) to [lo, hi].

    The untruncated version has unbounded support and therefore does not
    satisfy the compact-support assumption used by the limit-law machinery;
    distance computations on it require a trimmed weight measure.
    """
    from scipy.special import ndtr, ndtri  # deferred: importing the package loads no scipy

    if sd <= 0.0:
        raise ParameterError(f"gaussian sd must be positive, got {sd}")
    m, s = float(mean), float(sd)
    base = AnalyticDistribution(
        name=f"gaussian({m:g},{s:g})",
        cdf_fn=lambda x: ndtr((x - m) / s),
        quantile_fn=lambda u: m + s * ndtri(u),
        density_fn=lambda x: np.exp(-0.5 * ((x - m) / s) ** 2) / (s * _SQRT_2PI),
        support=(-math.inf, math.inf),
        compact_support_ok=False,
    )
    if lo is None and hi is None:
        return base
    if lo is None or hi is None:
        raise ParameterError("gaussian truncation requires both lo and hi")
    return truncate(base, lo, hi)


def _law_from_quantile(name: str, q: Callable[[np.ndarray], np.ndarray],
                       slope: Callable[[np.ndarray], np.ndarray], *, compact: bool,
                       breakpoints: tuple[float, ...] = ()) -> AnalyticDistribution:
    """Law on ``[q(0), q(1)]`` with the continuous increasing quantile ``q`` of slope ``slope``.

    The CDF inverts ``q`` by :func:`_cdf_from_quantile`; the density is
    ``1 / slope(cdf(x))`` inside the support (infinite where the slope vanishes).
    Building the law evaluates ``q`` at 0 and 1, where ``q`` checks its parameter.
    """
    cdf = _cdf_from_quantile(q, 0.0, 1.0)
    lo, hi = float(q(0.0)), float(q(1.0))

    def dens(x):
        inside = (x >= lo) & (x <= hi)
        with np.errstate(divide="ignore"):
            return np.where(inside, 1.0 / slope(cdf(np.clip(x, lo, hi))), 0.0)

    return AnalyticDistribution(name=name, cdf_fn=cdf, quantile_fn=q, density_fn=dens,
                                support=(lo, hi), compact_support_ok=compact,
                                quantile_breakpoints=breakpoints)


def sine_distribution(p: float) -> AnalyticDistribution:
    """Law on [0, 1] whose quantile is the sinusoidal perturbation of the identity."""
    if p == 0.0:
        return uniform01()
    # the slope vanishes at u = 1/2 when p = 1
    return _law_from_quantile(f"sine({p:g})", lambda u: sine_quantile(p, u),
                              lambda u: 1.0 + p * np.cos(2.0 * math.pi * u), compact=bool(p < 1.0))


def tail_distribution(p: float) -> AnalyticDistribution:
    """Law whose quantile deviates from the identity only on the tails."""
    return _law_from_quantile(f"tailq({p:g})", lambda u: tail_quantile(p, u),
                              lambda u: _tail_quantile_slope(p, u), compact=True,
                              breakpoints=(p, 1.0 - p))


def two_point(lo: float, hi: float) -> AnalyticDistribution:
    """Discrete law putting mass 1/2 on each of ``lo`` and ``hi``."""
    if not lo < hi:
        raise ParameterError(f"two_point requires lo < hi, got {lo}, {hi}")
    lo, hi = float(lo), float(hi)
    return AnalyticDistribution(
        name=f"twopoint({lo:g},{hi:g})",
        cdf_fn=lambda x: np.where(x < lo, 0.0, np.where(x < hi, 0.5, 1.0)),
        quantile_fn=lambda u: np.where(u <= 0.5, lo, hi),
        density_fn=None,
        support=(lo, hi),
        compact_support_ok=False,
        quantile_breakpoints=(0.5,),
    )


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------

def truncate(dist: Distribution, lo: float, hi: float) -> Distribution:
    """Restrict a distribution to [lo, hi] and renormalize.

    For analytic laws this conditions on the window; for empirical laws it
    keeps the observations inside the window.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParameterError(f"truncation window must be a finite interval, got [{lo}, {hi}]")
    if isinstance(dist, EmpiricalDistribution):
        kept = dist.values[(dist.values >= lo) & (dist.values <= hi)]
        if kept.size == 0:
            raise ParameterError("truncation window contains no observations")
        return EmpiricalDistribution(kept)

    flo = float(dist.cdf_fn(np.asarray(lo, dtype=float)))
    fhi = float(dist.cdf_fn(np.asarray(hi, dtype=float)))
    z = fhi - flo
    if z <= 0.0:
        raise ParameterError(f"truncation window [{lo}, {hi}] has zero mass under {dist.name}")
    base_cdf, base_q, base_dens = dist.cdf_fn, dist.quantile_fn, dist.density_fn

    def cdf(x):
        return np.clip((base_cdf(np.clip(x, lo, hi)) - flo) / z, 0.0, 1.0)

    def quantile(u):
        return np.clip(base_q(flo + u * z), lo, hi)

    dens = None
    if base_dens is not None:
        def dens(x):
            inside = (x >= lo) & (x <= hi)
            return np.where(inside, base_dens(np.asarray(x, dtype=float)) / z, 0.0)

    breakpoints = tuple(
        (b - flo) / z for b in dist.quantile_breakpoints if flo < b < fhi
    )
    return AnalyticDistribution(
        name=f"truncated({dist.name},[{lo:g},{hi:g}])",
        cdf_fn=cdf,
        quantile_fn=quantile,
        density_fn=dens,
        support=(lo, hi),
        compact_support_ok=base_dens is not None,
        quantile_breakpoints=breakpoints,
    )


def affine(dist: Distribution, scale: float, shift: float = 0.0) -> Distribution:
    """Law of ``scale * X + shift`` for ``X ~ dist`` (scale may be negative).

    For a negative scale the cdf of the image law is taken in the
    continuous sense; discrete laws transformed with negative scale get the
    almost-everywhere-correct version.
    """
    if scale == 0.0:
        raise ParameterError("affine scale must be nonzero")
    a, b = float(scale), float(shift)
    if isinstance(dist, EmpiricalDistribution):
        return EmpiricalDistribution(a * dist.values + b)
    if a == 1.0 and b == 0.0:
        return dist

    base_cdf, base_q, base_dens = dist.cdf_fn, dist.quantile_fn, dist.density_fn
    slo, shi = dist.support
    if a > 0:
        cdf = lambda x: base_cdf((x - b) / a)
        quantile = lambda u: a * base_q(u) + b
        support = (a * slo + b, a * shi + b)
        breakpoints = dist.quantile_breakpoints
    else:
        cdf = lambda x: 1.0 - base_cdf((x - b) / a)
        quantile = lambda u: a * base_q(1.0 - u) + b
        support = (a * shi + b, a * slo + b)
        breakpoints = tuple(sorted(1.0 - bp for bp in dist.quantile_breakpoints))
    dens = None
    if base_dens is not None:
        dens = lambda x: base_dens((x - b) / a) / abs(a)
    return AnalyticDistribution(
        name=f"affine({dist.name},{a:g},{b:g})",
        cdf_fn=cdf,
        quantile_fn=quantile,
        density_fn=dens,
        support=support,
        compact_support_ok=dist.compact_support_ok,
        quantile_breakpoints=breakpoints,
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _open_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    # rng.random() covers [0, 1); the offset lifts 0 off the left end, and the
    # cap catches the largest draw, 1 - 2^-53, which the offset rounds up to 1
    u = rng.random(n) + _U_EPS
    return np.minimum(u, _U_MAX, out=u)


def sample(dist: Distribution, n: int, seed) -> EmpiricalDistribution:
    """Draw ``n`` observations as one row of :func:`_sorted_blocks`; deterministic given seed.

    For empirical inputs this is resampling with replacement. ``seed`` may
    be an integer or an existing ``numpy.random.Generator`` (the caller then
    owns the stream).
    """
    if n < 1:
        raise ParameterError(f"sample size must be >= 1, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed, "sample")
    [row] = next(_sorted_blocks(dist, int(n), 1, rng))
    return EmpiricalDistribution(row)


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _drawn_ahead(draw: Callable[..., np.ndarray], jobs: list[tuple]) -> Iterator[np.ndarray]:
    """``draw(*job)`` for each job in ``jobs``, in order.

    With two or more jobs and more than one CPU, one worker thread runs the
    next ``_AHEAD`` draws while the caller uses the current result; the
    draws still run one at a time and in order. Closing the generator
    cancels the draws not yet started and waits for the one running, so no
    worker outlives it.
    """
    if len(jobs) < 2 or _available_cpus() < 2:
        yield from (draw(*job) for job in jobs)
        return
    pool = ThreadPoolExecutor(1)
    try:
        pending = collections.deque(pool.submit(draw, *job) for job in jobs[:_AHEAD])
        for job in jobs[_AHEAD:]:
            done = pending.popleft().result()
            pending.append(pool.submit(draw, *job))
            yield done
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _subset_width(N: int, n: int) -> int:
    """Draws per row for :func:`_distinct_subsets`: the coupon-collector margin."""
    p = (N - np.arange(n)) / N  # chance that the next draw is new, with i values seen
    mean, var = np.sum(1.0 / p), np.sum((1.0 - p) / p ** 2)
    return int(math.ceil(mean + _SUBSET_SDS * math.sqrt(var))) + _SUBSET_PAD


def _distinct_subsets(rng: np.random.Generator, N: int, n: int, m: int) -> np.ndarray:
    """``m`` rows of ``n`` distinct indices of ``range(N)``, each sorted; N <= 2^31.

    Each row is the first ``n`` distinct values of iid uniform draws on
    ``range(N)``, which is an exactly uniform n-subset: the law of the draws,
    and so of the subset, is invariant under relabelling the values. A block
    draws ``w`` values per row at once and sorts each row of the keys
    ``value << bits | position``; the first occurrence of each value then
    comes first, and the subset is the first occurrences at or before the
    position of the n-th new value. The rows that hold fewer than ``n``
    distinct values are drawn again after the block with twice the width;
    the event is invariant under relabelling too, so the subsets stay uniform.
    """
    out = np.empty((m, n), dtype=np.int64)
    todo = np.arange(m)
    w = _subset_width(N, n)
    while todo.size:
        bits = (w - 1).bit_length()
        dtype = np.int32 if (N - 1) << bits < 2 ** 31 else np.int64
        keys = rng.integers(0, N, size=(todo.size, w), dtype=dtype)
        keys <<= bits
        keys |= np.arange(w, dtype=dtype)
        keys.sort(axis=1)
        values, positions = keys >> bits, keys & dtype((1 << bits) - 1)
        repeated = np.zeros(keys.shape, dtype=bool)
        np.equal(values[:, 1:], values[:, :-1], out=repeated[:, 1:])
        positions[repeated] = w
        nth_new = np.partition(positions, n - 1, axis=1)[:, n - 1:n]
        full = nth_new[:, 0] < w
        nth_new[~full] = -1  # keeps nothing of a short row
        out[todo[full]] = values[positions <= nth_new].reshape(-1, n)
        todo = todo[~full]
        w *= 2
    return out


def _sorted_uniforms(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """``m`` rows of ``n`` open uniforms from ``rng``, each row sorted."""
    u = _open_uniforms(rng, m * n).reshape(m, n)
    u.sort(axis=1)
    return u


def _resampled_block(dist: EmpiricalDistribution, rng: np.random.Generator, n: int, m: int,
                     replace: bool) -> np.ndarray:
    """``m`` sorted rows of ``n`` values drawn from a data sample by index."""
    if replace:
        block = dist.values[rng.integers(0, dist.n, size=(m, n))]
        block.sort(axis=1)
    elif 8 * n <= dist.n <= 2 ** 31:
        block = dist.values[_distinct_subsets(rng, dist.n, n, m)]  # sorted indices
    else:
        block = np.stack([rng.choice(dist.values, size=n, replace=False) for _ in range(m)])
        block.sort(axis=1)
    return block


def _interleaved_blocks(cells: Sequence[tuple[Distribution, np.random.Generator]], n: int,
                        reps: int, replace: bool = True) -> Iterator[tuple[int, np.ndarray]]:
    """``(cell, block)``: ``reps`` sorted samples of size ``n`` from each cell's law.

    ``cells`` holds ``(dist, rng)`` pairs, each with its own generator. Every
    cell is cut into the same blocks of at most ``_BLOCK_SCALARS`` values (one
    row if n is larger), and the blocks come round-robin: the first block of
    every cell, then the second, and so on. Laws are drawn by inverse
    transform: a block's uniforms are drawn and sorted (on a worker thread,
    two blocks ahead, when :func:`_drawn_ahead` uses one) and mapped through
    ``quantile_fn`` on the caller's thread, which also checks that the rows
    are still sorted. A data sample of N values is resampled by index inline
    (:func:`_resampled_block`): with replacement, or without it a block at a
    time by :func:`_distinct_subsets` while 8n <= N, and one ``rng.choice``
    call per row for larger n, where that is faster. Each cell's draws
    continue its own stream in order, so its rows depend on neither the
    thread, the other cells nor the block size, with one exception: a subset
    row that :func:`_distinct_subsets` redraws takes its draws after its
    block, so the rows from it on depend on where the block ends. The
    generator owns the cells' generators until it is exhausted or closed.
    """
    resampled = [isinstance(dist, EmpiricalDistribution) for dist, _ in cells]
    for (dist, _), data in zip(cells, resampled):
        if data and not replace and n > dist.n:
            raise ParameterError(
                f"cannot subsample {n} from {dist.n} observations without replacement")
    rows = max(1, _BLOCK_SCALARS // max(n, 1))
    schedule = [(c, min(rows, reps - done)) for done in range(0, reps, rows)
                for c in range(len(cells))]
    ahead = [(cells[c][1], n, m) for c, m in schedule if not resampled[c]]
    with contextlib.closing(_drawn_ahead(_sorted_uniforms, ahead)) as uniforms:
        for c, m in schedule:
            dist, rng = cells[c]
            if resampled[c]:
                yield c, _resampled_block(dist, rng, n, m, replace)
                continue
            block = dist.quantile_fn(next(uniforms))
            # the same multiset as sorting after the quantile; a quantile that
            # rounds (or is not monotone) can leave a row out of order
            if not np.all(block[:, 1:] >= block[:, :-1]):
                block.sort(axis=1)
            yield c, block


def _sorted_blocks(dist: Distribution, n: int, reps: int, rng: np.random.Generator,
                   replace: bool = True) -> Iterator[np.ndarray]:
    """``reps`` sorted samples of size ``n`` from ``dist``, in memory-bounded blocks.

    The one-cell case of :func:`_interleaved_blocks`, with its blocks and
    draws.
    """
    for _, block in _interleaved_blocks([(dist, rng)], n, reps, replace):
        yield block
