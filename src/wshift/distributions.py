"""One-dimensional distribution primitives.

Every law exposes the same fields, whether it is analytic or a data
sample: ``name``, the vectorized callables ``quantile_fn`` / ``cdf_fn`` /
``density_fn`` (``None`` when there is no density), ``support``,
``bounded_support``, ``quantile_breakpoints`` (points of (0, 1) where the
quantile jumps or changes formula; the grid ``k/n`` for a sample),
``quantile_is_identity`` and ``sampler_fn`` (``None`` unless the law
samples other than by inverse transform). Distances, transport paths,
statistics and limit laws read these fields and need not know which kind
of law they hold. The public :meth:`quantile` / :meth:`cdf` methods add
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import ndtr, ndtri

from ._seeds import derive_rng
from .errors import DomainError, EmptySampleError, ParameterError

__all__ = [
    "AnalyticDistribution",
    "EmpiricalDistribution",
    "Distribution",
    "empirical_quantile",
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
    bounded_support: bool
    compact_support_ok: bool
    quantile_breakpoints: tuple[float, ...] = ()
    quantile_is_identity: bool = False
    sampler_fn: Optional[Callable[[int, np.random.Generator], np.ndarray]] = None

    @property
    def has_density(self) -> bool:
        return self.density_fn is not None

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
    bounded_support = True
    quantile_is_identity = False
    sampler_fn = None

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
        return np.arange(1, self.n) / self.n

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


def empirical_quantile(d: EmpiricalDistribution, u):
    """Quantile of an empirical distribution (see :meth:`EmpiricalDistribution.quantile`)."""
    return d.quantile(u)


# ---------------------------------------------------------------------------
# Quantile perturbation families
# ---------------------------------------------------------------------------

def sine_quantile(p: float, u):
    """Sinusoidally perturbed uniform quantile ``u + (p / 2 pi) sin(2 pi u)``.

    Nondecreasing for ``p in [0, 1]`` since the derivative is
    ``1 + p cos(2 pi u) >= 1 - p``.
    """
    if not (0.0 <= p <= 1.0):
        raise ParameterError(f"sine quantile requires p in [0, 1], got {p} "
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
        raise ParameterError(f"tail quantile requires p in (0, 1/2], got {p}")
    scalar = np.isscalar(u)
    uu = _as_float_array(u)
    amp = 0.45 * (2.0 * p / math.pi)
    lower = uu + amp * np.cos(math.pi * uu / (2.0 * p))
    upper = uu - amp * np.cos(math.pi * (1.0 - uu) / (2.0 * p))
    out = np.where(uu <= p, lower, np.where(uu < 1.0 - p, uu, upper))
    return _scalar_or_array(out, scalar)


def _tail_quantile_slope(p: float, u: np.ndarray) -> np.ndarray:
    lower = 1.0 - 0.45 * np.sin(math.pi * u / (2.0 * p))
    upper = 1.0 - 0.45 * np.sin(math.pi * (1.0 - u) / (2.0 * p))
    return np.where(u <= p, lower, np.where(u < 1.0 - p, 1.0, upper))


# ---------------------------------------------------------------------------
# Monotone inversion helpers (vectorized bisection)
# ---------------------------------------------------------------------------

def _cdf_from_quantile(quantile_fn: Callable[[np.ndarray], np.ndarray],
                       lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    """CDF of a law with a continuous nondecreasing quantile, by bisection.

    The search runs over ``u in [lo, hi]``: laws whose quantile is defined
    on the closed unit interval pass ``(0, 1)``, laws whose quantile may
    diverge at the ends pass a bracket strictly inside it.
    """

    def cdf(x: np.ndarray) -> np.ndarray:
        xx = np.asarray(x, dtype=float)
        a = np.full(xx.shape, lo)
        b = np.full(xx.shape, hi)
        for _ in range(60):
            mid = 0.5 * (a + b)
            right = quantile_fn(mid) < xx
            a = np.where(right, mid, a)
            b = np.where(right, b, mid)
        return 0.5 * (a + b)

    return cdf


def _invert_cdf(cdf_fn, bracket_fn):
    """Generalized inverse ``inf{x : F(x) >= u}`` by bisection.

    ``bracket_fn(u) -> (lo, hi)`` must return arrays bracketing the result;
    works for step cdfs because the upper end maintains ``F(hi) >= u``.
    """

    def quantile(u: np.ndarray) -> np.ndarray:
        lo, hi = bracket_fn(u)
        lo = np.array(np.broadcast_to(lo, u.shape), dtype=float)
        hi = np.array(np.broadcast_to(hi, u.shape), dtype=float)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            ge = cdf_fn(mid) >= u
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)
            if np.all(hi - lo <= 1e-14 * np.maximum(1.0, np.abs(hi))):
                break
        return hi

    return quantile


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
        bounded_support=True,
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
    if sd <= 0.0:
        raise ParameterError(f"gaussian sd must be positive, got {sd}")
    m, s = float(mean), float(sd)
    base = AnalyticDistribution(
        name=f"gaussian({m:g},{s:g})",
        cdf_fn=lambda x: ndtr((x - m) / s),
        quantile_fn=lambda u: m + s * ndtri(u),
        density_fn=lambda x: np.exp(-0.5 * ((x - m) / s) ** 2) / (s * _SQRT_2PI),
        support=(-math.inf, math.inf),
        bounded_support=False,
        compact_support_ok=False,
    )
    if lo is None and hi is None:
        return base
    if lo is None or hi is None:
        raise ParameterError("gaussian truncation requires both lo and hi")
    return truncate(base, lo, hi)


def sine_distribution(p: float) -> AnalyticDistribution:
    """Law on [0, 1] whose quantile is the sinusoidal perturbation of the identity."""
    if not (0.0 <= p <= 1.0):
        raise ParameterError(f"sine distribution requires p in [0, 1], got {p}")
    if p == 0.0:
        return uniform01()

    def q(u):
        return u + (p / (2.0 * math.pi)) * np.sin(2.0 * math.pi * u)

    inv = _cdf_from_quantile(q, 0.0, 1.0)

    def dens(x):
        inside = (x >= 0.0) & (x <= 1.0)
        slope = 1.0 + p * np.cos(2.0 * math.pi * inv(np.clip(x, 0.0, 1.0)))
        with np.errstate(divide="ignore"):
            return np.where(inside, 1.0 / slope, 0.0)

    return AnalyticDistribution(
        name=f"sine({p:g})",
        cdf_fn=inv,
        quantile_fn=q,
        density_fn=dens,
        support=(0.0, 1.0),
        bounded_support=True,
        compact_support_ok=bool(p < 1.0),  # slope vanishes at u=1/2 when p=1
    )


def tail_distribution(p: float) -> AnalyticDistribution:
    """Law whose quantile deviates from the identity only on the tails."""
    if not (0.0 < p <= 0.5):
        raise ParameterError(f"tail distribution requires p in (0, 1/2], got {p}")

    def q(u):
        return tail_quantile(p, u)

    inv = _cdf_from_quantile(q, 0.0, 1.0)
    lo = float(tail_quantile(p, 0.0))
    hi = float(tail_quantile(p, 1.0))

    def dens(x):
        inside = (x >= lo) & (x <= hi)
        u = inv(np.clip(x, lo, hi))
        return np.where(inside, 1.0 / _tail_quantile_slope(p, u), 0.0)

    return AnalyticDistribution(
        name=f"tailq({p:g})",
        cdf_fn=inv,
        quantile_fn=q,
        density_fn=dens,
        support=(lo, hi),
        bounded_support=True,
        compact_support_ok=True,
        quantile_breakpoints=(p, 1.0 - p),
    )


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
        bounded_support=True,
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
        bounded_support=True,
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
        bounded_support=dist.bounded_support,
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
    """Draw ``n`` observations by inverse transform; deterministic given seed.

    For empirical inputs this is resampling with replacement. ``seed`` may
    be an integer or an existing ``numpy.random.Generator`` (the caller then
    owns the stream).
    """
    if n < 1:
        raise ParameterError(f"sample size must be >= 1, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed, "sample")
    if dist.sampler_fn is not None:
        values = dist.sampler_fn(int(n), rng)
    else:
        values = dist.quantile_fn(_open_uniforms(rng, int(n)))
    return EmpiricalDistribution(values)
