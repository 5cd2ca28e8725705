"""Level-alpha goodness-of-fit tests based on the weighted Wasserstein statistic.

The core decision rule rejects the null when ``n * W2^2(P_n, P)`` exceeds a
critical value. Three critical-value sources are supported:

* ``TabulatedCritical`` - a known quantile of the null limit law (for the
  uniform null with uniform weight, 0.46136 at level 0.05);
* ``LimitLawCritical`` - Monte Carlo simulation of the null limit law;
* ``ResamplingCritical`` - the finite-n reference distribution obtained by
  redrawing samples of the same size from the null itself (the route to use
  when the null is only available as data).

Each source has a class-level ``name``, fields that are exactly the settings
it reads, and ``draw(config, n, seed)``, which returns the reference
statistics behind the p-value and the critical value. :func:`run_test` records
``name`` and the fields (a tabulated ``value`` aside) as provenance; the CLI's
``test`` picks a source by ``name`` and sets its fields from its options.

Every critical value is a quantile of the scaled, squared statistic
``n * W2^2``. Every one read off draws obeys one rule,
:func:`wshift.limitlaw._check_quantile_reps`, and every resampled one comes
from :func:`_resampled_critical`, drawing with :func:`wshift.distributions._sorted_blocks`
on the stream "resampling-reference" (``ResamplingCritical``) or "resampling-critval"
(:func:`resampling_critical_value`; :func:`resampling_power` under the
"null-critval" child seed). Power is counted by :func:`_reject_counts`, the
rejection counter the experiments use too. Without an explicit source a
data-sample null is resampled and an analytic null goes through the limit law
(``_default_source``, which the CLI's ``auto`` source calls too). A
Kolmogorov-Smirnov statistic is included as a comparator.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Iterable, Union

import numpy as np

from ._seeds import derive_rng, derive_seed
from .distributions import (
    AnalyticDistribution,
    Distribution,
    EmpiricalDistribution,
    _interleaved_blocks,
    _sorted_blocks,
)
from .errors import ParameterError
from .limitlaw import (
    BridgeGrid,
    LimitLawSampler,
    _check_critical,
    _check_quantile_reps,
    _null_quantile,
    _order_stat_quantile,
    sample_psi_null,
)
from .transport import (
    WeightMeasure,
    lebesgue,
    plan_scaled_statistic,
    scaled_statistics,
    w2_weighted_squared,
)

__all__ = [
    "wasserstein_statistic",
    "TabulatedCritical",
    "LimitLawCritical",
    "ResamplingCritical",
    "TestConfig",
    "TestOutcome",
    "run_test",
    "resampling_critical_value",
    "resampling_power",
]

def _warn_if_assumption_violated(null: Distribution, omega: WeightMeasure) -> None:
    if isinstance(null, AnalyticDistribution) and not null.compact_support_ok:
        extra = (" (computing on the trimmed window)" if omega.trim > 0.0 else
                 "; consider truncating it or trimming the weight measure")
        warnings.warn(
            f"null {null.name} lacks a continuous density bounded away from zero on a "
            f"compact support; the asymptotic null law may not apply{extra}",
            stacklevel=3,
        )


def wasserstein_statistic(samples: EmpiricalDistribution, null: Distribution,
                          omega: WeightMeasure | None = None) -> float:
    """Scaled squared distance ``n * W2^2`` between the sample and the null."""
    omega = omega if omega is not None else lebesgue()
    _warn_if_assumption_violated(null, omega)
    return samples.n * w2_weighted_squared(samples, null, omega)


def ks_statistics_sorted(sorted_samples: np.ndarray, null: Distribution) -> np.ndarray:
    """Scaled KS statistic ``sqrt(n) * sup |F_n - F|`` of each row of sorted samples.

    The supremum is attained at sample points and computed there exactly.
    """
    x = np.atleast_2d(np.asarray(sorted_samples, dtype=float))
    n = x.shape[1]
    f = null.cdf_fn(x.ravel()).reshape(x.shape)
    upper, lower = _ks_steps(n)
    gap = np.subtract(upper, f)  # the one array written here, never F: a CDF may return x
    d_plus = np.max(gap, axis=1)
    d_minus = np.max(np.subtract(f, lower, out=gap), axis=1)
    return math.sqrt(n) * np.maximum(d_plus, d_minus)


@functools.lru_cache(maxsize=1)
def _ks_steps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The empirical CDF's values ``i/n`` after and ``(i - 1)/n`` before the i-th point.

    Kept for the last n, at which an experiment scores all its rows, and read-only,
    since every call shares them.
    """
    i = np.arange(1, n + 1)
    steps = i / n, (i - 1) / n
    for a in steps:
        a.flags.writeable = False
    return steps


# ---------------------------------------------------------------------------
# Test configuration and outcome
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TabulatedCritical:
    """A known critical value; reference draws are still simulated for the p-value."""

    name: ClassVar[str] = "tabulated"
    value: float
    reps: int = 20_000
    grid_k: int = 2048

    def __post_init__(self):
        _check_critical(self.value, "tabulated critical value")

    def draw(self, config: TestConfig, n: int, seed: int) -> tuple[np.ndarray, float]:
        sampler = _limit_sampler(config, self.grid_k, seed)
        return sample_psi_null(sampler, self.reps), float(self.value)


@dataclass(frozen=True)
class LimitLawCritical:
    """Critical value from Monte Carlo simulation of the null limit law."""

    name: ClassVar[str] = "limitlaw"
    reps: int = 100_000
    grid_k: int = BridgeGrid.k

    def draw(self, config: TestConfig, n: int, seed: int) -> tuple[np.ndarray, float]:
        return _null_quantile(_limit_sampler(config, self.grid_k, seed), config.alpha, self.reps)


@dataclass(frozen=True)
class ResamplingCritical:
    """Critical value from redrawing same-size samples from the null itself."""

    name: ClassVar[str] = "resampling"
    reps: int = 1000
    replace: bool = True

    def draw(self, config: TestConfig, n: int, seed: int) -> tuple[np.ndarray, float]:
        if self.reps < 100:
            raise ParameterError("insufficient reference draws: resampling needs reps >= 100")
        return _resampled_critical(config.null_dist, config.omega, n, config.alpha, self.reps,
                                   derive_rng(seed, "resampling-reference"), self.replace)[1:]


CriticalSource = Union[TabulatedCritical, LimitLawCritical, ResamplingCritical]


def _default_source(null: Distribution) -> CriticalSource:
    """Resampling for a data-sample null, the simulated limit law for an analytic one."""
    return ResamplingCritical() if isinstance(null, EmpiricalDistribution) else LimitLawCritical()


@dataclass(frozen=True)
class TestConfig:
    __test__ = False  # not a pytest class despite the name

    null_dist: Distribution
    omega: WeightMeasure = None  # type: ignore[assignment]
    alpha: float = 0.05
    critical_source: CriticalSource = None  # type: ignore[assignment]

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.omega is None:
            object.__setattr__(self, "omega", lebesgue())
        if self.critical_source is None:
            object.__setattr__(self, "critical_source", _default_source(self.null_dist))


@dataclass(frozen=True)
class TestOutcome:
    __test__ = False  # not a pytest class despite the name

    statistic: float
    critical_value: float
    reject: bool
    p_value: float
    n: int
    provenance: dict

    def __post_init__(self):
        if self.reject != (self.statistic > self.critical_value):
            raise AssertionError(
                f"reject={self.reject} contradicts statistic {self.statistic} "
                f"vs critical value {self.critical_value}")


def _limit_sampler(config: TestConfig, grid_k: int, seed: int) -> LimitLawSampler:
    return LimitLawSampler.from_distributions(
        config.null_dist, omega=config.omega, grid=BridgeGrid(grid_k),
        seed=derive_seed(seed, "limitlaw-reference"))


Statistic = Callable[[np.ndarray], np.ndarray]


def _w2_statistic(plan) -> Statistic:
    return lambda block: scaled_statistics(block, plan)


def _reject_counts(blocks: Iterable[tuple[int, np.ndarray]],
                   tests: list[tuple[Statistic, float]], cells: int = 1) -> list[list[int]]:
    """Rejections per cell of each ``(statistic, critical value)`` pair over all blocks.

    ``blocks`` yields ``(cell, block)`` pairs, as
    :func:`~wshift.distributions._interleaved_blocks` does, for cells
    ``0 .. cells - 1``. Each block of sorted samples is generated once and
    scored by every statistic; a row is rejected when its statistic exceeds
    the critical value.
    """
    counts = [[0] * len(tests) for _ in range(cells)]
    for cell, block in blocks:
        for i, (statistic, critical) in enumerate(tests):
            counts[cell][i] += int(np.count_nonzero(statistic(block) > critical))
    return counts


def _resampled_critical(null: Distribution, omega: WeightMeasure, n: int, alpha: float,
                        reps: int, rng: np.random.Generator,
                        replace: bool) -> tuple[Statistic, np.ndarray, float]:
    """(``n W2^2`` against ``null``, its values on ``reps`` redrawn samples, their quantile)."""
    _check_quantile_reps(alpha, reps)
    statistic = _w2_statistic(plan_scaled_statistic(null, omega, n))
    reference = np.concatenate([statistic(block)
                                for block in _sorted_blocks(null, n, reps, rng, replace)])
    return statistic, reference, _order_stat_quantile(reference, alpha)


def run_test(samples: EmpiricalDistribution, config: TestConfig,
             seed: int = 0) -> TestOutcome:
    """Run the goodness-of-fit test and assemble the decision with provenance.

    Deterministic given ``seed``: the reference draws behind the critical
    value and the Monte Carlo p-value derive all their randomness from it.
    The p-value uses the add-one estimator ``(1 + #{ref >= stat}) / (reps + 1)``
    and is therefore never exactly zero.
    """
    stat = wasserstein_statistic(samples, config.null_dist, config.omega)
    source = config.critical_source
    reference, critical = source.draw(config, samples.n, seed)
    provenance = {
        "seed": int(seed),
        "null": config.null_dist.name,
        "omega": config.omega.describe(),
        "alpha": config.alpha,
        "source": source.name,
        # a tabulated value is the outcome's critical value, not a setting of the source
        **{f.name: getattr(source, f.name) for f in fields(source) if f.name != "value"},
    }
    p_value = (1.0 + int(np.count_nonzero(reference >= stat))) / (reference.size + 1.0)
    return TestOutcome(
        statistic=float(stat),
        critical_value=float(critical),
        reject=bool(stat > critical),
        p_value=float(p_value),
        n=samples.n,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Resampling-based critical values and power
# ---------------------------------------------------------------------------

def resampling_critical_value(reference: EmpiricalDistribution, n: int, alpha: float,
                              reps: int, seed: int = 0, replace: bool = True) -> float:
    """(1 - alpha)-quantile of ``W2(reference, subsample of size n)``.

    The subsamples are drawn from the reference itself (with replacement by
    default), so this is the finite-n null reference distribution of the
    plain distance between the reference and an n-point sample of it, read
    as ``sqrt(q / n)`` off the same order statistic q of ``n W2^2``.
    """
    critical = _resampled_critical(reference, lebesgue(), n, alpha, reps,
                                   derive_rng(seed, "resampling-critval"), replace)[2]
    return math.sqrt(max(critical, 0.0) / n)


def resampling_power(reference: EmpiricalDistribution, shifted: EmpiricalDistribution,
                     n: int, alpha: float, trials: int, reps: int,
                     seed: int = 0, replace: bool = True) -> float:
    """Power of the resampling test against subsamples of a shifted sample.

    Fraction of ``trials`` subsamples of size n from ``shifted`` whose
    statistic ``n W2^2`` against the reference exceeds its resampled
    (1 - alpha)-quantile.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    statistic, _, critical = _resampled_critical(
        reference, lebesgue(), n, alpha, reps,
        derive_rng(derive_seed(seed, "null-critval"), "resampling-critval"), replace)
    [[rejected]] = _reject_counts(
        _interleaved_blocks([(shifted, derive_rng(seed, "alt-trials"))], n, trials, replace),
        [(statistic, critical)])
    return rejected / trials
