"""Seeded simulation studies of the test's error behavior at desk scale.

Four scripted experiments, each returning a :class:`ResultTable`:

* :func:`run_phase_transition` - Type I / Type II error sums across shift
  decay exponents, locating the detectability threshold at exponent 1/2;
* :func:`run_power_map` - empirical Type II errors on a (signal strength,
  boundary constant) grid, side by side with the limit-law prediction;
* :func:`run_ks_comparison` - power of the Wasserstein test vs the
  Kolmogorov-Smirnov test for the sinusoidal and tail-deviation families;
* :func:`run_weight_comparison` - power of the quadratic-weight statistics
  (more mass on the tails) with per-weight Monte Carlo critical values.

Alternative samples are generated by exact pushforward: draw X from the
null and emit ``(1 - eps) X + eps T(X)`` with T the monotone transport map
to the signal, which shares one uniform stream between both terms. Given
the same (seed, family, p, gamma, n, trials), :func:`run_ks_comparison`
and :func:`run_weight_comparison` therefore see identical samples, so the
unit-weight column of the latter reproduces the former exactly.

Every cell records its trial count and the binomial standard error; grid
cells draw from independent labeled streams, so tables are bit-reproducible
from (config, seed) and independent of evaluation order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from ._io import atomic_write_text
from ._seeds import derive_rng, derive_seed
from .distributions import (
    AnalyticDistribution,
    Distribution,
    _open_uniforms,
    gaussian,
    sine_distribution,
    tail_distribution,
    uniform01,
)
from .errors import ParameterError
from .hypotest import ks_statistics_sorted
from .limitlaw import BridgeGrid, LimitLawSampler, critical_value, sample_psi_components
from .transport import (
    WeightMeasure,
    lebesgue,
    plan_scaled_statistic,
    quadratic_weight,
    scaled_statistics,
)

__all__ = [
    "Cell",
    "ResultTable",
    "PhaseConfig",
    "PowerMapConfig",
    "ComparisonConfig",
    "WeightComparisonConfig",
    "run_phase_transition",
    "run_power_map",
    "run_ks_comparison",
    "run_weight_comparison",
]

_BLOCK_SCALARS = 8_000_000
_TABLE_SCHEMA = "wshift-result-table/1"


# ---------------------------------------------------------------------------
# Result container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One scalar estimate on the experiment grid with its binomial SE."""

    axes: tuple[float, ...]
    metric: str
    value: float
    se: float
    trials: int


@dataclass(frozen=True)
class ResultTable:
    """Grid of estimates with full config echo; bit-reproducible from the seed."""

    axis_names: tuple[str, ...]
    cells: tuple[Cell, ...]
    config: dict

    def cell(self, metric: str, *axes: float) -> Cell:
        for c in self.cells:
            if c.metric == metric and c.axes == tuple(float(a) for a in axes):
                return c
        raise KeyError(f"no cell metric={metric!r} axes={axes!r}")

    def to_dict(self) -> dict:
        return {
            "schema": _TABLE_SCHEMA,
            "config": self.config,
            "axes": list(self.axis_names),
            "cells": [
                {
                    "axes": dict(zip(self.axis_names, c.axes)),
                    "metric": c.metric,
                    "value": c.value,
                    "se": c.se,
                    "trials": c.trials,
                }
                for c in self.cells
            ],
        }

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([*self.axis_names, "metric", "value", "se", "trials"])
        for c in self.cells:
            writer.writerow([*(f"{a:.10g}" for a in c.axes), c.metric,
                             f"{c.value:.10g}", f"{c.se:.10g}", c.trials])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        atomic_write_text(path, self.csv_text())

    def write_json(self, path) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")


def _binomial_se(value: float, trials: int) -> float:
    return math.sqrt(max(value * (1.0 - value), 0.0) / trials)


def _prob_cell(axes: tuple[float, ...], metric: str, value: float, trials: int) -> Cell:
    if not (0.0 <= value <= 1.0):
        raise AssertionError(f"probability cell {metric} out of range: {value}")
    return Cell(tuple(float(a) for a in axes), metric, float(value),
                _binomial_se(value, trials), int(trials))


# ---------------------------------------------------------------------------
# Sample generation (exact pushforward along the transport path)
# ---------------------------------------------------------------------------

def _sorted_shift_blocks(null: AnalyticDistribution, signal: Optional[Distribution],
                         eps: float, n: int, trials: int,
                         rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Sorted samples of ``(1 - eps) X + eps T(X)`` in memory-bounded blocks."""
    null_q = null.quantile_fn
    signal_q = signal.quantile_fn if signal is not None else None
    rows = max(1, _BLOCK_SCALARS // max(n, 1))
    done = 0
    while done < trials:
        m = min(rows, trials - done)
        u = _open_uniforms(rng, m * n).reshape(m, n)
        if eps == 0.0 or signal_q is None:
            v = null_q(u)
        else:
            v = (1.0 - eps) * null_q(u) + eps * signal_q(u)
        v.sort(axis=1)
        yield v
        done += m


Statistic = Callable[[np.ndarray], np.ndarray]


def _w2_statistic(plan) -> Statistic:
    return lambda block: scaled_statistics(block, plan)


def _reject_counts(blocks: Iterator[np.ndarray],
                   tests: list[tuple[Statistic, float]]) -> list[int]:
    """Rejections of each ``(statistic, critical value)`` pair over all blocks.

    Each block of sorted samples is generated once and scored by every
    statistic; a row is rejected when its statistic exceeds the critical value.
    """
    counts = [0] * len(tests)
    for block in blocks:
        for i, (statistic, critical) in enumerate(tests):
            counts[i] += int(np.count_nonzero(statistic(block) > critical))
    return counts


def _clamped_eps(gamma: float, n: int) -> float:
    eps = gamma / math.sqrt(n)
    if eps > 1.0:
        warnings.warn(f"shift fraction gamma/sqrt(n) = {eps:.3g} exceeds 1; clamped to 1",
                      stacklevel=3)
        return 1.0
    return eps


def _family_distribution(family: str, p: float) -> AnalyticDistribution:
    if family == "sine":
        return sine_distribution(p)
    if family == "tail":
        return tail_distribution(p)
    raise ParameterError(f"unknown signal family {family!r}; use 'sine' or 'tail'")


# ---------------------------------------------------------------------------
# Experiment 1: phase transition in the decay exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseConfig:
    """Error sums across shift levels ``eps_n = n^{-beta}``.

    The default signal is a standard Gaussian truncated to [-8, 8] and
    renormalized (the untruncated version has an unbounded quantile, which
    the asymptotic theory does not cover; pass ``gaussian(0, 1)`` explicitly
    to run it anyway, sampling is unaffected).
    """

    null: AnalyticDistribution = field(default_factory=uniform01)
    signal: Distribution = field(default_factory=lambda: gaussian(0.0, 1.0, -8.0, 8.0))
    n: int = 100_000
    betas: tuple[float, ...] = (0.2, 0.35, 0.5, 0.65, 0.8)
    trials: int = 200
    alpha: float = 0.05
    critical: float = 0.46136
    omega: WeightMeasure = field(default_factory=lebesgue)
    seed: int = 0

    def __post_init__(self):
        if not all(0.0 < b <= 1.0 for b in self.betas):
            raise ParameterError("betas must lie in (0, 1]")
        if self.trials < 20:
            raise ParameterError("need at least 20 trials per grid point")


def run_phase_transition(cfg: PhaseConfig) -> ResultTable:
    """Type I, Type II and their sum for each decay exponent beta."""
    tests = [(_w2_statistic(plan_scaled_statistic(cfg.null, cfg.omega, cfg.n)),
              cfg.critical)]
    cells: list[Cell] = []
    for beta in cfg.betas:
        eps = float(cfg.n) ** (-beta)
        null_rng = derive_rng(cfg.seed, "phase-null", repr(float(beta)), cfg.n)
        alt_rng = derive_rng(cfg.seed, "phase-alt", repr(float(beta)), cfg.n)
        [rej_null] = _reject_counts(
            _sorted_shift_blocks(cfg.null, None, 0.0, cfg.n, cfg.trials, null_rng), tests)
        [rej_alt] = _reject_counts(
            _sorted_shift_blocks(cfg.null, cfg.signal, eps, cfg.n, cfg.trials, alt_rng),
            tests)
        type1 = rej_null / cfg.trials
        type2 = 1.0 - rej_alt / cfg.trials
        c1 = _prob_cell((beta,), "type1", type1, cfg.trials)
        c2 = _prob_cell((beta,), "type2", type2, cfg.trials)
        total = type1 + type2
        if not (0.0 <= total <= 2.0):
            raise AssertionError("error sum out of range")
        cells.append(c1)
        cells.append(c2)
        cells.append(Cell((float(beta),), "error_sum", total,
                          math.hypot(c1.se, c2.se), cfg.trials))
    config = {
        "experiment": "phase_transition",
        "null": cfg.null.name,
        "signal": cfg.signal.name,
        "n": cfg.n,
        "betas": list(cfg.betas),
        "trials": cfg.trials,
        "alpha": cfg.alpha,
        "critical": cfg.critical,
        "omega": cfg.omega.describe(),
        "seed": cfg.seed,
    }
    return ResultTable(("beta",), tuple(cells), config)


# ---------------------------------------------------------------------------
# Experiment 2: Type II error map at the detection boundary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerMapConfig:
    """Grid over signal strength ``delta`` and boundary constant ``gamma``.

    Each delta is realized as the sinusoidal family with bump size
    ``p = delta * sqrt(8 pi^2)``, for which the squared distance to the
    uniform null is exactly delta^2; the shift level is
    ``eps_n = gamma / sqrt(n)``.
    """

    deltas: tuple[float, ...] = (0.01, 0.03, 0.05, 0.07, 0.09, 0.11)
    gammas: tuple[float, ...] = (3.5, 5.5, 7.5, 9.5, 11.75)
    n: int = 100_000
    trials: int = 200
    alpha: float = 0.05
    critical: float = 0.46136
    seed: int = 0
    law_reps: int = 50_000
    grid_k: int = 4096

    def __post_init__(self):
        for d in self.deltas:
            if not 0.0 < d * math.sqrt(8.0) * math.pi <= 1.0:
                raise ParameterError(
                    f"delta={d} is not realizable: need delta^2 < 1/(8 pi^2)")
        if self.trials < 20:
            raise ParameterError("need at least 20 trials per grid point")


def run_power_map(cfg: PowerMapConfig) -> ResultTable:
    """Empirical Type II errors next to the boundary-law prediction.

    Includes a null-calibration cell at axes (0, 0) whose ``type1`` value
    should sit in the binomial band around alpha.
    """
    null = uniform01()
    omega = lebesgue()
    tests = [(_w2_statistic(plan_scaled_statistic(null, omega, cfg.n)), cfg.critical)]
    cells: list[Cell] = []

    cal_rng = derive_rng(cfg.seed, "null-trials", cfg.n)
    [rejected] = _reject_counts(
        _sorted_shift_blocks(null, None, 0.0, cfg.n, cfg.trials, cal_rng), tests)
    cells.append(_prob_cell((0.0, 0.0), "type1", rejected / cfg.trials, cfg.trials))

    grid = BridgeGrid(cfg.grid_k)
    for delta in cfg.deltas:
        p = float(delta) * math.sqrt(8.0) * math.pi
        signal = sine_distribution(p)
        sampler = LimitLawSampler.from_distributions(
            null, signal, omega, grid, seed=derive_seed(cfg.seed, "law", repr(float(delta))))
        quad, cross = sample_psi_components(sampler, cfg.law_reps)
        delta_sq = float(sampler.signal_strength_sq)
        for gamma in cfg.gammas:
            eps = _clamped_eps(gamma, cfg.n)
            rng = derive_rng(cfg.seed, "shift-trials", "sine", repr(float(p)),
                             repr(float(gamma)), cfg.n)
            [rejected] = _reject_counts(
                _sorted_shift_blocks(null, signal, eps, cfg.n, cfg.trials, rng), tests)
            threshold = cfg.critical - gamma * gamma * delta_sq
            theo = float(np.mean(quad + 2.0 * gamma * cross <= threshold))
            cells.append(_prob_cell((delta, gamma), "type2_empirical",
                                    1.0 - rejected / cfg.trials, cfg.trials))
            cells.append(_prob_cell((delta, gamma), "type2_theoretical",
                                    theo, cfg.law_reps))
    config = {
        "experiment": "power_map",
        "null": null.name,
        "deltas": list(cfg.deltas),
        "gammas": list(cfg.gammas),
        "n": cfg.n,
        "trials": cfg.trials,
        "alpha": cfg.alpha,
        "critical": cfg.critical,
        "omega": omega.describe(),
        "seed": cfg.seed,
        "law_reps": cfg.law_reps,
        "grid_k": cfg.grid_k,
    }
    return ResultTable(("delta", "gamma"), tuple(cells), config)


# ---------------------------------------------------------------------------
# Power comparison against the Kolmogorov-Smirnov test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonConfig:
    """Wasserstein vs KS power across a signal-family parameter grid."""

    family: str = "sine"
    p_grid: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)
    gammas: tuple[float, ...] = (4.0, 7.0, 10.0)
    n: int = 100_000
    trials: int = 200
    alpha: float = 0.05
    critical: float = 0.46136
    ks_critical: float = 1.36
    seed: int = 0

    def __post_init__(self):
        _family_distribution(self.family, max(self.p_grid))
        if self.trials < 20:
            raise ParameterError("need at least 20 trials per grid point")


def run_ks_comparison(cfg: ComparisonConfig) -> ResultTable:
    """Power of both tests per (p, gamma), plus null calibration at (0, 0)."""
    null = uniform01()
    omega = lebesgue()
    tests = [(_w2_statistic(plan_scaled_statistic(null, omega, cfg.n)), cfg.critical),
             (lambda block: ks_statistics_sorted(block, null), cfg.ks_critical)]
    cells: list[Cell] = []

    cal_rng = derive_rng(cfg.seed, "null-trials", cfg.n)
    rej_w, rej_ks = _reject_counts(
        _sorted_shift_blocks(null, None, 0.0, cfg.n, cfg.trials, cal_rng), tests)
    cells.append(_prob_cell((0.0, 0.0), "type1_w2", rej_w / cfg.trials, cfg.trials))
    cells.append(_prob_cell((0.0, 0.0), "type1_ks", rej_ks / cfg.trials, cfg.trials))

    for p in cfg.p_grid:
        signal = _family_distribution(cfg.family, p)
        for gamma in cfg.gammas:
            eps = _clamped_eps(gamma, cfg.n)
            rng = derive_rng(cfg.seed, "shift-trials", cfg.family, repr(float(p)),
                             repr(float(gamma)), cfg.n)
            rej_w, rej_ks = _reject_counts(
                _sorted_shift_blocks(null, signal, eps, cfg.n, cfg.trials, rng), tests)
            cells.append(_prob_cell((p, gamma), "power_w2", rej_w / cfg.trials, cfg.trials))
            cells.append(_prob_cell((p, gamma), "power_ks", rej_ks / cfg.trials, cfg.trials))
    config = {
        "experiment": "ks_comparison",
        "null": null.name,
        "family": cfg.family,
        "p_grid": list(cfg.p_grid),
        "gammas": list(cfg.gammas),
        "n": cfg.n,
        "trials": cfg.trials,
        "alpha": cfg.alpha,
        "critical": cfg.critical,
        "ks_critical": cfg.ks_critical,
        "omega": omega.describe(),
        "seed": cfg.seed,
    }
    return ResultTable(("p", "gamma"), tuple(cells), config)


# ---------------------------------------------------------------------------
# Weight-measure comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightComparisonConfig:
    """Power of the quadratic-weight statistics across tail-deviation signals.

    ``a = 0`` is the unit weight and reuses the tabulated critical value;
    other weights get their own Monte Carlo critical value at the same
    level. Sample streams match :func:`run_ks_comparison`, so the a=0
    column equals its Wasserstein column for the same seed and grids.
    """

    a_values: tuple[float, ...] = (0.0, 1.0, 2.0)
    p_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    gammas: tuple[float, ...] = (4.0, 7.0, 10.0)
    family: str = "tail"
    n: int = 100_000
    trials: int = 200
    alpha: float = 0.05
    critical_lebesgue: float = 0.46136
    seed: int = 0
    law_reps: int = 100_000
    grid_k: int = 4096

    def __post_init__(self):
        if not all(0.0 <= a < 12.0 for a in self.a_values):
            raise ParameterError("weight parameters must lie in [0, 12)")
        _family_distribution(self.family, max(self.p_grid))
        if self.trials < 20:
            raise ParameterError("need at least 20 trials per grid point")


def run_weight_comparison(cfg: WeightComparisonConfig) -> ResultTable:
    """Power per (a, p, gamma) with per-weight critical values and calibration."""
    null = uniform01()
    grid = BridgeGrid(cfg.grid_k)
    weights: dict[float, WeightMeasure] = {}
    plans: dict[float, object] = {}
    criticals: dict[float, float] = {}
    for a in cfg.a_values:
        omega_a = quadratic_weight(a) if a != 0.0 else lebesgue()
        weights[a] = omega_a
        plans[a] = plan_scaled_statistic(null, omega_a, cfg.n)
        if a == 0.0:
            criticals[a] = cfg.critical_lebesgue
        else:
            sampler = LimitLawSampler.from_distributions(
                null, omega=omega_a, grid=grid,
                seed=derive_seed(cfg.seed, "critval-weight", repr(float(a))))
            criticals[a] = critical_value(sampler, cfg.alpha, cfg.law_reps).value

    # The sample streams do not depend on a, so each block is drawn once and
    # scored by every weight's plan.
    tests = [(_w2_statistic(plans[a]), criticals[a]) for a in cfg.a_values]
    cal_rng = derive_rng(cfg.seed, "null-trials", cfg.n)
    type1 = _reject_counts(
        _sorted_shift_blocks(null, None, 0.0, cfg.n, cfg.trials, cal_rng), tests)
    power: dict[tuple[float, float], list[int]] = {}
    for p in cfg.p_grid:
        signal = _family_distribution(cfg.family, p)
        for gamma in cfg.gammas:
            eps = _clamped_eps(gamma, cfg.n)
            rng = derive_rng(cfg.seed, "shift-trials", cfg.family, repr(float(p)),
                             repr(float(gamma)), cfg.n)
            power[p, gamma] = _reject_counts(
                _sorted_shift_blocks(null, signal, eps, cfg.n, cfg.trials, rng), tests)

    cells = [_prob_cell((a, 0.0, 0.0), "type1", type1[i] / cfg.trials, cfg.trials)
             for i, a in enumerate(cfg.a_values)]
    cells += [_prob_cell((a, p, gamma), "power", power[p, gamma][i] / cfg.trials, cfg.trials)
              for i, a in enumerate(cfg.a_values) for p in cfg.p_grid for gamma in cfg.gammas]
    config = {
        "experiment": "weight_comparison",
        "null": null.name,
        "family": cfg.family,
        "a_values": list(cfg.a_values),
        "p_grid": list(cfg.p_grid),
        "gammas": list(cfg.gammas),
        "n": cfg.n,
        "trials": cfg.trials,
        "alpha": cfg.alpha,
        "critical_values": {f"{a:g}": criticals[a] for a in cfg.a_values},
        "seed": cfg.seed,
        "law_reps": cfg.law_reps,
        "grid_k": cfg.grid_k,
    }
    return ResultTable(("a", "p", "gamma"), tuple(cells), config)
