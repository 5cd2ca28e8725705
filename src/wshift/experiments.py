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

Null samples are draws of the null; alternative samples are draws of
``displacement_interpolate(null, signal, eps)``, the law a fraction eps of
the way along the transport path, whose quantile ``(1 - eps) F^{-1} +
eps G^{-1}`` maps one uniform stream through both laws at once. One block
evaluator, ``_counts``, takes every cell of an experiment in one call: it
draws each cell's samples on the cell's labeled stream with
:func:`~wshift.distributions._interleaved_blocks`, which interleaves the
cells block by block (so a worker thread can draw and sort the uniforms of
the next two blocks while the caller maps a costly quantile), and scores
every block with every test at once. Given the same (seed, family, p,
gamma, n, trials), :func:`run_ks_comparison` and
:func:`run_weight_comparison` therefore see identical samples, so the
unit-weight column of the latter reproduces the former exactly.

Every cell records its trial count and the binomial standard error; grid
cells draw from independent labeled streams, so tables are bit-reproducible
from (config, seed) and independent of evaluation order. Each config is the
one declaration of its experiment's parameters: ``__post_init__`` rejects
an out-of-domain field before any draw (``_check_domain``), the table's
``config`` echoes every field (``_config_echo``), and the CLI derives its
options from the fields' defaults.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field, fields

from ._seeds import derive_rng, derive_seed
from .distributions import (
    AnalyticDistribution,
    Distribution,
    _interleaved_blocks,
    gaussian,
    sine_distribution,
    tail_distribution,
    uniform01,
)
from .errors import ParameterError
from .hypotest import TestConfig, _reject_counts, _w2_statistic, ks_statistics_sorted
from .limitlaw import (
    BridgeGrid,
    LimitLawSampler,
    _check_critical,
    _check_quantile_reps,
    _order_stat_quantile,
    _type2,
    sample_psi_components,
    sample_psi_null,
)
from .transport import (
    WeightMeasure,
    displacement_interpolate,
    lebesgue,
    plan_scaled_statistic,
    quadratic_weight,
    w2_weighted_squared,
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

_TABLE_SCHEMA = "wshift-result-table/1"
# The 5% point (level ``TestConfig.alpha``) of the null limit law for the
# uniform null under the unit weight: every config's default critical value.
_CRITICAL = 0.46136


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


def _binomial_se(value: float, trials: int) -> float:
    return math.sqrt(max(value * (1.0 - value), 0.0) / trials)


def _prob_cell(axes: tuple[float, ...], metric: str, value: float, trials: int) -> Cell:
    if not (0.0 <= value <= 1.0):
        raise AssertionError(f"probability cell {metric} out of range: {value}")
    return Cell(tuple(float(a) for a in axes), metric, float(value),
                _binomial_se(value, trials), int(trials))


def _clamped_eps(gamma: float, n: int) -> float:
    eps = gamma / math.sqrt(n)
    if eps > 1.0:
        warnings.warn(f"shift fraction gamma/sqrt(n) = {eps:.3g} exceeds 1; clamped to 1",
                      stacklevel=4)
        return 1.0
    return eps


def _check_domain(cfg, positive_gammas: bool = False) -> None:
    """Grids are non-empty, trials >= 20, n >= 1 and critical values positive and
    finite; where a config has them, gammas are >= 0 (> 0 with ``positive_gammas``),
    ``grid_k`` builds a :class:`~wshift.limitlaw.BridgeGrid` and ``law_reps >= 1``.
    """
    values = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for name, value in values.items():
        if isinstance(value, tuple) and not value:
            raise ParameterError(f"{name} needs at least one value")
        if "critical" in name:
            _check_critical(value, name)
    if cfg.trials < 20:
        raise ParameterError("need at least 20 trials per grid point")
    if cfg.n < 1:
        raise ParameterError(f"sample size n must be >= 1, got {cfg.n}")
    gammas = values.get("gammas", ())
    if positive_gammas and not all(g > 0.0 for g in gammas):
        raise ParameterError(f"gammas must be positive, got {gammas}")
    if not all(g >= 0.0 for g in gammas):
        raise ParameterError(f"gammas must be nonnegative, got {gammas}")
    BridgeGrid(values.get("grid_k", BridgeGrid.k))
    if values.get("law_reps", 1) < 1:
        raise ParameterError(f"law_reps must be >= 1, got {cfg.law_reps}")


def _config_echo(cfg, experiment: str, **extra) -> dict:
    """JSON-ready copy of a config's fields (and ``extra``) for a table's ``config``.

    Laws are echoed by name, weights by description and grids as lists.
    """
    def echo(value):
        if isinstance(value, tuple):
            return list(value)
        if isinstance(value, WeightMeasure):
            return value.describe()
        return getattr(value, "name", value)

    items = {**extra, **{f.name: getattr(cfg, f.name) for f in fields(cfg)}}
    return {"experiment": experiment, **{k: echo(v) for k, v in items.items()}}


def _family_distribution(family: str, p: float) -> AnalyticDistribution:
    if family == "sine":
        return sine_distribution(p)
    if family == "tail":
        return tail_distribution(p)
    raise ParameterError(f"unknown signal family {family!r}; use 'sine' or 'tail'")


def _counts(tests, cells: list[tuple[Distribution, tuple]], n: int, trials: int,
            seed: int) -> list[list[int]]:
    """Rejections per cell and test over ``trials`` sorted samples of size n per cell.

    ``cells`` holds ``(dist, label)`` pairs: a cell's samples are draws of
    ``dist`` from the stream ``label`` under ``seed``. Every cell of an
    experiment is drawn in this one call, its blocks interleaved with the
    other cells' by :func:`~wshift.distributions._interleaved_blocks`.
    """
    blocks = _interleaved_blocks([(dist, derive_rng(seed, *label)) for dist, label in cells],
                                 n, trials)
    return _reject_counts(blocks, tests, len(cells))


def _shift_cells(family: str, grid: list[tuple[float, float]],
                 n: int) -> list[tuple[Distribution, tuple]]:
    """:func:`_counts` cells of samples shifted ``gamma / sqrt(n)`` toward ``family(p)``.

    One cell per ``(p, gamma)`` in ``grid``. A cell's stream is labeled by
    (family, p, gamma, n) alone, so experiments run with the same seed see
    identical samples.
    """
    cells = []
    for p, gamma in grid:
        shifted = displacement_interpolate(uniform01(), _family_distribution(family, p),
                                           _clamped_eps(gamma, n))
        cells.append((shifted, ("shift-trials", family, repr(float(p)), repr(float(gamma)), n)))
    return cells


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
    critical: float = _CRITICAL
    omega: WeightMeasure = field(default_factory=lebesgue)
    seed: int = 0

    def __post_init__(self):
        _check_domain(self)
        if not all(0.0 < b <= 1.0 for b in self.betas):
            raise ParameterError("betas must lie in (0, 1]")


def run_phase_transition(cfg: PhaseConfig) -> ResultTable:
    """Type I, Type II and their sum for each decay exponent beta."""
    tests = [(_w2_statistic(plan_scaled_statistic(cfg.null, cfg.omega, cfg.n)),
              cfg.critical)]
    draws = []
    for beta in cfg.betas:
        shifted = displacement_interpolate(cfg.null, cfg.signal, float(cfg.n) ** (-beta))
        draws += [(cfg.null, ("phase-null", repr(float(beta)), cfg.n)),
                  (shifted, ("phase-alt", repr(float(beta)), cfg.n))]
    counts = _counts(tests, draws, cfg.n, cfg.trials, cfg.seed)
    cells: list[Cell] = []
    for beta, [rej_null], [rej_alt] in zip(cfg.betas, counts[::2], counts[1::2]):
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
    return ResultTable(("beta",), tuple(cells), _config_echo(cfg, "phase_transition"))


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
    critical: float = _CRITICAL
    seed: int = 0
    law_reps: int = 50_000
    grid_k: int = BridgeGrid.k

    def __post_init__(self):
        _check_domain(self, positive_gammas=True)
        for d in self.deltas:
            if not 0.0 < d * math.sqrt(8.0) * math.pi <= 1.0:
                raise ParameterError(
                    f"delta={d} is not realizable: need delta^2 < 1/(8 pi^2)")


def run_power_map(cfg: PowerMapConfig) -> ResultTable:
    """Empirical Type II errors next to the boundary-law prediction.

    Every delta's predictions at ``critical`` are read off one boundary draw
    (stream label "law") with a cross column per delta. Includes a
    null-calibration cell at axes (0, 0) whose ``type1`` value should sit in
    the binomial band around the level of ``critical``.
    """
    null = uniform01()
    omega = lebesgue()
    tests = [(_w2_statistic(plan_scaled_statistic(null, omega, cfg.n)), cfg.critical)]
    ps = [float(delta) * math.sqrt(8.0) * math.pi for delta in cfg.deltas]
    draws = [(null, ("null-trials", cfg.n)),
             *_shift_cells("sine", [(p, gamma) for p in ps for gamma in cfg.gammas], cfg.n)]
    [[rejected], *shifted] = _counts(tests, draws, cfg.n, cfg.trials, cfg.seed)
    power = dict(zip([(delta, gamma) for delta in cfg.deltas for gamma in cfg.gammas], shifted))
    cells = [_prob_cell((0.0, 0.0), "type1", rejected / cfg.trials, cfg.trials)]

    signals = [sine_distribution(p) for p in ps]
    sampler = LimitLawSampler.from_distributions(null, omega=omega, grid=BridgeGrid(cfg.grid_k),
                                                 seed=derive_seed(cfg.seed, "law"))
    quad, cross = sample_psi_components(sampler, cfg.law_reps, signals=signals)
    for j, delta in enumerate(cfg.deltas):
        predicted = _type2(quad, cross[:, j], cfg.critical,
                           w2_weighted_squared(null, signals[j], omega), cfg.gammas)
        for gamma, theo in zip(cfg.gammas, predicted):
            [rejected] = power[delta, gamma]
            cells.append(_prob_cell((delta, gamma), "type2_empirical",
                                    1.0 - rejected / cfg.trials, cfg.trials))
            cells.append(_prob_cell((delta, gamma), "type2_theoretical",
                                    theo, cfg.law_reps))
    return ResultTable(("delta", "gamma"), tuple(cells),
                       _config_echo(cfg, "power_map", null=null, omega=omega))


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
    critical: float = _CRITICAL
    ks_critical: float = 1.36
    seed: int = 0

    def __post_init__(self):
        _check_domain(self)
        for p in self.p_grid:
            _family_distribution(self.family, p)


def run_ks_comparison(cfg: ComparisonConfig) -> ResultTable:
    """Power of both tests per (p, gamma), plus null calibration at (0, 0)."""
    null = uniform01()
    omega = lebesgue()
    tests = [(_w2_statistic(plan_scaled_statistic(null, omega, cfg.n)), cfg.critical),
             (lambda block: ks_statistics_sorted(block, null), cfg.ks_critical)]
    grid = [(p, gamma) for p in cfg.p_grid for gamma in cfg.gammas]
    draws = [(null, ("null-trials", cfg.n)), *_shift_cells(cfg.family, grid, cfg.n)]
    [(rej_w, rej_ks), *shifted] = _counts(tests, draws, cfg.n, cfg.trials, cfg.seed)
    cells = [_prob_cell((0.0, 0.0), "type1_w2", rej_w / cfg.trials, cfg.trials),
             _prob_cell((0.0, 0.0), "type1_ks", rej_ks / cfg.trials, cfg.trials)]
    for (p, gamma), (rej_w, rej_ks) in zip(grid, shifted):
        cells.append(_prob_cell((p, gamma), "power_w2", rej_w / cfg.trials, cfg.trials))
        cells.append(_prob_cell((p, gamma), "power_ks", rej_ks / cfg.trials, cfg.trials))
    return ResultTable(("p", "gamma"), tuple(cells),
                       _config_echo(cfg, "ks_comparison", null=null, omega=omega))


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
    alpha: float = TestConfig.alpha
    critical_lebesgue: float = _CRITICAL
    seed: int = 0
    law_reps: int = 100_000
    grid_k: int = BridgeGrid.k

    def __post_init__(self):
        _check_domain(self)
        if not all(0.0 <= a < 12.0 for a in self.a_values):
            raise ParameterError("weight parameters must lie in [0, 12)")
        _check_quantile_reps(self.alpha, self.law_reps)
        for p in self.p_grid:
            _family_distribution(self.family, p)


def run_weight_comparison(cfg: WeightComparisonConfig) -> ResultTable:
    """Power and calibration per (a, p, gamma); the a != 0 critical values share one null draw."""
    null = uniform01()
    omegas = {a: quadratic_weight(a) if a != 0.0 else lebesgue() for a in cfg.a_values}
    criticals = {0.0: cfg.critical_lebesgue}
    weighted = [a for a in cfg.a_values if a != 0.0]
    if weighted:
        sampler = LimitLawSampler.from_distributions(
            null, grid=BridgeGrid(cfg.grid_k), seed=derive_seed(cfg.seed, "critval-weight"))
        psi = sample_psi_null(sampler, cfg.law_reps, omegas=[omegas[a] for a in weighted])
        criticals.update((a, _order_stat_quantile(psi[:, j], cfg.alpha))
                         for j, a in enumerate(weighted))

    # The sample streams do not depend on a, so each block is drawn once and
    # scored by every weight's plan.
    tests = [(_w2_statistic(plan_scaled_statistic(null, omegas[a], cfg.n)), criticals[a])
             for a in cfg.a_values]
    grid = [(p, gamma) for p in cfg.p_grid for gamma in cfg.gammas]
    draws = [(null, ("null-trials", cfg.n)), *_shift_cells(cfg.family, grid, cfg.n)]
    [type1, *shifted] = _counts(tests, draws, cfg.n, cfg.trials, cfg.seed)
    power = dict(zip(grid, shifted))

    cells = [_prob_cell((a, 0.0, 0.0), "type1", type1[i] / cfg.trials, cfg.trials)
             for i, a in enumerate(cfg.a_values)]
    cells += [_prob_cell((a, p, gamma), "power", power[p, gamma][i] / cfg.trials, cfg.trials)
              for i, a in enumerate(cfg.a_values) for p in cfg.p_grid for gamma in cfg.gammas]
    critical_values = {f"{a:g}": criticals[a] for a in cfg.a_values}
    return ResultTable(("a", "p", "gamma"), tuple(cells),
                       _config_echo(cfg, "weight_comparison", null=null,
                                    critical_values=critical_values))
