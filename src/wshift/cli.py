"""Command-line surface: distribution-shift tests, critical values, experiments.

Subcommands
-----------
``test``            goodness-of-fit test of a data column against a null
``critval``         Monte Carlo critical value of the null limit law
``phase``           error-sum curve across shift decay exponents
``powermap``        empirical vs predicted Type II errors on a grid
``interpolate``     displacement / mixture paths between two data samples
``compare-ks``      power comparison against the Kolmogorov-Smirnov test
``power-resample``  resampling power table for grouped observations

Conventions
-----------
* Exit codes: 0 success, 1 computation error, 2 usage error; ``test``
  additionally exits 3 when the null is rejected.
* One 64-bit root seed (``--seed``) reproduces an entire run; every
  internal stream is derived from it by labeled splitting.
* Option precedence: command-line flags override config-file keys override
  built-in defaults. The config file (``--config``) is a flat text format,
  one ``key = value`` per line, ``#`` comments allowed; keys are the long
  option names without the leading dashes (e.g. ``grid-k = 2048``).
* Every output directory gets a ``manifest.json`` with the exact command,
  resolved configuration, seed, input digests, and output names; outputs
  are written atomically (write-then-rename) and contain no timestamps, so
  re-running the manifest's command reproduces them bit-identically.
* Numeric CSV output uses 10 significant digits; JSON keeps full float
  precision.

Distribution specifiers: ``uniform01``, ``gaussian:<mean>,<sd>[,<lo>,<hi>]``,
``sine:<p>``, ``tailq:<p>``, ``twopoint:<lo>,<hi>``, ``csv:<path>:<column>``.
Weight specifiers: ``lebesgue``, ``quadratic:<a>`` (plus ``--trim``).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import __version__
from ._io import atomic_write_text, sha256_file
from .distributions import (
    AnalyticDistribution,
    Distribution,
    EmpiricalDistribution,
    gaussian,
    sine_distribution,
    tail_distribution,
    two_point,
    uniform01,
)
from .errors import DataFormatError, ParameterError, WShiftError
from .experiments import (
    ComparisonConfig,
    PhaseConfig,
    PowerMapConfig,
    run_ks_comparison,
    run_phase_transition,
    run_power_map,
)
from .hypotest import (
    LimitLawCritical,
    ResamplingCritical,
    TabulatedCritical,
    TestConfig,
    resampling_power,
    run_test,
)
from .limitlaw import BridgeGrid, LimitLawSampler, critical_value
from .transport import (
    Histogram,
    WeightMeasure,
    _fd_edges,
    displacement_interpolate,
    lebesgue,
    quadratic_weight,
    relative_distance_curve,
    tv_distance,
)

__all__ = ["main", "ingest_csv", "CsvSchema", "ObservationTable", "RunManifest"]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsvSchema:
    period_column: str = "period"
    value_column: str = "value"
    delimiter: str = ","
    header: bool = True


@dataclass(frozen=True)
class ObservationTable:
    """Grouped observations: one empirical distribution per period label."""

    periods: tuple[str, ...]
    distributions: dict

    def __getitem__(self, label: str) -> EmpiricalDistribution:
        return self.distributions[label]


def _column_index(fieldnames: list[str], column, path) -> int:
    if isinstance(column, int):
        if column >= len(fieldnames):
            raise DataFormatError(f"{path}: column index {column} out of range")
        return column
    try:
        return fieldnames.index(column)
    except ValueError:
        raise DataFormatError(f"{path}: missing column {column!r} "
                              f"(have {fieldnames})") from None


def _read_rows(path: Path, value_column, label_column=None, delimiter: str = ",",
               header: bool = True) -> Iterator[tuple[Optional[str], float]]:
    """Yield ``(label, value)`` for every data row; the label is None without a label column.

    Values must parse as finite floats. Blank rows are skipped. Malformed
    rows are reported with their line numbers (all of them, up to ten, in
    one error raised after the last row) instead of failing on the first.
    """
    bad_lines: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        v_idx = l_idx = None
        for line, row in enumerate(csv.reader(fh, delimiter=delimiter), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if v_idx is None:
                names = [c.strip() for c in row] if header else row
                if label_column is not None:
                    l_idx = _column_index(names, label_column, path)
                v_idx = _column_index(names, value_column, path)
                width = max(v_idx, l_idx or 0) + 1
                if header:
                    continue
            if len(row) < width:
                bad_lines.append(f"line {line}: too few columns")
                continue
            raw = row[v_idx].strip()
            try:
                value = float(raw)
            except ValueError:
                bad_lines.append(f"line {line}: non-numeric value {raw!r}")
                continue
            if not math.isfinite(value):
                bad_lines.append(f"line {line}: non-finite value {raw!r}")
                continue
            yield (None if l_idx is None else row[l_idx].strip()), value
    if bad_lines:
        shown = "; ".join(bad_lines[:10])
        more = f" (+{len(bad_lines) - 10} more)" if len(bad_lines) > 10 else ""
        raise DataFormatError(f"{path}: {shown}{more}")


def ingest_csv(path, schema: CsvSchema | None = None) -> ObservationTable:
    """Parse a (period, value) table; every period needs >= 2 finite values.

    Non-numeric values are reported with their line numbers (all of them,
    up to ten, in one error) instead of failing on the first.
    """
    schema = schema if schema is not None else CsvSchema()
    path = Path(path)
    groups: dict[str, list[float]] = {}
    for label, value in _read_rows(path, schema.value_column, schema.period_column,
                                   schema.delimiter, schema.header):
        groups.setdefault(label, []).append(value)
    if not groups:
        raise DataFormatError(f"{path}: no data rows")
    for label, values in groups.items():
        if len(values) < 2:
            raise DataFormatError(
                f"{path}: period {label!r} has {len(values)} observation(s); need >= 2")
    dists = {label: EmpiricalDistribution(values) for label, values in groups.items()}
    return ObservationTable(tuple(groups), dists)


def _read_value_column(path, column: str = "value") -> np.ndarray:
    """One numeric column from a headed CSV, with line-numbered error reporting."""
    path = Path(path)
    values = [value for _, value in _read_rows(path, column)]
    if not values:
        raise DataFormatError(f"{path}: no numeric rows in column {column!r}")
    return np.asarray(values)


# ---------------------------------------------------------------------------
# Specifier parsing
# ---------------------------------------------------------------------------

def parse_distribution(spec: str) -> Distribution:
    """Parse a distribution specifier (see module docstring for the grammar)."""
    spec = spec.strip()
    if spec == "uniform01":
        return uniform01()
    head, _, rest = spec.partition(":")
    try:
        if head == "gaussian":
            parts = [float(x) for x in rest.split(",")]
            if len(parts) == 2:
                return gaussian(parts[0], parts[1])
            if len(parts) == 4:
                return gaussian(parts[0], parts[1], parts[2], parts[3])
            raise ParameterError("gaussian takes mean,sd[,lo,hi]")
        if head == "sine":
            return sine_distribution(float(rest))
        if head == "tailq":
            return tail_distribution(float(rest))
        if head == "twopoint":
            lo, hi = (float(x) for x in rest.split(","))
            return two_point(lo, hi)
        if head == "csv":
            path, _, column = rest.rpartition(":")
            if not path:
                raise ParameterError("csv specifier is csv:<path>:<column>")
            return EmpiricalDistribution(_read_value_column(path, column))
    except ValueError as exc:
        raise ParameterError(f"bad distribution specifier {spec!r}: {exc}") from exc
    raise ParameterError(
        f"unknown distribution specifier {spec!r}; expected uniform01, "
        "gaussian:<mean>,<sd>[,<lo>,<hi>], sine:<p>, tailq:<p>, "
        "twopoint:<lo>,<hi> or csv:<path>:<column>")


def parse_weight(spec: str, trim: float = 0.0) -> WeightMeasure:
    spec = spec.strip()
    if spec == "lebesgue":
        return lebesgue(trim)
    head, _, rest = spec.partition(":")
    if head == "quadratic":
        try:
            return quadratic_weight(float(rest), trim)
        except ValueError as exc:
            raise ParameterError(f"bad weight specifier {spec!r}: {exc}") from exc
    raise ParameterError(f"unknown weight specifier {spec!r}; "
                         "expected lebesgue or quadratic:<a>")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ParameterError(f"bad numeric list {text!r}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ParameterError(f"bad integer list {text!r}") from exc


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    command: list[str]
    config: dict
    seed: int
    tool_version: str
    input_digests: dict
    started_at: str
    finished_at: str
    outputs: list[str]

    def write(self, path) -> None:
        atomic_write_text(path, json.dumps(self.__dict__, indent=2) + "\n")


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


class _OutputSink:
    """Collects outputs of one command and writes the manifest next to them."""

    def __init__(self, out_dir, argv, config, seed, inputs=()):
        self.dir = Path(out_dir) if out_dir else None
        self.argv = list(argv)
        self.config = config
        self.seed = int(seed)
        self.inputs = {str(p): sha256_file(p) for p in inputs}
        self.started = _utc_now()
        self.outputs: list[str] = []

    def write_text(self, name: str, text: str) -> None:
        if self.dir is None:
            return
        atomic_write_text(self.dir / name, text)
        self.outputs.append(name)

    def write_json(self, name: str, payload) -> None:
        self.write_text(name, json.dumps(payload, indent=2) + "\n")

    def write_table(self, stem: str, table) -> None:
        self.write_text(stem + ".csv", table.csv_text())
        self.write_json(stem + ".json", table.to_dict())

    def finish(self) -> None:
        if self.dir is None:
            return
        manifest = RunManifest(
            command=self.argv,
            config=self.config,
            seed=self.seed,
            tool_version=__version__,
            input_digests=self.inputs,
            started_at=self.started,
            finished_at=_utc_now(),
            outputs=self.outputs,
        )
        manifest.write(self.dir / "manifest.json")


# ---------------------------------------------------------------------------
# Option handling (flags > config file > defaults)
# ---------------------------------------------------------------------------

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_config_file(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


class _Options:
    """Declarative option set with typed defaults and config-file resolution."""

    def __init__(self, parser: argparse.ArgumentParser):
        self.parser = parser
        self.specs: dict[str, tuple] = {}  # dest -> (key, converter, default)
        parser.add_argument("--config", metavar="PATH", default=None,
                            help="flat key = value config file (flags win)")

    def add(self, flag: str, converter, default, help: str, metavar=None):
        dest = flag.lstrip("-").replace("-", "_")
        key = flag.lstrip("-")
        shown = "" if default is None else f" [default: {default}]"
        self.parser.add_argument(flag, dest=dest, default=None, metavar=metavar,
                                 help=help + shown)
        self.specs[dest] = (key, converter, default)

    def resolve(self, args: argparse.Namespace) -> dict:
        values = {dest: default for dest, (_, _, default) in self.specs.items()}
        if args.config:
            file_values = _parse_config_file(args.config)
            known = {key: dest for dest, (key, _, _) in self.specs.items()}
            for key, raw in file_values.items():
                if key not in known:
                    raise ParameterError(f"config file: unknown key {key!r}")
                _, conv, _ = self.specs[known[key]]
                values[known[key]] = conv(raw)
        for dest, (_, conv, _) in self.specs.items():
            raw = getattr(args, dest)
            if raw is not None:
                values[dest] = conv(raw)
        return values


def _bool(text) -> bool:
    if isinstance(text, bool):
        return text
    low = str(text).lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise ParameterError(f"expected a boolean, got {text!r}")


def _common_options(opts: _Options, *, reps=None, trials=None, grid_k=None):
    opts.add("--seed", int, 0, "64-bit root seed; all streams derive from it")
    opts.add("--out", str, None, "output directory (outputs + manifest.json)")
    opts.add("--alpha", float, 0.05, "test level")
    if reps is not None:
        opts.add("--reps", int, reps, "Monte Carlo repetitions")
    if trials is not None:
        opts.add("--trials", int, trials, "trials per grid cell")
    if grid_k is not None:
        opts.add("--grid-k", int, grid_k, "bridge grid size (power of two)")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_critval(opts_values: dict, argv: list[str]) -> int:
    omega = parse_weight(opts_values["weight"], opts_values["trim"])
    null = parse_distribution(opts_values["null"])
    if not isinstance(null, AnalyticDistribution):
        raise ParameterError("critval needs an analytic null (use the test command "
                             "with a resampling source for data-defined nulls)")
    sampler = LimitLawSampler.from_distributions(
        null, omega=omega, grid=BridgeGrid(opts_values["grid_k"]),
        seed=opts_values["seed"])
    cv = critical_value(sampler, opts_values["alpha"], opts_values["reps"])
    print(f"critical_value = {cv.value:.10g}")
    print(f"standard_error = {cv.standard_error:.10g}")
    sink = _OutputSink(opts_values["out"], argv, opts_values, opts_values["seed"])
    sink.write_json("critval.json", {
        "alpha": cv.alpha,
        "critical_value": cv.value,
        "standard_error": cv.standard_error,
        "reps": cv.reps,
        "grid_k": opts_values["grid_k"],
        "seed": cv.seed,
        "null": null.name,
        "weight": omega.describe(),
    })
    sink.finish()
    return 0


def _cmd_test(opts_values: dict, argv: list[str]) -> int:
    omega = parse_weight(opts_values["weight"], opts_values["trim"])
    null = parse_distribution(opts_values["null"])
    data_path = opts_values["data"]
    if data_path is None:
        raise ParameterError("test requires --data <csv>")
    samples = EmpiricalDistribution(_read_value_column(data_path, opts_values["column"]))

    source_name = opts_values["critical_source"]
    if source_name == "auto":
        source_name = "resampling" if isinstance(null, EmpiricalDistribution) else "limitlaw"
    if source_name == "tabulated":
        if opts_values["tabulated_value"] is None:
            raise ParameterError("tabulated critical source requires --tabulated-value")
        source = TabulatedCritical(opts_values["tabulated_value"],
                                   reference_reps=opts_values["reps"],
                                   grid_k=opts_values["grid_k"])
    elif source_name == "limitlaw":
        source = LimitLawCritical(reps=opts_values["reps"], grid_k=opts_values["grid_k"])
    elif source_name == "resampling":
        source = ResamplingCritical(reps=opts_values["reps"],
                                    replace=opts_values["replace"])
    else:
        raise ParameterError(f"unknown critical source {source_name!r}")

    config = TestConfig(null_dist=null, omega=omega, alpha=opts_values["alpha"],
                        critical_source=source)
    outcome = run_test(samples, config, seed=opts_values["seed"])
    decision = "reject" if outcome.reject else "fail-to-reject"
    print(f"statistic      = {outcome.statistic:.10g}")
    print(f"critical_value = {outcome.critical_value:.10g}")
    print(f"p_value        = {outcome.p_value:.10g}")
    print(f"decision       = {decision}")
    sink = _OutputSink(opts_values["out"], argv, opts_values, opts_values["seed"],
                       inputs=[data_path])
    sink.write_json("test.json", {
        "statistic": outcome.statistic,
        "critical_value": outcome.critical_value,
        "reject": outcome.reject,
        "p_value": outcome.p_value,
        "n": outcome.n,
        "provenance": outcome.provenance,
    })
    sink.finish()
    return 3 if outcome.reject else 0


def _cmd_phase(opts_values: dict, argv: list[str]) -> int:
    cfg = PhaseConfig(
        signal=parse_distribution(opts_values["q"]),
        n=opts_values["n"],
        betas=opts_values["betas"],
        trials=opts_values["trials"],
        alpha=opts_values["alpha"],
        critical=opts_values["critical"],
        seed=opts_values["seed"],
    )
    table = run_phase_transition(cfg)
    for beta in cfg.betas:
        c = table.cell("error_sum", beta)
        print(f"beta={beta:g}  error_sum={c.value:.4f} (se={c.se:.4f})")
    sink = _OutputSink(opts_values["out"], argv, opts_values, opts_values["seed"])
    sink.write_table("phase", table)
    sink.finish()
    return 0


def _cmd_powermap(opts_values: dict, argv: list[str]) -> int:
    cfg = PowerMapConfig(
        deltas=opts_values["deltas"],
        gammas=opts_values["gammas"],
        n=opts_values["n"],
        trials=opts_values["trials"],
        alpha=opts_values["alpha"],
        critical=opts_values["critical"],
        seed=opts_values["seed"],
        law_reps=opts_values["law_reps"],
        grid_k=opts_values["grid_k"],
    )
    table = run_power_map(cfg)
    for delta in cfg.deltas:
        for gamma in cfg.gammas:
            emp = table.cell("type2_empirical", delta, gamma)
            theo = table.cell("type2_theoretical", delta, gamma)
            print(f"delta={delta:g} gamma={gamma:g}  type2={emp.value:.3f} "
                  f"predicted={theo.value:.3f}")
    sink = _OutputSink(opts_values["out"], argv, opts_values, opts_values["seed"])
    sink.write_table("powermap", table)
    sink.finish()
    return 0


def _cmd_compare_ks(opts_values: dict, argv: list[str]) -> int:
    cfg = ComparisonConfig(
        family=opts_values["family"],
        p_grid=opts_values["p_grid"],
        gammas=opts_values["gammas"],
        n=opts_values["n"],
        trials=opts_values["trials"],
        alpha=opts_values["alpha"],
        critical=opts_values["critical"],
        ks_critical=opts_values["ks_critical"],
        seed=opts_values["seed"],
    )
    table = run_ks_comparison(cfg)
    for p in cfg.p_grid:
        for gamma in cfg.gammas:
            w = table.cell("power_w2", p, gamma)
            k = table.cell("power_ks", p, gamma)
            print(f"p={p:g} gamma={gamma:g}  power_w2={w.value:.3f} power_ks={k.value:.3f}")
    sink = _OutputSink(opts_values["out"], argv, opts_values, opts_values["seed"])
    sink.write_table("compare_ks", table)
    sink.finish()
    return 0


def _cmd_interpolate(opts_values: dict, argv: list[str]) -> int:
    src_path, tgt_path = opts_values["source"], opts_values["target"]
    if src_path is None or tgt_path is None:
        raise ParameterError("interpolate requires --source and --target CSV files")
    p0 = EmpiricalDistribution(_read_value_column(src_path, opts_values["source_column"]))
    p1 = EmpiricalDistribution(_read_value_column(tgt_path, opts_values["target_column"]))
    steps = opts_values["steps"]
    if steps < 2:
        raise ParameterError("need at least 2 interpolation steps")
    kind = opts_values["kind"]
    if kind not in ("displacement", "linear", "both"):
        raise ParameterError("kind must be displacement, linear or both")
    m = opts_values["grid_points"]
    u = (np.arange(m) + 0.5) / m
    ts = np.arange(steps) / (steps - 1)

    # the displacement path is a geodesic; the mixture path mixes the
    # histograms of the endpoints on one pooled binning
    series = [displacement_interpolate(p0, p1, float(t)) for t in ts]
    try:
        w2_curve = relative_distance_curve(series, "w2")
    except ParameterError:  # the only failure here: the endpoints coincide
        raise ParameterError("source and target coincide; no path to interpolate") from None
    edges = _fd_edges(np.concatenate([p0.values, p1.values]))
    h0, h1 = (Histogram(edges, np.histogram(d.values, bins=edges)[0]) for d in (p0, p1))
    mixtures = [Histogram(edges, (1.0 - t) * h0.probabilities + t * h1.probabilities)
                for t in ts]
    tv_total = tv_distance(h0, h1)
    tv_curve = [tv_distance(h0, h) / tv_total if tv_total > 0 else float(t)
                for t, h in zip(ts, mixtures)]
    tv_curve[0], tv_curve[-1] = 0.0, 1.0

    def quantile_csv(q: np.ndarray) -> str:
        lines = ["u,quantile"]
        lines += [f"{ui:.10g},{qi:.10g}" for ui, qi in zip(u, q)]
        return "\n".join(lines) + "\n"

    sink = _OutputSink(opts_values["out"], argv, opts_values, opts_values["seed"],
                       inputs=[src_path, tgt_path])
    for i, (disp, mixture) in enumerate(zip(series, mixtures)):
        if kind in ("displacement", "both"):
            sink.write_text(f"displacement_{i:02d}.csv",
                            quantile_csv(np.asarray(disp.quantile(u))))
        if kind in ("linear", "both"):
            sink.write_text(f"linear_{i:02d}.csv", quantile_csv(mixture.quantile(u)))
    curve_lines = ["t,w2_relative,tv_relative"]
    curve_lines += [f"{t:.10g},{e:.10g},{g:.10g}"
                    for t, e, g in zip(ts, w2_curve, tv_curve)]
    sink.write_text("curve.csv", "\n".join(curve_lines) + "\n")
    sink.finish()
    print(f"wrote {steps} interpolation step(s) and curve.csv "
          f"({'-' if sink.dir is None else sink.dir})")
    return 0


def _cmd_power_resample(opts_values: dict, argv: list[str]) -> int:
    data_path = opts_values["data"]
    if data_path is None:
        raise ParameterError("power-resample requires --data <csv>")
    schema = CsvSchema(period_column=opts_values["period_column"],
                       value_column=opts_values["value_column"])
    table = ingest_csv(data_path, schema)
    baseline = opts_values["baseline"] or table.periods[0]
    if baseline not in table.distributions:
        raise ParameterError(f"baseline period {baseline!r} not present "
                             f"(have {list(table.periods)})")
    reference = table[baseline]
    lines = ["period,n,power,se,trials"]
    trials = opts_values["trials"]
    for label in table.periods:
        if label == baseline:
            continue
        for n in opts_values["n_grid"]:
            power = resampling_power(
                reference, table[label], n, opts_values["alpha"], trials,
                opts_values["reps"],
                seed=_label_seed(opts_values["seed"], label, n),
                replace=opts_values["replace"])
            se = math.sqrt(max(power * (1 - power), 0.0) / trials)
            lines.append(f"{label},{n},{power:.10g},{se:.10g},{trials}")
            print(f"period={label} n={n}  power={power:.3f}")
    sink = _OutputSink(opts_values["out"], argv, opts_values, opts_values["seed"],
                       inputs=[data_path])
    sink.write_text("power_resample.csv", "\n".join(lines) + "\n")
    sink.finish()
    return 0


def _label_seed(seed: int, label: str, n: int) -> int:
    from ._seeds import derive_seed
    return derive_seed(seed, "power-resample", label, n)


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wshift",
        description="Weighted Wasserstein goodness-of-fit testing for weak "
                    "distribution shifts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {}

    def register(name, help_text, configure, handler):
        p = sub.add_parser(name, help=help_text, description=help_text)
        opts = _Options(p)
        configure(opts)
        handlers[name] = (opts, handler)

    def conf_critval(o: _Options):
        _common_options(o, reps=100_000, grid_k=4096)
        o.add("--null", str, "uniform01", "null distribution specifier")
        o.add("--weight", str, "lebesgue", "weight measure specifier")
        o.add("--trim", float, 0.0, "trim the weight to [trim, 1 - trim]")

    def conf_test(o: _Options):
        _common_options(o, reps=20_000, grid_k=2048)
        o.add("--null", str, "uniform01", "null distribution specifier")
        o.add("--data", str, None, "CSV file with the sample")
        o.add("--column", str, "value", "value column in --data")
        o.add("--weight", str, "lebesgue", "weight measure specifier")
        o.add("--trim", float, 0.0, "trim the weight to [trim, 1 - trim]")
        o.add("--critical-source", str, "auto",
              "auto | tabulated | limitlaw | resampling")
        o.add("--tabulated-value", float, None, "critical value for tabulated source")
        o.add("--replace", _bool, True, "resample with replacement")

    def conf_phase(o: _Options):
        _common_options(o, trials=PhaseConfig.trials)
        o.add("--q", str, "gaussian:0,1,-8,8", "signal distribution specifier")
        o.add("--n", int, PhaseConfig.n, "sample size per trial")
        o.add("--betas", _float_list, PhaseConfig.betas, "comma-separated decay exponents")
        o.add("--critical", float, PhaseConfig.critical,
              "critical value for the scaled statistic")

    def conf_powermap(o: _Options):
        _common_options(o, trials=PowerMapConfig.trials, grid_k=PowerMapConfig.grid_k)
        o.add("--deltas", _float_list, PowerMapConfig.deltas,
              "comma-separated signal strengths")
        o.add("--gammas", _float_list, PowerMapConfig.gammas,
              "comma-separated boundary constants")
        o.add("--n", int, PowerMapConfig.n, "sample size per trial")
        o.add("--critical", float, PowerMapConfig.critical,
              "critical value for the scaled statistic")
        o.add("--law-reps", int, PowerMapConfig.law_reps,
              "draws of the boundary law per delta")

    def conf_compare(o: _Options):
        _common_options(o, trials=ComparisonConfig.trials)
        o.add("--family", str, ComparisonConfig.family, "signal family: sine or tail")
        o.add("--p-grid", _float_list, ComparisonConfig.p_grid,
              "comma-separated family parameters")
        o.add("--gammas", _float_list, ComparisonConfig.gammas,
              "comma-separated boundary constants")
        o.add("--n", int, ComparisonConfig.n, "sample size per trial")
        o.add("--critical", float, ComparisonConfig.critical, "Wasserstein critical value")
        o.add("--ks-critical", float, ComparisonConfig.ks_critical, "KS critical value")

    def conf_interpolate(o: _Options):
        _common_options(o)
        o.add("--source", str, None, "CSV file with the start sample")
        o.add("--target", str, None, "CSV file with the end sample")
        o.add("--source-column", str, "value", "value column in --source")
        o.add("--target-column", str, "value", "value column in --target")
        o.add("--kind", str, "both", "displacement | linear | both")
        o.add("--steps", int, 12, "number of interpolation steps")
        o.add("--grid-points", int, 512, "rows per quantile table")

    def conf_power_resample(o: _Options):
        _common_options(o, reps=1000, trials=100)
        o.add("--data", str, None, "CSV file with (period, value) rows")
        o.add("--period-column", str, "period", "period label column")
        o.add("--value-column", str, "value", "value column")
        o.add("--baseline", str, None, "baseline period label (default: first)")
        o.add("--n-grid", _int_list, (10, 50, 100, 500),
              "comma-separated subsample sizes")
        o.add("--replace", _bool, True, "subsample with replacement")

    register("critval", "Monte Carlo critical value of the null limit law",
             conf_critval, _cmd_critval)
    register("test", "goodness-of-fit test of a data column against a null",
             conf_test, _cmd_test)
    register("phase", "error-sum curve across shift decay exponents",
             conf_phase, _cmd_phase)
    register("powermap", "Type II error map with limit-law predictions",
             conf_powermap, _cmd_powermap)
    register("compare-ks", "power comparison against the KS test",
             conf_compare, _cmd_compare_ks)
    register("interpolate", "displacement / mixture paths between two samples",
             conf_interpolate, _cmd_interpolate)
    register("power-resample", "resampling power table for grouped observations",
             conf_power_resample, _cmd_power_resample)
    return parser, handlers


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, handlers = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    opts, handler = handlers[args.command]
    try:
        values = opts.resolve(args)
        return handler(values, ["wshift", *argv])
    except (WShiftError, OSError) as exc:
        print(f"wshift {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
