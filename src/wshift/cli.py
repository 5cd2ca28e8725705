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
* ``phase``, ``powermap`` and ``compare-ks`` take their options from their
  experiment config (``PhaseConfig``, ``PowerMapConfig``,
  ``ComparisonConfig``): one option per field whose default is a number, a
  string or a tuple of floats, named after the field (``law_reps`` is
  ``--law-reps``) and defaulting to the field's default. ``phase --q`` is
  the one hand-written experiment option (the signal specifier; by default
  the config's own signal). ``critval`` and ``power-resample`` take their
  option defaults from their critical source's class. ``test`` picks its
  source class by ``name`` (``auto``, the default: resampling for a null
  without a density, the limit law for one with a density, as
  ``TestConfig`` does) and sets each field given by the option of that
  name (``value``: ``--tabulated-value``); an option that is no field of the
  chosen class is an error, so no manifest records a setting that had no
  effect, and every field of the chosen class is recorded, defaults included.
* Every output directory gets a ``manifest.json`` with the exact command,
  resolved configuration, seed, the sha256 of every file read (the
  ``--config`` file and every CSV file, those of ``csv:`` specifiers
  included), the start and finish times and
  the output names. ``started_at`` is taken before the options are
  resolved. A subcommand returns its outputs and only ``main`` writes
  them, so a command that fails writes nothing. Outputs are written
  atomically (write-then-rename) and contain no timestamps, so re-running
  the manifest's command reproduces them bit-identically.
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
import functools
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import __version__
from ._io import atomic_write_text, sha256_file
from ._seeds import derive_seed, seed_sequence
from .distributions import (
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
    _check_distinct,
    run_ks_comparison,
    run_phase_transition,
    run_power_map,
)
from .hypotest import (
    LimitLawCritical,
    ResamplingCritical,
    TabulatedCritical,
    TestConfig,
    _default_source,
    _resampling_power,
    run_test,
)
from .limitlaw import BridgeGrid, LimitLawSampler, critical_value
from .transport import (
    Histogram,
    WeightMeasure,
    _fd_edges,
    displacement_interpolate,
    lebesgue,
    plan_scaled_statistic,
    quadratic_weight,
    relative_distance_curve,
    tv_distance,
)

__all__ = ["main", "ingest_csv", "CsvSchema"]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsvSchema:
    """The period and value columns of a headed, comma-separated table."""

    period_column: str = "period"
    value_column: str = "value"


def _is_blank(row: list[str]) -> bool:
    return all(not c.strip() for c in row)


def _column_indices(header: list[str], value_column: str, label_column: Optional[str],
                    path) -> tuple[Optional[int], int]:
    """``(label index or None, value index)`` named by the header row."""
    names = [c.strip() for c in header]
    for column in (label_column, value_column):
        if column is not None and column not in names:
            raise DataFormatError(f"{path}: missing column {column!r} (have {names})")
    l_idx = None if label_column is None else names.index(label_column)
    return l_idx, names.index(value_column)


def _not_utf8(path: Path) -> DataFormatError:
    """The error for a file that does not decode, naming the offset of its first bad byte."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return DataFormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    return DataFormatError(f"{path}: not UTF-8 text")


def _read_rows(path: Path, value_column: str,
               label_column: Optional[str] = None) -> Iterator[tuple[Optional[str], float]]:
    """Yield ``(label, value)`` for every data row; the label is None without a label column.

    Values must parse as finite floats. Blank rows are skipped. Malformed
    rows are reported with their line numbers (all of them, up to ten, in
    one error raised after the last row) instead of failing on the first.
    This reader defines what a valid file is: :func:`_load_columns` reads
    valid files faster and hands every file its parser rejects to it.
    """
    bad_lines: list[str] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            v_idx = l_idx = None
            for line, row in enumerate(csv.reader(fh), start=1):
                if _is_blank(row):
                    continue
                if v_idx is None:
                    l_idx, v_idx = _column_indices(row, value_column, label_column, path)
                    width = max(v_idx, l_idx or 0) + 1
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
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if bad_lines:
        shown = "; ".join(bad_lines[:10])
        more = f" (+{len(bad_lines) - 10} more)" if len(bad_lines) > 10 else ""
        raise DataFormatError(f"{path}: {shown}{more}")


def _run_starts(labels: np.ndarray) -> np.ndarray:
    """Indices of the rows that begin a run of equal adjacent labels."""
    starts = np.empty(labels.size, dtype=bool)
    starts[:1] = True
    np.not_equal(labels[1:], labels[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def _load_columns(path: Path, value_column: str, label_column: Optional[str] = None
                  ) -> tuple[Optional[np.ndarray], np.ndarray]:
    """``(labels, values)`` of the data rows that :func:`_read_rows` accepts.

    The header is found as :func:`_read_rows` finds it; numpy's C parser then
    reads the body in one call, with ``"`` as the quote and ``#`` as data.
    Files it rejects (among them whitespace-only and ``,,`` rows, ``1_000``,
    and every malformed row, which needs its line number), files with a
    non-finite value and labels with a line break go through
    :func:`_read_rows`. ``labels`` is None without a label column, else an
    object array of the labels stripped, as :func:`_read_rows` strips them:
    numpy's labels are stripped once per run of equal adjacent labels.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next((row for row in reader if not _is_blank(row)), None)
            lines_through_header = reader.line_num
            has_rows = any(not _is_blank(row) for row in reader)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    # numpy warns on a file without rows
    if header is not None and has_rows:
        l_idx, v_idx = _column_indices(header, value_column, label_column, path)
        try:
            table = np.loadtxt(
                path, dtype=float if l_idx is None else [("label", object), ("value", float)],
                delimiter=",", comments=None, quotechar='"', ndmin=1,
                usecols=(v_idx,) if l_idx is None else (l_idx, v_idx),
                skiprows=lines_through_header, encoding="utf-8-sig")
        except ValueError:
            pass
        else:
            if l_idx is None:
                if np.isfinite(table).all():
                    return None, table
            else:
                labels, values = table["label"], table["value"]
                starts = _run_starts(labels)
                heads = labels[starts].tolist()
                # numpy reads "\r" and "\r\n" as "\n", inside a quoted label too
                if np.isfinite(values).all() and "\n" not in "".join(heads):
                    stripped = np.array([head.strip() for head in heads], dtype=object)
                    return np.repeat(stripped, np.diff(starts, append=labels.size)), values
    rows = list(_read_rows(path, value_column, label_column))
    labels = None if label_column is None else np.array([label for label, _ in rows],
                                                        dtype=object)
    return labels, np.array([value for _, value in rows], dtype=float)


def ingest_csv(path, schema: CsvSchema | None = None) -> dict[str, EmpiricalDistribution]:
    """Parse a (period, value) table into one distribution per period label.

    Every period needs >= 2 finite values; periods keep the order in which
    they first appear. Malformed rows are reported with their line numbers
    (all of them, up to ten, in one error) instead of failing on the first.
    A run of rows with equal labels is coded by one lookup.
    """
    schema = schema if schema is not None else CsvSchema()
    path = Path(path)
    labels, values = _load_columns(path, schema.value_column, schema.period_column)
    if values.size == 0:
        raise DataFormatError(f"{path}: no data rows")
    starts = _run_starts(labels)
    periods: dict[str, int] = {}
    run_codes = [periods.setdefault(label, len(periods)) for label in labels[starts].tolist()]
    codes = np.repeat(np.array(run_codes, dtype=np.intp), np.diff(starts, append=labels.size))
    groups = np.split(values[np.argsort(codes, kind="stable")],
                      np.cumsum(np.bincount(codes))[:-1])
    for label, group in zip(periods, groups):
        if group.size < 2:
            raise DataFormatError(
                f"{path}: period {label!r} has {group.size} observation(s); need >= 2")
    return {label: EmpiricalDistribution(group) for label, group in zip(periods, groups)}


def _read_value_column(path, column: str = "value") -> np.ndarray:
    """One numeric column from a headed CSV, with line-numbered error reporting."""
    path = Path(path)
    _, values = _load_columns(path, column)
    if values.size == 0:
        raise DataFormatError(f"{path}: no numeric rows in column {column!r}")
    return values


# ---------------------------------------------------------------------------
# Specifier parsing
# ---------------------------------------------------------------------------

def _csv_spec(spec: str) -> Optional[tuple[str, str]]:
    """``(path, column)`` of a ``csv:<path>:<column>`` specifier; None for any other."""
    head, _, rest = spec.strip().partition(":")
    if head != "csv":
        return None
    path, _, column = rest.rpartition(":")
    if not path:
        raise ParameterError("csv specifier is csv:<path>:<column>")
    return path, column


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
            return EmpiricalDistribution(_read_value_column(*_csv_spec(spec)))
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


def _number_list(text: str, convert, kind: str) -> tuple:
    try:
        values = tuple(convert(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ParameterError(f"bad {kind} list {text!r}") from exc
    if not values:
        raise ParameterError(f"empty {kind} list {text!r}")
    return values


def _float_list(text: str) -> tuple[float, ...]:
    return _number_list(text, float, "numeric")


def _int_list(text: str) -> tuple[int, ...]:
    return _number_list(text, int, "integer")


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_run(out_dir: Path, outputs: dict, argv: list[str], config: dict,
               started: str, config_file: Optional[str]) -> None:
    """Write every output atomically, then ``manifest.json``, which is not among them.

    The input digests cover the ``--config`` file, the ``--data``,
    ``--source`` and ``--target`` files and the file of every ``csv:``
    specifier in ``--null`` and ``--q``; they are taken before anything is
    written.
    """
    specs = [_csv_spec(config.get(key) or "") for key in ("null", "q")]
    inputs = ([config_file] + [config.get(key) for key in ("data", "source", "target")]
              + [s[0] for s in specs if s])
    digests = {str(path): sha256_file(path) for path in inputs if path is not None}
    for name, text in outputs.items():
        atomic_write_text(out_dir / name, text)
    manifest = {
        "command": argv,
        "config": config,
        "seed": int(config["seed"]),
        "tool_version": __version__,
        "input_digests": digests,
        "started_at": started,
        "finished_at": _utc_now(),
        "outputs": list(outputs),
    }
    atomic_write_text(out_dir / "manifest.json", _json_text(manifest))


# ---------------------------------------------------------------------------
# Option handling (flags > config file > defaults)
# ---------------------------------------------------------------------------

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise _not_utf8(Path(path)) from None
    out = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


# Help text by option destination; experiment options are named after config fields.
_OPTION_HELP = {
    "out": "output directory (outputs + manifest.json)",
    "seed": "64-bit root seed; all streams derive from it",
    "alpha": "test level",
    "reps": "Monte Carlo repetitions",
    "trials": "trials per grid cell",
    "grid_k": "bridge grid size (power of two)",
    "n": "sample size per trial",
    "betas": "comma-separated decay exponents",
    "deltas": "comma-separated signal strengths",
    "gammas": "comma-separated boundary constants",
    "p_grid": "comma-separated family parameters",
    "family": "signal family: sine or tail",
    "critical": "Wasserstein critical value",
    "ks_critical": "KS critical value",
    "law_reps": "draws of the boundary law per delta",
}


class _Options:
    """Declarative option set with typed defaults and config-file resolution."""

    def __init__(self, parser: argparse.ArgumentParser):
        self.parser = parser
        self.specs: dict[str, tuple] = {}  # dest -> (key, converter, default)
        parser.add_argument("--config", metavar="PATH", default=None,
                            help="flat key = value config file (flags win)")
        self.add("--out", str, None)

    def add(self, flag: str, converter, default, help: str | None = None):
        dest = flag.lstrip("-").replace("-", "_")
        key = flag.lstrip("-")
        help = help or _OPTION_HELP.get(dest, key)
        shown = "" if default is None else f" [default: {default}]"
        self.parser.add_argument(flag, dest=dest, default=None, help=help + shown)
        self.specs[dest] = (key, converter, default)

    def resolve(self, args: argparse.Namespace) -> dict:
        values = {dest: default for dest, (_, _, default) in self.specs.items()}
        if args.config:
            file_values = _parse_config_file(args.config)
            known = {key: dest for dest, (key, _, _) in self.specs.items()}
            for key, raw in file_values.items():
                if key not in known:
                    raise ParameterError(f"config file: unknown key {key!r}")
                values[known[key]] = self._convert(known[key], raw, "config file: ")
        for dest in self.specs:
            raw = getattr(args, dest)
            if raw is not None:
                values[dest] = self._convert(dest, raw, "--")
        return values

    def _convert(self, dest: str, raw: str, where: str):
        """The option's value read from ``raw``; an unreadable one is a :class:`ParameterError`."""
        key, conv, _ = self.specs[dest]
        try:
            return conv(raw)
        except ValueError as exc:  # a ParameterError too: its message gains the option
            raise ParameterError(f"{where}{key}: {exc}") from None


def _root_seed(text) -> int:
    """A root seed, rejected here when out of range even if the command draws nothing."""
    seed = int(text)
    seed_sequence(seed)
    return seed


def _bool(text: str) -> bool:
    low = text.lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise ParameterError(f"expected a boolean, got {text!r}")


def _common_options(opts: _Options, *, alpha=True, reps=None, trials=None, grid_k=None):
    opts.add("--seed", _root_seed, 0)
    if alpha:
        opts.add("--alpha", float, TestConfig.alpha)
    for flag, default in (("--reps", reps), ("--trials", trials), ("--grid-k", grid_k)):
        if default is not None:
            opts.add(flag, int, default)


def _null_options(opts: _Options, *between) -> None:
    """``--null``, the options ``between`` as ``add`` arguments, ``--weight`` and ``--trim``."""
    opts.add("--null", str, "uniform01", "null distribution specifier")
    for option in between:
        opts.add(*option)
    opts.add("--weight", str, "lebesgue", "weight measure specifier")
    opts.add("--trim", float, 0.0, "trim the weight to [trim, 1 - trim]")


def _config_options(opts: _Options, config_cls) -> None:
    """One option per field of ``config_cls`` whose default is an int, float, str or float tuple.

    The option is the field name with ``-`` for ``_``, its default is the
    field's, and its converter follows the default's type. Fields filled by
    a factory (laws, weights) get no option.
    """
    for f in fields(config_cls):
        if isinstance(f.default, tuple) and all(isinstance(x, float) for x in f.default):
            converter = _float_list
        elif type(f.default) in (int, float, str):
            converter = type(f.default)
        else:
            continue
        opts.add("--" + f.name.replace("_", "-"), converter, f.default)


def _experiment_config(config_cls, opts_values: dict):
    """The config built from resolved option values; ``--q`` (``phase``) sets the signal."""
    kwargs = {f.name: opts_values[f.name] for f in fields(config_cls) if f.name in opts_values}
    if opts_values.get("q") is not None:
        kwargs["signal"] = parse_distribution(opts_values["q"])
    return config_cls(**kwargs)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_critval(opts_values: dict) -> tuple[int, dict]:
    omega = parse_weight(opts_values["weight"], opts_values["trim"])
    null = parse_distribution(opts_values["null"])
    sampler = LimitLawSampler.from_distributions(
        null, omega=omega, grid=BridgeGrid(opts_values["grid_k"]),
        seed=opts_values["seed"])
    cv = critical_value(sampler, opts_values["alpha"], opts_values["reps"])
    print(f"critical_value = {cv.value:.10g}")
    print(f"standard_error = {cv.standard_error:.10g}")
    return 0, {"critval.json": _json_text({
        "alpha": cv.alpha,
        "critical_value": cv.value,
        "standard_error": cv.standard_error,
        "reps": cv.reps,
        "grid_k": opts_values["grid_k"],
        "seed": cv.seed,
        "null": null.name,
        "weight": omega.describe(),
    })}


_SOURCES = {cls.name: cls for cls in (TabulatedCritical, LimitLawCritical, ResamplingCritical)}
# the ``test`` option (by destination) that sets each field of a critical source
_FIELD_OPTION = {f.name: "tabulated_value" if f.name == "value" else f.name
                 for cls in _SOURCES.values() for f in fields(cls)}


def _critical_source(name: str, null: Distribution, opts_values: dict):
    """The critical source called ``name`` (``auto``: the null's default), built from the options.

    An option that sets no field of that class is an error, so the manifest
    names only settings that took effect.
    """
    name = _default_source(null).name if name == "auto" else name
    if name not in _SOURCES:
        raise ParameterError(f"unknown critical source {name!r}")
    own = {_FIELD_OPTION[f.name]: f for f in fields(_SOURCES[name])}
    for dest in _FIELD_OPTION.values():
        if opts_values[dest] is not None and dest not in own:
            raise ParameterError(f"--{dest.replace('_', '-')} is not read by the "
                                 f"{name} critical source")
    for dest, f in own.items():
        if opts_values[dest] is None and f.default is MISSING:
            raise ParameterError(f"{name} critical source requires --{dest.replace('_', '-')}")
    return _SOURCES[name](**{f.name: opts_values[dest] for dest, f in own.items()
                             if opts_values[dest] is not None})


def _cmd_test(opts_values: dict) -> tuple[int, dict]:
    omega = parse_weight(opts_values["weight"], opts_values["trim"])
    null = parse_distribution(opts_values["null"])
    data_path = opts_values["data"]
    if data_path is None:
        raise ParameterError("test requires --data <csv>")
    source = _critical_source(opts_values["critical_source"], null, opts_values)
    for f in fields(source):  # the manifest records every setting used, defaults included
        opts_values[_FIELD_OPTION[f.name]] = getattr(source, f.name)
    samples = EmpiricalDistribution(_read_value_column(data_path, opts_values["column"]))

    config = TestConfig(null_dist=null, omega=omega, alpha=opts_values["alpha"],
                        critical_source=source)
    outcome = run_test(samples, config, seed=opts_values["seed"])
    decision = "reject" if outcome.reject else "fail-to-reject"
    print(f"statistic      = {outcome.statistic:.10g}")
    print(f"critical_value = {outcome.critical_value:.10g}")
    print(f"p_value        = {outcome.p_value:.10g}")
    print(f"decision       = {decision}")
    return (3 if outcome.reject else 0), {"test.json": _json_text(asdict(outcome))}


def _cmd_experiment(config_cls, run, stem: str, summary: tuple[str, ...],
                    opts_values: dict) -> tuple[int, dict]:
    table = run(_experiment_config(config_cls, opts_values))
    for cell in table.cells:
        if cell.metric != summary[0]:
            continue
        at = " ".join(f"{a}={v:g}" for a, v in zip(table.axis_names, cell.axes))
        shown = (table.cell(m, *cell.axes) for m in summary)
        print(at + "  " + " ".join(f"{c.metric}={c.value:.4f} (se={c.se:.4f})" for c in shown))
    return 0, {stem + ".csv": table.csv_text(), stem + ".json": _json_text(table.to_dict())}


def _cmd_interpolate(opts_values: dict) -> tuple[int, dict]:
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
    if m < 1:
        raise ParameterError(f"need at least 1 grid point, got {m}")
    u = (np.arange(m) + 0.5) / m
    ts = np.arange(steps) / (steps - 1)

    # the displacement path is a geodesic; the mixture path mixes the
    # histograms of the endpoints on one pooled binning
    series = [displacement_interpolate(p0, p1, float(t)) for t in ts]
    try:
        w2_curve = relative_distance_curve(series)
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

    # the same u column in every table: each table is one %-format of its quantiles
    table = "u,quantile\n" + "".join(f"{ui:.10g},%.10g\n" for ui in u.tolist())

    def quantile_csv(q: np.ndarray) -> str:
        return table % tuple(q.tolist())

    outputs = {}
    for i, (disp, mixture) in enumerate(zip(series, mixtures)):
        if kind in ("displacement", "both"):
            outputs[f"displacement_{i:02d}.csv"] = quantile_csv(disp.quantile(u))
        if kind in ("linear", "both"):
            outputs[f"linear_{i:02d}.csv"] = quantile_csv(mixture.quantile(u))
    curve_lines = ["t,w2_relative,tv_relative"]
    curve_lines += [f"{t:.10g},{e:.10g},{g:.10g}"
                    for t, e, g in zip(ts, w2_curve, tv_curve)]
    outputs["curve.csv"] = "\n".join(curve_lines) + "\n"
    out = opts_values["out"]
    print(f"wrote {steps} interpolation step(s) and curve.csv ({Path(out) if out else '-'})")
    return 0, outputs


def _cmd_power_resample(opts_values: dict) -> tuple[int, dict]:
    data_path = opts_values["data"]
    if data_path is None:
        raise ParameterError("power-resample requires --data <csv>")
    _check_distinct("--n-grid", opts_values["n_grid"])
    schema = CsvSchema(period_column=opts_values["period_column"],
                       value_column=opts_values["value_column"])
    table = ingest_csv(data_path, schema)
    baseline = opts_values["baseline"] or next(iter(table))
    if baseline not in table:
        raise ParameterError(f"baseline period {baseline!r} not present (have {list(table)})")
    compared = [label for label in table if label != baseline]
    if not compared:
        raise ParameterError(f"{data_path}: no period besides the baseline {baseline!r}")
    reference = table[baseline]
    # one plan of the reference per subsample size serves every compared period
    plans = {n: plan_scaled_statistic(reference, lebesgue(), n) for n in opts_values["n_grid"]}
    lines = ["period,n,power,se,trials"]
    trials = opts_values["trials"]
    for label in compared:
        for n in opts_values["n_grid"]:
            power = _resampling_power(
                reference, table[label], plans[n], opts_values["alpha"], trials,
                opts_values["reps"], derive_seed(opts_values["seed"], "power-resample", label, n),
                opts_values["replace"])
            se = math.sqrt(max(power * (1 - power), 0.0) / trials)
            lines.append(f"{label},{n},{power:.10g},{se:.10g},{trials}")
            print(f"period={label} n={n}  power={power:.3f}")
    return 0, {"power_resample.csv": "\n".join(lines) + "\n"}


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

# subcommand -> (help, config class, runner, output stem, metrics printed per grid point)
_EXPERIMENTS = {
    "phase": ("error-sum curve across shift decay exponents", PhaseConfig,
              run_phase_transition, "phase", ("error_sum",)),
    "powermap": ("Type II error map with limit-law predictions", PowerMapConfig,
                 run_power_map, "powermap", ("type2_empirical", "type2_theoretical")),
    "compare-ks": ("power comparison against the KS test", ComparisonConfig,
                   run_ks_comparison, "compare_ks", ("power_w2", "power_ks")),
}


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
        _common_options(o, reps=LimitLawCritical.reps, grid_k=LimitLawCritical.grid_k)
        _null_options(o)

    def conf_test(o: _Options):
        _common_options(o)
        o.add("--reps", int, None, "Monte Carlo repetitions [default: per critical source]")
        o.add("--grid-k", int, None, "bridge grid size [default: per critical source]")
        _null_options(o, ("--data", str, None, "CSV file with the sample"),
                      ("--column", str, "value", "value column in --data"))
        o.add("--critical-source", str, "auto",
              "auto | tabulated | limitlaw | resampling")
        o.add("--tabulated-value", float, None, "critical value for tabulated source")
        o.add("--replace", _bool, None,
              "resample with replacement [default: per critical source]")

    def conf_experiment(config_cls):
        def configure(o: _Options):
            _config_options(o, config_cls)
            if config_cls is PhaseConfig:  # the one hand-written experiment option
                o.add("--q", str, None,
                      "signal distribution specifier [default: PhaseConfig's signal]")
        return configure

    def conf_interpolate(o: _Options):
        _common_options(o, alpha=False)
        o.add("--source", str, None, "CSV file with the start sample")
        o.add("--target", str, None, "CSV file with the end sample")
        o.add("--source-column", str, "value", "value column in --source")
        o.add("--target-column", str, "value", "value column in --target")
        o.add("--kind", str, "both", "displacement | linear | both")
        o.add("--steps", int, 12, "number of interpolation steps")
        o.add("--grid-points", int, 512, "rows per quantile table")

    def conf_power_resample(o: _Options):
        _common_options(o, reps=ResamplingCritical.reps, trials=100)
        o.add("--data", str, None, "CSV file with (period, value) rows")
        o.add("--period-column", str, CsvSchema.period_column, "period label column")
        o.add("--value-column", str, CsvSchema.value_column, "value column")
        o.add("--baseline", str, None, "baseline period label (default: first)")
        o.add("--n-grid", _int_list, (10, 50, 100, 500),
              "comma-separated subsample sizes")
        o.add("--replace", _bool, ResamplingCritical.replace, "subsample with replacement")

    register("critval", "Monte Carlo critical value of the null limit law",
             conf_critval, _cmd_critval)
    register("test", "goodness-of-fit test of a data column against a null",
             conf_test, _cmd_test)
    for name, (help_text, config_cls, run, stem, summary) in _EXPERIMENTS.items():
        register(name, help_text, conf_experiment(config_cls),
                 functools.partial(_cmd_experiment, config_cls, run, stem, summary))
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
    started = _utc_now()
    try:
        values = opts.resolve(args)
        code, outputs = handler(values)
        if values["out"]:
            _write_run(Path(values["out"]), outputs, ["wshift", *argv], values, started,
                       args.config)
    except (WShiftError, OSError) as exc:
        print(f"wshift {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
