"""Tests for CSV ingestion, specifier parsing, subcommands, and manifests."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from wshift import cli, hypotest
from wshift._seeds import derive_seed
from wshift.cli import (
    CsvSchema,
    ingest_csv,
    main,
    parse_distribution,
    parse_weight,
)
from wshift.distributions import EmpiricalDistribution, sample, uniform01
from wshift.errors import DataFormatError, ParameterError
from wshift.experiments import ComparisonConfig, PhaseConfig, PowerMapConfig, _config_echo
from wshift.hypotest import (
    LimitLawCritical,
    ResamplingCritical,
    TabulatedCritical,
    TestOutcome,
    resampling_power,
)
from wshift.transport import Histogram, _fd_edges


def write_sample_csv(path, values, column="value"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{column}\n")
        for v in values:
            fh.write(f"{float(v)!r}\n")
    return path


_TWELVE_BAD = "; ".join(f"line {i}: non-numeric value 'x'" for i in range(2, 12)) + " (+2 more)"

# (file text, ingest_csv result, _read_value_column result): a result
# is {period: sorted values} in period order, the values in file order, or the error
READER_CASES = [
    pytest.param("period,value\n\na,1\n  \n,,\na,2\n \t ,\n", {"a": [1.0, 2.0]},
                 [1.0, 2.0], id="blank_rows"),
    pytest.param('period,value\n"x,y",1\n"x,y",2\n', {"x,y": [1.0, 2.0]}, [1.0, 2.0],
                 id="quoted_delimiter"),
    pytest.param("period,value\na,#2\na,2 # c\n",
                 "line 2: non-numeric value '#2'; line 3: non-numeric value '2 # c'",
                 "line 2: non-numeric value '#2'; line 3: non-numeric value '2 # c'",
                 id="hash_is_data"),
    pytest.param("period,value\na,1\na,nan\na,inf\n",
                 "line 3: non-finite value 'nan'; line 4: non-finite value 'inf'",
                 "line 3: non-finite value 'nan'; line 4: non-finite value 'inf'",
                 id="non_finite"),
    pytest.param("period,value\n" + "a,x\n" * 12, _TWELVE_BAD, _TWELVE_BAD,
                 id="twelve_bad_lines"),
    pytest.param("\r\n\r\nperiod,value\r\na,1\r\na,2\r\n", {"a": [1.0, 2.0]},
                 [1.0, 2.0], id="crlf_blank_lines_before_header"),
    pytest.param("period,value\na,1_000\na, 1.5 \n", {"a": [1.5, 1000.0]},
                 [1000.0, 1.5], id="underscore_and_padded_value"),
    pytest.param("period,value\na,1\na\na,2\n", "line 3: too few columns",
                 "line 3: too few columns", id="too_few_columns"),
    pytest.param("period,value\na,1,x\na,2,y,z\n", {"a": [1.0, 2.0]}, [1.0, 2.0],
                 id="extra_columns"),
    pytest.param("period,value\nb,4\na,1\nb,3\nb,5\na,2\n",
                 {"b": [3.0, 4.0, 5.0], "a": [1.0, 2.0]}, [4.0, 1.0, 3.0, 5.0, 2.0],
                 id="interleaved_periods"),
    pytest.param('period,value\n a ,1\na,2\n"a ",3\n', {"a": [1.0, 2.0, 3.0]},
                 [1.0, 2.0, 3.0], id="padded_labels"),
    pytest.param('"period",value\r\n"a\r\nb",1\r\n"a\r\nb",2\r\n',
                 {"a\r\nb": [1.0, 2.0]}, [1.0, 2.0], id="crlf_inside_quoted_label"),
    pytest.param("a;1\na;2\n", "missing column 'period' (have ['a;1'])",
                 "missing column 'value' (have ['a;1'])", id="semicolon_without_header"),
    pytest.param("value\n3.5\n", "missing column 'period' (have ['value'])", [3.5],
                 id="one_row_value_column"),
    pytest.param("period,value\n", "no data rows", "no numeric rows in column 'value'",
                 id="header_only"),
    pytest.param("\ufeffperiod,value\na,1\na,2\n", {"a": [1.0, 2.0]}, [1.0, 2.0],
                 id="byte_order_mark"),
    pytest.param("\ufeffperiod,value\na,1_000\n  \na,2\n", {"a": [2.0, 1000.0]},
                 [1000.0, 2.0], id="byte_order_mark_per_row_reader"),
]


class TestIngestCsv:
    def test_two_periods(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("period,value\na,1\na,2\na,3\nb,4\nb,5\nb,6\n")
        table = ingest_csv(path)
        assert list(table) == ["a", "b"]
        assert table["a"].n == 3
        assert list(table["b"].values) == [4.0, 5.0, 6.0]

    def test_non_numeric_cites_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("period,value\na,1\na,oops\na,3\n")
        with pytest.raises(DataFormatError, match="line 3"):
            ingest_csv(path)

    def test_small_period_named(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("period,value\na,1\na,2\nb,4\n")
        with pytest.raises(DataFormatError, match="'b'"):
            ingest_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("period,amount\na,1\na,2\n")
        with pytest.raises(DataFormatError, match="value"):
            ingest_csv(path)

    def test_custom_schema(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("spend,month\n1.5,m1\n2.5,m1\n")
        table = ingest_csv(path, CsvSchema(period_column="month", value_column="spend"))
        assert list(table) == ["m1"]
        assert table["m1"].values.tolist() == [1.5, 2.5]

    def test_round_trip(self, tmp_path):
        original = sample(uniform01(), 100, seed=5)
        path = tmp_path / "rt.csv"
        with open(path, "w") as fh:
            fh.write("period,value\n")
            for v in original.values:
                fh.write(f"p,{float(v)!r}\n")
        back = ingest_csv(path)["p"]
        assert np.array_equal(back.values, original.values)

    @pytest.mark.parametrize("text, table, column", READER_CASES)
    def test_reader_cases(self, tmp_path, text, table, column):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        if isinstance(table, str):
            with pytest.raises(DataFormatError) as err:
                ingest_csv(path)
            assert str(err.value) == f"{path}: {table}"
        else:
            got = ingest_csv(path)
            assert [(p, d.values.tolist()) for p, d in got.items()] == list(table.items())
            # the fast reader agrees with the per-row reader that defines a valid file
            labels, values = cli._load_columns(path, "value", "period")
            rows = list(cli._read_rows(path, "value", "period"))
            assert list(zip(labels, values)) == rows
        if isinstance(column, str):
            with pytest.raises(DataFormatError) as err:
                cli._read_value_column(path)
            assert str(err.value) == f"{path}: {column}"
        else:
            assert cli._read_value_column(path).tolist() == column

    @given(labels=st.lists(st.sampled_from(["a", " a", "a ", "b", "b\t", "c", " ", "é"]),
                           min_size=1, max_size=40),
           per_row_reader=st.booleans())
    @example(labels=["a", "b"] * 5, per_row_reader=False)  # interleaved: runs of one row
    @example(labels=["a", " a", "a ", "b", "b\t", "b"], per_row_reader=False)  # padding
    @example(labels=["a"] * 7, per_row_reader=False)  # one period
    @example(labels=["b", "a", "b", "b", "a"], per_row_reader=True)
    @settings(max_examples=150, deadline=None)
    def test_periods_are_coded_as_by_a_dict_per_row(self, tmp_path_factory, labels,
                                                    per_row_reader):
        # periods in order of first appearance, each with its rows; a whitespace-only
        # row sends the file through the per-row reader
        path = tmp_path_factory.mktemp("runs") / "in.csv"
        rows = [f"{label},{i}\n" for i, label in enumerate(labels)]
        if per_row_reader:
            rows.insert(len(rows) // 2, "  \n")
        path.write_text("period,value\n" + "".join(rows), encoding="utf-8")
        want: dict[str, list[float]] = {}
        for i, label in enumerate(labels):
            want.setdefault(label.strip(), []).append(float(i))
        read_rows, original = [], cli._read_rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_read_rows", lambda *a: read_rows.append(a) or original(*a))
            small = [p for p, values in want.items() if len(values) < 2]
            if small:
                with pytest.raises(DataFormatError, match=f"period {small[0]!r} has 1 "):
                    ingest_csv(path)
            else:
                table = ingest_csv(path)
                assert [(p, d.values.tolist()) for p, d in table.items()] == list(
                    want.items())
        assert bool(read_rows) == per_row_reader

    def test_repr_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 100_000
        original = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        original[:3] = (5e-324, -2.2250738585072014e-308, 1.7976931348623157e308)
        path = tmp_path / "rt.csv"
        path.write_text("period,value\n" + "".join(f"p{i % 3},{v!r}\n"
                                                   for i, v in enumerate(original.tolist())))
        assert cli._read_value_column(path).tobytes() == original.tobytes()
        table = ingest_csv(path)
        assert list(table) == ["p0", "p1", "p2"]
        for k, label in enumerate(table):
            assert table[label].values.tobytes() == np.sort(original[k::3]).tobytes()


class TestSpecifiers:
    def test_distributions(self):
        assert parse_distribution("uniform01").name == "uniform01"
        assert parse_distribution("gaussian:1,2").name == "gaussian(1,2)"
        g = parse_distribution("gaussian:0,1,-8,8")
        assert g.support == (-8.0, 8.0)
        assert parse_distribution("sine:0.5").name == "sine(0.5)"
        assert parse_distribution("tailq:0.3").name == "tailq(0.3)"
        assert parse_distribution("twopoint:0,1").name == "twopoint(0,1)"

    def test_csv_specifier(self, tmp_path):
        path = write_sample_csv(tmp_path / "d.csv", [0.1, 0.9, 0.5])
        d = parse_distribution(f"csv:{path}:value")
        assert isinstance(d, EmpiricalDistribution)
        assert d.n == 3

    def test_bad_specifiers(self):
        for bad in ("nope", "gaussian:1", "sine:x", "csv:onlypath"):
            with pytest.raises(ParameterError):
                parse_distribution(bad)

    def test_weights(self):
        assert parse_weight("lebesgue").tag == "lebesgue"
        w = parse_weight("quadratic:2", trim=0.1)
        assert w.a == 2.0 and w.trim == 0.1
        with pytest.raises(ParameterError):
            parse_weight("triangular")


class TestCritvalCommand:
    def test_prints_value_and_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "cv"
        code = main(["critval", "--reps", "5000", "--grid-k", "256",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        value = float(printed.splitlines()[0].split("=")[1])
        assert 0.3 < value < 0.6
        payload = json.loads((out / "critval.json").read_text())
        assert abs(payload["critical_value"] - value) < 1e-9
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == ["command", "config", "seed", "tool_version", "input_digests",
                                  "started_at", "finished_at", "outputs"]
        assert manifest["outputs"] == ["critval.json"]
        assert manifest["seed"] == 4
        assert manifest["command"][1] == "critval"

    def test_rejects_empirical_null(self, tmp_path, capsys):
        path = write_sample_csv(tmp_path / "d.csv", [0.1, 0.2, 0.9])
        code = main(["critval", "--null", f"csv:{path}:value", "--reps", "1000",
                     "--grid-k", "128"])
        assert code == 1
        assert "analytic" in capsys.readouterr().err

    def test_rejects_reps_whose_quantile_is_the_largest_draw(self, tmp_path, capsys):
        # ceil(0.95 * 15) = 15: the value would be the largest of the 15 draws
        out = tmp_path / "cv"
        assert main(["critval", "--reps", "15", "--grid-k", "256", "--seed", "1",
                     "--out", str(out)]) == 1
        assert "ceil((1 - alpha) * reps) < reps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_rejects_a_seed_outside_64_bits(self, tmp_path, capsys, seed):
        # reduced modulo 2^64, -1 would draw the streams of 2^64 - 1 and 2^64 those of 0
        out = tmp_path / "cv"
        assert main(["critval", "--reps", "200", "--grid-k", "64", "--seed", seed,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"wshift critval: error: --seed: seed must lie in [0, 2^64), got {seed}\n")
        assert not out.exists()

    def test_accepts_the_largest_64_bit_seed(self, tmp_path, capsys):
        out = tmp_path / "cv"
        assert main(["critval", "--reps", "200", "--grid-k", "64",
                     "--seed", str(2 ** 64 - 1), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 2 ** 64 - 1


class TestTestCommand:
    def test_accepting_run_exits_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        path = write_sample_csv(tmp_path / "d.csv", rng.random(400))
        out = tmp_path / "res"
        code = main(["test", "--null", "uniform01", "--data", str(path),
                     "--reps", "2000", "--grid-k", "256", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "test.json").read_text())
        assert payload["reject"] is False
        assert payload["n"] == 400
        assert 0.0 < payload["p_value"] <= 1.0

    def test_rejects_with_exit_three(self, tmp_path):
        rng = np.random.default_rng(9)
        path = write_sample_csv(tmp_path / "d.csv", 0.5 + 0.5 * rng.random(400))
        code = main(["test", "--null", "uniform01", "--data", str(path),
                     "--critical-source", "tabulated", "--tabulated-value", "0.46136",
                     "--reps", "1000", "--grid-k", "256", "--seed", "1"])
        assert code == 3

    def test_decision_matches_json(self, tmp_path):
        rng = np.random.default_rng(10)
        path = write_sample_csv(tmp_path / "d.csv", rng.random(300))
        out = tmp_path / "res"
        code = main(["test", "--null", "uniform01", "--data", str(path),
                     "--reps", "1000", "--grid-k", "256", "--out", str(out)])
        payload = json.loads((out / "test.json").read_text())
        assert (code == 3) == payload["reject"]

    def test_missing_data_flag(self, capsys):
        assert main(["test", "--null", "uniform01"]) == 1
        assert "--data" in capsys.readouterr().err

    @pytest.mark.parametrize("null, argv, want", [
        ("uniform01", [], LimitLawCritical()),
        ("csv", [], ResamplingCritical()),
        ("uniform01", ["--critical-source", "tabulated", "--tabulated-value", "0.46136"],
         TabulatedCritical(0.46136)),
        ("uniform01", ["--critical-source", "limitlaw"], LimitLawCritical()),
        ("csv", ["--critical-source", "resampling"], ResamplingCritical()),
        ("uniform01", ["--critical-source", "tabulated", "--tabulated-value", "0.5",
                       "--reps", "300", "--grid-k", "128"], TabulatedCritical(0.5, 300, 128)),
        ("csv", ["--reps", "300", "--replace", "false"], ResamplingCritical(300, False)),
        ("uniform01", ["--reps", "300", "--grid-k", "128"], LimitLawCritical(300, 128)),
    ], ids=["auto-law", "auto-csv", "tabulated", "limitlaw", "resampling",
            "tabulated-flags", "resampling-flags", "limitlaw-flags"])
    def test_source_defaults_are_the_source_class_defaults(self, tmp_path, monkeypatch,
                                                          null, argv, want):
        seen = []

        def fake_run_test(samples, config, seed=0):  # records the config, simulates nothing
            seen.append(config)
            return TestOutcome(0.0, 1.0, False, 1.0, samples.n, {})

        monkeypatch.setattr(cli, "run_test", fake_run_test)
        data = write_sample_csv(tmp_path / "d.csv", np.linspace(0.1, 0.9, 50))
        if null == "csv":
            null = f"csv:{data}:value"
        assert main(["test", "--null", null, "--data", str(data), *argv]) == 0
        assert [config.critical_source for config in seen] == [want]

    @pytest.mark.parametrize("null, argv, message", [
        ("csv", ["--grid-k", "128"], "--grid-k is not read by the resampling critical source"),
        ("csv", ["--critical-source", "resampling", "--grid-k", "128"],
         "--grid-k is not read by the resampling critical source"),
        ("uniform01", ["--replace", "false"],
         "--replace is not read by the limitlaw critical source"),
        ("uniform01", ["--critical-source", "limitlaw", "--replace", "true"],
         "--replace is not read by the limitlaw critical source"),
        ("uniform01", ["--critical-source", "tabulated", "--tabulated-value", "0.5",
                       "--replace", "true"],
         "--replace is not read by the tabulated critical source"),
        ("uniform01", ["--critical-source", "limitlaw", "--tabulated-value", "0.5"],
         "--tabulated-value is not read by the limitlaw critical source"),
    ], ids=["auto-csv-grid-k", "resampling-grid-k", "auto-law-replace", "limitlaw-replace",
            "tabulated-replace", "limitlaw-tabulated-value"])
    def test_option_the_source_does_not_read_is_rejected(self, tmp_path, monkeypatch, capsys,
                                                         null, argv, message):
        # the manifest would otherwise record a setting that had no effect
        monkeypatch.setattr(cli, "run_test", lambda *args, **kwargs: pytest.fail("ran"))
        data = write_sample_csv(tmp_path / "d.csv", np.linspace(0.1, 0.9, 50))
        if null == "csv":
            null = f"csv:{data}:value"
        out = tmp_path / "out"
        code = main(["test", "--null", null, "--data", str(data), *argv, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"wshift test: error: {message}\n"
        assert not out.exists()

    # every option that sets a critical-source field: (text, the field's value)
    SOURCE_FIELD_OPTIONS = {"tabulated-value": ("0.5", 0.5), "reps": ("300", 300),
                            "grid-k": ("128", 128), "replace": ("false", False)}

    @pytest.mark.parametrize("source", [TabulatedCritical, LimitLawCritical, ResamplingCritical],
                             ids=lambda cls: cls.name)
    def test_accepted_source_options_are_the_class_fields(self, tmp_path, monkeypatch, source):
        seen = []

        def fake_run_test(samples, config, seed=0):  # records the source, simulates nothing
            seen.append(config.critical_source)
            return TestOutcome(0.0, 1.0, False, 1.0, samples.n, {})

        monkeypatch.setattr(cli, "run_test", fake_run_test)
        data = write_sample_csv(tmp_path / "d.csv", np.linspace(0.1, 0.9, 50))
        accepted = {}
        for option, (text, value) in self.SOURCE_FIELD_OPTIONS.items():
            argv = ["test", "--data", str(data), "--critical-source", source.name,
                    f"--{option}", text]
            if source is TabulatedCritical and option != "tabulated-value":
                argv += ["--tabulated-value", "0.5"]  # the one field without a default
            if main(argv) == 0:
                field = "value" if option == "tabulated-value" else option.replace("-", "_")
                accepted[field] = getattr(seen[-1], field) == value
        assert list(accepted) == [f.name for f in fields(source)]
        assert all(accepted.values())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_tabulated_value_must_be_positive_and_finite(self, tmp_path, capsys, value):
        # a NaN critical value would be written to test.json and could never reject
        data = write_sample_csv(tmp_path / "d.csv", np.linspace(0.1, 0.9, 50))
        out = tmp_path / "out"
        code = main(["test", "--data", str(data), "--critical-source", "tabulated",
                     f"--tabulated-value={value}", "--out", str(out)])
        assert code == 1
        assert "tabulated critical value must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_resampling_manifest_records_the_replace_used(self, tmp_path):
        data = write_sample_csv(tmp_path / "d.csv", np.linspace(0.1, 0.9, 50))
        out = tmp_path / "out"
        assert main(["test", "--null", f"csv:{data}:value", "--data", str(data), "--reps", "100",
                     "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["replace"], config["grid_k"]) == (True, None)

    def test_manifest_records_the_source_defaults(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_test", lambda samples, config, seed=0: TestOutcome(
            0.0, 1.0, False, 1.0, samples.n, {}))  # simulates nothing
        data = write_sample_csv(tmp_path / "d.csv", np.linspace(0.1, 0.9, 50))
        out = tmp_path / "out"
        assert main(["test", "--data", str(data), "--critical-source", "limitlaw",
                     "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["reps"], config["grid_k"], config["replace"]) == (100_000, 4096, None)

    def test_resampling_rejects_reps_whose_quantile_is_the_largest_draw(self, tmp_path,
                                                                       capsys):
        # ceil(0.999 * 100) = 100, above the source's floor of 100 draws
        data = write_sample_csv(tmp_path / "d.csv", np.linspace(0.1, 0.9, 50))
        out = tmp_path / "out"
        assert main(["test", "--null", f"csv:{data}:value", "--data", str(data),
                     "--critical-source", "resampling", "--alpha", "0.001", "--reps", "100",
                     "--out", str(out)]) == 1
        assert "ceil((1 - alpha) * reps) < reps" in capsys.readouterr().err
        assert not out.exists()


class TestConfigPrecedence:
    def test_file_overrides_default_flag_overrides_file(self, tmp_path, capsys):
        conf = tmp_path / "conf.txt"
        conf.write_text("# comment\nreps = 2000\ngrid-k = 128\n")
        code = main(["critval", "--config", str(conf), "--grid-k", "256",
                     "--seed", "3", "--out", str(tmp_path / "o")])
        assert code == 0
        payload = json.loads((tmp_path / "o" / "critval.json").read_text())
        assert payload["reps"] == 2000      # from file
        assert payload["grid_k"] == 256     # flag wins

    def test_unknown_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.txt"
        conf.write_text("bogus = 1\n")
        assert main(["critval", "--config", str(conf)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_non_utf8_file_is_a_format_error(self, tmp_path, capsys):
        conf = tmp_path / "conf.txt"
        conf.write_bytes("reps = 2000\n# café\n".encode("latin-1"))
        out = tmp_path / "o"
        assert main(["critval", "--config", str(conf), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"wshift critval: error: {conf}: not UTF-8 text: "
            "invalid continuation byte at byte 17\n")
        assert not out.exists()


class TestUnreadableValues:
    """A scalar option value that does not parse is one error line naming the option."""

    @pytest.mark.parametrize("argv, config, named", [
        (["phase", "--n", "abc"], None, "--n"),
        (["critval", "--reps", "1e5"], None, "--reps"),
        (["test", "--alpha", "x"], None, "--alpha"),
        (["phase"], "n = abc\n", "config file: n"),
    ], ids=["phase-n", "critval-reps", "test-alpha", "config-file-n"])
    def test_exits_one_before_any_output(self, tmp_path, capsys, argv, config, named):
        if config is not None:
            conf = tmp_path / "conf.txt"
            conf.write_text(config)
            argv = [*argv, "--config", str(conf)]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"wshift {argv[0]}: error: {named}: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_computation_error_is_one(self, capsys):
        code = main(["test", "--null", "gaussian:0,1", "--data", "/nonexistent.csv"])
        assert code == 1
        capsys.readouterr()


class TestEmptyGridInputs:
    """An empty grid is an error, not a run that writes only header rows."""

    @pytest.mark.parametrize("argv", [
        ["phase", "--betas", ","],
        ["powermap", "--deltas", ","],
        ["compare-ks", "--p-grid", ","],
        ["compare-ks", "--gammas", ","],
        ["power-resample", "--data", "{panel}", "--n-grid", ","],
        ["interpolate", "--source", "{a}", "--target", "{b}", "--grid-points", "0"],
        # a baseline with no other period to compare against
        ["power-resample", "--data", "{lone}", "--n-grid", "10", "--trials", "20",
         "--reps", "100"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_rejected_before_any_output(self, tmp_path, capsys, argv):
        rng = np.random.default_rng(8)
        write_sample_csv(tmp_path / "a.csv", rng.normal(0, 1, 50))
        write_sample_csv(tmp_path / "b.csv", rng.normal(1, 1, 50))
        panel = tmp_path / "panel.csv"
        panel.write_text("period,value\n" + "".join(
            f"{label},{v}\n" for label in ("base", "later") for v in rng.normal(0, 1, 50)))
        lone = tmp_path / "lone.csv"
        lone.write_text("period,value\n" + "".join(f"base,{v}\n" for v in rng.normal(0, 1, 50)))
        out = tmp_path / "out"
        argv = [a.format(a=tmp_path / "a.csv", b=tmp_path / "b.csv", panel=panel, lone=lone)
                for a in argv]
        assert main([*argv, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def _run_twice(self, tmp_path, argv_builder):
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            code = main(argv_builder(out))
            assert code in (0, 3)
            outs.append(out)
        a, b = outs
        names = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in b.iterdir() if p.name != "manifest.json")
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        return a

    def test_critval_outputs_bit_identical(self, tmp_path):
        self._run_twice(tmp_path, lambda out: [
            "critval", "--reps", "3000", "--grid-k", "256", "--seed", "11",
            "--out", str(out)])

    def test_phase_outputs_bit_identical(self, tmp_path):
        self._run_twice(tmp_path, lambda out: [
            "phase", "--n", "2000", "--trials", "25", "--betas", "0.3,0.7",
            "--seed", "5", "--out", str(out)])

    def test_rerun_from_manifest_command(self, tmp_path):
        out1 = tmp_path / "first"
        argv = ["critval", "--reps", "3000", "--grid-k", "256", "--seed", "11",
                "--out", str(out1)]
        assert main(argv) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        replay = manifest["command"][1:]
        out2 = tmp_path / "second"
        replay[replay.index(str(out1))] = str(out2)
        assert main(replay) == 0
        assert (out1 / "critval.json").read_bytes() == (out2 / "critval.json").read_bytes()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestManifest:
    def test_test_digests_the_csv_null_and_the_data(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        ref = write_sample_csv(tmp_path / "ref.csv", rng.random(200))
        data = write_sample_csv(tmp_path / "d.csv", rng.random(80))
        out = tmp_path / "out"
        assert main(["test", "--null", f"csv:{ref}:value", "--data", str(data),
                     "--reps", "100", "--out", str(out)]) in (0, 3)
        digests = json.loads((out / "manifest.json").read_text())["input_digests"]
        assert digests == {str(data): _sha256(data), str(ref): _sha256(ref)}

    def test_phase_digests_the_csv_signal(self, tmp_path, capsys):
        sig = write_sample_csv(tmp_path / "sig.csv", np.random.default_rng(13).normal(0, 1, 300))
        out = tmp_path / "out"
        assert main(["phase", "--q", f"csv:{sig}:value", "--n", "200", "--trials", "20",
                     "--betas", "0.5", "--out", str(out)]) == 0
        digests = json.loads((out / "manifest.json").read_text())["input_digests"]
        assert digests == {str(sig): _sha256(sig)}

    def test_critval_digests_the_config_file(self, tmp_path, capsys):
        conf = tmp_path / "conf.txt"
        conf.write_text("reps = 2000\n")
        out = tmp_path / "out"
        assert main(["critval", "--config", str(conf), "--grid-k", "64", "--seed", "3",
                     "--out", str(out)]) == 0
        digests = json.loads((out / "manifest.json").read_text())["input_digests"]
        assert digests == {str(conf): _sha256(conf)}

    def test_started_at_precedes_the_work(self, tmp_path, monkeypatch):
        ticks = iter(range(100))
        monkeypatch.setattr(cli, "_utc_now", lambda: next(ticks))
        seen = []

        def fake_run_test(samples, config, seed=0):  # reads the clock mid-run, simulates nothing
            seen.append(cli._utc_now())
            return TestOutcome(0.0, 1.0, False, 1.0, samples.n, {})

        monkeypatch.setattr(cli, "run_test", fake_run_test)
        data = write_sample_csv(tmp_path / "d.csv", np.linspace(0.1, 0.9, 50))
        out = tmp_path / "out"
        assert main(["test", "--data", str(data), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["started_at"] < seen[0] < manifest["finished_at"]


class TestInterpolateCommand:
    def test_tables_and_curve(self, tmp_path):
        rng = np.random.default_rng(3)
        src = write_sample_csv(tmp_path / "a.csv", rng.normal(0, 1, 300))
        tgt = write_sample_csv(tmp_path / "b.csv", rng.normal(2, 1.5, 300))
        out = tmp_path / "interp"
        code = main(["interpolate", "--source", str(src), "--target", str(tgt),
                     "--kind", "both", "--steps", "12", "--grid-points", "64",
                     "--out", str(out)])
        assert code == 0
        for i in range(12):
            assert (out / f"displacement_{i:02d}.csv").exists()
            assert (out / f"linear_{i:02d}.csv").exists()
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "t,w2_relative,tv_relative"
        assert len(lines) == 13
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first == [0.0, 0.0, 0.0]
        assert last == [1.0, 1.0, 1.0]
        # along both paths each relative distance is its t: W2 grows linearly on
        # the geodesic, TV linearly along the mix of the two histograms
        for line in lines[1:]:
            t, w2_relative, tv_relative = (float(x) for x in line.split(","))
            assert abs(w2_relative - t) <= 1e-9
            assert abs(tv_relative - t) <= 1e-9

    def test_linear_tables_are_quantiles_of_the_histogram_mix(self, tmp_path):
        rng = np.random.default_rng(9)
        a, b = rng.normal(0, 1, 200), rng.exponential(2.0, 150)
        src = write_sample_csv(tmp_path / "a.csv", a)
        tgt = write_sample_csv(tmp_path / "b.csv", b)
        out = tmp_path / "interp"
        assert main(["interpolate", "--source", str(src), "--target", str(tgt),
                     "--kind", "linear", "--steps", "3", "--grid-points", "50",
                     "--out", str(out)]) == 0
        assert not list(out.glob("displacement_*.csv"))
        edges = _fd_edges(np.concatenate([a, b]))
        p0, p1 = (np.histogram(v, bins=edges)[0] / v.size for v in (a, b))
        u = (np.arange(50) + 0.5) / 50
        for i, t in enumerate((0.0, 0.5, 1.0)):
            rows = (out / f"linear_{i:02d}.csv").read_text().splitlines()
            assert rows[0] == "u,quantile"
            got = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
            want = Histogram(edges, (1.0 - t) * p0 + t * p1).quantile(u)
            assert np.allclose(got[:, 0], u, rtol=1e-9, atol=0.0)
            assert np.allclose(got[:, 1], want, rtol=1e-9, atol=1e-12)

    def test_displacement_tables_mix_the_quantiles(self, tmp_path):
        rng = np.random.default_rng(10)
        a, b = rng.normal(0, 1, 40), rng.uniform(3.0, 5.0, 25)
        src = write_sample_csv(tmp_path / "a.csv", a)
        tgt = write_sample_csv(tmp_path / "b.csv", b)
        out = tmp_path / "interp"
        assert main(["interpolate", "--source", str(src), "--target", str(tgt),
                     "--kind", "displacement", "--steps", "5", "--grid-points", "30",
                     "--out", str(out)]) == 0
        assert not list(out.glob("linear_*.csv"))
        u = (np.arange(30) + 0.5) / 30
        qa, qb = EmpiricalDistribution(a).quantile(u), EmpiricalDistribution(b).quantile(u)
        for i, t in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            rows = (out / f"displacement_{i:02d}.csv").read_text().splitlines()[1:]
            got = np.array([float(r.split(",")[1]) for r in rows])
            assert np.allclose(got, (1.0 - t) * qa + t * qb, rtol=1e-9, atol=1e-12)

    def test_rejects_a_seed_outside_64_bits(self, tmp_path, capsys):
        # the command draws nothing, but its manifest would record the seed
        src = write_sample_csv(tmp_path / "a.csv", [1.0, 2.0, 3.0])
        tgt = write_sample_csv(tmp_path / "b.csv", [2.0, 4.0, 5.0])
        out = tmp_path / "interp"
        assert main(["interpolate", "--source", str(src), "--target", str(tgt),
                     "--seed", "-1", "--out", str(out)]) == 1
        assert "error: --seed: seed must lie in [0, 2^64), got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_identical_endpoints_rejected(self, tmp_path, capsys):
        src = write_sample_csv(tmp_path / "a.csv", [1.0, 2.0, 3.0])
        code = main(["interpolate", "--source", str(src), "--target", str(src)])
        assert code == 1
        assert "coincide" in capsys.readouterr().err


class TestCompareKsCommand:
    def test_outputs_and_columns(self, tmp_path, capsys):
        out = tmp_path / "ks"
        code = main(["compare-ks", "--family", "sine", "--p-grid", "1.0",
                     "--gammas", "10", "--n", "5000", "--trials", "25",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        assert "power_w2" in capsys.readouterr().out
        lines = (out / "compare_ks.csv").read_text().splitlines()
        assert lines[0] == "p,gamma,metric,value,se,trials"
        metrics = {line.split(",")[2] for line in lines[1:]}
        assert metrics == {"type1_w2", "type1_ks", "power_w2", "power_ks"}


class TestPowerResampleCommand:
    def test_table_shape_and_values(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "panel.csv"
        with open(path, "w") as fh:
            fh.write("period,value\n")
            for v in rng.normal(0.0, 1.0, 200):
                fh.write(f"base,{v}\n")
            for v in rng.normal(1.5, 1.0, 200):
                fh.write(f"later,{v}\n")
        out = tmp_path / "pr"
        code = main(["power-resample", "--data", str(path), "--baseline", "base",
                     "--n-grid", "10,50", "--trials", "40", "--reps", "200",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = (out / "power_resample.csv").read_text().splitlines()
        assert lines[0] == "period,n,power,se,trials"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["later", "later"]
        powers = [float(r[2]) for r in rows]
        assert powers[1] >= powers[0]  # power grows with subsample size
        assert powers[1] > 0.9

    def test_one_plan_per_size_gives_the_public_tables(self, tmp_path, monkeypatch):
        # the reference's plan for each n serves every period; the table is that of one
        # resampling_power call per (period, n), and rows interleaved one at a time,
        # with the periods in the same order of first appearance, give it too
        rng = np.random.default_rng(8)
        periods = {"base": rng.normal(0.0, 1.0, 300), "near": rng.normal(0.2, 1.0, 300),
                   "far": rng.normal(1.0, 1.0, 300)}
        grouped, interleaved = tmp_path / "grouped.csv", tmp_path / "interleaved.csv"
        grouped.write_text("period,value\n" + "".join(
            f"{p},{v!r}\n" for p, values in periods.items() for v in values.tolist()))
        interleaved.write_text("period,value\n" + "".join(
            f"{p},{v!r}\n" for row in zip(*(values.tolist() for values in periods.values()))
            for p, v in zip(periods, row)))
        calls = []
        monkeypatch.setattr(cli, "plan_scaled_statistic",
                            lambda *a: calls.append(a) or hypotest.plan_scaled_statistic(*a))
        args = ["--n-grid", "10,40", "--trials", "30", "--reps", "200", "--seed", "3"]
        for replace in ("true", "false"):
            tables = []
            for path in (grouped, interleaved):
                out = tmp_path / f"{path.stem}-{replace}"
                code = main(["power-resample", "--data", str(path), "--replace", replace,
                             *args, "--out", str(out)])
                assert code == 0
                tables.append((out / "power_resample.csv").read_text())
            lines = ["period,n,power,se,trials"]
            for label in ("near", "far"):
                for n in (10, 40):
                    power = resampling_power(
                        EmpiricalDistribution(periods["base"]),
                        EmpiricalDistribution(periods[label]), n, 0.05, 30, 200,
                        seed=derive_seed(3, "power-resample", label, n),
                        replace=replace == "true")
                    se = math.sqrt(power * (1 - power) / 30)
                    lines.append(f"{label},{n},{power:.10g},{se:.10g},30")
            assert tables == ["\n".join(lines) + "\n"] * 2
        assert [a[2] for a in calls] == [10, 40] * 4

    @pytest.mark.parametrize("before", [0, 3000], ids=["in-header-chunk", "past-first-read"])
    def test_non_utf8_file_is_a_format_error(self, tmp_path, capsys, before):
        rng = np.random.default_rng(7)
        text = "period,value\n" + "".join(
            f"{label},{v}\n" for label, count in (("base", before + 50), ("café", 50))
            for v in rng.normal(0.0, 1.0, count))
        path = tmp_path / "latin1.csv"
        path.write_bytes(text.encode("latin-1"))
        offset = text.encode("latin-1").index("é".encode("latin-1"))
        code = main(["power-resample", "--data", str(path), "--n-grid", "10",
                     "--trials", "20", "--reps", "100"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"wshift power-resample: error: {path}: not UTF-8 text: "
            f"invalid continuation byte at byte {offset}\n")


class TestHelpText:
    @pytest.mark.parametrize("command", [
        "test", "critval", "phase", "powermap", "interpolate",
        "compare-ks", "power-resample"])
    def test_flags_list_defaults(self, command, capsys):
        with pytest.raises(SystemExit):
            main_argv = [command, "--help"]
            import wshift.cli as cli
            cli._build_parser()[0].parse_args(main_argv)
        text = capsys.readouterr().out
        assert "--seed" in text
        assert "[default:" in text


EXPERIMENT_COMMANDS = [("phase", PhaseConfig), ("powermap", PowerMapConfig),
                       ("compare-ks", ComparisonConfig)]


def _resolve(command, argv=()):
    parser, handlers = cli._build_parser()
    opts, _ = handlers[command]
    return opts, opts.resolve(parser.parse_args([command, *argv]))


class TestDerivedOptions:
    """Experiment options are the config's fields, with the config's defaults."""

    @pytest.mark.parametrize("command, config_cls", EXPERIMENT_COMMANDS)
    def test_empty_argv_builds_the_default_config(self, command, config_cls):
        _, values = _resolve(command)
        cfg = cli._experiment_config(config_cls, values)
        # laws are compared by name: two default factories give distinct objects
        assert _config_echo(cfg, command) == _config_echo(config_cls(), command)

    @pytest.mark.parametrize("command, config_cls", EXPERIMENT_COMMANDS)
    def test_options_are_the_primitive_fields(self, command, config_cls):
        opts, _ = _resolve(command)
        flags = {s for a in opts.parser._actions for s in a.option_strings}
        primitive = {"--" + f.name.replace("_", "-") for f in fields(config_cls)
                     if isinstance(f.default, (int, float, str, tuple))}
        extra = {"--config", "--out"} | ({"--q"} if command == "phase" else set())
        assert flags - {"-h", "--help"} == primitive | extra

    def test_converters_follow_the_default_types(self):
        _, values = _resolve("phase", ["--n", "2000", "--betas", "0.3,0.7", "--critical", "0.5",
                                       "--q", "sine:0.5"])
        cfg = cli._experiment_config(PhaseConfig, values)
        assert (cfg.n, cfg.betas, cfg.critical, cfg.signal.name) == (2000, (0.3, 0.7), 0.5,
                                                                     "sine(0.5)")
        assert type(cfg.n) is int and type(cfg.critical) is float

    @pytest.mark.parametrize("command", ["phase", "powermap", "compare-ks"])
    def test_experiments_have_no_alpha(self, command, capsys):
        # every cell rejects at --critical, so a level option would do nothing
        assert main([command, "--alpha", "0.1"]) == 2
        assert "--alpha" in capsys.readouterr().err

    def test_interpolate_has_no_alpha(self, capsys):
        assert main(["interpolate", "--alpha", "0.05"]) == 2
        assert "--alpha" in capsys.readouterr().err


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("wshift ")]
    parser, handlers = cli._build_parser()
    assert {argv[1] for argv in commands} == set(handlers)
    for argv in commands:
        parser.parse_args(argv[1:])  # a bad option exits with SystemExit


# Runs in a fresh interpreter: imports the CLI, builds every parser, reports
# the heavy modules loaded by then, then builds the first Gaussian law.
_STARTUP_SCRIPT = """
import contextlib, io, json, sys
import numpy as np
from wshift import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["--version"])]
    commands = sorted(cli._build_parser()[1])
    codes += [cli.main([cmd, "--help"]) for cmd in commands]
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial"))
from wshift.distributions import gaussian
g = gaussian(0.0, 1.0, -8.0, 8.0)
u = np.array(json.loads(sys.argv[1]))
x = np.array(json.loads(sys.argv[2]))
print(json.dumps({"codes": codes, "commands": commands, "loaded": loaded,
                  "quantile": g.quantile_fn(u).tolist(), "cdf": g.cdf_fn(x).tolist(),
                  "density": g.density_fn(x).tolist()}))
"""
_U = [0.0, 1e-300, 1e-12, 1e-3, 0.25, 0.5, 0.75, 0.999, 1.0 - 1e-12, 1.0]
_X = [-9.0, -8.0, -7.999, -1.5, 0.0, 0.3, 2.0, 7.999, 8.0, 9.0]


@pytest.fixture(scope="module")
def fresh_startup():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, json.dumps(_U), json.dumps(_X)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


class TestStartup:
    """The CLI loads scipy and numpy.polynomial only when a command needs them."""

    def test_help_and_version_load_neither(self, fresh_startup):
        assert fresh_startup["codes"] == [0] * 8
        assert len(fresh_startup["commands"]) == 7
        assert fresh_startup["loaded"] == []

    def test_first_gaussian_is_scipy_bit_for_bit(self, fresh_startup):
        m, s, lo, hi = 0.0, 1.0, -8.0, 8.0
        u, x = np.array(_U), np.array(_X)
        flo, fhi = float(ndtr(np.asarray(lo))), float(ndtr(np.asarray(hi)))
        z = fhi - flo
        quantile = np.clip(m + s * ndtri(flo + u * z), lo, hi)
        cdf = np.clip((ndtr((np.clip(x, lo, hi) - m) / s) - flo) / z, 0.0, 1.0)
        density = np.where((x >= lo) & (x <= hi),
                           np.exp(-0.5 * ((x - m) / s) ** 2) / (s * np.sqrt(2.0 * np.pi)) / z,
                           0.0)
        assert np.array_equal(fresh_startup["quantile"], quantile)
        assert np.array_equal(fresh_startup["cdf"], cdf)
        assert np.array_equal(fresh_startup["density"], density)
