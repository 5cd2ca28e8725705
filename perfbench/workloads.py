"""The three benchmark workloads: their inputs, their jobs and the checks on each job.

A workload is a fixed list of jobs run one after another (a closed loop).
A job drives the package from outside, through ``wshift.cli.main`` or a
public function, and returns what it produced; only that part is timed.
Its check then reads the result and raises ``CheckFailed`` if it is wrong.
Inputs are generated here from the workload seed, so the package sees only
generated files and parameters.

Each workload has two sizes: ``full``, which the benchmark measures, and
``tiny``, which the self-test runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special, stats

from wshift import cli
from wshift import distributions as D
from wshift import experiments as E
from wshift import limitlaw as L
from wshift import transport as T

ALPHA = 0.05
CVM_95 = 0.46136  # 5% point of the null law for the uniform null and Lebesgue weight
QUAD2_95 = 0.4217  # 5% point for the quadratic weight a=2, from the exact spectral law
BAND_TAIL = 1e-6  # two-sided probability outside the binomial acceptance band
MANIFEST_CLOCK_KEYS = ("started_at", "finished_at")


class CheckFailed(Exception):
    """A job ran but its output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Context:
    """State of one workload run: where files go, sizes, seeds and results."""

    work: Path
    seed: int
    size: dict
    results: dict = field(default_factory=dict)  # job name -> result in this pass

    def job_seed(self, job: str) -> int:
        digest = hashlib.blake2b(f"{self.seed}/{job}".encode(), digest_size=8).digest()
        return int.from_bytes(digest, "little") >> 1

    def path(self, name: str) -> str:
        return str(self.work / name)

    def out(self, job: str) -> str:
        return self.path(f"out/{job}")

    def clear_outputs(self, job: str) -> None:
        shutil.rmtree(self.out(job), ignore_errors=True)


@dataclass(frozen=True)
class Job:
    """``run`` is timed; ``check`` raises CheckFailed or returns a fingerprint
    of the output that must repeat exactly in every pass."""

    name: str
    run: Callable[[Context], object]
    check: Callable[[Context, object], str]


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    prepare: Callable[[Context], None]
    jobs: tuple
    expected_counts: Callable[[dict], dict]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def run_cli(argv: list) -> int:
    """Run the CLI in-process, its printout discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def write_column(path: str, values: np.ndarray) -> None:
    text = "value\n" + "\n".join(f"{v:.17g}" for v in values) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def output_digest(out_dir: str) -> str:
    """Digest of every output file; manifest clock fields are left out."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            for key in MANIFEST_CLOCK_KEYS:
                manifest.pop(key)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def read_json(out_dir: str, name: str) -> dict:
    return json.loads((Path(out_dir) / name).read_text(encoding="utf-8"))


def check_binomial(value: float, trials: int, p: float, what: str) -> None:
    """The observed rate lies in the two-sided 1e-6 binomial band around p."""
    k = round(value * trials)
    lo = stats.binom.ppf(BAND_TAIL / 2, trials, p)
    hi = stats.binom.isf(BAND_TAIL / 2, trials, p)
    require(lo <= k <= hi, f"{what}: {k}/{trials} outside the binomial band "
                           f"[{lo:g}, {hi:g}] around {p:g}")


def check_test_outcome(code: int, outcome: dict, what: str) -> None:
    reject = outcome["statistic"] > outcome["critical_value"]
    require(outcome["reject"] == reject,
            f"{what}: decision {outcome['reject']} disagrees with statistic "
            f"{outcome['statistic']:g} vs critical value {outcome['critical_value']:g}")
    require(code == (3 if reject else 0), f"{what}: exit code {code}, reject={reject}")
    require(0.0 < outcome["p_value"] <= 1.0, f"{what}: p-value {outcome['p_value']}")


def table_digest(table) -> str:
    return hashlib.sha256(table.csv_text().encode()).hexdigest()


def check_cells_are_probabilities(table, what: str) -> None:
    for c in table.cells:
        require(0.0 <= c.value <= 1.0 or c.metric == "error_sum",
                f"{what}: {c.metric} at {c.axes} = {c.value}")


# ---------------------------------------------------------------------------
# limitlaw: critical values from the bridge limit law, and tests that use them
# ---------------------------------------------------------------------------

LIMITLAW_SIZES = {
    "full": dict(critval_reps=8000, critval_k=4096, test_n=10_000, test_reps=10_000,
                 test_k=2048, tab_reps=10_000, tab_k=2048, pm_deltas=(0.03, 0.07),
                 pm_gammas=(5.5, 9.5), pm_n=10_000, pm_trials=50, pm_law_reps=4000,
                 pm_k=4096, type2_reps=4000),
    "tiny": dict(critval_reps=400, critval_k=64, test_n=500, test_reps=400, test_k=64,
                 tab_reps=400, tab_k=64, pm_deltas=(0.03,), pm_gammas=(9.5,), pm_n=500,
                 pm_trials=20, pm_law_reps=400, pm_k=64, type2_reps=400),
}
TYPE2_CELL = (0.03, 9.5)  # (delta, gamma) where the boundary law is cross-checked


def prepare_limitlaw(ctx: Context) -> None:
    rng = np.random.default_rng([ctx.seed, 1])
    n = ctx.size["test_n"]
    lo, hi = special.ndtr(-3.0), special.ndtr(3.0)
    write_column(ctx.path("gaussian.csv"), special.ndtri(lo + (hi - lo) * rng.random(n)))
    u = rng.random(n)
    write_column(ctx.path("displaced.csv"), 0.7 * u + 0.3 * u * u)


def critval_job(name: str, weight: str, anchor: float) -> Job:
    def run(ctx):
        s = ctx.size
        code = run_cli(["critval", "--weight", weight, "--reps", s["critval_reps"],
                           "--grid-k", s["critval_k"], "--seed", ctx.job_seed(name),
                           "--out", ctx.out(name)])
        return code

    def check(ctx, code):
        require(code == 0, f"exit code {code}")
        cv = read_json(ctx.out(name), "critval.json")
        se = cv["standard_error"]
        require(se > 0.0, f"standard error {se}")
        require(abs(cv["critical_value"] - anchor) <= 4.0 * se,
                f"critical value {cv['critical_value']:.5f} is more than 4 SE "
                f"({se:.5f}) from {anchor}")
        return output_digest(ctx.out(name))

    return Job(name, run, check)


def _test_job(name: str, argv: Callable[[Context], list], expect_reject: bool,
              source: str) -> Job:
    def run(ctx):
        code = run_cli(["test", *argv(ctx), "--seed", ctx.job_seed(name),
                           "--out", ctx.out(name)])
        return code

    def check(ctx, code):
        outcome = read_json(ctx.out(name), "test.json")
        check_test_outcome(code, outcome, name)
        require(outcome["provenance"]["source"] == source,
                f"critical source {outcome['provenance']['source']}")
        if expect_reject:
            require(code == 3, f"displaced data not rejected (exit code {code})")
        return output_digest(ctx.out(name))

    return Job(name, run, check)


def _run_power_map(ctx):
    s = ctx.size
    return E.run_power_map(E.PowerMapConfig(
        deltas=s["pm_deltas"], gammas=s["pm_gammas"], n=s["pm_n"], trials=s["pm_trials"],
        law_reps=s["pm_law_reps"], grid_k=s["pm_k"], seed=ctx.job_seed("power_map")))


def _check_power_map(ctx, table):
    check_cells_are_probabilities(table, "power map")
    cal = table.cell("type1", 0.0, 0.0)
    check_binomial(cal.value, cal.trials, ALPHA, "power map type I")
    return table_digest(table)


def _run_type2(ctx):
    s = ctx.size
    delta, gamma = TYPE2_CELL
    signal = D.sine_distribution(delta * math.sqrt(8.0) * math.pi)
    sampler = L.LimitLawSampler.from_distributions(
        D.uniform01(), signal, T.lebesgue(), L.BridgeGrid(s["pm_k"]),
        seed=ctx.job_seed("type2"))
    return L.theoretical_type2(sampler, gamma, ALPHA, s["type2_reps"], critical=CVM_95)


def _check_type2(ctx, value):
    s = ctx.size
    cell = ctx.results["power_map"].cell("type2_theoretical", *TYPE2_CELL)
    pooled = (value * s["type2_reps"] + cell.value * cell.trials) / (s["type2_reps"] + cell.trials)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / s["type2_reps"] + 1.0 / cell.trials))
    require(abs(value - cell.value) <= 5.0 * se,
            f"theoretical_type2 {value:.4f} vs power-map prediction {cell.value:.4f} "
            f"(5 SE = {5 * se:.4f})")
    return repr(value)


def limitlaw_jobs() -> tuple:
    return (
        critval_job("critval", "lebesgue", CVM_95),
        critval_job("critval_quadratic", "quadratic:2", QUAD2_95),
        _test_job("test_limitlaw",
                  lambda ctx: ["--null", "gaussian:0,1,-3,3",
                               "--data", ctx.path("gaussian.csv"),
                               "--reps", ctx.size["test_reps"],
                               "--grid-k", ctx.size["test_k"]],
                  expect_reject=False, source="limitlaw"),
        _test_job("test_tabulated",
                  lambda ctx: ["--critical-source", "tabulated",
                               "--tabulated-value", CVM_95,
                               "--data", ctx.path("displaced.csv"),
                               "--reps", ctx.size["tab_reps"],
                               "--grid-k", ctx.size["tab_k"]],
                  expect_reject=True, source="tabulated"),
        Job("power_map", _run_power_map, _check_power_map),
        Job("type2", _run_type2, _check_type2),
    )


def limitlaw_counts(s: dict) -> dict:
    cells = len(s["pm_deltas"]) * len(s["pm_gammas"])
    return {
        "limitlaw.bridge_normals": (2 * s["critval_reps"] * s["critval_k"]
                                    + s["test_reps"] * s["test_k"]
                                    + s["tab_reps"] * s["tab_k"]
                                    + len(s["pm_deltas"]) * s["pm_law_reps"] * s["pm_k"]
                                    + s["type2_reps"] * s["pm_k"]),
        # one row for the tabulated test's own statistic, then the power-map trials
        "transport.scaled_statistics.rows": 1 + (1 + cells) * s["pm_trials"],
    }


# ---------------------------------------------------------------------------
# sampling: the experiment harness at tabulated critical values
# ---------------------------------------------------------------------------

SAMPLING_SIZES = {
    "full": dict(phase_n=100_000, betas=(0.2, 0.5, 0.8), phase_trials=40, n=30_000,
                 trials=20, p_grid=(0.2, 0.4), gammas=(4.0, 10.0), a_values=(0.0, 1.0, 2.0),
                 law_reps=2000, grid_k=2048),
    "tiny": dict(phase_n=2000, betas=(0.2, 0.5, 0.8), phase_trials=20, n=1000,
                 trials=20, p_grid=(0.2, 0.4), gammas=(4.0, 10.0), a_values=(0.0, 2.0),
                 law_reps=400, grid_k=64),
}


def _run_phase(ctx):
    s = ctx.size
    cfg = E.PhaseConfig(null=D.uniform01(), signal=D.gaussian(0.0, 1.0, -8.0, 8.0),
                        n=s["phase_n"], betas=s["betas"], trials=s["phase_trials"],
                        critical=CVM_95, seed=ctx.job_seed("phase"))
    return E.run_phase_transition(cfg)


def _check_phase(ctx, table):
    s = ctx.size
    trials = s["phase_trials"]
    for beta in s["betas"]:
        c = table.cell("type1", beta)
        check_binomial(c.value, c.trials, ALPHA, f"phase type I at beta={beta:g}")
    # five binomial SEs of the sum at the level, as the slack for "near"
    slack = 5.0 * math.sqrt(2.0 * ALPHA * (1.0 - ALPHA) / trials)
    low = table.cell("error_sum", min(s["betas"])).value
    high = table.cell("error_sum", max(s["betas"])).value
    require(low <= slack, f"error sum {low:.3f} at beta={min(s['betas']):g} is not near 0")
    require(abs(high - 1.0) <= slack,
            f"error sum {high:.3f} at beta={max(s['betas']):g} is not near 1")
    return table_digest(table)


def _run_ks(ctx):
    s = ctx.size
    cfg = E.ComparisonConfig(family="tail", p_grid=s["p_grid"], gammas=s["gammas"],
                             n=s["n"], trials=s["trials"], critical=CVM_95,
                             seed=ctx.job_seed("comparison"))
    return E.run_ks_comparison(cfg)


def _check_ks(ctx, table):
    check_cells_are_probabilities(table, "KS comparison")
    for metric in ("type1_w2", "type1_ks"):
        c = table.cell(metric, 0.0, 0.0)
        check_binomial(c.value, c.trials, ALPHA, f"KS comparison {metric}")
    return table_digest(table)


def _run_weights(ctx):
    s = ctx.size
    # same seed and grid as the KS comparison, so the a=0 column must equal its power_w2
    cfg = E.WeightComparisonConfig(a_values=s["a_values"], p_grid=s["p_grid"],
                                   gammas=s["gammas"], family="tail", n=s["n"],
                                   trials=s["trials"], critical_lebesgue=CVM_95,
                                   law_reps=s["law_reps"], grid_k=s["grid_k"],
                                   seed=ctx.job_seed("comparison"))
    return E.run_weight_comparison(cfg)


def _check_weights(ctx, table):
    s = ctx.size
    check_cells_are_probabilities(table, "weight comparison")
    for a in s["a_values"]:
        c = table.cell("type1", a, 0.0, 0.0)
        check_binomial(c.value, c.trials, ALPHA, f"weight comparison type I at a={a:g}")
    ks = ctx.results["ks_comparison"]
    for p in s["p_grid"]:
        for gamma in s["gammas"]:
            mine = table.cell("power", 0.0, p, gamma).value
            theirs = ks.cell("power_w2", p, gamma).value
            require(mine == theirs, f"a=0 power {mine} != KS-comparison power_w2 {theirs} "
                                    f"at p={p:g}, gamma={gamma:g}")
    return table_digest(table)


def sampling_jobs() -> tuple:
    return (
        Job("phase", _run_phase, _check_phase),
        Job("ks_comparison", _run_ks, _check_ks),
        Job("weight_comparison", _run_weights, _check_weights),
    )


def sampling_counts(s: dict) -> dict:
    cells = 1 + len(s["p_grid"]) * len(s["gammas"])
    weighted = sum(1 for a in s["a_values"] if a != 0.0)
    return {
        "limitlaw.bridge_normals": weighted * s["law_reps"] * s["grid_k"],
        "transport.scaled_statistics.rows": (2 * len(s["betas"]) * s["phase_trials"]
                                             + cells * s["trials"]
                                             + len(s["a_values"]) * cells * s["trials"]),
    }


# ---------------------------------------------------------------------------
# data: data-defined nulls through the CLI, CSV files in and output files out
# ---------------------------------------------------------------------------

DATA_SIZES = {
    "full": dict(period_rows=8000, n_grid=(10, 50, 100, 500), trials=100, reps=1000,
                 reference_rows=10_000, shifted_rows=1000, test_reps=2000, steps=12,
                 grid_points=512),
    "tiny": dict(period_rows=500, n_grid=(10, 50), trials=20, reps=100,
                 reference_rows=1000, shifted_rows=200, test_reps=100, steps=4,
                 grid_points=64),
}
PERIOD_SHIFTS = (0.0, 0.1, 0.3, 1.0)  # position of each period on the transport path


def _path_quantile(z: np.ndarray, t: float) -> np.ndarray:
    """Quantile at fraction t of the way from N(0, 1) to N(0.5, 1.5^2)."""
    return (1.0 - t) * z + t * (0.5 + 1.5 * z)


def prepare_data(ctx: Context) -> None:
    s = ctx.size
    rng = np.random.default_rng([ctx.seed, 3])
    lines = ["period,value"]
    for k, t in enumerate(PERIOD_SHIFTS):
        z = special.ndtri(rng.random(s["period_rows"]))
        lines += [f"p{k},{v:.12g}" for v in _path_quantile(z, t)]
    Path(ctx.path("grouped.csv")).write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_column(ctx.path("reference.csv"),
                 special.ndtri(rng.random(s["reference_rows"])))
    write_column(ctx.path("shifted.csv"),
                 _path_quantile(special.ndtri(rng.random(s["shifted_rows"])), 1.0))


def power_resample_job(name: str, replace: bool) -> Job:
    def run(ctx):
        s = ctx.size
        code = run_cli(["power-resample", "--data", ctx.path("grouped.csv"),
                           "--n-grid", ",".join(map(str, s["n_grid"])),
                           "--trials", s["trials"], "--reps", s["reps"],
                           "--replace", str(replace).lower(),
                           "--seed", ctx.job_seed(name), "--out", ctx.out(name)])
        return code

    def check(ctx, code):
        s = ctx.size
        require(code == 0, f"exit code {code}")
        with open(Path(ctx.out(name)) / "power_resample.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == (len(PERIOD_SHIFTS) - 1) * len(s["n_grid"]),
                f"{len(rows)} result rows")
        for row in rows:
            require(0.0 <= float(row["power"]) <= 1.0, f"power {row['power']}")
        far = [r for r in rows
               if r["period"] == f"p{len(PERIOD_SHIFTS) - 1}" and int(r["n"]) == max(s["n_grid"])]
        require(float(far[0]["power"]) >= 0.9,
                f"power {far[0]['power']} against the farthest period is below 0.9")
        return output_digest(ctx.out(name))

    return Job(name, run, check)


def _run_interpolate(ctx):
    s = ctx.size
    code = run_cli(["interpolate", "--source", ctx.path("reference.csv"),
                       "--target", ctx.path("shifted.csv"), "--kind", "both",
                       "--steps", s["steps"], "--grid-points", s["grid_points"],
                       "--out", ctx.out("interpolate"), "--seed", ctx.job_seed("interpolate")])
    return code


def _check_interpolate(ctx, code):
    steps = ctx.size["steps"]
    require(code == 0, f"exit code {code}")
    out = Path(ctx.out("interpolate"))
    expected = {f"{kind}_{i:02d}.csv" for kind in ("displacement", "linear")
                for i in range(steps)} | {"curve.csv", "manifest.json"}
    names = {p.name for p in out.iterdir()}
    require(names == expected, f"output files differ: {sorted(names ^ expected)}")
    with open(out / "curve.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            t = float(row["t"])
            # the displacement path is a geodesic, the mixture path is linear in TV
            require(abs(float(row["w2_relative"]) - t) <= 1e-8,
                    f"relative W2 {row['w2_relative']} at t={t}")
            require(abs(float(row["tv_relative"]) - t) <= 1e-8,
                    f"relative TV {row['tv_relative']} at t={t}")
    return output_digest(out)


def data_jobs() -> tuple:
    return (
        power_resample_job("power_resample", replace=True),
        power_resample_job("power_resample_noreplace", replace=False),
        _test_job("test_csv_null",
                  lambda ctx: ["--null", f"csv:{ctx.path('reference.csv')}:value",
                               "--data", ctx.path("shifted.csv"),
                               "--critical-source", "resampling",
                               "--reps", ctx.size["test_reps"]],
                  expect_reject=True, source="resampling"),
        Job("interpolate", _run_interpolate, _check_interpolate),
    )


def data_counts(s: dict) -> dict:
    per_table = (len(PERIOD_SHIFTS) - 1) * len(s["n_grid"]) * (s["reps"] + s["trials"])
    return {
        "limitlaw.bridge_normals": 0,
        "transport.scaled_statistics.rows": 2 * per_table + s["test_reps"],
    }


WORKLOADS = {
    "limitlaw": Workload("limitlaw", LIMITLAW_SIZES, prepare_limitlaw, limitlaw_jobs(),
                         limitlaw_counts),
    "sampling": Workload("sampling", SAMPLING_SIZES, lambda ctx: None, sampling_jobs(),
                         sampling_counts),
    "data": Workload("data", DATA_SIZES, prepare_data, data_jobs(), data_counts),
}
