"""Self-test of the benchmark at tiny sizes; takes about half a minute.

    python3 perfbench/selftest.py

Run it from the root of a checkout. It runs every workload at the ``tiny``
size, untraced and traced, and checks that:

* every end-to-end and per-layer metric named in BENCHMARK.json is
  printed, with its unit, and every job passed its output check;
* every span's self time is >= 0 and every child span lies inside its
  parent;
* ``limitlaw.bridge_normals`` and ``transport.scaled_statistics.rows``
  equal the values computed from the job parameters, and the bridge count
  is non-zero on ``limitlaw`` and zero on ``data``;
* in a directory that holds only the benchmark, it fails without printing
  a result.

Exits 0 when all of this holds and 1 otherwise, listing the problems.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracer
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
EXACT_COUNTS = ("limitlaw.bridge_normals", "transport.scaled_statistics.rows")


def _bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


def _metric_names(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def check_workload(name: str, trace: int, problems: list) -> None:
    where = f"{name} trace={trace}"
    proc = _bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                  "--size", "tiny", "--keep")
    if proc.returncode != 0:
        problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr[-2000:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = _metric_names("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics/units {got} differ from BENCHMARK.json {wanted}")
    record = json.loads((ROOT / ".bench_out" / f"{name}-seed7-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    problems += [f"{where}: {p}" for p in record["problems"]]
    work = ROOT / ".bench_work" / f"{name}-seed7-trace{trace}"
    if trace:
        passes = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        for spans in passes:
            spans = [tracer.Span(**s) for s in spans]
            if not spans:
                problems.append(f"{where}: a traced pass recorded no spans")
            problems += [f"{where}: {p}" for p in tracer.span_problems(spans)]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for key in EXACT_COUNTS:
            if metrics[key] != record["expected_counts"][key]:
                problems.append(f"{where}: {key} = {metrics[key]}, expected "
                                f"{record['expected_counts'][key]} from the job parameters")
        normals = metrics["limitlaw.bridge_normals"]
        if (name == "limitlaw" and normals == 0) or (name == "data" and normals != 0):
            problems.append(f"{where}: limitlaw.bridge_normals = {normals}")
    shutil.rmtree(work, ignore_errors=True)


def check_refuses_without_source(problems: list) -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "data",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src/: exit code {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    for name in WORKLOADS:
        for trace in (0, 1):
            check_workload(name, trace, problems)
    check_refuses_without_source(problems)
    for p in problems:
        print("PROBLEM", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
