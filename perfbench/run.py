"""wshift benchmark: run one workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload limitlaw --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``. Each workload runs in its own child process, which first times
its own interpreter set-up (``import wshift.cli`` and building the CLI
parser) and then repeats the workload's fixed job list until ``--seconds``
is used up. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the child alternates
untraced and traced passes and reports the per-layer metrics. Each run also
writes a full record (environment, every pass and job, and the spans of a
traced run) under ``.bench_out/``.

This file and ``tracer`` import only the standard library at module level,
so nothing is loaded before the child times its own set-up.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import tracer as tracer_mod
from tracer import COUNT_METRICS, LAYER_METRICS

WORKLOADS = ("limitlaw", "sampling", "data")
SETUP_PROBES = 4  # extra fresh interpreters timed per run, besides the workload's own
CHILD_GRACE_S = 100  # allowance beyond --seconds for set-up, inputs and the last pass
END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB"}


def _root() -> Path:
    return Path.cwd()


def _use_checkout_source(root: Path) -> None:
    """Import wshift from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(root / "src"))


def _time_setup() -> float:
    """Seconds to import the CLI and build its parser in this fresh interpreter."""
    t0 = time.perf_counter()
    from wshift import cli

    with redirect_stdout(io.StringIO()):
        cli.main(["--version"])  # builds the full parser, prints the version, exits 0
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Child process: one workload
# ---------------------------------------------------------------------------

def _run_pass(wl, ctx, tracer) -> dict:
    """Run the job list once; returns job times, failures and fingerprints."""
    from workloads import CheckFailed

    jobs, wall = [], 0.0
    ctx.results.clear()
    for job in wl.jobs:
        ctx.clear_outputs(job.name)
        record = {"job": job.name, "ok": False}
        try:
            with tracer.installed() if tracer is not None else nullcontext():
                t0 = time.perf_counter()
                result = job.run(ctx)
                elapsed = time.perf_counter() - t0
            record["seconds"] = elapsed
            wall += elapsed
            ctx.results[job.name] = result
            record["fingerprint"] = job.check(ctx, result)
            record["ok"] = True
        except CheckFailed as exc:
            record["error"] = f"check failed: {exc}"
        except Exception:  # a raising job is a failed job, not a failed benchmark
            record["error"] = traceback.format_exc(limit=4)
        jobs.append(record)
    return {"traced": tracer is not None, "wall_s": wall, "jobs": jobs}


def child_main(args) -> int:
    root = _root()
    _use_checkout_source(root)
    setup_s = _time_setup()
    import resource

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work = Path(args.workdir)
    ctx = workloads.Context(work=work, seed=args.seed, size=wl.sizes[args.size])
    wl.prepare(ctx)

    passes, tracers = [], []
    first_fingerprint: dict = {}
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = tracer_mod.Tracer() if traced else None
        record = _run_pass(wl, ctx, tracer)
        for job in record["jobs"]:
            fp = job.get("fingerprint")
            if fp is None:
                continue
            if first_fingerprint.setdefault(job["job"], fp) != fp:
                job["ok"] = False
                job["error"] = "output differs from the first pass"
        if tracer is not None:
            record["layers"] = tracer_mod.pass_metrics(tracer)
            record["span_problems"] = tracer_mod.span_problems(tracer.spans)
            tracers.append(tracer)
        passes.append(record)
        if len(passes) == 1:
            # later passes reuse the allocator's free lists, and how much they
            # keep varies from run to run; the first pass is a fresh process
            # running the job list once, as a user would
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        longest = max(p["wall_s"] for p in passes)
        both_kinds = not args.trace or len(passes) >= 2
        if both_kinds and elapsed + longest > args.seconds:
            break

    if tracers:
        tracer_mod.write_spans(tracers, work / "spans.json")
    result = {
        "workload": wl.name,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
        "expected_counts": wl.expected_counts(ctx.size),
    }
    print(json.dumps(result))
    return 0


def probe_main(args) -> int:
    _use_checkout_source(_root())
    print(json.dumps({"setup_s": _time_setup()}))
    return 0


# ---------------------------------------------------------------------------
# Parent process: start children, aggregate, print
# ---------------------------------------------------------------------------

def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def _blas_threads() -> int:
    """OPENBLAS_NUM_THREADS if set, else 1; never more than nproc.

    The jobs run in one thread except OpenBLAS inside matrix-vector products,
    which gain nothing measurable from a second thread here, and a second
    thread makes every run depend on the load on another core.
    """
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    n = int(requested) if requested.isdigit() and int(requested) > 0 else 1
    return min(n, _nproc())


def _last_json_line(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("child printed nothing")
    return json.loads(lines[-1])


def _spawn(argv: list, env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"child {argv[:2]} exited with code {proc.returncode}")
    return _last_json_line(proc.stdout)


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _environment(root: Path, env: dict, blas_threads: int, seed: int) -> dict:
    code = ("import json, platform, numpy, scipy\n"
            "try:\n"
            "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "    blas = f\"{blas.get('name')} {blas.get('version')}\"\n"
            "except Exception:\n"
            "    blas = 'unknown'\n"
            "print(json.dumps({'python': platform.python_version(),\n"
            "                  'numpy': numpy.__version__, 'scipy': scipy.__version__,\n"
            "                  'blas': blas, 'platform': platform.platform()}))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    info = json.loads(proc.stdout)
    info.update(blas_threads=blas_threads, nproc=_nproc(), git_commit=_git_commit(root),
                seed=seed)
    return info


def _median(values):
    # a job that raised in every pass has no time; the run is already incorrect
    return statistics.median(values) if values else 0.0


def run_workload(name: str, args, root: Path) -> dict:
    """Run one workload in a child process and return its summary."""
    blas_threads = _blas_threads()
    env = _child_env(blas_threads)
    out_dir = root / ".bench_out"
    work = root / ".bench_work" / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)

    setups = []
    if not args.trace:
        setups = [_spawn(["--probe"], env, 60)["setup_s"] for _ in range(SETUP_PROBES)]
    child = _spawn(["--child", "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--size", args.size, "--workdir", str(work)],
                   env, args.seconds + CHILD_GRACE_S)
    setups.append(child["setup_s"])

    passes = child["passes"]
    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # each job's median over the untraced passes: one robust time per job
    job_medians = [_median([p["jobs"][i]["seconds"] for p in untraced
                            if "seconds" in p["jobs"][i]])
                   for i in range(len(passes[0]["jobs"]))]
    problems = [f"{j['job']}: {j['error']}" for j in failed]

    summary = {
        "workload": name,
        "attempted": len(jobs),
        "failed": len(failed),
        "samples": {"setup_s": len(setups), "wall_s": len(untraced),
                    "job_p50_s": len(job_medians), "peak_rss_mb": 1,
                    "jobs_per_pass": len(passes[0]["jobs"])},
        "setup_samples": setups,
        "environment": _environment(root, env, blas_threads, args.seed),
    }
    if args.trace:
        layers = _layer_metrics(traced, untraced, problems)
        summary["metrics"] = layers
        summary["expected_counts"] = child["expected_counts"]
    else:
        summary["metrics"] = {
            "setup_s": _median(setups),
            "wall_s": sum(job_medians),
            "job_p50_s": _median(job_medians),
            "peak_rss_mb": child["peak_rss_mb"],
        }
    summary["problems"] = problems
    summary["correct"] = not problems
    summary["passes"] = passes
    record = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if not args.keep:
        shutil.rmtree(work, ignore_errors=True)
    return summary


def _layer_metrics(traced: list, untraced: list, problems: list) -> dict:
    layers = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_frac":
            continue
        values = [p["layers"][name] for p in traced]
        if name in COUNT_METRICS or name == "transport.scaled_statistics.unique_block_frac":
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            layers[name] = values[0]
        else:
            layers[name] = _median(values)
    base = _median([p["wall_s"] for p in untraced])
    overhead = _median([p["wall_s"] for p in traced]) - base
    layers["trace.overhead_frac"] = overhead / base if base else 0.0
    for p in traced:
        problems += p["span_problems"]
    return layers


def _print_summary(summary: dict) -> None:
    s = summary["samples"]
    print(f"workload={summary['workload']} attempted={summary['attempted']} "
          f"failed={summary['failed']} error_rate="
          f"{summary['failed'] / summary['attempted']:g} "
          f"jobs_per_pass={s['jobs_per_pass']}")
    units = {**END_TO_END, **LAYER_METRICS}
    for name, value in summary["metrics"].items():
        n = s.get(name)
        note = f"  (n={n})" if n else ""
        print(f"  {name:48s} {value:14.6g} {units[name]}{note}")
    for problem in summary["problems"]:
        print(f"  FAILED {problem}")
    print("environment " + json.dumps(summary["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--keep", action="store_true",
                        help="keep the generated inputs and outputs under .bench_work/")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        return probe_main(args)
    if args.child:
        return child_main(args)

    root = _root()
    if not (root / "src" / "wshift" / "cli.py").is_file():
        print("run from the root of a wshift checkout: src/wshift/cli.py not found",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(name, args, root) for name in names]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for summary in summaries:
        _print_summary(summary)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    units = {**END_TO_END, **LAYER_METRICS}
    if name in units:
        return units[name]
    return units[name.split(".", 1)[1]]  # "<workload>.<metric>" in an all-workload run


if __name__ == "__main__":
    sys.exit(main())
