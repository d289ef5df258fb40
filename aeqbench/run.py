"""Benchmark of the aeq command line: four seeded workloads, run in process.

    python3 aeqbench/run.py --workload certify-large --seed 1 --seconds 24 --trace 0

Run from the repository root; aeq is imported from ``src/`` of the same
checkout. With ``--trace 0`` the benchmark times the set-up in fresh
processes, then runs the workload's job list through ``aeq.cli.main(argv)``
(stdout captured) pass after pass for about ``--seconds`` seconds, checks
every job's result with the oracle and prints the end-to-end metrics, with
times scaled to a fixed machine speed (speed.py). With
``--trace 1`` it sets up in process, then runs every job once untraced and
once with spans around aeq's public functions, and prints the per-layer
metrics and the tracing overhead. Every metric is printed as a ``metric``
line with its unit; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Results and spans are written
under ``.aeqbench/results/``.

A job fails when its exit code, outcome or payload is wrong, when it
raises, or when it runs past the per-job limit. ``failed`` counts every
failure. ``correct`` is false when a failure is not one of the program's
known defects listed in README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# reference work runs between jobs once at least this much time has passed
# since it last ran (speed.py)
SLICE_S = 0.25

COMMANDS = ("verify", "certify", "pipeline", "bounds", "search", "tdrank")
# the metrics of BENCHMARK.json, in its order: (name, unit)
# job_s.p50 is printed but left out: over the 4 to 27 unlike jobs of three of
# the workloads the median job jumps between job sizes from run to run
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("geometry.squared_distance_matrix.calls", "count"),
    ("geometry.sqdist_per_job", "1/job"),
    ("geometry.is_almost_equidistant.calls", "count"),
    ("geometry.is_almost_equidistant.self_s", "s"),
    ("geometry.PointSet.calls", "count"),
    ("geometry.PointSet.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("serialize.dumps_report.self_s", "s"),
    ("spectral.defect_matrix.calls", "count"),
    ("spectral.defect_matrix.self_s", "s"),
    ("spectral.trace_identities.self_s", "s"),
    ("spectral.eigenvalues.self_s", "s"),
    ("spectral.certify.calls", "count"),
    ("spectral.certify.self_s", "s"),
    ("bounds.f_statistic.calls", "count"),
    ("search.optimize.calls", "count"),
    ("search.total_penalty.calls", "count"),
    ("search.least_squares.calls", "count"),
    ("search.iterations", "count"),
    ("tdgraph.lambda2_rank.calls", "count"),
)


class JobTimeout(BaseException):
    """Raised by SIGALRM in the main thread; a BaseException so that no
    ``except Exception`` inside the program swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def _import_aeq():
    sys.path[:0] = [str(SRC)]
    try:
        import aeq
        import aeq.cli  # noqa: F401
    except ImportError as e:
        raise SystemExit(f"aeqbench: cannot import aeq from {SRC}: {e}")
    if Path(aeq.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"aeqbench: imported aeq from {aeq.__file__}, not from {SRC}")
    return aeq


# ------------------------------------------------------------------ jobs


def run_job(cli, job, limit_s: float) -> dict:
    """One CLI call with stdout captured and a time limit."""
    out, err = io.StringIO(), io.StringIO()
    rc, problem = None, None
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job["argv"])
    except JobTimeout:
        problem = f"exceeded the {limit_s:g} s job limit"
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # the job fails; the benchmark goes on
        problem = f"raised {type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - t0
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    return {"rc": rc, "report": report, "problem": problem, "seconds": seconds}


def run_pass(cli, jobs, oracle, tracer=None, speed=None) -> list:
    """Each job once, checked, under its own time limit: one record per job.
    With a ``speed`` (speed.Speed) each job starts with a fresh garbage
    collection and its record gets ``ref_s``, the mean reference time over
    the samples taken during the job and the measurements before and after
    its slice of jobs; the samples' own time is taken off ``seconds``."""
    records, pending = [], []
    ref = speed.measure() if speed else None
    since = perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        if speed:
            gc.collect()
            mark = speed.start()
        res = run_job(cli, job, job["limit_s"])
        if speed:
            samples, spent = speed.stop(mark)
            res["seconds"] -= spent
        report = res["report"]
        errors = [res["problem"]] if res["problem"] else oracle.check_job(job, res["rc"], report)
        payload = report.get("payload") if isinstance(report, dict) else None
        records.append({
            "id": job["id"],
            "command": job["argv"][0],
            "seconds": res["seconds"],
            "rc": res["rc"],
            "errors": errors,
            "known_defect": job["known_defect"],
            "timed": job["timed"],
            "iterations": payload.get("iterations_used") if isinstance(payload, dict) else None,
            "ref_s": None,
            "samples": samples if speed else [],
        })
        pending.append(records[-1])
        if speed and (perf_counter() - since >= SLICE_S or job is jobs[-1]):
            new = speed.measure()
            for r in pending:
                r["ref_s"] = (ref + new + sum(r["samples"])) / (2 + len(r["samples"]))
            ref, pending, since = new, [], perf_counter()
    return records


def _repeat(one_pass, seconds: float) -> list:
    """Passes while the next one, if it takes as long as the last, still ends
    within ``seconds``; at least one."""
    passes = []
    t0 = perf_counter()
    while True:
        start = perf_counter()
        passes.append(one_pass())
        now = perf_counter()
        if now - t0 + (now - start) > seconds:
            return passes


def run_passes(cli, jobs, oracle, seconds) -> list:
    """Passes over the timed jobs; the untimed ones, which end at their
    limit, run once, at the head of the first pass."""
    from aeqbench.speed import Speed

    once = run_pass(cli, [j for j in jobs if not j["timed"]], oracle)
    timed = [j for j in jobs if j["timed"]]
    speed = Speed()
    passes = _repeat(lambda: run_pass(cli, timed, oracle, speed=speed), seconds)
    passes[0] = once + passes[0]
    return passes


def run_paired_passes(cli, jobs, oracle, seconds, tracer) -> tuple:
    """Passes in which every timed job runs once untraced and once traced,
    the order alternating from job to job, so that both sides see the same
    process and machine state. Returns (untraced passes, traced passes)."""
    def traced_pass(some_jobs):
        tracer.install()
        try:
            return run_pass(cli, some_jobs, oracle, tracer)
        finally:
            tracer.uninstall()

    def paired_pass():
        plain, spanned = [], []
        for i, job in enumerate(j for j in jobs if j["timed"]):
            for with_spans in (False, True) if i % 2 == 0 else (True, False):
                if with_spans:
                    spanned += traced_pass([job])
                else:
                    plain += run_pass(cli, [job], oracle)
        return plain, spanned

    once = traced_pass([j for j in jobs if not j["timed"]])
    untraced, traced = zip(*_repeat(paired_pass, seconds))
    return list(untraced), [once + traced[0], *traced[1:]]


# --------------------------------------------------------------- metrics


def _blas_threads():
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def environment(args, aeq, aeq_threads_env) -> dict:
    import numpy
    import scipy

    from aeqbench.workloads import BALL_LIMIT_S, JOB_LIMIT_S

    search_defaults = aeq.cli.build_parser().parse_args(["search", "--dim", "2", "--n", "3"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "job_limit_s": JOB_LIMIT_S,
        "ball_limit_s": BALL_LIMIT_S,
        "setup_repeats": None if args.trace else SETUP_REPEATS,
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "search_threads": aeq.cli._resolve_threads(search_defaults),
        "aeq_threads_env": aeq_threads_env,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def outcome_counts(passes) -> tuple:
    records = [r for p in passes for r in p]
    failed = [r for r in records if r["errors"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    return records, failed, unexpected


def _seconds(r) -> float:
    """A record's time, at reference speed when it was calibrated."""
    from aeqbench.speed import scaled

    return r["seconds"] if r["ref_s"] is None else scaled(r["seconds"], r["ref_s"])


def job_medians(passes, scaled=True) -> dict:
    """id -> (command, median seconds over the passes) of every timed job,
    at reference speed when calibrated and ``scaled``."""
    times: dict = {}
    for p in passes:
        for r in p:
            if r["timed"]:
                t = _seconds(r) if scaled else r["seconds"]
                times.setdefault(r["id"], (r["command"], []))[1].append(t)
    return {k: (cmd, statistics.median(ts)) for k, (cmd, ts) in times.items()}


def end_to_end(passes, setups) -> dict:
    """name -> (value, unit, note); ``setups`` holds (seconds, ref_s) per
    set-up. Times are at reference speed and sum the per-job medians over
    the passes, so that a slow spell of the machine during one pass of a
    job does not count."""
    from aeqbench.speed import REFERENCE_S, scaled

    records, failed, _ = outcome_counts(passes)
    medians = job_medians(passes)
    note = f"summed per-job medians over {len(passes)} passes, at reference speed"
    setup_times = [scaled(t, ref) for t, ref in setups]
    raw = sum(t for _, t in job_medians(passes, scaled=False).values())
    refs = [r["ref_s"] for p in passes for r in p if r["ref_s"] is not None]
    m = {
        "setup_s": (statistics.median(setup_times), "s", "median of set-ups at reference speed "
                    + ", ".join(f"{t:.3f}" for t in setup_times)),
        "wall_s": (sum(t for _, t in medians.values()), "s", note),
        "setup_raw_s": (statistics.median(t for t, _ in setups), "s",
                        "median of set-ups as measured, less the reference samples"),
        "wall_raw_s": (raw, "s", "wall_s as measured, less the reference samples"),
        "reference_s": (statistics.median(refs) if refs else REFERENCE_S, "s",
                        f"median over {len(refs)} jobs of the time of a reference unit; "
                        f"{REFERENCE_S} s is reference speed"),
    }
    present = {cmd for cmd, _ in medians.values()}
    for cmd in COMMANDS:
        if cmd in present:
            m[f"{cmd}_s"] = (sum(t for c, t in medians.values() if c == cmd), "s", note)
    times = [_seconds(r) for r in records if r["timed"]]
    m["job_s.p50"] = (statistics.median(times), "s",
                      f"p50 of {len(times)} timed job samples, at reference speed")
    if len(times) >= 100:  # at least ten samples beyond the 90th percentile
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
        m["job_s.p90"] = (p90, "s", f"p90 (inclusive) of {len(times)} timed job samples, "
                                    "at reference speed")
    m["failed_ratio"] = (len(failed) / len(records), "ratio",
                         f"{len(failed)} of {len(records)} jobs failed")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m["peak_rss_mb"] = (rss_kib / 1024.0, "MB", "ru_maxrss of the benchmark process")
    return m


def per_layer(setup_spans, pass_spans, passes, jobs, untraced) -> dict:
    """Counts and self times per pass; the set-up and the jobs that run once
    count whole."""
    from aeqbench.tracing import JOB, SPAN_NAMES, layer_totals

    k = len(passes)
    once_ids = {job["id"] for job in jobs if not job["timed"]}
    fixed = layer_totals(setup_spans + [s for s in pass_spans if s[JOB] in once_ids])
    run = layer_totals([s for s in pass_spans if s[JOB] not in once_ids])
    m = {}
    for name in SPAN_NAMES:
        calls = fixed[name][0] + run[name][0] / k
        own = fixed[name][1] + run[name][1] / k
        m[f"{name}.calls"] = (calls, "count", "per pass, set-up included")
        m[f"{name}.self_s"] = (own, "s", "per pass, set-up included")
    pointset_jobs = sum(1 for job in jobs if job["input"] and job["timed"])
    sqdist = run["geometry.squared_distance_matrix"][0] / k
    m["geometry.sqdist_per_job"] = (sqdist / pointset_jobs if pointset_jobs else 0.0, "1/job",
                                    f"over {pointset_jobs} timed point-set jobs")
    iters = sum(r["iterations"] or 0 for p in passes for r in p if r["command"] == "search")
    m["search.iterations"] = (iters / k, "count", "summed iterations_used per pass")
    traced = sum(t for _, t in job_medians(passes).values())
    base = sum(t for _, t in job_medians(untraced).values())
    m["trace.overhead_s"] = (traced - base, "s",
                             f"traced wall_s {traced:.4f} minus untraced {base:.4f}")
    return m


# ------------------------------------------------------------------- run


def _setup_child(args, work: Path, speed) -> tuple:
    """One set-up in a fresh process: (seconds, mean reference time over
    the child's samples and the measurements before and after it)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(work),
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    before = speed.measure()
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    after = speed.measure()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed with exit {proc.returncode}:\n{proc.stderr}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    ref = (before + after + sum(child["samples"])) / (2 + len(child["samples"]))
    return elapsed - child["spent"], ref


def timed_run(args, aeq, work: Path):
    from aeqbench.oracle import Oracle
    from aeqbench.speed import Speed
    from aeqbench.workloads import GRAPH_FILE

    speed = Speed()
    setups = [_setup_child(args, work, speed) for _ in range(SETUP_REPEATS)]
    jobs = json.loads((work / "manifest.json").read_text())
    oracle = Oracle(work, ROOT / GRAPH_FILE)
    oracle.prepare(jobs)
    # the benchmark's own objects stay out of the program's garbage
    # collections, as they would in a process of the program's own
    gc.collect()
    gc.freeze()
    passes = run_passes(aeq.cli, jobs, oracle, args.seconds)
    return passes, end_to_end(passes, setups), None


def traced_run(args, aeq, work: Path):
    from aeqbench.oracle import Oracle
    from aeqbench.tracing import Tracer
    from aeqbench.workloads import GRAPH_FILE, build_workload

    tracer = Tracer()
    tracer.job = "setup"
    tracer.install()
    try:
        jobs = build_workload(args.workload, args.seed, args.scale, work, ROOT)
    finally:
        tracer.uninstall()
    setup_spans = list(tracer.spans)
    tracer.spans.clear()
    oracle = Oracle(work, ROOT / GRAPH_FILE)
    oracle.prepare(jobs)
    untraced, passes = run_paired_passes(aeq.cli, jobs, oracle, args.seconds, tracer)
    metrics = per_layer(setup_spans, tracer.spans, passes, jobs, untraced)
    return untraced + passes, metrics, setup_spans + tracer.spans


def parse_args(argv):
    from aeqbench.workloads import SCALES, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=SCALES, default="full",
                   help="small runs every workload at its smallest size")
    p.add_argument("--out", type=Path, default=ROOT / ".aeqbench",
                   help="directory for results, spans and scratch inputs")
    p.add_argument("--setup-only", type=Path, default=None, dest="setup_only",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} {value!r} {unit} ({note})")


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT)]
    from aeqbench.speed import Speed

    speed = Speed()
    mark = speed.start()  # a set-up child is sampled from its start
    aeq = _import_aeq()
    args = parse_args(argv)
    if args.setup_only is None:
        speed.stop(mark)
    else:
        from aeqbench.workloads import build_workload

        jobs = build_workload(args.workload, args.seed, args.scale, args.setup_only, ROOT)
        (args.setup_only / "manifest.json").write_text(json.dumps(jobs))
        samples, _ = speed.stop(mark)
        print(json.dumps({"samples": samples, "spent": speed.spent}))
        return 0
    aeq_threads_env = os.environ.pop("AEQ_THREADS", None)  # the CLI default is measured
    signal.signal(signal.SIGALRM, _on_alarm)
    work = args.out / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        passes, metrics, spans = run(args, aeq, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records, failed, unexpected = outcome_counts(passes)
    env = environment(args, aeq, aeq_threads_env)
    env["passes"] = len(passes)
    for key, value in env.items():
        print(f"env {key} {value}")
    _print_metrics(metrics)
    for r in {r["id"]: r for r in failed}.values():
        tag = f" [known defect: {r['known_defect']}]" if r["known_defect"] else ""
        print(f"failed {r['id']}{tag}: {'; '.join(r['errors'])}")
    results = args.out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({
        "environment": env,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "passes": passes,
    }, indent=1))
    if spans is not None:
        from aeqbench.tracing import nesting_errors, to_records

        for err in nesting_errors(spans)[:10]:
            print(f"trace error: {err}")
        (results / f"{stem}-spans.json").write_text(json.dumps(to_records(spans)))
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
