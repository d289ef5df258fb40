#!/usr/bin/env python3
"""Compare the CLI reports of two checkouts, job by job.

    python3 scripts/diff_reports.py --base ../parent --workload exact --seed 3
    python3 scripts/diff_reports.py --base ../parent --workload certify-large exact --seed 3 7 29

Every job of one benchmark workload (``aeqbench.workloads.build_workload``)
runs through ``aeq.cli.main`` in each checkout: a fresh interpreter per
checkout, importing aeq and aeqbench from that checkout, with the inputs
written into its own work directory. The script lists each job whose stdout,
stderr or exit code differ, after the checkout path and the work directory
are replaced by placeholders. Each (workload, seed) pair given is one run,
with one summary line; the script exits 1 if any job of any run differs.
``--head`` defaults to the checkout that holds this script.

Reports are byte-identical only between checkouts run in one environment:
the same BLAS build and the same thread count (``OPENBLAS_NUM_THREADS``).
Both interpreters inherit this script's environment. Under one and under
two OpenBLAS threads, ``aeq certify`` on the ``certify-large`` set ts500
writes different last digits of ``trace_u3``, ``lambda_max`` and
``lambda_min``, with the same code.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify-large", "screen", "search", "exact")


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout


def run_jobs(root: Path, workload: str, seed: int, scale: str, work: Path,
             limit_s: float) -> list:
    """Runs in the worker: every job once, as {id, rc, out, err}, paths normalised."""
    import aeq
    from aeq import cli
    from aeqbench.workloads import build_workload

    if not Path(aeq.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"imported aeq from {aeq.__file__}, not from {root}")
    jobs = build_workload(workload, seed, scale, work, root)
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(job["argv"])
        except JobTimeout:
            rc = f"exceeded the {limit_s:g} s limit"
        except SystemExit as e:
            rc = e.code
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        texts = [out.getvalue(), err.getvalue()]
        for path, mark in ((work, "<work>"), (root, "<checkout>")):
            texts = [t.replace(str(path), mark) for t in texts]
        results.append({"id": job["id"], "rc": rc, "out": texts[0], "err": texts[1]})
    return results


def reports(root: Path, workload: str, seed: int, args) -> dict:
    """The jobs' results in one checkout, from a fresh interpreter."""
    with tempfile.TemporaryDirectory(prefix="diff-reports-") as tmp:
        result = Path(tmp) / "result.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
        subprocess.run(
            [sys.executable, __file__, "--worker", str(root), "--workload", workload,
             "--seed", str(seed), "--scale", args.scale, "--limit", str(args.limit),
             "--result", str(result)],
            env=env, cwd=tmp, check=True,
        )
        return {r["id"]: r for r in json.loads(result.read_text())}


def count_differences(args, workload: str, seed: int) -> int:
    """Prints each job of one run that differs, then the run's summary line."""
    base = reports(args.base.resolve(), workload, seed, args)
    head = reports(args.head.resolve(), workload, seed, args)
    differ = 0
    for job in sorted(base.keys() | head.keys()):
        a, b = base.get(job), head.get(job)
        if a is None or b is None:
            streams = ["missing in " + ("base" if a is None else "head")]
        else:
            streams = [k for k in ("rc", "out", "err") if a[k] != b[k]]
        if streams:
            differ += 1
            print(f"differs {workload} seed {seed} {job}: {', '.join(streams)}")
    print(f"{workload} seed {seed}: {len(head)} jobs, {differ} differ", flush=True)
    return differ


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", type=Path, help="the checkout to compare against")
    p.add_argument("--head", type=Path, default=HEAD)
    p.add_argument("--workload", choices=WORKLOADS, nargs="+", required=True)
    p.add_argument("--seed", type=int, nargs="+", required=True)
    p.add_argument("--scale", choices=("full", "small"), default="full")
    p.add_argument("--limit", type=float, default=60.0, help="seconds per job")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--result", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        root = args.worker.resolve()
        work = Path(tempfile.mkdtemp(prefix="work-", dir=args.result.parent))
        (workload,), (seed,) = args.workload, args.seed
        results = run_jobs(root, workload, seed, args.scale, work, args.limit)
        args.result.write_text(json.dumps(results))
        return 0
    if args.base is None:
        p.error("--base is required")
    differ = sum(count_differences(args, workload, seed)
                 for workload, seed in itertools.product(args.workload, args.seed))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
