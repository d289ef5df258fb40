"""Tests of the benchmark itself, at the smallest workload sizes.

    python3 -m pytest aeqbench/tests -q
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import aeq.cli  # noqa: E402

from aeqbench import run  # noqa: E402
from aeqbench.oracle import Oracle, min_ranks  # noqa: E402
from aeqbench.speed import REFERENCE_S, Speed  # noqa: E402
from aeqbench.tracing import Tracer, nesting_errors, self_times  # noqa: E402
from aeqbench.workloads import GRAPH_FILE, WORKLOADS, build_workload  # noqa: E402

RUN = ROOT / "aeqbench" / "run.py"


def _bench(tmp_path, workload, trace, cwd=ROOT, script=RUN):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "0",
           "--trace", str(trace), "--scale", "small", "--out", str(tmp_path / "out")]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_emits_its_metrics(tmp_path, workload, trace):
    proc = _bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(names)
    metric_lines = [line.split() for line in lines if line.startswith("metric ")]
    assert metric_lines and all(len(parts) >= 4 and parts[3] for parts in metric_lines)
    printed = {parts[1] for parts in metric_lines}
    assert {name for name, _ in names} <= printed
    if not trace:
        assert {"wall_s", "failed_ratio", "peak_rss_mb"} <= printed
    else:
        assert "trace.overhead_s" in printed


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


class _TamperingCli:
    """Runs the real CLI, then rewrites the report of one job."""

    def __init__(self, target_argv, edit):
        self.target_argv, self.edit = target_argv, edit

    def main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = aeq.cli.main(argv)
        text = buf.getvalue()
        if argv == self.target_argv:
            report = json.loads(text)
            self.edit(report["payload"])
            text = json.dumps(report)
        sys.stdout.write(text)
        return rc


def _small_jobs(tmp_path, workload):
    jobs = build_workload(workload, 5, "small", tmp_path, ROOT)
    oracle = Oracle(tmp_path, ROOT / GRAPH_FILE)
    oracle.prepare(jobs)
    return jobs, oracle


def test_wrong_output_counts_in_failed_ratio(tmp_path):
    jobs, oracle = _small_jobs(tmp_path, "certify-large")
    target = next(j for j in jobs if j["id"].startswith("certify:"))
    cli = _TamperingCli(target["argv"], lambda p: p.update(count_eq_one=0))
    passes = [run.run_pass(cli, jobs, oracle)]
    metrics = run.end_to_end(passes, [(1.0, REFERENCE_S)])
    records, failed, unexpected = run.outcome_counts(passes)
    assert [r["id"] for r in failed] == [target["id"]]
    assert unexpected == failed
    assert metrics["failed_ratio"][0] == pytest.approx(1 / len(jobs))


def test_wrong_witness_is_caught(tmp_path):
    jobs, oracle = _small_jobs(tmp_path, "screen")
    target = next(j for j in jobs if j["id"].startswith("verify:")
                  and not oracle.truth(j["input"]).ae)
    cli = _TamperingCli(target["argv"], lambda p: p.update(witness=[0, 1, 1]))
    res = run.run_pass(cli, [target], oracle)[0]
    assert res["errors"] and "witness" in res["errors"][0]


def test_untimed_job_runs_once_and_counts_in_no_time(tmp_path):
    jobs, oracle = _small_jobs(tmp_path, "certify-large")
    jobs[0]["timed"] = False
    passes = run.run_passes(aeq.cli, jobs, oracle, 3.0)
    assert len(passes) >= 2
    records = run.outcome_counts(passes)[0]
    assert [r["id"] for r in records].count(jobs[0]["id"]) == 1
    medians = run.job_medians(passes)
    assert set(medians) == {j["id"] for j in jobs[1:]}
    wall = run.end_to_end(passes, [(1.0, REFERENCE_S)])["wall_s"][0]
    assert wall == pytest.approx(sum(t for _, t in medians.values()))


def test_calibrated_pass_scales_by_the_reference(tmp_path):
    jobs, oracle = _small_jobs(tmp_path, "screen")
    records = run.run_pass(aeq.cli, jobs[:20], oracle, speed=Speed())
    assert all(r["ref_s"] > 0 and r["seconds"] > 0 for r in records)
    r = dict(records[0], ref_s=2 * REFERENCE_S)
    assert run.job_medians([[r]])[r["id"]][1] == pytest.approx(r["seconds"] / 2)


def test_sampling_takes_its_own_time_off():
    speed = Speed()
    mark = speed.start()
    t0, c0 = time.perf_counter(), time.process_time()
    while time.process_time() - c0 < 0.3:
        pass
    samples, spent = speed.stop(mark)
    assert samples and all(s > 0 for s in samples)
    assert 0 < spent < time.perf_counter() - t0


def test_job_over_the_limit_fails():
    class SlowCli:
        @staticmethod
        def main(argv):
            time.sleep(5)
            return 0

    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        t0 = time.perf_counter()
        res = run.run_job(SlowCli, {"argv": ["verify"]}, 0.2)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - t0 < 2
    assert "job limit" in res["problem"]


def test_traced_spans_nest(tmp_path):
    jobs, oracle = _small_jobs(tmp_path, "search")
    tracer = Tracer()
    tracer.install()
    try:
        passes = [run.run_pass(aeq.cli, jobs, oracle, tracer)]
    finally:
        tracer.uninstall()
    assert not run.outcome_counts(passes)[1]
    spans = tracer.spans
    assert nesting_errors(spans) == []
    assert all(t >= 0 for t in self_times(spans))
    names = {s[0] for s in spans}
    assert {"cli.main", "search.optimize", "search.total_penalty", "spectral.certify"} <= names
    for span in spans:
        if span[0] == "cli.main":
            assert span[3] is None
        else:  # every other span hangs below a CLI call, across pool threads too
            top = span
            while top[3] is not None:
                top = top[3]
            assert top[0] == "cli.main" and top[4] == span[4]
    assert aeq.cli.main.__name__ == "main" and not hasattr(aeq.cli.main, "__wrapped__")


def test_oracle_min_ranks_match_frozen_table():
    ranks = min_ranks(ROOT / GRAPH_FILE)
    assert {n: ranks[n][0] for n in (4, 5, 6, 7, 8)} == {4: 2, 5: 3, 6: 3, 7: 4, 8: 4}


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(ROOT / "aeqbench", bare / "aeqbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _bench(tmp_path, "screen", 0, cwd=bare, script=bare / "aeqbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
