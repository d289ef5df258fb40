"""scripts/diff_reports.py: a checkout compared with itself shows no
difference, and one altered job is reported and fails the run."""
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "diff_reports.py"


@pytest.fixture
def diff_reports():
    spec = importlib.util.spec_from_file_location("diff_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_checkout_matches_itself(diff_reports, capsys):
    argv = ["--base", str(ROOT), "--scale", "small", "--seed", "3",
            "--workload", *diff_reports.WORKLOADS]
    assert diff_reports.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(diff_reports.WORKLOADS)
    assert all(line.endswith(" 0 differ") for line in lines), lines


def test_an_altered_job_is_reported(diff_reports, capsys, monkeypatch):
    real, calls = diff_reports.reports, []

    def reports(root, workload, seed, args):
        got = real(root, workload, seed, args)
        calls.append(root)
        if len(calls) == 2:  # the head's run
            job = sorted(got)[0]
            got[job] = {**got[job], "out": got[job]["out"] + "altered"}
        return got

    monkeypatch.setattr(diff_reports, "reports", reports)
    argv = ["--base", str(ROOT), "--scale", "small", "--seed", "3", "--workload", "exact"]
    assert diff_reports.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(calls) == 2
    assert out[0].startswith("differs exact seed 3 ") and out[0].endswith(": out")
    assert out[-1].endswith(" 1 differ")
