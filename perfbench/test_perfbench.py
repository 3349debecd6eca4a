"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _pass(workload, tmp_path, smoke=True, seconds=60):
    plan = workloads.build(workload, 7, tmp_path, smoke=smoke)
    return plan, run.run_pass(plan, tmp_path, "p0", False, time.monotonic() + seconds)


def _edit_report(path, edit):
    report = json.loads(Path(path).read_text())
    edit(report)
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def test_correct_reports_pass(tmp_path):
    for workload in workloads.WORKLOADS:
        plan, result = _pass(workload, tmp_path / workload)
        assert run.verify(plan, result, {}, 7) == []


def test_one_altered_cumulant_is_a_failed_job(tmp_path):
    plan, result = _pass("moments", tmp_path)
    _edit_report(result["jobs"][0]["out"],
                 lambda r: r["cumulants"].__setitem__(2, r["cumulants"][2] + "1"))
    assert [name for name, _ in run.verify(plan, result, {}, 7)] == ["cumulants"]


def test_altered_table_and_defect_coefficients_are_failed_jobs(tmp_path):
    plan, result = _pass("graded-tables", tmp_path)
    names = [job.name for job in plan.jobs]

    def bump(rows):
        rows[0]["value"][0]["coeff"] = str(int(rows[0]["value"][0]["coeff"]) + 1)

    _edit_report(result["jobs"][names.index("invert:changed")]["out"],
                 lambda r: bump(r["table"]))
    _edit_report(result["jobs"][names.index("defects-hom:exterior")]["out"],
                 lambda r: bump(r["tables"]["arities"]["2"]))
    failed = [name for name, _ in run.verify(plan, result, {}, 7)]
    assert failed == ["invert:changed", "defects-hom:exterior"]


def test_a_report_that_changes_between_passes_is_a_failed_job(tmp_path):
    plan, result = _pass("moments", tmp_path)
    first = {}
    assert run.verify(plan, result, first, 7) == []
    again = run.run_pass(plan, tmp_path, "p1", False, time.monotonic() + 60)
    with open(again["jobs"][0]["out"], "a", encoding="utf-8") as fh:
        fh.write(" ")  # same JSON value, different bytes
    assert [name for name, _ in run.verify(plan, again, first, 7)] == ["cumulants"]


def test_killed_jobs_are_failed_jobs(tmp_path):
    # full-size cumulants jobs take most of a second; the deadline kills them
    plan, result = _pass("moments", tmp_path / "m", smoke=False, seconds=0.2)
    assert all(rec["exit"] == -9 for rec in result["jobs"])
    assert len(run.verify(plan, result, {}, 7)) == len(plan.jobs)
    plan, result = _pass("session", tmp_path / "s", seconds=0.2)
    assert len(run.verify(plan, result, {}, 7)) == len(plan.jobs)


def test_same_seed_writes_the_same_documents(tmp_path):
    for workload in workloads.WORKLOADS:
        docs = []
        for n, seed in enumerate((3, 3, 4)):
            plan = workloads.build(workload, seed, tmp_path / f"{workload}{n}")
            docs.append({name: Path(p).read_bytes() for name, p in plan.docs.items()})
        assert docs[0] == docs[1]
        assert docs[0] != docs[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
                         capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "moments",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
