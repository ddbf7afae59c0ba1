"""Tests of the benchmark itself.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from run import exact_count_mismatch  # noqa: E402
from spans import Tracer, patch_targets  # noqa: E402
from workloads import WORKLOADS, BatchedFold, Fig2Multiprocess, \
    JobStream, OpRecord  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _attribute(owner, attribute):
    return (owner.__dict__[attribute] if isinstance(owner, type)
            else getattr(owner, attribute))


def _bench(*arguments, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         *arguments], cwd=cwd, capture_output=True, text=True,
        timeout=300)
    return completed


def _result(*arguments) -> dict:
    completed = _bench(*arguments)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("kind", [BatchedFold, Fig2Multiprocess])
def test_traced_run_leaves_no_wrapper_behind(kind, tmp_path):
    originals = [(owner, attribute, _attribute(owner, attribute))
                 for owner, attribute, _ in patch_targets()]
    workload = kind(1, tmp_path / "work")
    workload.prepare()
    tracer = Tracer(tmp_path / "spool")
    tracer.install()
    try:
        traced = workload.run(0.0, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.gather()
    assert all(record.mismatch is None and record.error is None
               for record in traced)
    # Both workers' spans arrived, from their own processes under fork.
    assert tracer.layer("worker.run")[0] == 2 * len(traced)
    if kind is Fig2Multiprocess:
        assert len(tracer.pids()) == 1 + 2 * len(traced)
    for owner, attribute, original in originals:
        assert _attribute(owner, attribute) is original, attribute
    spans = {key: list(value) for key, value in tracer.spans.items()}
    untraced = workload.run(0.0)
    assert all(record.mismatch is None for record in untraced)
    assert tracer.gather() == 0
    assert {key: list(value) for key, value in tracer.spans.items()} == spans


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    kind = WORKLOADS[name]
    first = kind(7, tmp_path).inputs()
    assert kind(7, tmp_path).inputs() == first
    assert kind(8, tmp_path).inputs() != first


def test_job_stream_schedule_is_seeded(tmp_path):
    stream = JobStream(3, tmp_path, seconds=20)
    assert len(stream.seqnums) >= 100
    assert len(set(stream.seqnums)) == len(stream.seqnums)
    assert JobStream(3, tmp_path, seconds=20).gaps == stream.gaps


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(
        workload["name"] for workload in SPEC["workloads"])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    result = _result("--workload", "batched-fold", "--seed", "1",
                     "--seconds", "1", "--trace", trace)
    assert result["correct"] is True and result["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected


@pytest.mark.parametrize("name", ["batched-fold", "fig2-mp"])
def test_exact_counts_repeat_across_runs(name):
    counts = ("storage.fsyncs", "storage.atomic_writes",
              "collector.save_rounds", "multiprocess.messages",
              "multiprocess.spawn_calls")
    runs = [_result("--workload", name, "--seed", "2", "--seconds", "1",
                    "--trace", "1")["metrics"] for _ in range(2)]
    for count in counts:
        assert isinstance(runs[0][count]["value"], int), count
        assert runs[0][count] == runs[1][count], count
    assert runs[0]["collector.save_rounds"]["value"] > 0


def test_job_stream_exact_counts_hold_per_job(tmp_path):
    workload = JobStream(4, tmp_path / "work")
    workload.reference = {}
    tracer = Tracer(tmp_path / "spool")
    tracer.install()
    try:
        records = workload.run(0.0, tracer=tracer, jobs=range(6))
    finally:
        tracer.uninstall()
    tracer.gather()
    assert all(record.error is None for record in records)
    assert exact_count_mismatch(workload.exact_counts, tracer,
                                records) is None
    # The service loop's parking is its own span, off the loop's
    # unattributed remainder.
    assert tracer.layer("scheduler.park")[0] > 0


def test_exact_count_gate_fails_on_zero_and_on_drift(tmp_path):
    tracer = Tracer(tmp_path / "spool")
    records = [OpRecord(label=label, due=0.0, entry=0.0)
               for label in ("op0", "op1")]
    for record in records:
        tracer.count("multiprocess.workers", 2, job=record.label)
    assert exact_count_mismatch(["multiprocess.workers"], tracer,
                                records) is None
    assert "zero" in exact_count_mismatch(["storage.final_fsync"], tracer,
                                          records)
    tracer.count("multiprocess.workers", 1, job="op1")
    assert "differs" in exact_count_mismatch(["multiprocess.workers"],
                                             tracer, records)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _bench("--workload", "fig2-mp", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
