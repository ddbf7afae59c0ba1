"""The repository benchmark: one command, three workloads, two modes.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig2-mp --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with nothing installed and prints the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` first repeats
the untraced workload for half the time, then runs it for the other half
with layer spans installed (see ``spans.py``) and prints the per-layer
metrics, including the tracing overhead against the untraced half.

Every invocation checks the program's outputs against references
computed outside the timed window and exits non-zero on a mismatch or a
failed operation.  Stdout carries a human-readable ``report`` JSON line
(fingerprint, sample counts, the whole span table) and, as its last
line, the result object ``{"correct", "attempted", "failed",
"metrics"}``; the report is also kept under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _rusage() -> tuple[float, float, float, float]:
    """(self CPU s, children CPU s, self max RSS MB, children max RSS MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime,
            own.ru_maxrss / 1024, kids.ru_maxrss / 1024)


def _metric(value, unit: str, samples: int) -> dict:
    if isinstance(value, float) and value.is_integer() and unit == "count":
        value = int(value)
    return {"value": value, "unit": unit, "samples": samples}


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def end_to_end(workload, records, cpu_seconds: float,
               peak_rss_mb: float) -> dict:
    """The user-visible metrics of one untraced window."""
    done = [record for record in records if record.error is None]
    volume = sum(record.realizations for record in done)
    started = [record for record in done if record.first_realization > 0]
    setups = [record.setup for record in started]
    # An operation's latency runs from its due time to its end: a job's
    # scheduled arrival on the open loop, a call's entry otherwise.
    latencies = [record.latency for record in done]
    if workload.open_loop:
        span = max(r.end for r in done) - min(r.due for r in done)
        rates = [volume / span]
        cpu_per_real = [cpu_seconds / volume]
    else:
        rates = [record.realizations / record.wall for record in done]
        cpu_per_real = [record.cpu / record.realizations for record in done]
    return {
        "throughput_rps": _metric(statistics.median(rates),
                                  "realizations/s", len(rates)),
        "setup_s": _metric(statistics.median(setups), "s", len(setups)),
        "op_latency_p50_s": _metric(statistics.median(latencies), "s",
                                    len(latencies)),
        "op_latency_p90_s": _metric(_p90(latencies), "s", len(latencies)),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
        "cpu_us_per_real": _metric(statistics.median(cpu_per_real) * 1e6,
                                   "us", len(cpu_per_real)),
    }


def per_layer(workload, tracer, traced, untraced, children_cpu: float,
              copy_gbps: float) -> dict:
    """Per-operation layer metrics of one traced window."""
    done = [record for record in traced if record.error is None]
    ops = len(done)
    volume = sum(record.realizations for record in done)

    def calls(name):
        return tracer.layer(name)[0] / ops

    def own(*names):
        return sum(tracer.layer(name)[2] for name in names) / ops

    def count(name):
        return tracer.counter(name) / ops

    def exact(name):
        # The median operation's own total, so the value is an integer.
        return statistics.median_low(
            tracer.layer(name, job=record.label)[0]
            + int(tracer.counter(name, job=record.label))
            for record in done)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    fold_calls, _, fold_self = tracer.layer("stats.fold")
    fold_gbps = ratio(volume * workload.cells * 8, fold_self) / 1e9
    worker_calls, worker_total, worker_self = tracer.layer("worker.run")
    if workload.backend == "multiprocess":
        worker_cpu = children_cpu / ops
    else:
        worker_cpu = count("worker.cpu")
    waits = [job.started_wall - job.submitted_wall for job in tracer.jobs
             if job.started_wall is not None]
    receive_calls = tracer.layer("collector.receive")[0]
    saves = tracer.layer("collector.save")[0]
    if workload.open_loop:
        traced_time = statistics.median(r.latency for r in done)
        untraced_time = statistics.median(
            r.latency for r in untraced if r.error is None)
    else:
        traced_time = statistics.median(r.wall for r in done)
        untraced_time = statistics.median(
            r.wall for r in untraced if r.error is None)
    values = {
        "rng.place_calls": (calls("rng.place"), "count"),
        "rng.place_s": (own("rng.place"), "s"),
        "routine.calls": (calls("routine"), "count"),
        "routine.s": (own("routine"), "s"),
        "stats.fold_calls": (fold_calls / ops, "count"),
        "stats.fold_s": (fold_self / ops, "s"),
        "stats.fold_gbps": (fold_gbps, "GB/s"),
        "stats.fold_bw_frac": (ratio(fold_gbps, copy_gbps), "ratio"),
        "stats.snapshot_s": (own("stats.snapshot"), "s"),
        "worker.send_s": (own("worker.send"), "s"),
        "worker.cpu_s": (worker_cpu, "s"),
        "worker.unattributed_frac": (ratio(worker_self, worker_total),
                                     "ratio"),
        "multiprocess.spawn_calls": (exact("multiprocess.workers"),
                                     "count"),
        "multiprocess.spawn_s": (own("multiprocess.spawn"), "s"),
        "multiprocess.poll_msg_s": (own("multiprocess.poll_msg"), "s"),
        "multiprocess.poll_idle_s": (own("multiprocess.poll_idle"), "s"),
        "multiprocess.messages": (exact("multiprocess.messages"), "count"),
        "multiprocess.message_bytes": (count("multiprocess.message_bytes"),
                                       "bytes"),
        "collector.receive_calls": (receive_calls / ops, "count"),
        "collector.receive_s": (own("collector.receive"), "s"),
        "collector.accepted_frac": (
            ratio(tracer.counter("collector.accepted"), receive_calls),
            "ratio"),
        "collector.save_rounds": (exact("collector.save"), "count"),
        "collector.save_s": (own("collector.save"), "s"),
        "collector.merge_s": (own("collector.merge"), "s"),
        "storage.atomic_writes": (exact("storage.write"), "count"),
        "storage.write_s": (own("storage.write", "storage.fsync"), "s"),
        "storage.fsyncs": (exact("storage.fsync"), "count"),
        "storage.bytes_written": (count("storage.bytes_written"), "bytes"),
        "storage.fsyncs_per_round": (
            ratio(tracer.layer("storage.fsync")[0], saves), "ratio"),
        "files.render_s": (own("files.render"), "s"),
        "resume.prepare_s": (own("resume.prepare"), "s"),
        "scheduler.submit_s": (own("scheduler.submit"), "s"),
        "scheduler.steps": (calls("scheduler.step"), "count"),
        "scheduler.loop_self_s": (own("scheduler.loop", "scheduler.serve",
                                      "scheduler.step"), "s"),
        "scheduler.ingest_self_s": (own("scheduler.ingest"), "s"),
        "job.open_s": (own("job.open"), "s"),
        "job.finalize_s": (own("job.finalize"), "s"),
        "job.queue_wait_p50_s": (statistics.median(waits), "s"),
        "trace.unattributed_frac": (root_unattributed(workload, tracer),
                                    "ratio"),
        "trace.overhead_frac": (traced_time / untraced_time - 1.0, "ratio"),
    }
    return {name: _metric(value, unit, ops)
            for name, (value, unit) in values.items()}


def exact_count_mismatch(names, tracer, records) -> str | None:
    """Each of the workload's exact counts (span calls plus counter
    value per operation) must be non-zero and repeat between its
    operations; a message naming the first that does not."""
    labels = [record.label for record in records if record.error is None]
    for name in names:
        seen = {label: (tracer.layer(name, job=label)[0]
                        + tracer.counter(name, job=label))
                for label in labels}
        if not all(seen.values()):
            return f"{name} is zero on some operation: {seen}"
        if len(set(seen.values())) > 1:
            return f"{name} differs between operations: {seen}"
    return None


def root_unattributed(workload, tracer) -> float:
    """The share of the benchmark process's root span that no layer span
    covers.  The root is ``bench.op`` around each closed-loop call; on
    the open loop, where ``bench.op`` wraps only the submit and the work
    runs on the scheduler thread, it is that thread's ``scheduler.serve``
    loop less its idle parking."""
    if workload.open_loop:
        _, total, own = tracer.layer("scheduler.serve", pid=tracer.pid)
        total -= tracer.layer("scheduler.park", pid=tracer.pid)[1]
    else:
        _, total, own = tracer.layer("bench.op", pid=tracer.pid)
    return own / total if total else 0.0


def span_table(tracer) -> dict:
    """Every span name: calls, total and self seconds over the window."""
    names = sorted({layer for _, _, layer in tracer.spans})
    table = {}
    for name in names:
        calls, total, own = tracer.layer(name)
        table[name] = {"calls": calls, "total_s": total, "self_s": own}
    return table


def unattributed_by_process(workload, tracer) -> dict:
    """Per process, the share of its root span that no layer span covers:
    the benchmark process (see :func:`root_unattributed`; ``bench.op``
    beside it on the open loop) and a summary over the forked workers
    (root ``worker.run``)."""
    shares = []
    for pid in tracer.pids():
        if pid == tracer.pid:
            continue
        _, total, own = tracer.layer("worker.run", pid=pid)
        if total:
            shares.append(own / total)
    summary = {"benchmark_process": root_unattributed(workload, tracer),
               "worker_processes": len(shares)}
    if workload.open_loop:
        _, total, own = tracer.layer("bench.op", pid=tracer.pid)
        summary["benchmark_submit"] = own / total if total else None
    if shares:
        summary.update(worker_median=statistics.median(shares),
                       worker_max=max(shares))
    return summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in known:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {known}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from machine import fingerprint
    from workloads import WORKLOADS, JobStream

    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    kind = WORKLOADS[args.workload]
    if kind is JobStream:
        workload = kind(args.seed, work, seconds=args.seconds)
    else:
        workload = kind(args.seed, work)
    workload.prepare()

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs": workload.inputs()}
    problems: list[str] = []
    if args.trace == 0:
        before = _rusage()
        records = workload.run(args.seconds)
        after = _rusage()
        cpu = (after[0] - before[0]) + (after[1] - before[1])
        metrics = end_to_end(workload, records, cpu,
                             max(after[2], after[3]))
        machine = fingerprint(ROOT, work, bandwidth=False)
        names = [metric["name"] for metric in spec["end_to_end"]]
    else:
        untraced, tracer, traced, children_cpu = _traced_run(
            workload, args.seconds)
        records = untraced + traced
        machine = fingerprint(ROOT, work)
        metrics = per_layer(workload, tracer, traced, untraced,
                            children_cpu, machine["copy_gbps"])
        problem = exact_count_mismatch(workload.exact_counts, tracer,
                                       traced)
        if problem:
            problems.append(problem)
        report["spans"] = span_table(tracer)
        report["unattributed_by_process"] = unattributed_by_process(
            workload, tracer)
        names = [metric["name"] for metric in spec["per_layer"]]
    if sorted(metrics) != sorted(names):
        print(f"perfbench: metric names {sorted(metrics)} do not match "
              f"BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 3
    report["operations"] = [
        {"label": record.label, "wall_s": record.wall,
         "latency_s": record.latency, "setup_s": record.setup,
         "realizations": record.realizations, "cpu_s": record.cpu}
        for record in records]
    if workload.open_loop:
        report["generator_lateness_s"] = workload.lateness
    problems += [record.mismatch for record in records if record.mismatch]
    errors = [record.error for record in records if record.error]
    report.update(machine=machine, metrics=metrics, problems=problems,
                  errors=errors)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    shutil.rmtree(work, ignore_errors=True)
    outcome = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(errors),
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in metrics.items()},
    }
    print(json.dumps(outcome))
    return 0 if outcome["correct"] and not errors else 1


def _traced_run(workload, seconds: float):
    """Untraced half, then the traced half with every span installed."""
    from spans import Tracer
    from workloads import JobStream

    if isinstance(workload, JobStream):
        half = len(workload.seqnums) // 2
        phases = (range(0, half), range(half, len(workload.seqnums)))
        untraced = workload.run(seconds, jobs=phases[0])
    else:
        untraced = workload.run(seconds / 2)
    tracer = Tracer(ROOT / ".perfbench" / workload.name / "spool")
    before = _rusage()
    tracer.install()
    try:
        if isinstance(workload, JobStream):
            traced = workload.run(seconds, tracer=tracer, jobs=phases[1])
        else:
            traced = workload.run(seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    after = _rusage()
    tracer.gather()
    return untraced, tracer, traced, after[1] - before[1]


if __name__ == "__main__":
    sys.exit(main())
