"""The benchmark's workloads.

Each workload turns ``--seed`` into the only inputs the program sees —
experiment ``seqnum`` numbers and, for the job stream, an arrival
schedule — computes its correctness references before the timed window,
then runs *operations* (one ``parmonc()`` call or one streamed job) and
records an :class:`OpRecord` per operation.

Why these (each loads different layers; see ``BENCHMARK.json``):

* ``fig2-mp`` — the paper's Fig. 2 condition (``perpass=0``: a data
  pass after every realization) on real processes: transport, collector
  ingest and the worker snapshot, almost no fold or storage work.
* ``batched-fold`` — one message per 512 realizations in-process: the
  statistic fold and block stream placement, bypassing transport,
  collector and storage (the "no change predicted" side for exchange
  work).
* ``job-stream`` — an open loop of seeded random job arrivals into the
  streaming scheduler, in-process: admission, dispatch, job open and
  finalize, and the durable result files and save-points of every job.
  In-process because with a forked worker pair per job the job's
  latency was mostly fork and copy-on-write cost, which swung with the
  host far more than any figure of the other workloads (process spawn
  is measured on ``fig2-mp``).

Every routine stamps its first call on the system-wide monotonic clock
into a shared-memory slot, so set-up time (entry call to first
realization) is measured across ``fork`` too.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import random
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.parmonc import build_job_spec, parmonc
from repro.runtime.engine import create_backend
from repro.runtime.scheduler import Scheduler

__all__ = ["WORKLOADS", "OpRecord", "digest"]

#: The constant 1000x2 part of the Fig. 2 realization matrix.
_MATRIX = np.ones((1000, 2))


def digest(result) -> str:
    """SHA-256 of a result's volume and estimate bytes."""
    estimates = result.estimates
    hasher = hashlib.sha256(str(result.total_volume).encode())
    for array in (estimates.mean, estimates.variance, estimates.abs_error):
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


class _Stamped:
    """Base of the routines: stamp the first call into a shared slot."""

    def __init__(self, stamps, slot: int) -> None:
        self.stamps = stamps
        self.slot = slot

    def _stamp(self) -> None:
        if self.stamps[self.slot] == 0.0:
            self.stamps[self.slot] = time.monotonic()


class Fig2Routine(_Stamped):
    """Draw one uniform; return the constant 1000x2 matrix carrying it.

    The uniform sits in entry (0, 0) so the estimate bytes depend on the
    stream hierarchy, which is what the correctness gate compares.
    """

    def __call__(self, rng):
        self._stamp()
        matrix = _MATRIX.copy()
        matrix[0, 0] = rng.random()
        return matrix


class BatchedKernel(_Stamped):
    """The batched twin of :class:`Fig2Routine`, 512 realizations a call."""

    batch_size = 512

    def __call__(self, streams):
        self._stamp()
        draws = streams.uniforms(1)[:, 0]
        block = np.empty((len(draws),) + _MATRIX.shape)
        block[...] = _MATRIX
        block[:, 0, 0] = draws
        return block


class ScalarRoutine(_Stamped):
    """The 1x1 scalar ``0.5 * (u1 + u2**2)``."""

    def __call__(self, rng):
        self._stamp()
        first = rng.random()
        second = rng.random()
        return 0.5 * (first + second * second)


def _tree_cpu() -> float:
    """User plus system CPU seconds of this process and its reaped
    children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _stamps(count: int):
    """Zeroed float slots in an anonymous shared mapping, so forked
    workers write where the benchmark reads."""
    return memoryview(mmap.mmap(-1, 8 * count)).cast("d")


@dataclass
class OpRecord:
    """One operation: its clock stamps, volume and outcome."""

    label: str
    due: float
    entry: float
    end: float = 0.0
    first_realization: float = 0.0
    realizations: int = 0
    #: CPU seconds of the process tree during the operation (closed
    #: loop only: its workers are joined before it returns).
    cpu: float = 0.0
    error: str | None = None
    mismatch: str | None = None

    @property
    def wall(self) -> float:
        return self.end - self.entry

    @property
    def latency(self) -> float:
        return self.end - self.due

    @property
    def setup(self) -> float:
        return self.first_realization - self.entry


class Workload:
    """Common shape: seeded inputs, references, timed operations."""

    name = ""
    backend = "sequential"
    #: Cells of the realization matrix (for the fold's computed bytes).
    cells = 1
    #: Whether the operations have an arrival schedule (open loop).
    open_loop = False
    #: Span or counter names (see ``spans.py``) whose per-operation
    #: total is fixed by the workload's inputs, so a traced run asserts
    #: each is non-zero and equal across its operations.
    exact_counts: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = Path(workdir)
        self.rng = random.Random(f"{self.name}:{seed}")

    def inputs(self) -> dict:
        """Everything the program will see, derived from the seed."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the correctness references (outside the timed window)."""

    def run(self, seconds: float, tracer=None) -> list[OpRecord]:
        """Run operations for ``seconds``; closed loop by default."""
        records: list[OpRecord] = []
        deadline = time.monotonic() + seconds
        while len(records) < 2 or time.monotonic() < deadline:
            label = f"op{len(records)}"
            stamps = _stamps(1)
            routine = self.routine(stamps, 0)
            if tracer is not None:
                tracer.default_job = label
                routine = tracer.wrap_routine(routine)
            cpu = _tree_cpu()
            entry = time.monotonic()
            record = OpRecord(label=label, due=entry, entry=entry)
            region = (tracer.region("bench.op") if tracer is not None
                      else nullcontext())
            try:
                with region:
                    result = self.operation(routine, label)
            except Exception as exc:  # an operation that raised
                record.end = time.monotonic()
                record.error = f"{type(exc).__name__}: {exc}"
            else:
                record.end = time.monotonic()
                record.cpu = _tree_cpu() - cpu
                record.realizations = result.total_volume
                record.mismatch = self.check(result, label)
            record.first_realization = stamps[0]
            records.append(record)
        return records

    def routine(self, stamps, slot: int):
        raise NotImplementedError

    def operation(self, routine, label: str):
        raise NotImplementedError

    def check(self, result, label: str) -> str | None:
        """Compare one result with the reference; a message on mismatch."""
        raise NotImplementedError


class _FixedVolume(Workload):
    """A fixed-volume ``parmonc()`` call per operation, checked against
    the scalar sequential run of the same seqnum (estimates depend on
    neither perpass, backend nor batching, so the reference ships one
    pass per worker).

    Every call passes ``peraver=PERAVER``: the collector then averages
    at its first receipt, on completion and in the final save, never on
    the clock, so its save rounds are an exact count.
    """

    cells = _MATRIX.size
    volume = 0
    PERAVER = 1e9

    def __init__(self, seed, workdir) -> None:
        super().__init__(seed, workdir)
        self.seqnum = self.rng.randrange(1024)

    def inputs(self) -> dict:
        return {"seqnum": self.seqnum, "volume": self.volume}

    def prepare(self) -> None:
        self.reference = digest(parmonc(
            Fig2Routine(_stamps(1), 0), 1000, 2, maxsv=self.volume,
            seqnum=self.seqnum, perpass=1e9, processors=2,
            use_files=False))

    def check(self, result, label):
        if result.total_volume != self.volume:
            return f"volume {result.total_volume} != {self.volume}"
        if digest(result) != self.reference:
            return "estimates differ from the scalar sequential run"
        return None


class Fig2Multiprocess(_FixedVolume):
    """Fig. 2 on the real parallel backend: ``perpass=0``, 2 processes."""

    name = "fig2-mp"
    backend = "multiprocess"
    #: One message per realization plus a final one per rank, two
    #: forked workers, three averaging sweeps.
    exact_counts = ("multiprocess.messages", "multiprocess.workers",
                    "collector.save")
    #: Fixed volume: the worker's queue backlog (and so throughput and
    #: peak RSS) grows with it, so it must not depend on the machine.
    volume = 8000

    def routine(self, stamps, slot):
        return Fig2Routine(stamps, slot)

    def operation(self, routine, label):
        return parmonc(routine, 1000, 2, maxsv=self.volume,
                       seqnum=self.seqnum, perpass=0.0,
                       peraver=self.PERAVER, processors=2,
                       backend="multiprocess", start_method="fork",
                       use_files=False)


class BatchedFold(_FixedVolume):
    """The batched worker loop in-process: fold and block placement."""

    name = "batched-fold"
    volume = 65536
    #: In-process: no transport, forks or files, so the collector's
    #: receipts and averaging sweeps are what repeat.
    exact_counts = ("collector.receive", "collector.save")

    def routine(self, stamps, slot):
        return BatchedKernel(stamps, slot)

    def operation(self, routine, label):
        return parmonc(routine, 1000, 2, maxsv=self.volume,
                       seqnum=self.seqnum, perpass=0.0,
                       peraver=self.PERAVER, processors=2,
                       use_files=False)


class JobStream(Workload):
    """Open loop: seeded random arrivals into the streaming scheduler."""

    name = "job-stream"
    open_loop = True
    #: Light load, where latency is mostly service time: on a 2-core
    #: machine ``sweep.py`` finds p90 <= 0.5 s up to 13 jobs/s.
    rate = 3.0
    #: Share of the mean gap that is a fixed dead time before the
    #: exponential part.  A job then queues behind the previous one only
    #: if that job's service outlasts the dead time (0.2 s at 3 jobs/s,
    #: about six median services), so p90 is read from the service
    #: time's own tail rather than at the edge of a queued minority,
    #: where a small change in speed moves it a lot.
    dead_share = 0.6
    #: At least 100 jobs, so at least 10 latencies lie beyond p90.
    min_jobs = 110
    per_rank = 1000
    #: A generator running later than this invalidates the run.
    lateness_bound = 0.25
    #: Jobs re-run solo on the sequential backend as the reference.
    sampled = 12
    #: Per job: two worker runs and the final save's writes and
    #: barriers.  The periodic saves follow message timing
    #: (``perpass=0.05``), so the job's total writes do not repeat.
    exact_counts = ("worker.run", "storage.final_write",
                    "storage.final_fsync")

    def __init__(self, seed, workdir, seconds: float = 0.0,
                 rate: float | None = None) -> None:
        super().__init__(seed, workdir)
        if rate is not None:
            self.rate = rate
        count = max(self.min_jobs, math.ceil(self.rate * seconds))
        self.seqnums = self.rng.sample(range(1024), count)
        # Inter-arrival times: the dead time plus an exponential part,
        # drawn by stratified sampling (one draw from each of ``count``
        # equal-probability strata, in a seeded order).  Every seed gets
        # the same gap distribution, so the latency percentiles reflect
        # the program rather than how bursty one short sample happened
        # to be.
        mean = 1.0 / self.rate
        strata = list(range(count))
        self.rng.shuffle(strata)
        self.gaps = [
            self.dead_share * mean - (1 - self.dead_share) * mean
            * math.log1p(-(stratum + self.rng.random()) / count)
            for stratum in strata]
        self.sample = sorted(self.rng.sample(range(count), self.sampled))

    def inputs(self) -> dict:
        return {"seqnums": self.seqnums, "gaps": self.gaps,
                "rate": self.rate, "dead_share": self.dead_share}

    def routine(self, stamps, slot):
        return ScalarRoutine(stamps, slot)

    def _spec(self, index: int, routine):
        return build_job_spec({
            "routine": routine, "nrow": 1, "ncol": 1,
            "maxsv": 2 * self.per_rank, "seqnum": self.seqnums[index],
            "perpass": 0.05, "processors": 2,
            "workdir": self.workdir / f"job-{index}",
            "name": f"job-{index}"})

    def prepare(self) -> None:
        self.reference = {
            index: digest(parmonc(
                ScalarRoutine(_stamps(1), 0), 1, 1,
                maxsv=2 * self.per_rank, seqnum=self.seqnums[index],
                perpass=1e9, processors=2, use_files=False))
            for index in self.sample}

    def run(self, seconds: float, tracer=None, jobs: range | None = None
            ) -> list[OpRecord]:
        """Stream ``jobs`` (default: all) at their scheduled due times."""
        jobs = jobs if jobs is not None else range(len(self.seqnums))
        stamps = _stamps(len(self.seqnums))
        specs = {}
        for index in jobs:
            shutil.rmtree(self.workdir / f"job-{index}", ignore_errors=True)
            routine = self.routine(stamps, index)
            if tracer is not None:
                routine = tracer.wrap_routine(routine)
                tracer.job_of_seqnum[self.seqnums[index]] = f"job-{index}"
            specs[index] = self._spec(index, routine)
        scheduler = Scheduler(create_backend("sequential"), workers=2)
        if tracer is not None:
            tracer.trace_parking(scheduler)
        records: list[OpRecord] = []
        handles = []
        scheduler.start()
        started = time.monotonic()
        due = started
        try:
            for index in jobs:
                due += self.gaps[index]
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                entry = time.monotonic()
                record = OpRecord(label=f"job-{index}", due=due,
                                  entry=entry)
                records.append(record)
                region = (tracer.region("bench.op", job=record.label)
                          if tracer is not None else nullcontext())
                with region:
                    handles.append(scheduler.submit(specs[index]))
        finally:
            scheduler.shutdown(timeout=120.0)
        for index, record, handle in zip(jobs, records, handles):
            record.end = handle.state_times.get("done", time.monotonic())
            record.first_realization = stamps[index]
            if handle.result is None:
                record.error = (str(handle.error) if handle.error
                                else f"job ended {handle.status}")
                continue
            record.realizations = handle.result.total_volume
            if record.realizations != 2 * self.per_rank:
                record.error = (f"short of quota: {record.realizations} "
                                f"of {2 * self.per_rank}")
            elif index in self.reference \
                    and digest(handle.result) != self.reference[index]:
                record.mismatch = (f"{record.label} differs from its solo "
                                   f"sequential run")
        self.lateness = max(record.entry - record.due for record in records)
        if self.lateness > self.lateness_bound:
            records[0].mismatch = (
                f"invalid run: the generator ran {self.lateness:.3f} s "
                f"late (bound {self.lateness_bound} s)")
        for index in jobs:
            shutil.rmtree(self.workdir / f"job-{index}", ignore_errors=True)
        return records


WORKLOADS = {cls.name: cls for cls in
             (Fig2Multiprocess, BatchedFold, JobStream)}
