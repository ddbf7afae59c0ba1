"""Layer spans for the benchmark's traced runs.

The tracer wraps the public functions of each layer from the outside —
nothing under ``src/`` knows it exists — and records one span per call:
layer name, duration and *self time* (duration minus the part covered by
child spans on the same thread).  Spans are aggregated in memory per
``(pid, job, layer)``; a span's job is the innermost enclosing job
label (a :class:`~repro.runtime.job.Job` id, the job a message belongs
to, or the benchmark's own operation label).

Under ``fork`` every worker process inherits the installed wrappers.
An at-fork hook drops the inherited parent totals in the child, the
child buffers its own spans, and when its ``run_worker`` returns it
writes them to ``<spool>/<pid>.json``; :meth:`Tracer.gather` folds those
files into the parent's totals once the workers have been joined.

:meth:`Tracer.install` patches every target and :meth:`Tracer.uninstall`
puts the original attributes back, so an untraced run in the same
process executes the program's own code objects.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.rng.batch import BatchStreams
from repro.rng.streams import ProcessorStream
from repro.runtime import bootstrap, job, multiprocess, scheduler, \
    sequential, storage
from repro.runtime.collector import Collector
from repro.runtime.files import DataDirectory
from repro.stats.accumulator import MomentAccumulator
from repro.stats.statistic import StatisticSet

__all__ = ["Tracer", "patch_targets"]


def patch_targets() -> list[tuple[object, str, str]]:
    """Every ``(owner, attribute, span name)`` the tracer wraps.

    ``run_worker`` and ``prepare_resume`` are patched where their
    callers look them up (the backend and bootstrap modules import them
    by name).  ``os.fsync`` is patched to count the durability barriers
    the storage layer issues.
    """
    return [
        (ProcessorStream, "realization", "rng.place"),
        (ProcessorStream, "realization_block", "rng.place"),
        (BatchStreams, "uniforms", "rng.place"),
        (StatisticSet, "update", "stats.fold"),
        (StatisticSet, "update_batch", "stats.fold"),
        (MomentAccumulator, "snapshot", "stats.snapshot"),
        (StatisticSet, "extras_snapshot", "stats.snapshot"),
        (multiprocess, "run_worker", "worker.run"),
        (sequential, "run_worker", "worker.run"),
        (multiprocess.MultiprocessBackend, "spawn", "multiprocess.spawn"),
        (multiprocess.MultiprocessBackend, "poll", "multiprocess.poll"),
        (multiprocess.MultiprocessBackend, "reap", "multiprocess.reap"),
        (multiprocess.MultiprocessBackend, "shutdown",
         "multiprocess.shutdown"),
        (sequential.SequentialBackend, "poll", "sequential.poll"),
        (Collector, "receive", "collector.receive"),
        (Collector, "receive_combined", "collector.receive"),
        (Collector, "save", "collector.save"),
        (Collector, "merged", "collector.merge"),
        (storage, "atomic_write_text", "storage.write"),
        (os, "fsync", "storage.fsync"),
        (DataDirectory, "write_results", "files.render"),
        (DataDirectory, "save_savepoint", "files.render"),
        (DataDirectory, "save_processor_snapshot", "files.render"),
        (bootstrap, "prepare_resume", "resume.prepare"),
        (scheduler.Scheduler, "submit", "scheduler.submit"),
        (scheduler.Scheduler, "run", "scheduler.loop"),
        (scheduler.Scheduler, "serve", "scheduler.serve"),
        (scheduler.Scheduler, "step", "scheduler.step"),
        (scheduler.Scheduler, "ingest", "scheduler.ingest"),
        (job.Job, "open", "job.open"),
        (job.Job, "finalize", "job.finalize"),
    ]


class Tracer:
    """In-memory span aggregation for one traced phase.

    Args:
        spool: Directory where forked workers leave their span totals.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        #: Job label of each experiment ``seqnum``, so a worker (which
        #: only sees its run configuration) can tag its spans with the
        #: job it serves.
        self.job_of_seqnum: dict = {}
        #: Job label of spans opened outside any labelled span.
        self.default_job = None
        #: Job handles returned by Scheduler.submit, in submission order.
        self.jobs: list = []
        self._owner = os.getpid()
        self._originals: list[tuple[object, str, object]] = []
        self._receipts: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()
        self._reset()
        os.register_at_fork(after_in_child=self._forked)

    def _reset(self) -> None:
        self.pid = os.getpid()
        #: (pid, job, layer) -> [calls, total seconds, self seconds]
        self.spans: dict = defaultdict(lambda: [0, 0.0, 0.0])
        #: (pid, job, counter) -> value
        self.counts: dict = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _forked(self) -> None:
        """In a forked worker: the inherited totals belong to the parent."""
        if self._originals:
            self._reset()
            self.jobs = []

    # -- span bookkeeping ------------------------------------------------

    def _frames(self) -> list:
        """This thread's stack of open ``[child seconds, job, layer]``
        frames."""
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _current_job(self, frames: list):
        return frames[-1][1] if frames else self.default_job

    def _within(self, layer: str) -> bool:
        """Whether a ``layer`` span is open on this thread."""
        return any(frame[2] == layer for frame in self._frames())

    def count(self, name: str, value: float = 1, job=None) -> None:
        """Add to a counter of the current process and job."""
        label = job if job is not None else self._current_job(self._frames())
        with self._lock:
            self.counts[(self.pid, label, name)] += value

    @contextmanager
    def region(self, layer: str, job=None):
        """A span around the benchmark's own code (``bench.*`` layers)."""
        frames = self._frames()
        frame = [0.0, job if job is not None else self._current_job(frames),
                 layer]
        frames.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(frames, frame, layer, time.perf_counter() - started)

    def _close(self, frames: list, frame: list, name: str,
               duration: float) -> None:
        frames.pop()
        if frames:
            frames[-1][0] += duration
        with self._lock:
            entry = self.spans[(self.pid, frame[1], name)]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[0]

    def _wrap(self, layer: str, fn, job_of=None, after=None,
              name_of=None):
        """Return ``fn`` wrapped in a span.

        ``job_of(args, kwargs)`` may name the job the call serves;
        ``after(args, kwargs, result, job)`` records counters;
        ``name_of(result)`` may rename the span from its outcome (the
        poll split into message and idle waits).
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames = tracer._frames()
            label = job_of(args, kwargs) if job_of is not None else None
            if label is None:
                label = tracer._current_job(frames)
            frame = [0.0, label, layer]
            frames.append(frame)
            result = None
            started = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(frames, frame,
                              name_of(result) if name_of else layer,
                              clock() - started)
                if after is not None:
                    after(args, kwargs, result, label)
        return wrapper

    def wrap_routine(self, routine):
        """The user routine in a ``routine`` span (keeps ``batch_size``)."""
        wrapped = self._wrap("routine", routine)
        batch_size = getattr(routine, "batch_size", None)
        if batch_size is not None:
            wrapped.batch_size = batch_size
        return wrapped

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Patch every layer entry point; see :func:`patch_targets`."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        hooks = self._hooks()
        for owner, attribute, layer in patch_targets():
            original = owner.__dict__[attribute] \
                if isinstance(owner, type) else getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            options = hooks.get((owner, attribute), {})
            setattr(owner, attribute,
                    self._wrap(layer, getattr(owner, attribute),
                               **options))

    def uninstall(self) -> None:
        """Restore every patched attribute to the program's original."""
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def trace_parking(self, scheduler) -> None:
        """Span the service loop's idle parking as ``scheduler.park``.

        The streaming loop parks on the scheduler's state condition when
        it has nothing to do; timing that wait keeps it out of the
        loop's unattributed remainder.  Waits on the same condition from
        other threads (``drain``) stay untimed.  The wrapper is set on
        this scheduler's condition only and goes away with it.
        """
        condition = scheduler._state_cond
        wait = condition.wait
        parked = self._wrap("scheduler.park", wait)

        def park(*args, **kwargs):
            if self._within("scheduler.serve"):
                return parked(*args, **kwargs)
            return wait(*args, **kwargs)
        condition.wait = park

    def _hooks(self) -> dict:
        """Per-target job labels, counters and outcome names."""
        tracer = self

        def job_of_seqnum(args, kwargs):
            config = kwargs.get("config", args[1] if len(args) > 1 else None)
            return tracer.job_of_seqnum.get(getattr(config, "seqnum", None))

        def worker_run(args, kwargs):
            # Swap in a traced send callback before the call runs, and
            # note the process CPU clock (all threads, the queue feeder
            # included) for the worker's CPU counter.
            kwargs["send"] = tracer._wrap("worker.send", kwargs["send"])
            tracer._local.cpu_started = time.process_time()
            return job_of_seqnum(args, kwargs)

        def worker_done(args, kwargs, result, label):
            tracer.count("worker.cpu",
                         time.process_time() - tracer._local.cpu_started,
                         job=label)
            if tracer.pid != tracer._owner:
                tracer.dump()

        def job_self(args, kwargs):
            return args[0].id

        def message_job(args, kwargs):
            return getattr(args[1], "job", None)

        def spawn_job(args, kwargs):
            return args[1][0].job if args[1] else None

        def spawn_done(args, kwargs, result, label):
            # One forked worker process per assignment; how many
            # assignments share one spawn() call depends on timing.
            tracer.count("multiprocess.workers", len(args[1]), job=label)

        def poll_name(result):
            return ("multiprocess.poll_msg" if result is not None
                    else "multiprocess.poll_idle")

        def poll_done(args, kwargs, result, label):
            if result is not None:
                label = getattr(result, "job", None) or label
                tracer.count("multiprocess.messages", job=label)
                tracer.count("multiprocess.message_bytes", result.nbytes,
                             job=label)

        def receive_done(args, kwargs, result, label):
            # Accepted = the collector's accepted-message count moved.
            collector = args[0]
            seen = tracer._receipts.get(collector, 0)
            if collector.receive_count > seen:
                tracer._receipts[collector] = collector.receive_count
                tracer.count("collector.accepted",
                             collector.receive_count - seen, job=label)

        def write_done(args, kwargs, result, label):
            text = kwargs.get("text", args[1] if len(args) > 1 else "")
            tracer.count("storage.bytes_written", len(text.encode()),
                         job=label)
            if tracer._within("job.finalize"):
                tracer.count("storage.final_write", job=label)

        def fsync_done(args, kwargs, result, label):
            # The final save's barriers depend on the job spec alone,
            # unlike the periodic ones, which follow message timing.
            if tracer._within("job.finalize"):
                tracer.count("storage.final_fsync", job=label)

        def submitted(args, kwargs, result, label):
            if result is not None:
                tracer.jobs.append(result)

        return {
            (multiprocess, "run_worker"): dict(job_of=worker_run,
                                               after=worker_done),
            (sequential, "run_worker"): dict(job_of=worker_run,
                                             after=worker_done),
            (multiprocess.MultiprocessBackend, "spawn"): dict(
                job_of=spawn_job, after=spawn_done),
            (multiprocess.MultiprocessBackend, "poll"): dict(
                name_of=poll_name, after=poll_done),
            (Collector, "receive"): dict(after=receive_done),
            (storage, "atomic_write_text"): dict(after=write_done),
            (os, "fsync"): dict(after=fsync_done),
            (scheduler.Scheduler, "ingest"): dict(job_of=message_job),
            (scheduler.Scheduler, "submit"): dict(after=submitted),
            (job.Job, "open"): dict(job_of=job_self),
            (job.Job, "finalize"): dict(job_of=job_self),
        }

    # -- worker spool ----------------------------------------------------

    def dump(self) -> None:
        """Write this (forked) process's totals to the spool."""
        payload = {
            "pid": self.pid,
            "spans": [[label, layer, *value] for (_, label, layer), value
                      in self.spans.items()],
            "counts": [[label, name, value] for (_, label, name), value
                       in self.counts.items()],
        }
        path = self.spool / f"{self.pid}.json"
        temp = path.with_suffix(".tmp")
        temp.write_text(json.dumps(payload))
        os.replace(temp, path)

    def gather(self) -> int:
        """Fold every spooled worker file into the totals; returns count."""
        gathered = 0
        for path in sorted(self.spool.glob("*.json")):
            payload = json.loads(path.read_text())
            pid = payload["pid"]
            with self._lock:
                for job_label, layer, calls, total, own in payload["spans"]:
                    entry = self.spans[(pid, job_label, layer)]
                    entry[0] += calls
                    entry[1] += total
                    entry[2] += own
                for job_label, name, value in payload["counts"]:
                    self.counts[(pid, job_label, name)] += value
            path.unlink()
            gathered += 1
        return gathered

    # -- queries ---------------------------------------------------------

    def layer(self, name: str, pid=None, job=...) -> tuple[int, float, float]:
        """``(calls, total, self)`` of a span name, optionally filtered."""
        calls, total, own = 0, 0.0, 0.0
        for (span_pid, span_job, layer), value in self.spans.items():
            if layer != name or (pid is not None and span_pid != pid):
                continue
            if job is not ... and span_job != job:
                continue
            calls += value[0]
            total += value[1]
            own += value[2]
        return calls, total, own

    def counter(self, name: str, job=...) -> float:
        return sum(value for (_, span_job, counter), value
                   in self.counts.items()
                   if counter == name and (job is ... or span_job == job))

    def pids(self) -> list[int]:
        return sorted({pid for pid, _, _ in self.spans})
