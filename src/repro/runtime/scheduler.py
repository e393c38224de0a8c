"""Multiplex many reverse-engineering jobs over ONE persistent executor.

The refinement loop's wave protocol (:mod:`repro.runtime.protocol`)
makes executor interactions explicit messages; this scheduler is the
other driver of that protocol.  Where
:func:`~repro.synth.refinement.drive` answers one core's requests
against a private executor, the :class:`Scheduler` round-robins over
many cores and answers all of them against a single shared pool:

* **Fairness** — a :class:`~repro.runtime.protocol.WaveRequest` is
  sliced at group (bucket) boundaries into quanta of roughly
  ``quantum_tasks`` flattened tasks; after each slice the job goes to
  the back of the rotation, so a job with thousand-sketch waves cannot
  starve one with ten-sketch waves.  Group-aligned slicing is *sound*:
  warm-start incumbents never cross groups and group minima are exact,
  so rankings, checkpoints, and best handlers are bit-identical to the
  unsliced dispatch (the multi-job differential suite pins this at
  workers 1 and 4).  A job running alone skips the slicing and takes
  whole waves.
* **One pool** — the executor is created on the first wave and adopts
  each wave's scorer as jobs interleave
  (:meth:`~repro.runtime.executors.SerialExecutor.adopt_scorer`; every
  scoring chunk carries the scorer config, and a worker rebuilds its
  scorer only when the config differs).  Jobs whose flattened slice is
  below the executor's parallel threshold score inline in the scheduler
  process and never occupy pool slots.
* **Leases** — a job submitted with a held
  :class:`~repro.runtime.checkpoint.CheckpointLease` (``Job.lease``, won
  by a claim-loop server before submission) has it renewed as a
  **heartbeat on every dispatched wave slice** (and again at iteration
  boundaries).  A scheduler that dies stops renewing, and a peer resumes
  its jobs from their checkpoints once the TTL lapses.  A renewal that
  finds the job's record naming another owner drops the job: no further
  slice, no snapshot, no record write.  A finished job renews once more,
  then appends its terminal snapshot *before* its lease is released, so
  no peer ever finds it unowned and unfinished.
* **Anytime answers** — each
  :class:`~repro.runtime.protocol.ProgressReport` updates the job's
  :class:`~repro.runtime.jobs.ResultStore` snapshot and emits a
  ``job_progress`` event, so the current best handler per job is
  readable while refinement deepens.

Known (documented) telemetry deviations from the one-job path: executor
counters are fleet-wide, so wave replies carry none (no per-job
``scoring_stats`` events); executor-emitted events (pool spawns,
wave dispatches, quarantine notices) go to the scheduler's fleet
context, not the per-job context; and crash strikes are shared across
jobs.  None of these affect search decisions.

This module deliberately imports nothing from :mod:`repro.synth` or
:mod:`repro.pipeline` — it schedules opaque cores over the runtime
layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.runtime.context import RunContext
from repro.runtime.events import (
    JobCompleted,
    JobFailed,
    JobPreempted,
    JobProgress,
    JobStarted,
    JobSubmitted,
)
from repro.runtime.executors import make_executor
from repro.runtime.faults import ServiceFaultPlan, apply_service_faults
from repro.runtime.jobs import Job, JobQueue, JobState, ResultStore
from repro.runtime.protocol import ProgressReport, WaveReply, WaveRequest

__all__ = ["Scheduler", "DEFAULT_QUANTUM_TASKS"]

#: Flattened tasks per fairness slice.  One slice is the unit a job runs
#: before rotating to the back; 64 tasks amortize dispatch overhead
#: while keeping a 4-worker pool's turn under a second on paper-scale
#: sketches.
DEFAULT_QUANTUM_TASKS = 64


@dataclass
class _PendingWave:
    """One WaveRequest being serviced in group-aligned slices."""

    request: WaveRequest
    cursor: int = 0  #: groups dispatched so far
    grouped: list = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.request.groups)


@dataclass
class _ActiveJob:
    """A job admitted into the rotation, plus its protocol state."""

    job: Job
    core: Generator
    pending: _PendingWave | None = None
    reply: Any = None  #: queued reply for the core's next ``send``


class Scheduler:
    """Round-robin wave scheduler over one shared scoring executor."""

    def __init__(
        self,
        *,
        workers: int = 1,
        context: RunContext | None = None,
        store: ResultStore | None = None,
        quantum_tasks: int = DEFAULT_QUANTUM_TASKS,
        max_active: int | None = None,
        service_fault_plan: ServiceFaultPlan | None = None,
    ) -> None:
        self.workers = workers
        self.context = context
        self.store = store
        self.quantum_tasks = max(1, quantum_tasks)
        self.max_active = max_active
        self.service_fault_plan = service_fault_plan
        self._queue = JobQueue()
        self._active: deque[_ActiveJob] = deque()
        self._executor = None
        #: All jobs ever submitted, by id.
        self.jobs: dict[str, Job] = {}
        self.completed: dict[str, Job] = {}
        self.failed: dict[str, Job] = {}
        #: Wave slices dispatched fleet-wide (the counter service-level
        #: fault plans key their kill-after-K-slices trigger on).
        self.slices_dispatched = 0
        #: Set by :meth:`request_drain`: finish the slice in flight,
        #: dispatch nothing more.
        self.draining = False

    # ------------------------------------------------------------------

    def _emit(self, event) -> None:
        if self.context is not None:
            self.context.emit(event)

    def submit(self, job: Job) -> None:
        """Queue *job*; it starts once a rotation slot frees up."""
        self.jobs[job.job_id] = job
        self._queue.push(job)
        self._emit(JobSubmitted(job_id=job.job_id, priority=job.priority))
        if self.store is not None:
            self.store.update(job)

    # ------------------------------------------------------------------

    def _admit(self) -> None:
        while self._queue and (
            self.max_active is None or len(self._active) < self.max_active
        ):
            self._start(self._queue.pop())

    def _start(self, job: Job) -> None:
        job.state = JobState.RUNNING
        self._emit(JobStarted(job_id=job.job_id, resumed=job.resumed))
        if self.store is not None:
            self.store.update(job)
        self._active.append(_ActiveJob(job=job, core=job.source()))

    def _beat(self, active: _ActiveJob) -> bool:
        """Renew the job's lease: the heartbeat.  A job whose record now
        names another owner is dropped, and leaves :attr:`jobs` so a
        later claim may take it back; returns whether it is still ours."""
        lease = active.job.lease
        if lease is None or lease.renew():
            return True
        self._active.remove(active)
        del self.jobs[active.job.job_id]
        return False

    # ------------------------------------------------------------------

    @property
    def _solo(self) -> bool:
        return len(self._active) == 1 and not self._queue

    def _ensure_executor(self, scorer):
        if self._executor is None:
            self._executor = make_executor(
                scorer, self.workers, context=self.context
            )
        elif self._executor.scorer is not scorer:
            self._executor.adopt_scorer(scorer)
        return self._executor

    def _dispatch_slice(self, active: _ActiveJob) -> bool:
        """Run one group-aligned quantum of the job's pending wave;
        returns whether the job is still ours (:meth:`_beat`).

        Every dispatched slice renews the job's lease — the fleet's
        heartbeat: a server that stops slicing (killed, wedged) stops
        renewing, and peers detect the silence by TTL expiry.  The
        service-level fault plan is consulted *after* the slice and the
        renewal, so an injected kill dies exactly like a SIGKILL between
        slices: heartbeat fresh, owner still in the record, no cleanup.
        """
        job = active.job
        pending = active.pending
        request = pending.request
        executor = self._ensure_executor(request.scorer)
        remaining = request.groups[pending.cursor :]
        if self._solo:
            take = len(remaining)  # no one to be fair to
        else:
            take, flattened = 0, 0
            for group in remaining:
                take += 1
                flattened += len(group)
                if flattened >= self.quantum_tasks:
                    break
        slice_groups = remaining[:take]
        pending.cursor += take
        quarantined_before = len(executor.quarantined)
        rebuilds_before = executor.pool_rebuilds
        grouped = executor.score_grouped(slice_groups, request.segments)
        pending.grouped.extend(grouped)
        job.quarantined.extend(executor.quarantined[quarantined_before:])
        job.pool_rebuilds += executor.pool_rebuilds - rebuilds_before
        job.slices_dispatched += 1
        self.slices_dispatched += 1
        ours = self._beat(active)
        apply_service_faults(
            self.service_fault_plan,
            job_id=job.job_id,
            job_slices=job.slices_dispatched,
            total_slices=self.slices_dispatched,
        )
        return ours

    def _service(self, active: _ActiveJob) -> None:
        """Advance the head job: answer protocol requests until it either
        finishes, fails, or has spent this turn's dispatch quantum."""
        job = active.job
        budget = 1  # slices this turn; rotation fairness rides on this
        while True:
            pending = active.pending
            if pending is None:
                try:
                    request = active.core.send(active.reply)
                except StopIteration as stop:
                    self._complete(active, stop.value)
                    return
                except Exception as exc:  # noqa: BLE001 - job isolation
                    self._fail(active, exc)
                    return
                active.reply = None
                if isinstance(request, ProgressReport):
                    job.iterations_done = request.iteration
                    job.best_expression = request.best_expression
                    job.best_distance = request.best_distance
                    job.handlers_scored = request.handlers_scored
                    if not self._beat(active):
                        return
                    if self.store is not None:
                        self.store.update(job)
                    self._emit(
                        JobProgress(
                            job_id=job.job_id,
                            iteration=request.iteration,
                            best_distance=request.best_distance,
                            expression=request.best_expression,
                            handlers_scored=request.handlers_scored,
                        )
                    )
                elif isinstance(request, WaveRequest):
                    active.pending = _PendingWave(request)
                    job.waves_dispatched += 1
                continue
            if pending.done:
                # The job's own faults and verdict, and no counters:
                # the shared executor's are fleet-wide.  A wave with no
                # groups dispatches no slice, so no executor may exist
                # yet.
                executor = self._executor
                active.reply = WaveReply(
                    grouped=tuple(pending.grouped),
                    quarantined=tuple(job.quarantined),
                    pool_rebuilds=job.pool_rebuilds,
                    degraded=executor is not None
                    and executor.degraded_for(pending.request.scorer),
                )
                active.pending = None
                continue
            if self.draining:
                return  # finish-current-slice point: dispatch no more
            if budget <= 0:
                if len(self._active) > 1:
                    job.preemptions += 1
                    self._emit(
                        JobPreempted(
                            job_id=job.job_id,
                            phase=pending.request.phase,
                            groups_remaining=(
                                len(pending.request.groups) - pending.cursor
                            ),
                        )
                    )
                return
            if not self._dispatch_slice(active):
                return
            budget -= 1

    # ------------------------------------------------------------------

    def _retire(self, active: _ActiveJob, finished: dict[str, Job]) -> None:
        """End a job in a fixed order: its terminal snapshot first, then
        the release of its lease, so no peer finds it unowned and
        unfinished.  The caller has just renewed the lease (:meth:`_beat`),
        so the snapshot is this owner's to write."""
        job = active.job
        if self.store is not None:
            self.store.update(job)
        self._active.remove(active)
        if job.lease is not None:
            job.lease.release()
        finished[job.job_id] = job

    def _complete(self, active: _ActiveJob, result: Any) -> None:
        if not self._beat(active):
            return
        job = active.job
        job.state = JobState.COMPLETED
        job.result = result
        expression = getattr(result, "expression", None)
        if expression is not None:
            job.best_expression = expression
        distance = getattr(result, "distance", None)
        if distance is not None:
            job.best_distance = distance
        self._retire(active, self.completed)
        self._emit(
            JobCompleted(
                job_id=job.job_id,
                best_distance=job.best_distance,
                expression=job.best_expression or "",
                iterations=job.iterations_done,
                handlers_scored=job.handlers_scored,
                waves=job.waves_dispatched,
            )
        )

    def _fail(self, active: _ActiveJob, exc: BaseException) -> None:
        if not self._beat(active):
            return
        job = active.job
        job.state = JobState.FAILED
        job.error = f"{type(exc).__name__}: {exc}"
        self._retire(active, self.failed)
        self._emit(JobFailed(job_id=job.job_id, error=job.error))

    # ------------------------------------------------------------------

    def step(self) -> bool:
        """One scheduling turn: admit, run the head job's quantum,
        rotate.  Returns whether any work remains."""
        if self.draining:
            return False
        self._admit()
        if self._active:
            active = self._active[0]
            self._service(active)
            if self._active and self._active[0] is active:
                self._active.rotate(-1)
        return bool(self._active or self._queue)

    # ------------------------------------------------------------------

    def request_drain(self) -> None:
        """Begin a graceful drain: the slice in flight (if any) finishes,
        nothing further is dispatched, and :meth:`step` reports no work.
        Safe to call from a signal handler — it only sets a flag."""
        self.draining = True

    @property
    def active_jobs(self) -> list[Job]:
        """Jobs admitted and not yet completed/failed (in-flight)."""
        return [active.job for active in self._active]

    def run(self) -> dict[str, Job]:
        """Drive the fleet to completion; returns the completed jobs.
        Failed jobs land on :attr:`failed`."""
        while self.step():
            pass
        return self.completed

    def close(self) -> None:
        """Release the in-flight jobs' leases and shut the shared
        executor down."""
        for active in self._active:
            if active.job.lease is not None:
                active.job.lease.release()
        if self._executor is not None:
            # Blocking teardown: by close time the pool holds at most
            # stragglers finishing their current sketch, and waiting for
            # worker exit keeps pool cleanup from racing interpreter
            # teardown (an intermittent EBADF at process exit otherwise).
            self._executor.close(wait=True)
            self._executor = None

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
