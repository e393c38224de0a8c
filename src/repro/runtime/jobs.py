"""Jobs: the unit of work a :class:`~repro.runtime.scheduler.Scheduler`
multiplexes.

A :class:`Job` wraps a *source* — a zero-argument callable returning a
re-entrant core generator (typically
``lambda: reverse_engineer_core(traces, ...)``) — plus queueing metadata,
the lease a fleet server won on the job's record (if any), and the live
progress the scheduler fills in as waves complete.  The
:class:`JobQueue` orders admission by priority (higher first), FIFO
within a priority.  The :class:`ResultStore` persists each job's anytime
answer as an append-only JSONL stream: the last line is always the
current best, so ``repro submit --wait`` (or any tail -f) reads live
progress without touching the scheduler.
"""

from __future__ import annotations

import enum
import heapq
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.runtime.supervise import Quarantined

__all__ = ["Job", "JobState", "JobQueue", "ResultStore"]


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    #: Parked by the service layer after exhausting its retry budget
    #: (a poison job that kept killing its server); never scheduled.
    QUARANTINED = "quarantined"


@dataclass
class Job:
    """One reverse-engineering run, schedulable among many."""

    job_id: str
    #: Builds the job's core generator; called once, at start.  A fresh
    #: callable per job keeps traces/config lazy until admission.
    source: Callable[[], Generator]
    priority: int = 0
    #: True when the source resumes from an existing checkpoint.
    resumed: bool = False
    #: The held :class:`~repro.runtime.checkpoint.CheckpointLease` on the
    #: job's record (a claim-loop server claims *before* submission); the
    #: scheduler renews it as the heartbeat and releases it at the end.
    #: ``None`` means no lease: the job is lost on a scheduler crash.
    lease: Any = None
    metadata: dict[str, Any] = field(default_factory=dict)

    # -- live progress, owned by the scheduler ----------------------------
    state: JobState = JobState.PENDING
    result: Any = None  #: PipelineReport / SynthesisResult when completed
    error: str | None = None
    best_expression: str | None = None
    best_distance: float = math.inf
    iterations_done: int = 0
    handlers_scored: int = 0
    waves_dispatched: int = 0
    slices_dispatched: int = 0
    preemptions: int = 0
    quarantined: list[Quarantined] = field(default_factory=list)
    pool_rebuilds: int = 0

    def snapshot(self) -> dict[str, Any]:
        """The job's anytime answer as one JSON-serializable dict."""
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "best_expression": self.best_expression,
            "best_distance": (
                self.best_distance
                if math.isfinite(self.best_distance)
                else None
            ),
            "iterations_done": self.iterations_done,
            "handlers_scored": self.handlers_scored,
            "waves_dispatched": self.waves_dispatched,
            "preemptions": self.preemptions,
            "error": self.error,
        }


class JobQueue:
    """Priority queue of pending jobs (higher priority first, FIFO ties)."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, job: Job) -> None:
        heapq.heappush(self._heap, (-job.priority, self._seq, job))
        self._seq += 1

    def pop(self) -> Job:
        return heapq.heappop(self._heap)[2]


class ResultStore:
    """Append-only JSONL anytime answers, one file per job.

    Every update appends the job's full snapshot, so the last line of
    ``results/<job_id>.jsonl`` is the current answer and the file as a
    whole is the job's progress history.  Appends are flushed line-writes
    of complete JSON documents; a torn tail (kill mid-write) is skipped
    by the reader, which takes the last line that parses.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, job_id: str) -> str:
        return os.path.join(self.root, f"{job_id}.jsonl")

    def update(self, job: Job) -> None:
        self.record(job.snapshot())

    def record(self, snapshot: dict[str, Any]) -> None:
        """Append a raw snapshot dict (``job_id`` required).

        The service layer uses this for states no live :class:`Job`
        carries — a quarantine verdict, or a drained job handed back to
        the queue — keeping the "last line is the current answer"
        contract for every state the spool can be in.
        """
        with open(
            self._path(str(snapshot["job_id"])), "a", encoding="utf-8"
        ) as handle:
            handle.write(json.dumps(snapshot, sort_keys=True) + "\n")
            handle.flush()

    def latest(self, job_id: str) -> dict[str, Any] | None:
        """The job's newest parseable snapshot, or ``None``."""
        try:
            with open(self._path(job_id), "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return None
        for line in reversed(lines):
            line = line.strip()
            if not line:
                continue
            try:
                return json.loads(line)
            except ValueError:
                continue
        return None

    def all_latest(self) -> dict[str, dict[str, Any]]:
        """Newest snapshot per job id present in the store."""
        snapshots: dict[str, dict[str, Any]] = {}
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return snapshots
        for name in names:
            if not name.endswith(".jsonl"):
                continue
            job_id = name[: -len(".jsonl")]
            latest = self.latest(job_id)
            if latest is not None:
                snapshots[job_id] = latest
        return snapshots
