"""Typed run-telemetry events.

Every observable moment of a synthesis run is a small frozen dataclass
with a stable ``kind`` string.  Events carry *payload only*; the
:class:`~repro.runtime.context.RunContext` stamps each one with the
seconds elapsed since the run started when it fans the event out to the
configured sinks.  :func:`event_payload` renders any event as a plain
JSON-serializable dict (every field is a scalar or a dict of scalars),
which is the schema the JSONL run log writes one line per event.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar

__all__ = [
    "Event",
    "RunStarted",
    "PoolSpawned",
    "SegmentsPrimed",
    "SketchesDrawn",
    "BucketScored",
    "IterationFinished",
    "ScoringStats",
    "WaveDispatched",
    "BudgetExceeded",
    "RunFinished",
    "WorkerCrashed",
    "PoolRebuilt",
    "DegradedToSerial",
    "SketchQuarantined",
    "TraceTriaged",
    "TraceRepairApplied",
    "DegradedInputs",
    "CheckpointSaved",
    "RunResumed",
    "JobSubmitted",
    "JobStarted",
    "JobPreempted",
    "JobProgress",
    "JobCompleted",
    "JobFailed",
    "LeaseStolen",
    "ServerStarted",
    "HeartbeatMissed",
    "JobTakenOver",
    "JobRetried",
    "JobQuarantined",
    "ServerDrained",
    "bucket_label",
    "event_payload",
]


def bucket_label(key: frozenset[str] | tuple[str, ...] | str) -> str:
    """Render a bucket's operator-set key as a stable, readable string."""
    if isinstance(key, str):
        return key
    return "+".join(sorted(key)) or "(empty)"


@dataclass(frozen=True)
class Event:
    """Base class: every event names its ``kind``."""

    kind: ClassVar[str] = "event"


@dataclass(frozen=True)
class RunStarted(Event):
    """A synthesis (or loss-handler) search began."""

    kind: ClassVar[str] = "run_started"
    run: str  # "synthesis" | "loss"
    dsl_name: str
    bucket_count: int
    segment_count: int
    workers: int


@dataclass(frozen=True)
class PoolSpawned(Event):
    """A process pool was created (at most once per run by design)."""

    kind: ClassVar[str] = "pool_spawned"
    workers: int


@dataclass(frozen=True)
class SegmentsPrimed(Event):
    """The pool's working set changed (epoch bumped): its chunks now
    name another plane."""

    kind: ClassVar[str] = "segments_primed"
    epoch: int
    segment_count: int


@dataclass(frozen=True)
class SketchesDrawn(Event):
    """The bucket pool advanced its shared enumeration stream."""

    kind: ClassVar[str] = "sketches_drawn"
    target: int
    generated: int
    live_buckets: int


@dataclass(frozen=True)
class BucketScored(Event):
    """One bucket's sample wave finished scoring."""

    kind: ClassVar[str] = "bucket_scored"
    iteration: int
    bucket: str
    score: float
    sketches: int


@dataclass(frozen=True)
class IterationFinished(Event):
    """One refinement-loop iteration completed (ranking + top-k cut)."""

    kind: ClassVar[str] = "iteration_finished"
    index: int
    samples_per_bucket: int
    segment_count: int
    bucket_count: int
    kept: int
    best_distance: float
    handlers_scored: int
    elapsed_seconds: float


@dataclass(frozen=True)
class ScoringStats(Event):
    """Batched-scoring counters at a point in time (cumulative for the run).

    Mirrors :class:`repro.synth.scoring.ScoringCounters`: how many sketch
    waves took the batched fast path, how many candidate×segment distance
    computations the lower-bound cascade skipped (``lb_pruned``), how many
    DTW dynamic programs were abandoned mid-run (``dp_abandoned``), and how
    many whole candidates were discarded without a full score
    (``candidates_pruned``).
    """

    kind: ClassVar[str] = "scoring_stats"
    batched_waves: int
    lb_pruned: int
    dp_abandoned: int
    candidates_pruned: int
    #: Candidates pruned by a cross-sketch bucket incumbent (the fused
    #: scheduler's warm start) rather than a bound the sketch computed.
    warm_start_pruned: int = 0
    #: Fused cross-bucket waves dispatched.
    fused_waves: int = 0
    #: Flattened tasks those fused waves carried.
    fused_tasks: int = 0
    #: Most tasks simultaneously in flight on the executor.
    peak_in_flight: int = 0
    #: Mean fraction of executor capacity kept busy per fused wave.
    mean_occupancy: float = 0.0
    #: Multi-lane banded-DTW sweeps (each replaces up to completion_cap
    #: scalar dynamic programs).
    batched_dtw_sweeps: int = 0
    #: Wall-clock spent eagerly building tables/envelopes once per
    #: working set (``Scorer.prepare_segments``).
    envelope_precompute_ms: float = 0.0
    #: Peak bytes of live shared-memory segment planes (0 = no plane).
    shm_bytes: int = 0


@dataclass(frozen=True)
class WaveDispatched(Event):
    """One fused cross-bucket wave left for the executor.

    ``groups`` live buckets were flattened (round-robin interleaved)
    into ``tasks`` scoring tasks and dispatched onto an executor
    ``workers`` wide in a single pipelined pass — the per-iteration
    barrier count the fused scheduler collapses from B to 1.
    """

    kind: ClassVar[str] = "wave_dispatched"
    groups: int
    tasks: int
    workers: int


@dataclass(frozen=True)
class BudgetExceeded(Event):
    """The wall-clock budget expired at a boundary: after an iteration
    (*phase* ``"refinement"``: the loop stops there) or before the
    exhaustive pass (``"exhaustive"``: the pass is skipped).  Emitted at
    most once per run."""

    kind: ClassVar[str] = "budget_exceeded"
    phase: str
    budget_seconds: float
    elapsed_seconds: float


@dataclass(frozen=True)
class WorkerCrashed(Event):
    """The scoring pool lost a worker, or a chunk failed outside its
    task guard."""

    kind: ClassVar[str] = "worker_crashed"
    reason: str  # "worker-crash" | "hang" | "worker-error"
    detail: str


@dataclass(frozen=True)
class PoolRebuilt(Event):
    """Supervision replaced a broken pool (after backoff)."""

    kind: ClassVar[str] = "pool_rebuilt"
    rebuilds: int  #: cumulative rebuild count for the run
    backoff_seconds: float


@dataclass(frozen=True)
class DegradedToSerial(Event):
    """Too many consecutive pool failures: the run fell back to serial."""

    kind: ClassVar[str] = "degraded_to_serial"
    reason: str


@dataclass(frozen=True)
class SketchQuarantined(Event):
    """A candidate hung/raised/crashed and was scored worst-case instead."""

    kind: ClassVar[str] = "sketch_quarantined"
    sketch: str
    reason: str  # "timeout" | "exception" | "worker-crash"
    detail: str


@dataclass(frozen=True)
class TraceTriaged(Event):
    """Input triage finished with one trace (admit, repair, or refuse)."""

    kind: ClassVar[str] = "trace_triaged"
    trace: str  #: ``cca/environment`` label
    action: str  #: "clean" | "repaired" | "rejected"
    quality: float  #: post-repair quality score (1.0 for clean)
    defects: dict[str, int]  #: pre-repair defect histogram
    reason: str = ""  #: rejection reason (empty when admitted)


@dataclass(frozen=True)
class TraceRepairApplied(Event):
    """One repair pass changed a trace during triage."""

    kind: ClassVar[str] = "trace_repair"
    trace: str
    repair: str  #: repair pass name (e.g. "resort_time", "clock_jump")
    touched: int  #: records the pass modified or dropped
    detail: str = ""


@dataclass(frozen=True)
class DegradedInputs(Event):
    """The quorum guard ran out of high-quality segments.

    Scoring continued on the best available working set (never fewer
    than the configured minimum), but low-quality segments had to be
    backfilled in — the ranking rests on degraded inputs.
    """

    kind: ClassVar[str] = "degraded_inputs"
    total_segments: int
    usable: int  #: segments meeting the quality threshold
    excluded: int  #: low-quality segments dropped
    backfilled: int  #: low-quality segments kept to satisfy the quorum
    min_quorum: int


@dataclass(frozen=True)
class CheckpointSaved(Event):
    """Refinement state was persisted at an iteration boundary."""

    kind: ClassVar[str] = "checkpoint_saved"
    path: str
    iteration: int


@dataclass(frozen=True)
class RunResumed(Event):
    """A run restored refinement state from a checkpoint before looping."""

    kind: ClassVar[str] = "run_resumed"
    path: str
    iterations_restored: int


@dataclass(frozen=True)
class JobSubmitted(Event):
    """A reverse-engineering job entered the scheduler's queue."""

    kind: ClassVar[str] = "job_submitted"
    job_id: str
    priority: int


@dataclass(frozen=True)
class JobStarted(Event):
    """A job left the queue and began (or resumed) running."""

    kind: ClassVar[str] = "job_started"
    job_id: str
    resumed: bool


@dataclass(frozen=True)
class JobPreempted(Event):
    """The scheduler paused a job's wave mid-flight to run its peers.

    Emitted once per preemption (bucket-granular slice boundaries), so
    the count measures how finely the fairness policy interleaved jobs.
    """

    kind: ClassVar[str] = "job_preempted"
    job_id: str
    phase: str
    groups_remaining: int


@dataclass(frozen=True)
class JobProgress(Event):
    """A job's anytime answer improved past an iteration boundary."""

    kind: ClassVar[str] = "job_progress"
    job_id: str
    iteration: int
    best_distance: float
    expression: str | None
    handlers_scored: int


@dataclass(frozen=True)
class JobCompleted(Event):
    """A job finished; carries its headline result."""

    kind: ClassVar[str] = "job_completed"
    job_id: str
    best_distance: float
    expression: str
    iterations: int
    handlers_scored: int
    waves: int


@dataclass(frozen=True)
class JobFailed(Event):
    """A job raised; the fleet continues without it."""

    kind: ClassVar[str] = "job_failed"
    job_id: str
    error: str


@dataclass(frozen=True)
class LeaseStolen(Event):
    """A claim displaced the previous owner named in the job's record
    (expired TTL, or an explicit steal); ``path`` names the record."""

    kind: ClassVar[str] = "lease_stolen"
    job_id: str
    path: str
    previous_owner: str


@dataclass(frozen=True)
class ServerStarted(Event):
    """A serve daemon began its claim loop over a spool."""

    kind: ClassVar[str] = "server_started"
    server: str
    spool: str
    workers: int


@dataclass(frozen=True)
class HeartbeatMissed(Event):
    """A claim scan found a job whose lease owner stopped renewing.

    Emitted once per (job, heartbeat) by the first scan that observes
    the expiry; the observing server takes the job over after its
    jittered backoff elapses.
    """

    kind: ClassVar[str] = "heartbeat_missed"
    job_id: str
    owner: str  #: the silent lease holder (the presumed-dead server)
    age_seconds: float  #: seconds since the owner's last renewal
    ttl_seconds: float


@dataclass(frozen=True)
class JobTakenOver(Event):
    """A server claimed a job that was in flight on a dead peer."""

    kind: ClassVar[str] = "job_taken_over"
    job_id: str
    server: str
    previous_owner: str
    attempts: int  #: lifetime starts of this job, this one included


@dataclass(frozen=True)
class JobRetried(Event):
    """A job that previously crashed its server is being restarted.

    ``crashes`` counts the server deaths charged to the job so far;
    the restart waited out ``backoff_seconds`` of exponential backoff
    (beyond the lease TTL + takeover jitter) before this attempt.
    """

    kind: ClassVar[str] = "job_retried"
    job_id: str
    server: str
    attempts: int
    crashes: int
    backoff_seconds: float


@dataclass(frozen=True)
class JobQuarantined(Event):
    """A job exhausted its retry budget and was parked, not re-run.

    The fleet keeps serving every other job; the quarantined spec stays
    in the spool with a structured last-failure reason for triage
    (``repro fleet-status`` surfaces it).
    """

    kind: ClassVar[str] = "job_quarantined"
    job_id: str
    server: str  #: the server that made the quarantine decision
    attempts: int
    crashes: int
    reason: str  #: stable machine code, e.g. "retry-budget-exhausted"
    detail: str


@dataclass(frozen=True)
class ServerDrained(Event):
    """A serve daemon finished a graceful drain (SIGTERM): current slice
    completed, leases released, unfinished jobs requeued for peers."""

    kind: ClassVar[str] = "server_drained"
    server: str
    jobs_released: int
    slices_dispatched: int


@dataclass(frozen=True)
class RunFinished(Event):
    """The search returned; carries the headline result and phase timers."""

    kind: ClassVar[str] = "run_finished"
    run: str
    best_distance: float
    expression: str
    handlers_scored: int
    elapsed_seconds: float
    phase_seconds: dict[str, float]


def _jsonable(value: Any) -> Any:
    # Every field is a scalar or a dict of scalars (the event schema test
    # checks); JSON wants string keys.
    if isinstance(value, dict):
        return {str(key): item for key, item in value.items()}
    return value


def event_payload(event: Event) -> dict[str, Any]:
    """The event as a JSON-serializable dict, ``kind`` included."""
    payload: dict[str, Any] = {"event": event.kind}
    for field in dataclasses.fields(event):
        payload[field.name] = _jsonable(getattr(event, field.name))
    return payload
