"""Synthesis-as-a-service: a JSONL spool directory + a server fleet.

The service layer is deliberately thin — files in, files out, no
daemon protocol.  A *spool* directory holds everything:

``queue/<job_id>.json``
    one job spec per file (written by :func:`submit_job` /
    ``repro submit``): where the traces come from, which DSL or
    classifier to use, and any
    :class:`~repro.synth.refinement.SynthesisConfig` overrides.
``results/<job_id>.jsonl``
    the job's anytime answer stream (a
    :class:`~repro.runtime.jobs.ResultStore`): the last line is always
    the current best handler + distance, appended at every iteration
    boundary and at completion.
``checkpoints/<job_id>.jsonl``
    the job's refinement checkpoint.
``state/<job_id>.json``
    the job's :class:`~repro.runtime.checkpoint.JobRecord`, its one
    mutable coordination file: the spool state machine (``queued ->
    running -> done | failed | quarantined``), the owning server and its
    heartbeat (the job's lease), and retry accounting.  Every change is
    one locked read-modify-write, and every write an atomic replace, so
    any crash leaves a parseable record.

``repro serve`` (:func:`serve`) is a **claim-loop fleet server**: any
number of serve daemons may share one spool.  Each scans the queue,
claims eligible jobs in one critical section on their records (the
:class:`~repro.runtime.checkpoint.CheckpointLease` protocol, renewed as
a heartbeat on every wave slice), and multiplexes its claims through
one :class:`~repro.runtime.scheduler.Scheduler`.  A server that dies
stops heartbeating; survivors detect the expiry, wait a deterministic
per-(server, job) jitter so takeover never thunders, and resume the
dead peer's jobs from their checkpoints — results stay bit-identical
to a sequential run.  Jobs that repeatedly *kill* their server are
retried under an exponential-backoff budget and then quarantined with
a structured last-failure reason; ``repro fleet-status`` renders the
whole state machine without claiming anything.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Any, Callable

from repro.dsl.families import FAMILIES, family, with_budget
from repro.errors import SynthesisError
from repro.pipeline import reverse_engineer_core
from repro.runtime.checkpoint import (
    DEFAULT_LEASE_TTL,
    TERMINAL_STATES,
    CheckpointLease,
    JobLedger,
    JobRecord,
    load_checkpoint,
    takeover_delay,
)
from repro.runtime.context import RunContext
from repro.runtime.events import (
    HeartbeatMissed,
    JobFailed,
    JobQuarantined,
    JobRetried,
    JobTakenOver,
    LeaseStolen,
    ServerDrained,
    ServerStarted,
)
from repro.runtime.faults import ServiceFaultPlan
from repro.runtime.jobs import Job, ResultStore
from repro.runtime.scheduler import DEFAULT_QUANTUM_TASKS, Scheduler
from repro.synth.refinement import SynthesisConfig

__all__ = [
    "DEFAULT_CLAIM_INTERVAL",
    "DEFAULT_MAX_JOB_RETRIES",
    "DEFAULT_RETRY_BACKOFF",
    "TERMINAL_STATES",
    "JobRecord",
    "JobLedger",
    "FleetServer",
    "submit_job",
    "load_specs",
    "build_job",
    "serve",
    "fleet_status",
]

#: Seconds between claim scans while a server is busy (new submissions
#: and newly expired peer leases are noticed within one interval).
DEFAULT_CLAIM_INTERVAL = 1.0

#: Times a job that killed its server is restarted before quarantine.
DEFAULT_MAX_JOB_RETRIES = 3

#: Base of the exponential crash-retry backoff (seconds).  The first
#: takeover waits only TTL + jitter; after k prior crashes a restart
#: waits a further ``base * 2**(k-1)``.
DEFAULT_RETRY_BACKOFF = 2.0

#: Terminal result snapshots a claim reconciles into the job's record.
_RECONCILED = {"completed": "done", "failed": "failed"}

#: SynthesisConfig fields a spec may override.  Checkpoint/resume paths
#: are owned by the spool (every job checkpoints under ``checkpoints/``),
#: the pool knobs (workers, rebuilds, watchdog) by the executor every
#: job of a ``serve`` shares, and fault plans are a test-harness
#: feature, not a service input.
_CONFIG_FIELDS = {
    field.name for field in dataclasses.fields(SynthesisConfig)
} - {
    "checkpoint_path",
    "resume_path",
    "workers",
    "max_pool_rebuilds",
    "watchdog_seconds",
    "fault_plan",
}


def _spool_dir(spool: str, name: str) -> str:
    path = os.path.join(spool, name)
    os.makedirs(path, exist_ok=True)
    return path


def submit_job(
    spool: str,
    job_id: str,
    *,
    traces: str | None = None,
    cca: str | None = None,
    classifier: str = "gordon",
    dsl: str | None = None,
    max_depth: int | None = None,
    max_nodes: int | None = None,
    priority: int = 0,
    trace_policy: str | None = None,
    config: dict[str, Any] | None = None,
    collection: dict[str, Any] | None = None,
) -> str:
    """Write one job spec into the spool's queue; returns its path."""
    if (traces is None) == (cca is None):
        raise SynthesisError(
            "job spec needs exactly one trace source: 'traces' or 'cca'"
        )
    if dsl is not None and dsl not in FAMILIES:
        raise SynthesisError(f"unknown DSL family {dsl!r}")
    config = dict(config or {})
    unknown = sorted(set(config) - _CONFIG_FIELDS)
    if unknown:
        raise SynthesisError(
            f"unknown SynthesisConfig override(s): {', '.join(unknown)}"
        )
    spec: dict[str, Any] = {
        "job_id": job_id,
        "classifier": classifier,
        "priority": priority,
    }
    if traces is not None:
        spec["traces"] = traces
    if cca is not None:
        spec["cca"] = cca
    if dsl is not None:
        spec["dsl"] = dsl
    if max_depth is not None:
        spec["max_depth"] = max_depth
    if max_nodes is not None:
        spec["max_nodes"] = max_nodes
    if trace_policy is not None:
        spec["trace_policy"] = trace_policy
    if config:
        spec["config"] = config
    if collection:
        spec["collection"] = collection
    path = os.path.join(_spool_dir(spool, "queue"), f"{job_id}.json")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(spec, handle, sort_keys=True, indent=2)
    os.replace(tmp, path)
    return path


def load_specs(spool: str) -> list[dict[str, Any]]:
    """Every parseable spec in the spool's queue, sorted by job id."""
    queue = _spool_dir(spool, "queue")
    specs = []
    for name in sorted(os.listdir(queue)):
        if not name.endswith(".json"):
            continue
        try:
            with open(
                os.path.join(queue, name), "r", encoding="utf-8"
            ) as handle:
                spec = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(spec, dict) and spec.get("job_id"):
            specs.append(spec)
    return specs


def _load_spec_traces(spec: dict[str, Any]):
    """Resolve the spec's trace source (deferred until the job starts)."""
    if "traces" in spec:
        from repro.trace.io import load_traces

        return load_traces(spec["traces"])
    from repro.trace.collect import CollectionConfig, collect_traces
    from repro.netsim.environments import Environment

    collection = spec.get("collection") or {}
    kwargs: dict[str, Any] = {}
    if "duration" in collection:
        kwargs["duration"] = float(collection["duration"])
    if "bandwidth" in collection or "rtt" in collection:
        kwargs["environments"] = tuple(
            Environment(bandwidth_mbps=float(bw), rtt_ms=float(rtt))
            for bw in collection.get("bandwidth", [5.0, 10.0, 15.0])
            for rtt in collection.get("rtt", [25.0, 50.0, 80.0])
        )
    return collect_traces(spec["cca"], CollectionConfig(**kwargs))


def _job_inputs(spec: dict[str, Any]) -> tuple[SynthesisConfig, Any]:
    """A spec's synthesis config and DSL (``None``: the classifier picks
    one).  Reads no file, so a claim can check a spec under the record's
    lock; raises :class:`SynthesisError` on a bad spec."""
    overrides = dict(spec.get("config") or {})
    unknown = sorted(set(overrides) - _CONFIG_FIELDS)
    if unknown:
        raise SynthesisError(
            f"job {str(spec['job_id'])!r}: unknown SynthesisConfig "
            f"override(s): {', '.join(unknown)}"
        )
    dsl_name = spec.get("dsl")
    dsl = (
        with_budget(
            family(dsl_name),
            max_depth=spec.get("max_depth"),
            max_nodes=spec.get("max_nodes"),
        )
        if dsl_name is not None
        else None
    )
    return SynthesisConfig(**overrides), dsl


def build_job(
    spool: str,
    spec: dict[str, Any],
    context: RunContext | None = None,
    *,
    workers: int = 1,
) -> Job:
    """One schedulable :class:`~repro.runtime.jobs.Job` from a spec.

    The checkpoint lives at ``checkpoints/<job_id>.jsonl``; when it
    already holds a boundary the job resumes from it (that is the whole
    crash-recovery path — a successor ``serve`` naturally picks up where
    the dead one left off).  *workers* is the width of the executor
    that will score the job, so its ``run_started`` event names the
    pool that actually runs it (a worker count changes no result).
    """
    job_id = str(spec["job_id"])
    config, dsl = _job_inputs(spec)
    checkpoint_path = os.path.join(
        _spool_dir(spool, "checkpoints"), f"{job_id}.jsonl"
    )
    resumed = load_checkpoint(checkpoint_path) is not None
    config = dataclasses.replace(
        config,
        checkpoint_path=checkpoint_path,
        resume_path=checkpoint_path if resumed else None,
        workers=workers,
    )

    def source():
        return reverse_engineer_core(
            _load_spec_traces(spec),
            classifier=spec.get("classifier", "gordon"),
            dsl=dsl,
            config=config,
            max_depth=None if dsl is not None else spec.get("max_depth"),
            max_nodes=None if dsl is not None else spec.get("max_nodes"),
            context=context,
            trace_policy=spec.get("trace_policy"),
        )

    return Job(
        job_id=job_id,
        source=source,
        priority=int(spec.get("priority", 0)),
        resumed=resumed,
    )


# ----------------------------------------------------------------------
# The claim-loop fleet server.


class FleetServer:
    """One serve daemon in a (possibly multi-server) fleet over a spool.

    The server alternates claim scans with scheduler turns:

    * **Claim** — walk the queue in ``(-priority, job_id)`` order and try
      to claim every non-terminal job, each in one critical section on
      its record (:meth:`_claim_one`).  Live foreign owners are respected
      unless ``steal_leases``.  An expired owner is a missed heartbeat;
      takeover waits a deterministic per-(server, job) jitter plus the
      job's crash backoff, and a job whose crash count would exceed
      ``max_job_retries`` is quarantined instead of restarted.
    * **Serve** — claimed jobs run under one
      :class:`~repro.runtime.scheduler.Scheduler`, which renews each
      job's lease on every dispatched wave slice (the heartbeat).
    * **Drain** — :meth:`request_drain` (safe from a signal handler)
      lets the slice in flight finish, appends a ``pending`` snapshot
      for every in-flight job it still owns, hands them back to the
      queue, and exits cleanly.

    The run loop ends when every spec in the spool is terminal —
    ``done``, ``failed``, or ``quarantined`` — so N servers over one
    spool all exit together once the fleet's work is complete.
    """

    def __init__(
        self,
        spool: str,
        *,
        server_id: str | None = None,
        workers: int = 1,
        steal_leases: bool = False,
        quantum_tasks: int = DEFAULT_QUANTUM_TASKS,
        lease_ttl_seconds: float = DEFAULT_LEASE_TTL,
        claim_interval_seconds: float = DEFAULT_CLAIM_INTERVAL,
        max_job_retries: int = DEFAULT_MAX_JOB_RETRIES,
        retry_backoff_seconds: float = DEFAULT_RETRY_BACKOFF,
        context: RunContext | None = None,
        fault_plan: ServiceFaultPlan | None = None,
        drain: Any = None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        store: ResultStore | None = None,
        ledger: JobLedger | None = None,
    ) -> None:
        self.spool = spool
        self.server_id = server_id or f"serve-{os.getpid()}"
        self.workers = workers
        self.steal_leases = steal_leases
        self.quantum_tasks = quantum_tasks
        self.lease_ttl_seconds = lease_ttl_seconds
        self.claim_interval_seconds = claim_interval_seconds
        self.max_job_retries = max_job_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.context = context
        self.fault_plan = fault_plan
        self.drain = drain  #: object with ``is_set()`` or zero-arg callable
        self.clock = clock
        self.sleep = sleep
        self.store = store or ResultStore(_spool_dir(spool, "results"))
        self.ledger = ledger or JobLedger(
            _spool_dir(spool, "state"), clock=clock
        )
        #: A steal displaces only owners silent since this moment.
        self.started_at = clock()
        # Claim telemetry (takeovers and retries surface as events).
        self.jobs_claimed = 0
        self.quarantined: list[str] = []
        self._missed_heartbeats: set[tuple[str, float]] = set()
        self._finalized: set[str] = set()
        self._drain_local = False
        self._scheduler: Scheduler | None = None

    # -- plumbing ------------------------------------------------------

    def _emit(self, event: Any) -> None:
        if self.context is not None:
            self.context.emit(event)

    def request_drain(self) -> None:
        """Begin a graceful drain (signal-handler safe: sets flags only)."""
        self._drain_local = True
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler.request_drain()

    def _drain_requested(self) -> bool:
        if self._drain_local:
            return True
        probe = self.drain
        if probe is None:
            return False
        if hasattr(probe, "is_set"):
            return bool(probe.is_set())
        return bool(probe())

    def _backoff(self, crashes: int) -> float:
        """Extra takeover delay earned by prior crashes.

        The first takeover of a dead server's job waits only the TTL +
        jitter (a server crash is not the job's fault); from the second
        crash on, the job itself is suspect and each further restart
        doubles the wait: ``base * 2**(crashes - 1)``.
        """
        if crashes <= 0:
            return 0.0
        return self.retry_backoff_seconds * (2.0 ** (crashes - 1))

    # -- the claim scan ------------------------------------------------

    def _may_take_over(
        self, job_id: str, record: JobRecord, emit: Callable[[Any], None]
    ) -> bool:
        """May this server displace the record's foreign owner now?

        A live owner yields only to an operator steal, and only if it
        has not renewed since this server started: steals are for
        servers known dead, so two stealing servers never trade a job.
        An expired owner is a missed heartbeat, reported once per expiry
        to *emit*; takeover then waits a deterministic per-(server, job)
        jitter plus the crash backoff.
        """
        now = self.clock()
        if not record.expired(now):
            return self.steal_leases and record.renewed_at <= self.started_at
        key = (job_id, record.renewed_at)
        if key not in self._missed_heartbeats:
            self._missed_heartbeats.add(key)
            emit(
                HeartbeatMissed(
                    job_id=job_id,
                    owner=record.owner,
                    age_seconds=now - record.renewed_at,
                    ttl_seconds=record.ttl_seconds,
                )
            )
        if self.steal_leases:
            return True
        eligible_at = (
            record.renewed_at
            + record.ttl_seconds
            + takeover_delay(self.server_id, job_id, record.ttl_seconds)
            + self._backoff(record.crashes)
        )
        return now >= eligible_at

    def _failure(self, reason: str, detail: str, **extra: Any) -> dict:
        """A structured ``last_failure`` for a job's record."""
        return dict(reason=reason, detail=detail, at=self.clock(), **extra)

    def _claim_one(self, spec: dict[str, Any], scheduler: Scheduler) -> bool:
        """Claim one job in a single critical section on its record.

        Under the record's lock the claim reads the record once and
        decides, in order: a terminal record is left alone; a terminal
        snapshot in the results file is reconciled into the record; a
        live foreign owner is left alone unless this server steals and
        the owner has been silent since it started; an expired one is
        waited out (:meth:`_may_take_over`); a takeover
        whose retry budget is spent is quarantined; otherwise the spec is
        checked and the record becomes ``running`` under this server, or
        ``failed`` on a bad spec.  The record is written once; events,
        verdict snapshots, the job's build (which parses its checkpoint)
        and the submission follow the lock's release.
        """
        job_id = str(spec["job_id"])
        if job_id in scheduler.jobs:
            return False  # already ours (queued, active, or finished here)
        lease = CheckpointLease(
            self.ledger,
            job_id,
            self.server_id,
            self.lease_ttl_seconds,
            clock=self.clock,
        )
        events: list[Any] = []
        verdicts: list[dict[str, Any]] = []

        def decide(record: JobRecord) -> JobRecord | None:
            if record.state in TERMINAL_STATES:
                return None
            latest = self.store.latest(job_id) or {}
            if latest.get("state") in _RECONCILED:
                state = _RECONCILED[latest["state"]]
                return dataclasses.replace(record, state=state, owner=None)
            previous = record.owner
            if previous == self.server_id:
                previous = None  # our own stale claim: not a takeover
            attempts, crashes = record.attempts + 1, record.crashes
            failure = record.last_failure
            if previous is not None:
                if not self._may_take_over(job_id, record, events.append):
                    return None
                crashes += 1
                events.append(
                    LeaseStolen(
                        job_id=job_id, path=lease.path, previous_owner=previous
                    )
                )
                if crashes > self.max_job_retries:
                    detail = (
                        f"job killed its server {crashes} time(s); retry "
                        f"budget of {self.max_job_retries} exhausted (last "
                        f"owner {previous!r})"
                    )
                    verdicts.append(
                        {
                            "job_id": job_id,
                            "state": "quarantined",
                            "best_expression": latest.get("best_expression"),
                            "best_distance": latest.get("best_distance"),
                            "iterations_done": latest.get(
                                "iterations_done", 0
                            ),
                            "attempts": record.attempts,
                            "crashes": crashes,
                            "error": detail,
                        }
                    )
                    events.append(
                        JobQuarantined(
                            job_id=job_id,
                            server=self.server_id,
                            attempts=record.attempts,
                            crashes=crashes,
                            reason="retry-budget-exhausted",
                            detail=detail,
                        )
                    )
                    self.quarantined.append(job_id)
                    return dataclasses.replace(
                        record,
                        state="quarantined",
                        owner=None,
                        crashes=crashes,
                        last_failure=self._failure(
                            "retry-budget-exhausted",
                            detail,
                            previous_owner=previous,
                        ),
                    )
                age = self.clock() - record.renewed_at
                failure = self._failure(
                    "server-died",
                    f"owner {previous!r} stopped heartbeating; taken over by "
                    f"{self.server_id!r} {age:.1f}s after its last renewal",
                    previous_owner=previous,
                    crashes=crashes,
                )
                events.append(
                    JobTakenOver(
                        job_id=job_id,
                        server=self.server_id,
                        previous_owner=previous,
                        attempts=attempts,
                    )
                )
                events.append(
                    JobRetried(
                        job_id=job_id,
                        server=self.server_id,
                        attempts=attempts,
                        crashes=crashes,
                        backoff_seconds=self._backoff(record.crashes),
                    )
                )
            record = dataclasses.replace(
                record, attempts=attempts, crashes=crashes
            )
            try:
                _job_inputs(spec)
            except SynthesisError as exc:
                verdicts.append(
                    {"job_id": job_id, "state": "failed", "error": str(exc)}
                )
                events.append(JobFailed(job_id=job_id, error=str(exc)))
                return dataclasses.replace(
                    record,
                    state="failed",
                    owner=None,
                    last_failure=self._failure("bad-spec", str(exc)),
                )
            return lease.stamp(
                dataclasses.replace(
                    record, state="running", last_failure=failure
                )
            )

        lease.acquire(decide)
        for snapshot in verdicts:
            self.store.record(snapshot)
        for event in events:
            self._emit(event)
        if not lease.held:
            return False
        job = build_job(self.spool, spec, self.context, workers=self.workers)
        job.lease = lease
        scheduler.submit(job)
        self.jobs_claimed += 1
        return True

    def _claim_pass(self, scheduler: Scheduler) -> None:
        specs = sorted(
            load_specs(self.spool),
            key=lambda s: (-int(s.get("priority", 0) or 0), str(s["job_id"])),
        )
        for spec in specs:
            if self._drain_requested():
                break
            self._claim_one(spec, scheduler)

    # -- bookkeeping between scheduler turns ---------------------------

    def _sync_finished(self, scheduler: Scheduler) -> None:
        for job_id in list(scheduler.completed):
            if job_id not in self._finalized:
                self._finalized.add(job_id)
                self.ledger.transition(job_id, "done", owner=None)
        for job_id, job in list(scheduler.failed.items()):
            if job_id not in self._finalized:
                self._finalized.add(job_id)
                self.ledger.transition(
                    job_id,
                    "failed",
                    owner=None,
                    last_failure=self._failure("job-error", job.error or ""),
                )

    def _spool_settled(self) -> bool:
        """True once every spec in the spool is terminal fleet-wide."""
        return all(
            self.ledger.read(str(spec["job_id"])).state in TERMINAL_STATES
            for spec in load_specs(self.spool)
        )

    def _drain_now(self, scheduler: Scheduler) -> None:
        released = []
        for job in scheduler.active_jobs:
            if not job.lease.renew():
                continue  # a peer took it: its snapshots are not ours
            snapshot = job.snapshot()
            snapshot["state"] = "pending"  # requeued, not lost
            self.store.record(snapshot)
            job.lease.release("queued")
            released.append(job)
        self._emit(
            ServerDrained(
                server=self.server_id,
                jobs_released=len(released),
                slices_dispatched=scheduler.slices_dispatched,
            )
        )

    # -- the run loop --------------------------------------------------

    def run(self) -> dict[str, dict[str, Any]]:
        """Serve until the spool settles (or a drain is requested);
        returns the store's final snapshots (job id -> snapshot)."""
        self._emit(
            ServerStarted(
                server=self.server_id, spool=self.spool, workers=self.workers
            )
        )
        scheduler = Scheduler(
            workers=self.workers,
            context=self.context,
            store=self.store,
            quantum_tasks=self.quantum_tasks,
            service_fault_plan=self.fault_plan,
        )
        self._scheduler = scheduler
        try:
            next_scan = float("-inf")
            while True:
                if self._drain_requested():
                    self._drain_now(scheduler)
                    break
                if self.clock() >= next_scan:
                    self._claim_pass(scheduler)
                    next_scan = self.clock() + self.claim_interval_seconds
                progressed = scheduler.step()
                self._sync_finished(scheduler)
                if self._drain_requested():
                    self._drain_now(scheduler)
                    break
                if progressed:
                    continue
                if self._spool_settled():
                    break
                # Idle: nothing claimable yet (peers own the rest, or a
                # backoff window is open).  Sleep one claim interval and
                # rescan — this is also how concurrent submits and newly
                # expired peer leases are picked up.
                self.sleep(self.claim_interval_seconds)
                next_scan = float("-inf")
        finally:
            self._scheduler = None
            scheduler.close()
        return self.store.all_latest()


def serve(spool: str, **options: Any) -> dict[str, dict[str, Any]]:
    """Run one fleet server over *spool* until every job is terminal;
    returns the final snapshots (job id -> result-store snapshot).

    *options* are :class:`FleetServer`'s keywords.
    """
    return FleetServer(spool, **options).run()


def fleet_status(
    spool: str, *, clock: Callable[[], float] = time.time
) -> dict[str, Any]:
    """Read-only view of a spool's state machine (``repro fleet-status``).

    Reads specs, job records and result snapshots without taking a lock
    or claiming anything, so it is safe to run next to a live fleet.
    """
    store = ResultStore(_spool_dir(spool, "results"))
    ledger = JobLedger(_spool_dir(spool, "state"), clock=clock)
    now = clock()
    jobs: dict[str, Any] = {}
    servers: dict[str, dict[str, Any]] = {}
    states: dict[str, int] = {}
    for spec in load_specs(spool):
        job_id = str(spec["job_id"])
        record = ledger.read(job_id)
        snapshot = store.latest(job_id) or {}
        lease_info = None
        if record.owner is not None:
            expired = record.expired(now)
            lease_info = {
                "owner": record.owner,
                "age_seconds": max(0.0, now - record.renewed_at),
                "ttl_seconds": record.ttl_seconds,
                "expired": expired,
            }
            server = servers.setdefault(
                record.owner, {"jobs": [], "live": False}
            )
            server["jobs"].append(job_id)
            server["live"] = server["live"] or not expired
        states[record.state] = states.get(record.state, 0) + 1
        jobs[job_id] = {
            "state": record.state,
            "owner": record.owner,
            "attempts": record.attempts,
            "crashes": record.crashes,
            "priority": int(spec.get("priority", 0) or 0),
            "best_expression": snapshot.get("best_expression"),
            "best_distance": snapshot.get("best_distance"),
            "iterations_done": snapshot.get("iterations_done", 0),
            "last_failure": record.last_failure,
            "lease": lease_info,
        }
    return {"spool": spool, "jobs": jobs, "servers": servers, "states": states}
