"""Atomic JSONL checkpoints of refinement-loop state.

A synthesis run is hours of scoring whose *decisions* — which buckets
survived each top-k cut — compress to a few hundred bytes.  Everything
else about the loop is deterministic: the sketch stream enumerates in a
fixed order, working sets derive from ``(seed, iteration)``, and scores
are pure functions of (handler, segment).  So a checkpoint does not
persist sketches or scores at all; it records the decision log (the
:class:`~repro.synth.result.IterationRecord` per completed iteration)
plus the loop's scalar state, and resume *replays* the decisions against
a fresh bucket pool — draw the same targets, prune to the recorded
survivors — which reconstructs the exact pool state scoring left behind.
A killed run resumed this way converges to the same final ranking as an
uninterrupted one.

File format: JSON Lines, one complete checkpoint per line, newest last.
Every write rewrites the file through a temp-file + ``os.replace`` so a
kill mid-write can never produce a torn tail; the loader takes the last
line that parses, so even a hand-truncated file degrades to an older
checkpoint instead of an error.  A ``fingerprint`` of the run
configuration is stored and verified on resume — resuming with a
different DSL, seed, or schedule is refused rather than silently
diverging.

The module also holds the spool's :class:`JobRecord`: one atomically
replaced file per job carrying its state, owner, heartbeat and retry
accounting.  The :class:`CheckpointLease` that keeps two servers off
one checkpoint lives in that record, and every change to it is one
locked read-modify-write through :class:`JobLedger`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.runtime.supervise import Quarantined

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.synth.result import IterationRecord

__all__ = [
    "CHECKPOINT_VERSION",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_TAKEOVER_JITTER_FRACTION",
    "TERMINAL_STATES",
    "RefinementCheckpoint",
    "CheckpointWriter",
    "CheckpointLease",
    "JobLedger",
    "JobRecord",
    "load_checkpoint",
    "takeover_delay",
]

CHECKPOINT_VERSION = 1

#: Default seconds a lease stays exclusive without a renewal.  Renewals
#: happen at every dispatched wave slice (the scheduler's heartbeat), so
#: 30s distinguishes "scheduler mid-slice" from "scheduler gone" with a
#: wide margin.  A job running alone takes whole waves, so the TTL must
#: also exceed the longest wave of such a job.
DEFAULT_LEASE_TTL = 30.0

#: Largest fraction of the TTL a server's jittered takeover backoff may
#: add after a peer's lease expires.  Takeover therefore always begins
#: within ``(1 + fraction) * ttl`` of the dead peer's last heartbeat.
DEFAULT_TAKEOVER_JITTER_FRACTION = 0.25

#: Record states no server will ever claim again.
TERMINAL_STATES = frozenset({"done", "failed", "quarantined"})

#: Seconds after which an abandoned record lock (its holder died between
#: creating and removing it) is unilaterally cleaned up.  A critical
#: section reads the record and writes it once; a claim also reads the
#: job's results file (one short line per iteration boundary) and checks
#: its spec, but parses no checkpoint.  That is milliseconds, so
#: anything older is wreckage, not contention.
_STALE_LOCK_SECONDS = 5.0

#: Seconds between attempts while another holder has a record's lock.
_LOCK_POLL_SECONDS = 0.002


def takeover_delay(
    owner: str,
    job_id: str,
    ttl_seconds: float,
    *,
    max_fraction: float = DEFAULT_TAKEOVER_JITTER_FRACTION,
) -> float:
    """Deterministic per-(server, job) jitter before stealing an expired
    lease.

    When a server dies, every surviving peer notices the expiry on its
    next claim scan at the same moment; if all of them immediately raced
    to take over, N-1 would lose the race after burning a claim attempt
    (thundering herd).  Spreading takeovers by a stable hash of
    ``(owner, job_id)`` makes one server the de-facto first responder
    per job — different jobs elect different responders — while staying
    fully deterministic for tests (no RNG, no wall-clock seed).
    """
    digest = hashlib.sha256(
        f"{owner}\x00{job_id}".encode("utf-8")
    ).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(2**64)
    return ttl_seconds * max_fraction * fraction


@dataclass(frozen=True)
class RefinementCheckpoint:
    """Everything needed to resume a refinement loop at a boundary."""

    fingerprint: dict[str, Any]
    records: tuple  #: IterationRecord per completed iteration
    best_expression: str | None
    best_distance: float
    handlers_scored: int
    #: True when the loop's own stop condition (single bucket / stream
    #: exhausted) had already fired — resume skips straight to the
    #: exhaustive pass.
    loop_done: bool
    #: Schedule values for the *next* iteration (unchanged when
    #: ``loop_done``; the exhaustive pass reads ``next_segment_count``).
    next_samples: int
    next_keep: int
    next_segment_count: int
    quarantined: tuple[Quarantined, ...] = ()
    version: int = CHECKPOINT_VERSION


def _record_payload(record: "IterationRecord") -> dict[str, Any]:
    return {
        "index": record.index,
        "samples_per_bucket": record.samples_per_bucket,
        "segment_count": record.segment_count,
        "ranking": [[sorted(key), score] for key, score in record.ranking],
        "kept": [sorted(key) for key in record.kept],
        "handlers_scored": record.handlers_scored,
    }


def _record_from_payload(payload: dict[str, Any]) -> "IterationRecord":
    from repro.synth.result import IterationRecord

    return IterationRecord(
        index=int(payload["index"]),
        samples_per_bucket=int(payload["samples_per_bucket"]),
        segment_count=int(payload["segment_count"]),
        ranking=tuple(
            (frozenset(key), float(score))
            for key, score in payload["ranking"]
        ),
        kept=tuple(frozenset(key) for key in payload["kept"]),
        handlers_scored=int(payload["handlers_scored"]),
    )


def checkpoint_payload(checkpoint: RefinementCheckpoint) -> dict[str, Any]:
    """The checkpoint as one JSON-serializable dict (one JSONL line)."""
    return {
        "version": checkpoint.version,
        "fingerprint": checkpoint.fingerprint,
        "records": [_record_payload(r) for r in checkpoint.records],
        "best_expression": checkpoint.best_expression,
        "best_distance": (
            checkpoint.best_distance
            if checkpoint.best_distance == checkpoint.best_distance
            and abs(checkpoint.best_distance) != float("inf")
            else repr(checkpoint.best_distance)
        ),
        "handlers_scored": checkpoint.handlers_scored,
        "loop_done": checkpoint.loop_done,
        "next_samples": checkpoint.next_samples,
        "next_keep": checkpoint.next_keep,
        "next_segment_count": checkpoint.next_segment_count,
        "quarantined": [
            {"sketch": q.sketch, "reason": q.reason, "detail": q.detail}
            for q in checkpoint.quarantined
        ],
    }


def checkpoint_from_payload(payload: dict[str, Any]) -> RefinementCheckpoint:
    distance = payload["best_distance"]
    if isinstance(distance, str):  # "inf" / "-inf" / "nan" round-trip
        distance = float(distance)
    return RefinementCheckpoint(
        version=int(payload.get("version", CHECKPOINT_VERSION)),
        fingerprint=dict(payload["fingerprint"]),
        records=tuple(
            _record_from_payload(r) for r in payload["records"]
        ),
        best_expression=payload["best_expression"],
        best_distance=float(distance),
        handlers_scored=int(payload["handlers_scored"]),
        loop_done=bool(payload["loop_done"]),
        next_samples=int(payload["next_samples"]),
        next_keep=int(payload["next_keep"]),
        next_segment_count=int(payload["next_segment_count"]),
        quarantined=tuple(
            Quarantined(
                sketch=q["sketch"],
                reason=q["reason"],
                detail=q.get("detail", ""),
            )
            for q in payload.get("quarantined", [])
        ),
    )


class CheckpointWriter:
    """Appends checkpoints to a JSONL file, atomically.

    The whole file is rewritten through ``<path>.tmp`` + ``os.replace``
    on every write: checkpoint lines are tiny, and atomic replacement is
    the property that matters — a SIGKILL at any instant leaves either
    the previous complete file or the new complete file, never a torn
    line.  An existing file at *path* is extended, so ``--checkpoint X
    --resume X`` keeps one continuous history across restarts.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lines: list[str] = []
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                self._lines = [
                    line.rstrip("\n") for line in handle if line.strip()
                ]
        self.writes = 0

    def write(self, checkpoint: RefinementCheckpoint) -> None:
        self._lines.append(
            json.dumps(checkpoint_payload(checkpoint), sort_keys=True)
        )
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write("\n".join(self._lines) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self.writes += 1


def load_checkpoint(path: str) -> RefinementCheckpoint | None:
    """The newest usable checkpoint in *path*, or ``None``.

    Scans every line and keeps the last one that parses and carries the
    current schema version, so a corrupt or truncated tail falls back to
    the previous boundary instead of failing the resume.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return None
    newest: RefinementCheckpoint | None = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            candidate = checkpoint_from_payload(payload)
        except (ValueError, KeyError, TypeError):
            continue
        if candidate.version == CHECKPOINT_VERSION:
            newest = candidate
    return newest


# ----------------------------------------------------------------------
# The job record: a spool job's one mutable coordination file.
#
# State, owner, heartbeat and retry accounting live together in
# ``state/<job_id>.json`` and change only through a locked
# read-modify-write.  The owner renews the heartbeat at every dispatched
# wave slice; once a dead owner's TTL lapses any successor may claim the
# job and resume it from its checkpoint — that is the whole restart
# story, no registry or coordinator involved.


@dataclass(frozen=True)
class JobRecord:
    """One job's record (``state/<job_id>.json``).

    ``attempts`` counts lifetime starts; ``crashes`` counts the subset
    of restarts forced by a dead owner (takeover after heartbeat loss or
    an operator steal) — only crashes spend the retry budget, so a
    graceful drain/requeue never pushes a healthy job toward quarantine.
    ``owner``, ``renewed_at`` and ``ttl_seconds`` are the job's lease,
    live while an owner is named and its heartbeat is younger than its
    TTL: a record without heartbeat fields holds no live lease.
    """

    job_id: str
    state: str = "queued"
    attempts: int = 0
    crashes: int = 0
    owner: str | None = None
    renewed_at: float = 0.0
    ttl_seconds: float = 0.0
    updated_at: float = 0.0
    last_failure: dict[str, Any] | None = None

    def expired(self, now: float) -> bool:
        """Has the owner's heartbeat lapsed?"""
        return now - self.renewed_at >= self.ttl_seconds


class JobLedger:
    """Atomic per-job records under a spool's ``state/`` dir.

    :meth:`write` is the only function that writes a record: a
    per-pid-and-thread temp file, ``fsync``, then ``os.replace``, so a
    SIGKILL at any instant leaves either the old record or the new one,
    and readers need no lock to see a whole record.  Every change is one
    :meth:`update`, which holds the job's ``<job_id>.lock`` sentinel
    (``O_CREAT | O_EXCL``) across one read and one write.  A missing or
    corrupt record reads as a fresh ``queued`` entry — the ledger
    degrades toward re-running work, never toward losing it.
    """

    def __init__(
        self, root: str, *, clock: Callable[[], float] = time.time
    ) -> None:
        self.root = root
        self._clock = clock
        os.makedirs(root, exist_ok=True)

    def path(self, job_id: str) -> str:
        return os.path.join(self.root, f"{job_id}.json")

    def read(self, job_id: str) -> JobRecord:
        try:
            with open(self.path(job_id), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            failure = payload.get("last_failure")
            return JobRecord(
                job_id=job_id,
                state=str(payload.get("state", "queued")),
                attempts=int(payload.get("attempts", 0)),
                crashes=int(payload.get("crashes", 0)),
                owner=payload.get("owner"),
                renewed_at=float(payload.get("renewed_at", 0.0)),
                ttl_seconds=float(payload.get("ttl_seconds", 0.0)),
                updated_at=float(payload.get("updated_at", 0.0)),
                last_failure=failure if isinstance(failure, dict) else None,
            )
        except (OSError, ValueError, TypeError, AttributeError):
            return JobRecord(job_id=job_id)

    def write(self, record: JobRecord) -> JobRecord:
        record = replace(record, updated_at=self._clock())
        path = self.path(record.job_id)
        # Servers may share a process (threads): the pid alone would let
        # two writers replace each other's temp file.
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(asdict(record), handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return record

    @contextmanager
    def _locked(self, job_id: str) -> Iterator[None]:
        """Hold the job's lock, waiting while another holder has it."""
        lock = os.path.join(self.root, f"{job_id}.lock")
        while True:
            try:
                os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                break
            except FileExistsError:
                with suppress(OSError):  # released while we looked
                    age = time.time() - os.path.getmtime(lock)
                    if age > _STALE_LOCK_SECONDS:  # its holder died
                        os.remove(lock)
                time.sleep(_LOCK_POLL_SECONDS)
        try:
            yield
        finally:
            with suppress(OSError):
                os.remove(lock)

    def update(
        self, job_id: str, change: Callable[[JobRecord], JobRecord | None]
    ) -> JobRecord | None:
        """Under the job's lock, read its record and write
        ``change(record)`` unless that is ``None``; returns what was
        written."""
        with self._locked(job_id):
            changed = change(self.read(job_id))
            return None if changed is None else self.write(changed)

    def transition(self, job_id: str, state: str, **changes: Any) -> JobRecord:
        """Move the record into *state* (plus *changes*)."""
        return self.update(
            job_id, lambda record: replace(record, state=state, **changes)
        )


class CheckpointLease:
    """Expiring exclusive ownership of one job, held in its record.

    :meth:`acquire` is a claim's one critical section, :meth:`renew` the
    heartbeat and :meth:`release` the hand-back, each one
    :meth:`JobLedger.update`.  A holder whose record names another owner
    has lost the job: ``renew`` returns ``False`` and writes nothing, so
    a stolen lease stays stolen, and ``release`` leaves the new owner be.
    """

    def __init__(
        self,
        ledger: JobLedger,
        job_id: str,
        owner: str,
        ttl_seconds: float = DEFAULT_LEASE_TTL,
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.ledger = ledger
        self.job_id = job_id
        self.owner = owner
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self.held = False

    @property
    def path(self) -> str:
        """The record the lease lives in."""
        return self.ledger.path(self.job_id)

    def stamp(self, record: JobRecord) -> JobRecord:
        """*record* owned by this lease, its heartbeat taken now."""
        return replace(
            record,
            owner=self.owner,
            renewed_at=self._clock(),
            ttl_seconds=self.ttl_seconds,
        )

    def acquire(self, decide: Callable[[JobRecord], JobRecord | None]) -> bool:
        """Take the lease in one locked read-modify-write of the record;
        returns whether the record now names this owner.

        *decide* maps the record as read to the record to write, or to
        ``None`` to leave it alone: the caller's claim policy (a fleet
        server's, see :mod:`repro.service`).
        """
        written = self.ledger.update(self.job_id, decide)
        self.held = written is not None and written.owner == self.owner
        return self.held

    def renew(self) -> bool:
        """Refresh the heartbeat.  ``False``, with nothing written, once
        the record names another owner or is terminal."""

        def beat(record: JobRecord) -> JobRecord | None:
            if record.owner != self.owner or record.state in TERMINAL_STATES:
                return None
            return self.stamp(record)

        if self.held:
            self.held = self.ledger.update(self.job_id, beat) is not None
        return self.held

    def release(self, state: str | None = None) -> None:
        """Clear the owner, and move the record to *state* if given,
        while the record still names this owner (idempotent)."""

        def hand_back(record: JobRecord) -> JobRecord | None:
            if record.owner != self.owner:
                return None  # a peer took it: its claim is not ours to free
            return replace(record, owner=None, state=state or record.state)

        if self.held:
            self.held = False
            self.ledger.update(self.job_id, hand_back)
