"""The wave protocol between a re-entrant synthesis core and its driver.

The refinement loop used to call its executor directly, which welded one
search to one executor to one process.  Splitting the loop into a
generator (``synthesize_core``) that *yields* these request objects and
receives the matching replies turns every executor interaction into an
explicit, schedulable message:

* the blocking wrapper (:func:`repro.synth.refinement.drive`) answers
  each request against a private executor, reproducing the classic
  one-run behavior bit for bit;
* the :class:`~repro.runtime.scheduler.Scheduler` answers requests from
  many cores against ONE shared executor, slicing each
  :class:`WaveRequest` at group (bucket) granularity so jobs interleave
  fairly — sound because group incumbents never cross groups and group
  minima are exact (see ``docs/SERVICE.md``).

Request flow, in order of appearance within one run::

    ScorerReady      -> (no reply)   driver binds/adopts an executor
    WaveRequest      -> WaveReply    score these groups on these segments
    StatsRequest     -> ExecutorSnapshot   telemetry, read in the parent
    ProgressReport   -> (no reply)   anytime-answer beacon at checkpoints

The protocol deliberately knows nothing about buckets, DSLs, or traces:
``groups`` are opaque sketch sequences and ``segments`` an opaque working
set, so this module (and the scheduler built on it) depends only on the
runtime layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.runtime.events import CacheStats, ScoringStats
from repro.runtime.supervise import Quarantined

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.runtime.context import RunContext
    from repro.runtime.faults import FaultPlan

__all__ = [
    "ScorerReady",
    "WaveRequest",
    "WaveReply",
    "StatsRequest",
    "ExecutorSnapshot",
    "ProgressReport",
]


@dataclass(frozen=True)
class ScorerReady:
    """First request out of a core: the scorer this run needs bound to an
    executor.

    The blocking wrapper answers by creating a private executor with
    exactly these knobs; a scheduler records the scorer and adopts it
    onto its shared executor before each of the job's dispatches.  No
    reply value is expected.
    """

    scorer: Any  #: repro.synth.scoring.Scorer
    workers: int
    max_pool_rebuilds: int
    watchdog_seconds: float | None
    fault_plan: "FaultPlan | None"
    context: "RunContext"


@dataclass(frozen=True)
class WaveRequest:
    """Score *groups* against *segments*; reply with a :class:`WaveReply`.

    A request maps onto one executor ``score_grouped`` call.  A driver
    may split it into several ``score_grouped`` calls at group
    boundaries — warm-start incumbents are per-group and group minima
    are exact, so any group-aligned slicing returns bit-identical
    rankings, checkpoints, and best handlers (``min_results`` is a
    per-group guarantee and carries into every slice unchanged).
    """

    groups: tuple  #: tuple of sketch sequences, one per bucket
    segments: Sequence  #: the working set (shared trace segments)
    deadline: float | None
    min_results: int
    phase: str  #: "refinement" | "exhaustive"

    @property
    def tasks(self) -> int:
        """Flattened task count (what one dispatch carries)."""
        return sum(len(group) for group in self.groups)


@dataclass(frozen=True)
class WaveReply:
    """Per-group result prefixes, positionally aligned with the request's
    groups, plus the run's cumulative quarantine log (the checkpoint
    writer persists it at iteration boundaries)."""

    grouped: tuple  #: tuple[list[ScoredHandler], ...]
    quarantined: tuple[Quarantined, ...] = ()


@dataclass(frozen=True)
class StatsRequest:
    """Ask for executor telemetry; reply with :class:`ExecutorSnapshot`.

    The blocking wrapper always answers with real cache/scoring
    snapshots (read in the parent, no pool round trip: worker counters
    ride back on chunk results); a scheduler may answer with ``None``
    for both — executor counters are fleet-wide there, not per-job — and
    the core then simply emits no stats events for that boundary.
    """

    final: bool = False


@dataclass(frozen=True)
class ExecutorSnapshot:
    """Reply to :class:`StatsRequest`."""

    cache: CacheStats | None
    scoring: ScoringStats | None
    #: Cumulative quarantine log attributed to THIS run/job.
    quarantined: tuple[Quarantined, ...]
    #: Pool rebuilds attributed to THIS run/job.
    pool_rebuilds: int
    degraded: bool


@dataclass(frozen=True)
class ProgressReport:
    """Anytime-answer beacon, yielded after every checkpoint boundary.

    No reply is expected.  The blocking wrapper ignores it; a scheduler
    uses it to refresh the job's result-store entry, renew its
    checkpoint lease, and emit a ``job_progress`` event.
    """

    iteration: int
    best_expression: str | None
    best_distance: float
    handlers_scored: int
    phase: str = "refinement"
