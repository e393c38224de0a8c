"""The wave protocol between a re-entrant synthesis core and its driver.

The refinement loop used to call its executor directly, which welded one
search to one executor to one process.  Splitting the loop into a
generator (``synthesize_core``) that *yields* these request objects and
receives the matching replies turns every executor interaction into an
explicit, schedulable message:

* the blocking wrapper (:func:`repro.synth.refinement.drive`) answers
  each request against a private executor, built at the first wave from
  the run's config, reproducing the classic one-run behavior bit for
  bit;
* the :class:`~repro.runtime.scheduler.Scheduler` answers requests from
  many cores against ONE shared executor, slicing each
  :class:`WaveRequest` at group (bucket) granularity so jobs interleave
  fairly — sound because group incumbents never cross groups and group
  minima are exact (see ``docs/SERVICE.md``).

Request flow within one run::

    WaveRequest      -> WaveReply    score these groups on these segments
    ProgressReport   -> (no reply)   anytime-answer beacon at checkpoints

The protocol deliberately knows nothing about buckets, DSLs, or traces:
``groups`` are opaque sketch sequences and ``segments`` an opaque working
set, so this module (and the scheduler built on it) depends only on the
runtime layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.runtime.events import ScoringStats
from repro.runtime.supervise import Quarantined

__all__ = ["WaveRequest", "WaveReply", "ProgressReport"]


@dataclass(frozen=True)
class WaveRequest:
    """Score *groups* against *segments* with *scorer*; reply with a
    :class:`WaveReply`.

    A request maps onto one executor ``score_grouped`` call.  A driver
    may split it into several ``score_grouped`` calls at group
    boundaries — warm-start incumbents are per-group and group minima
    are exact, so any group-aligned slicing returns bit-identical
    rankings, checkpoints, and best handlers.  Every sketch of every
    group is scored; the core checks its time budget only between
    waves.
    """

    scorer: Any  #: repro.synth.scoring.Scorer, the same one every wave
    groups: tuple  #: tuple of sketch sequences, one per bucket
    segments: Sequence  #: the working set (shared trace segments)
    phase: str  #: "refinement" | "exhaustive"


@dataclass(frozen=True)
class WaveReply:
    """Per-group results, positionally aligned with the request's
    groups, plus the executor's state after the wave.

    ``quarantined`` and ``pool_rebuilds`` are the run's cumulative
    counts (the checkpoint writer persists the quarantine log at
    iteration boundaries).  ``scoring`` is the executor's cumulative
    counters; a scheduler, whose executor is shared by every job, leaves
    it ``None`` and the run log carries no counters.
    """

    grouped: tuple  #: tuple[list[ScoredHandler], ...]
    quarantined: tuple[Quarantined, ...] = ()
    pool_rebuilds: int = 0
    degraded: bool = False
    scoring: ScoringStats | None = None


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
