"""Scoring executors: the shared execution substrate for synthesis.

The paper distributes candidate scoring with Ray across a cluster (§5);
locally the same embarrassing parallelism maps onto a process pool.  The
pre-runtime code forked a fresh ``ProcessPoolExecutor`` — and re-shipped
the whole segment working set — *per bucket per iteration*; here the
substrate is explicit, and every wave goes through one call,
``score_grouped``:

:class:`SerialExecutor`
    scores in the calling process (deterministic, zero overhead; the
    default everywhere).  It is also the base class: the scorer,
    quarantine log, wave telemetry and stats assembly live here once.

:class:`PooledExecutor`
    creates the process pool **once per synthesis run** and reaches its
    workers through one message only, the scoring chunk.  Each chunk
    carries the wave's scorer config and the handle of a shared-memory
    plane holding the segment working set (:mod:`repro.runtime.shm`): a
    worker rebuilds its scorer only when the config differs from the one
    it holds, and attaches a plane only when the handle names a new one.
    Each result carries the chunk's counter deltas beside its outcomes;
    the parent adds them to one running total, so ``stats()`` costs no
    round trip.  The plane is the only way segments reach workers, which
    start by ``fork`` where the host has it and by ``spawn`` otherwise.
    When no plane can be built for a working set, the executor degrades
    to in-process scoring, as it does for a pool it cannot keep alive.

Both run the same task routine, :func:`_score_tasks`: a pool worker runs
it over one chunk of a wave, and every in-process wave (the serial
executor, a pooled executor's sub-:data:`MIN_PARALLEL_SKETCHES` waves,
and a degraded pool) runs it over the whole wave.  ``workers=1`` is the
code a pool worker runs, only in-process.

Both enforce a wall-clock ``deadline`` *inside* a scoring wave: the
in-process loop checks it between sketches, the pooled path bounds how
long it waits on each future and cancels the rest, so a single large
bucket can no longer overshoot ``time_budget_seconds`` unboundedly.
``min_results`` sketches per group are always scored even past the
deadline (the refinement loop needs every live bucket to receive at
least one score to produce a ranking).

Fault tolerance (``docs/RESILIENCE.md``) is layered on top:

* **Quarantine** — a candidate that raises, hangs past the per-sketch
  ``watchdog_seconds``, or crashes its worker is assigned
  :data:`~repro.runtime.supervise.WORST_DISTANCE` and recorded on the
  executor's ``quarantined`` list instead of killing the run.  In
  workers the watchdog is an in-process SIGALRM, so even the pool stays
  healthy through a hang; the parent keeps a generous backstop timeout
  for hangs the alarm cannot interrupt.
* **Supervision** — ``PooledExecutor.score_grouped`` survives
  ``BrokenProcessPool``: it keeps the contiguous prefix of completed
  results, rebuilds the pool with exponential backoff, re-scores only
  the not-yet-completed suffix, blames (and, on a second strike,
  quarantines) the sketch at the head of the suffix, and degrades
  gracefully to serial scoring after ``max_pool_rebuilds`` consecutive
  failures, or at once when the working set gets no plane.  A chunk
  that raises outside the task guard (a plane the worker cannot attach,
  say) is supervised like a crash that blames no sketch — a wedged pool
  never propagates out of the executor.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.runtime.context import RunContext
from repro.runtime.events import (
    DegradedToSerial,
    PoolRebuilt,
    PoolSpawned,
    ScoringStats,
    SegmentsPrimed,
    SketchQuarantined,
    WaveDispatched,
    WorkerCrashed,
)
from repro.runtime.faults import FaultPlan, apply_sketch_faults
from repro.runtime.shm import (
    PlaneHandle,
    SegmentPlane,
    attach_plane,
    plane_segments,
)
from repro.runtime.supervise import (
    WORST_DISTANCE,
    Quarantined,
    SketchTimeout,
    SupervisionPolicy,
    Supervisor,
    watchdog,
)

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.synth.scoring import ScoredHandler, Scorer
    from repro.synth.sketch import Sketch
    from repro.trace.model import TraceSegment

__all__ = [
    "SerialExecutor",
    "PooledExecutor",
    "make_executor",
    "derive_chunksize",
    "wave_order",
]

#: Waves smaller than this never leave the calling process: the IPC cost
#: of shipping a task exceeds scoring it inline.  Fused waves apply this
#: to the *flattened* task count — many tiny buckets fused together are
#: exactly the waves worth shipping to the pool.
MIN_PARALLEL_SKETCHES = 4

#: In-flight cap per worker for fused grouped waves: deep enough to hide
#: result-consumption latency, shallow enough that the incumbent bounds
#: piggybacked on later submissions stay warm.
WAVE_WINDOW_PER_WORKER = 2

#: Pool breaks tolerated with the same sketch at the head of the
#: incomplete suffix before that sketch is quarantined as the culprit.
_CRASH_STRIKES = 2

#: Planes a :class:`PooledExecutor` keeps alive at once.  A scheduler
#: multiplexing jobs alternates working sets wave by wave; the LRU keeps
#: each live job's plane mapped instead of rebuilding it per switch.
_PLANE_LRU_ENTRIES = 8


def wave_order(
    sizes: Sequence[int], min_results: int, run_length: int = 1
) -> list[tuple[int, int]]:
    """Flat dispatch order for one fused wave, as ``(group, member)``
    pairs.

    The first ``max(1, min_results)`` rounds are strict round-robin —
    every group's leaders up front, covering the deadline-mandatory
    prefix (the first ``sum(min(size, m))`` tasks hold every group's
    first ``m`` members) and seeding each group's incumbent bound as
    early as possible — then the remainder round-robins in *runs* of
    ``run_length`` consecutive same-group members.  With
    ``run_length=1`` this is plain round-robin (the serial executor's
    choice: incumbents refresh every task); pooled waves set it to their
    submission chunk size, so each chunk is a same-group run that
    tightens its bound internally at in-process freshness, while
    round-robin over runs keeps every group's pipeline shallow enough
    that the parent's cross-chunk updates stay warm too.  Any prefix of
    the flat order still maps to per-group prefixes, which is what
    positional scatter and crash-retry prefix retention need.
    """
    rounds = max(1, min_results)
    order = [
        (group, rank)
        for rank in range(rounds)
        for group, size in enumerate(sizes)
        if rank < size
    ]
    step = max(1, run_length)
    cursors = [min(rounds, size) for size in sizes]
    remaining = sum(size - cursor for size, cursor in zip(sizes, cursors))
    while remaining:
        for group, size in enumerate(sizes):
            take = min(step, size - cursors[group])
            for _ in range(take):
                order.append((group, cursors[group]))
                cursors[group] += 1
            remaining -= take
    return order


def _scatter(
    order: Sequence[tuple[int, int]],
    flat: Sequence["ScoredHandler"],
    group_count: int,
) -> list[list["ScoredHandler"]]:
    """Route a flat (possibly cut-short) result prefix back per group.

    The wave order preserves member order within each group, so
    appending in flat order rebuilds positionally-aligned result
    prefixes, one per group.
    """
    grouped: list[list[ScoredHandler]] = [[] for _ in range(group_count)]
    for (group, _), scored in zip(order, flat):
        grouped[group].append(scored)
    return grouped


@dataclass
class _WaveTelemetry:
    """Cumulative fused-wave counters an executor carries for the run."""

    fused_waves: int = 0
    fused_tasks: int = 0
    peak_in_flight: int = 0
    occupancy_sum: float = 0.0
    occupancy_samples: int = 0

    def note_occupancy(self, value: float) -> None:
        self.occupancy_sum += value
        self.occupancy_samples += 1

    @property
    def mean_occupancy(self) -> float:
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_sum / self.occupancy_samples


def derive_chunksize(tasks: int, workers: int) -> int:
    """Chunk size for a pooled wave: ~4 chunks per worker.

    A fixed chunk size (the old code hardcoded 8) serializes small waves
    onto one worker: 10 tasks in chunks of 8 is two chunks, so at most
    two workers ever run.  Deriving it from the wave keeps every worker
    busy while still amortizing IPC on large waves.
    """
    if tasks <= 0 or workers <= 0:
        return 1
    return max(1, -(-tasks // (workers * 4)))


#: Zero value of a scorer's counters as the executors add them up:
#: ``ScoringCounters.as_tuple()``, its last slot the float
#: ``envelope_precompute_ms``.  Pool chunks report their deltas in this
#: shape.
_COUNTER_ZEROS: tuple = (0, 0, 0, 0, 0, 0, 0.0)


def _scorer_counts(scorer: "Scorer | None") -> tuple:
    """*scorer*'s cumulative counters, shaped like :data:`_COUNTER_ZEROS`."""
    if scorer is None:
        return _COUNTER_ZEROS
    return scorer.counters.as_tuple()


@dataclass(frozen=True)
class _WorkerFailure:
    """Picklable marker the task routine returns instead of raising.

    Keeping candidate failures *inside* the task result means one bad
    sketch never disturbs the pool machinery — the executor converts the
    marker into a quarantine record and a worst-case score.
    """

    sketch: str
    reason: str  # "timeout" | "exception"
    detail: str


def _score_tasks(
    scorer: "Scorer",
    tasks: "Sequence[tuple[int, Sketch]]",
    segments: "Sequence[TraceSegment]",
    incumbents: "list[float] | dict[int, float]",
    *,
    watchdog_seconds: float | None,
    fault_plan: FaultPlan | None,
    in_worker: bool,
    generation: int = 0,
    deadline: float | None = None,
    exempt: int = 0,
) -> "tuple[list[ScoredHandler | _WorkerFailure], float]":
    """Score a run of ``(group, sketch)`` tasks against one scorer.

    Each sketch is bounded by ``incumbents[group]``, the best exact
    distance its group has so far, so the batched cascade starts warm;
    the incumbent only ever holds a distance an earlier group member
    achieved, so group minima stay exact.  Every task runs under the
    watchdog and the fault guard, and a failure comes back as a
    :class:`_WorkerFailure` marker.  Only in-process callers pass a
    *deadline*; the first *exempt* tasks (the mandatory prefix) are
    scored past it.  Returns the outcomes and the seconds spent.
    """
    started = time.perf_counter()
    outcomes: list[ScoredHandler | _WorkerFailure] = []
    for index, (group, sketch) in enumerate(tasks):
        if (
            deadline is not None
            and index >= exempt
            and time.perf_counter() >= deadline
        ):
            break
        incumbent = incumbents[group]
        text = str(sketch)
        try:
            with watchdog(watchdog_seconds):
                apply_sketch_faults(
                    fault_plan,
                    text,
                    in_worker=in_worker,
                    generation=generation,
                )
                outcome = scorer.score_sketch(
                    sketch,
                    segments,
                    bound=incumbent if math.isfinite(incumbent) else None,
                )
        except SketchTimeout:
            outcome = _WorkerFailure(
                text, "timeout", f"exceeded {watchdog_seconds:.3g}s watchdog"
            )
        except Exception as exc:
            outcome = _WorkerFailure(
                text, "exception", f"{type(exc).__name__}: {exc}"
            )
        else:
            if outcome.distance < incumbent:
                incumbents[group] = outcome.distance
        outcomes.append(outcome)
    return outcomes, time.perf_counter() - started


class SerialExecutor:
    """In-process scoring; the deterministic default and the base class
    every executor shares."""

    #: Crash-driven pool rebuilds (none in-process).
    pool_rebuilds = 0
    #: True once supervision has fallen back to serial scoring.
    degraded = False
    #: Peak bytes of live shared-memory planes (none in-process).
    shm_bytes = 0
    #: Running total of the counter deltas pool chunks reported (none
    #: in-process), shaped like :data:`_COUNTER_ZEROS`.
    _chunk_counts: tuple = _COUNTER_ZEROS

    def __init__(
        self,
        scorer: Scorer,
        context: RunContext | None = None,
        *,
        watchdog_seconds: float | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        self.scorer = scorer
        self.context = context
        self.watchdog_seconds = watchdog_seconds
        self.fault_plan = fault_plan
        self.quarantined: list[Quarantined] = []
        self._waves = _WaveTelemetry()
        #: Every scorer this executor has run waves for (a scheduler
        #: adopts one per job); stats aggregate over all of them.
        self._scorers: dict[int, Scorer] = {id(scorer): scorer}
        self._prepared_token: tuple[int, ...] | None = None

    def _emit(self, event) -> None:
        if self.context is not None:
            self.context.emit(event)

    def adopt_scorer(self, scorer: Scorer) -> None:
        """Point subsequent waves at *scorer* (scheduler job switches).

        Pool workers receive the new scorer's config with their next
        chunk and rebuild their scorer only when it differs from the one
        they hold.
        """
        self._scorers.setdefault(id(scorer), scorer)
        self.scorer = scorer

    def _prepare(self, segments: Sequence[TraceSegment]) -> None:
        """Once-per-working-set eager precompute (tables + envelopes)."""
        token = (id(self.scorer), *(id(segment) for segment in segments))
        if token != self._prepared_token:
            self.scorer.prepare_segments(segments)
            self._prepared_token = token

    def _quarantine(
        self, sketch: Sketch, reason: str, detail: str
    ) -> ScoredHandler:
        from repro.synth.scoring import ScoredHandler

        record = Quarantined(sketch=str(sketch), reason=reason, detail=detail)
        self.quarantined.append(record)
        self._emit(
            SketchQuarantined(sketch=record.sketch, reason=reason, detail=detail)
        )
        return ScoredHandler(sketch.expr, WORST_DISTANCE)

    def _resolve_outcome(self, sketch: Sketch, outcome) -> ScoredHandler:
        if isinstance(outcome, _WorkerFailure):
            return self._quarantine(sketch, outcome.reason, outcome.detail)
        return outcome

    # ------------------------------------------------------------------

    def _open_wave(
        self,
        groups: Sequence[Sequence[Sketch]],
        min_results: int,
        *,
        workers: int,
        run_length: int = 1,
    ) -> tuple[list[tuple[int, int]], list[tuple[int, Sketch]], int]:
        """Flatten *groups* into one wave's dispatch order, then count
        and announce the wave.  Returns the order, its tasks, and the
        deadline-exempt prefix length (``min_results`` per group)."""
        groups = [list(group) for group in groups]
        order = wave_order(
            [len(group) for group in groups], min_results, run_length
        )
        tasks = [(group, groups[group][rank]) for group, rank in order]
        if tasks:
            self._waves.fused_waves += 1
            self._waves.fused_tasks += len(tasks)
            self._emit(
                WaveDispatched(
                    groups=len(groups), tasks=len(tasks), workers=workers
                )
            )
        mandatory = sum(min(len(group), min_results) for group in groups)
        return order, tasks, mandatory

    def _note_inline_wave(self, occupancy: float) -> None:
        self._waves.peak_in_flight = max(self._waves.peak_in_flight, 1)
        self._waves.note_occupancy(occupancy)

    def _score_inline(
        self,
        tasks: Sequence[tuple[int, Sketch]],
        segments: Sequence[TraceSegment],
        deadline: float | None,
        exempt: int,
        incumbents: list[float],
    ) -> list[ScoredHandler]:
        """Run the task routine over *tasks* in this process."""
        self._prepare(segments)
        outcomes, _ = _score_tasks(
            self.scorer,
            tasks,
            segments,
            incumbents,
            watchdog_seconds=self.watchdog_seconds,
            fault_plan=self.fault_plan,
            in_worker=False,
            deadline=deadline,
            exempt=exempt,
        )
        return [
            self._resolve_outcome(sketch, outcome)
            for (_, sketch), outcome in zip(tasks, outcomes)
        ]

    def score_grouped(
        self,
        groups: Sequence[Sequence[Sketch]],
        segments: Sequence[TraceSegment],
        *,
        deadline: float | None = None,
        min_results: int = 0,
    ) -> list[list[ScoredHandler]]:
        """Score all *groups* as one fused wave; one result list per
        group, each positionally aligned with a prefix of its group
        (*min_results* members guaranteed **per group**, as far as each
        group's size allows).  Group minima are exact; individual
        distances may be ``inf`` when the group's incumbent bound proved
        them non-minimal."""
        order, tasks, mandatory = self._open_wave(
            groups, min_results, workers=1
        )
        if tasks:
            self._note_inline_wave(1.0)
        incumbents = [math.inf] * len(groups)
        flat = self._score_inline(
            tasks, segments, deadline, mandatory, incumbents
        )
        return _scatter(order, flat, len(groups))

    # ------------------------------------------------------------------

    def stats(self) -> ScoringStats:
        """Cumulative batched-scoring telemetry: every scorer this
        executor has run waves with, plus the counters pool chunks
        reported."""
        totals = list(self._chunk_counts)
        for scorer in self._scorers.values():
            for index, value in enumerate(_scorer_counts(scorer)):
                totals[index] += value
        waves = self._waves
        return ScoringStats(
            batched_waves=totals[0],
            lb_pruned=totals[1],
            dp_abandoned=totals[2],
            candidates_pruned=totals[3],
            warm_start_pruned=totals[4],
            fused_waves=waves.fused_waves,
            fused_tasks=waves.fused_tasks,
            peak_in_flight=waves.peak_in_flight,
            mean_occupancy=round(waves.mean_occupancy, 4),
            batched_dtw_sweeps=totals[5],
            envelope_precompute_ms=round(totals[6], 3),
            shm_bytes=self.shm_bytes,
        )

    def close(self, *, wait: bool = False) -> None:
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Worker-side state for PooledExecutor.  The initializer sets what is
# fixed for the pool's lifetime; the scorer and the plane follow the
# config and handle each chunk carries (see _score_chunk).

_worker_scorer: "Scorer | None" = None
#: The config the worker's scorer was built from.
_worker_config: dict | None = None
#: The working set, as views into the attached plane.
_worker_segments: "Sequence[TraceSegment] | None" = None
_worker_faults: FaultPlan | None = None
_worker_generation = 0
_worker_watchdog: float | None = None
#: The attached shared-memory plane, as ``(name, SharedMemory)``.
#: One attach per pool lifetime per plane; replaced (and the old
#: mapping closed) when a chunk names a different plane.
_worker_plane: "tuple[str, object] | None" = None


def _attach_plane_segments(handle: PlaneHandle) -> "list":
    """Attach *handle*'s plane in place of the attached one and
    materialize the working set from it (worker side).

    The scorer's table LRU pins the old plane's segments, whose arrays
    are views into the old mapping; those entries go before the mapping
    is closed.  They could never hit again anyway: lookups match
    segments by identity, and an attach makes new segment objects.
    """
    global _worker_plane, _worker_segments
    if _worker_plane is not None:
        if _worker_scorer is not None and _worker_segments is not None:
            _worker_scorer.forget_segments(_worker_segments)
        _worker_segments = None
        _worker_plane[1].close()
        _worker_plane = None
    _worker_plane = (handle.name, attach_plane(handle))
    return plane_segments(_worker_plane[1], handle)


def _init_worker(
    fault_plan: FaultPlan | None,
    generation: int,
    watchdog_seconds: float | None,
) -> None:
    global _worker_faults, _worker_generation, _worker_watchdog
    _worker_faults = fault_plan
    _worker_generation = generation
    _worker_watchdog = watchdog_seconds


def _score_chunk(
    tasks: "list[tuple[int, Sketch]]",
    incumbents: dict[int, float],
    config: dict,
    handle: PlaneHandle,
) -> "tuple[list[ScoredHandler | _WorkerFailure], float, tuple]":
    """A worker's share of a pooled wave: one chunk through
    :func:`_score_tasks`, the only task a pool worker runs.

    *config* is the wave's scorer config (:class:`Scorer` keywords); the
    worker rebuilds its scorer only when it differs from the one it
    holds.  *handle* names the wave's plane, attached (and its views
    rebuilt) only when it differs from the attached one.

    *incumbents* is the parent's snapshot of the chunk's group bounds —
    possibly stale, which is always sound (a stale bound is looser and
    only prunes less).  Results earlier in the chunk tighten later
    same-group members immediately, at in-process freshness, without
    waiting for the parent round-trip.

    Returns the outcomes, the seconds spent and the chunk's counter
    deltas (shaped like :data:`_COUNTER_ZEROS`), which the parent adds
    to its running total.
    """
    global _worker_scorer, _worker_config, _worker_segments
    if config != _worker_config:
        from repro.synth.scoring import Scorer

        _worker_scorer = Scorer(**config)
        _worker_config = config
    before = _scorer_counts(_worker_scorer)
    if _worker_plane is None or _worker_plane[0] != handle.name:
        _worker_segments = _attach_plane_segments(handle)
    assert _worker_scorer is not None and _worker_segments is not None
    outcomes, seconds = _score_tasks(
        _worker_scorer,
        tasks,
        _worker_segments,
        incumbents,
        watchdog_seconds=_worker_watchdog,
        fault_plan=_worker_faults,
        in_worker=True,
        generation=_worker_generation,
    )
    counts = tuple(
        after - was
        for after, was in zip(_scorer_counts(_worker_scorer), before)
    )
    return outcomes, seconds, counts


class _PoolBroken(Exception):
    """Internal: a wave died mid-flight; carries the completed prefix."""

    def __init__(
        self,
        completed: list,
        reason: str,
        detail: str,
        *,
        blame_next: bool,
    ) -> None:
        super().__init__(detail)
        self.completed = completed
        self.reason = reason  # "worker-crash" | "hang" | "worker-error"
        self.detail = detail
        #: Whether the first incomplete sketch is the likely culprit
        #: (crashes: yes; hangs: the hung sketch was already quarantined).
        self.blame_next = blame_next


class PooledExecutor(SerialExecutor):
    """Persistent process-pool scoring with re-priming and supervision."""

    def __init__(
        self,
        scorer: Scorer,
        workers: int,
        *,
        context: RunContext | None = None,
        policy: SupervisionPolicy | None = None,
        watchdog_seconds: float | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        if workers < 2:
            raise ValueError("PooledExecutor needs workers >= 2")
        super().__init__(
            scorer,
            context,
            watchdog_seconds=watchdog_seconds,
            fault_plan=fault_plan,
        )
        self.workers = workers
        self.supervisor = Supervisor(policy)
        self._pool: ProcessPoolExecutor | None = None
        #: Plane key of the working set the live pool is primed with,
        #: and the handle its chunks carry.
        self._primed: tuple | None = None
        self._handle: PlaneHandle | None = None
        self._epoch = -1
        self._crash_strikes: dict[str, int] = {}
        self.pools_spawned = 0
        # Workers read the working set from the plane, never from the
        # parent's memory, so ``spawn`` serves hosts without ``fork``.
        methods = multiprocessing.get_all_start_methods()
        self._mp_context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        #: Planes this executor owns, LRU by working-set/data-knob key.
        #: A scheduler multiplexing N jobs alternates working sets, so a
        #: small LRU (not a single slot) keeps each job's plane warm.
        self._planes: "OrderedDict[tuple, SegmentPlane]" = OrderedDict()

    # ------------------------------------------------------------------

    @property
    def pool_rebuilds(self) -> int:
        """The run's crash-driven pool rebuilds."""
        return self.supervisor.rebuilds

    def _scorer_config(self) -> dict:
        """What a worker builds the current scorer from: its knobs."""
        scorer = self.scorer
        return dict(
            metric_name=scorer.metric_name,
            constant_pool=tuple(scorer.constant_pool),
            completion_cap=scorer.completion_cap,
            seed=scorer.seed,
            max_replay_rows=scorer.max_replay_rows,
            series_budget=scorer.series_budget,
        )

    def _spawn_pool(self) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._mp_context,
            initializer=_init_worker,
            initargs=(
                self.fault_plan,
                self.pools_spawned + 1,  # pool generation, 1-based
                self.watchdog_seconds,
            ),
        )
        self.pools_spawned += 1
        self._emit(PoolSpawned(workers=self.workers))

    def _shutdown_pool(self, *, wait: bool = False) -> None:
        # ``wait=False`` by default: rebuild paths must never block on a
        # hung worker (a fault-injected hang can sleep for an hour).
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None
        self._primed = None

    def _degrade(self, reason: str) -> None:
        """Give up on pooled scoring for the rest of the run."""
        self._shutdown_pool()
        self._release_planes()
        self.degraded = True
        self._emit(DegradedToSerial(reason=reason))

    def _release_planes(self) -> None:
        """Unlink every plane this executor owns (idempotent)."""
        while self._planes:
            self._planes.popitem(last=False)[1].close()

    def _plane_key(self, segments: Sequence[TraceSegment]) -> tuple:
        """The working set under the scorer's data knobs.

        Two jobs sharing segments but differing in
        ``max_replay_rows``/``series_budget`` (or metric — envelopes
        only exist for DTW) need different arrays, hence different
        planes.
        """
        scorer = self.scorer
        return (
            tuple(id(segment) for segment in segments),
            scorer.metric_name,
            scorer.max_replay_rows,
            scorer.series_budget,
        )

    def _plane_for(
        self, key: tuple, segments: Sequence[TraceSegment]
    ) -> SegmentPlane | None:
        """The plane for *key*, building (and LRU-evicting) as needed;
        ``None`` when :meth:`SegmentPlane.build` cannot pack the input
        or create a block."""
        plane = self._planes.get(key)
        if plane is not None:
            self._planes.move_to_end(key)
            return plane
        plane = SegmentPlane.build(self.scorer.prepare_segments(segments))
        if plane is None:
            return None
        self._planes[key] = plane
        while len(self._planes) > _PLANE_LRU_ENTRIES:
            # Evicted planes may still be mapped by workers (another
            # job's views): unlinking only removes the name, the pages
            # survive until those mappings are replaced or exit.
            self._planes.popitem(last=False)[1].close()
        self.shm_bytes = max(
            self.shm_bytes,
            sum(plane.nbytes for plane in self._planes.values()),
        )
        return plane

    # ------------------------------------------------------------------

    def _prime(self, segments: Sequence[TraceSegment]) -> PlaneHandle | None:
        """Ready the pool for *segments*; returns the plane handle the
        wave's chunks carry, or ``None`` when the working set gets no
        plane (and so cannot reach the workers).

        Keep the pool when it already holds this working set; otherwise
        build or reuse the working set's plane, spawning a pool if none
        is live.
        """
        key = self._plane_key(segments)
        if self._pool is not None and key == self._primed:
            return self._handle
        plane = self._plane_for(key, segments)
        if plane is None:
            return None
        if self._pool is None:
            self._spawn_pool()
        self._primed = key
        self._handle = plane.handle
        self._epoch += 1
        self._emit(
            SegmentsPrimed(epoch=self._epoch, segment_count=len(segments))
        )
        return self._handle

    # ------------------------------------------------------------------

    def _backstop_seconds(self) -> float | None:
        """Parent-side bound on one future when a watchdog is configured.

        The in-worker SIGALRM normally fires first; the backstop only
        trips for hangs the alarm cannot interrupt (e.g. C code holding
        the GIL), and is sized so queueing behind busy siblings never
        false-positives: results are consumed in submission order, so by
        the time future *i* is awaited it is running or next in line.
        """
        if self.watchdog_seconds is None:
            return None
        return self.watchdog_seconds * 4.0 + 10.0

    def _wait_bound(
        self,
        index: int,
        exempt: int,
        deadline: float | None,
        backstop: float | None,
    ) -> tuple[float | None, str | None]:
        """``(timeout, binding)`` for one future; binding names which
        limit would fire ("deadline" cuts the wave, "backstop" means a
        wedged worker)."""
        if index < exempt:
            # The mandatory prefix must be scored even past the deadline,
            # but a configured watchdog still bounds the wait — this is
            # the path that used to block forever on a hung worker.
            return (backstop, "backstop" if backstop is not None else None)
        if deadline is not None:
            remaining = deadline - time.perf_counter()
            if backstop is None or remaining <= backstop:
                return (remaining, "deadline")
            return (backstop, "backstop")
        return (backstop, "backstop" if backstop is not None else None)

    def _pool_wave(
        self,
        tasks: Sequence[tuple[int, Sketch]],
        deadline: float | None,
        exempt: int,
        incumbents: list[float],
        handle: PlaneHandle,
    ) -> list[ScoredHandler]:
        """One fused wave on the live pool, pipelined through a bounded
        in-flight window; every chunk carries the scorer config and
        *handle* (see :func:`_score_chunk`).

        Tasks enter the pool in :func:`derive_chunksize`-sized chunks,
        at most ``workers × WAVE_WINDOW_PER_WORKER`` chunks at a time:
        each consumed chunk tightens its groups' incumbents *before*
        later chunks are submitted, so the bounds piggybacked on
        submissions stay warm (and workers tighten further within a
        chunk — see :func:`_score_chunk`).  Results are consumed in
        submission order (the positional contract), and
        :class:`_PoolBroken` carries the flat completed prefix; a broken
        chunk is simply re-scored from its first task.

        The wave opens with a *leader primer*: while any group still has
        an infinite incumbent, only the chunks holding the first
        ``primer`` tasks — the round-robin prefix with each fresh
        group's first member, the mandatory prefix the deadline contract
        already pins — are in flight.  Their exact distances seed the
        incumbents before the window floods, so the bulk of the wave is
        submitted with real bounds instead of the stale infinities a
        full-depth pipeline would freeze in (crash-retry suffixes arrive
        with warm incumbents and skip the primer entirely).
        """
        assert self._pool is not None
        completed: list[ScoredHandler] = []
        backstop = self._backstop_seconds()
        chunk_size = derive_chunksize(len(tasks), self.workers)
        # One chunk = one same-group run (capped at the chunk size), so
        # in-chunk incumbent tightening always applies; the wave order
        # round-robins these runs across groups (see :func:`wave_order`).
        chunks: list[list[tuple[int, Sketch]]] = []
        for task in tasks:
            if (
                chunks
                and chunks[-1][-1][0] == task[0]
                and len(chunks[-1]) < chunk_size
            ):
                chunks[-1].append(task)
            else:
                chunks.append([task])
        window = max(self.workers * WAVE_WINDOW_PER_WORKER, 1)
        fresh_groups = {
            group
            for group, _ in tasks
            if not math.isfinite(incumbents[group])
        }
        primer = min(len(fresh_groups), len(tasks))
        primer_chunks = 0
        covered = 0
        for chunk in chunks:
            if covered >= primer:
                break
            covered += len(chunk)
            primer_chunks += 1
        config = self._scorer_config()
        pending: deque = deque()  # (chunk, future) FIFO
        next_chunk = 0
        busy_seconds = 0.0
        wall_started = time.perf_counter()

        def top_up() -> None:
            nonlocal next_chunk
            while (
                next_chunk < len(chunks)
                and len(pending) < window
                and (len(completed) >= primer or next_chunk < primer_chunks)
            ):
                chunk = chunks[next_chunk]
                bounds = {group: incumbents[group] for group, _ in chunk}
                try:
                    future = self._pool.submit(
                        _score_chunk, chunk, bounds, config, handle
                    )
                except BrokenProcessPool as exc:
                    # A worker died after an earlier submission.
                    raise abort(
                        "worker-crash", str(exc) or "pool broken", True
                    ) from exc
                pending.append((chunk, future))
                next_chunk += 1
            self._waves.peak_in_flight = max(
                self._waves.peak_in_flight,
                sum(len(chunk) for chunk, _ in pending),
            )

        def note_occupancy() -> None:
            wall = time.perf_counter() - wall_started
            if wall > 0 and completed:
                self._waves.note_occupancy(
                    min(1.0, busy_seconds / (wall * self.workers))
                )

        def abort(reason: str, detail: str, blame_next: bool) -> _PoolBroken:
            """Cancel what is still in flight and close the wave."""
            while pending:
                pending.popleft()[1].cancel()
            note_occupancy()
            return _PoolBroken(
                completed, reason, detail, blame_next=blame_next
            )

        top_up()
        cut_short = False
        while pending:
            chunk, future = pending.popleft()
            if cut_short:
                future.cancel()
                continue
            timeout, binding = self._wait_bound(
                len(completed), exempt, deadline, backstop
            )
            if timeout is not None and binding == "backstop":
                # One future now carries len(chunk) tasks of work.
                timeout = timeout * len(chunk)
            if timeout is not None and timeout <= 0 and binding == "deadline":
                cut_short = True
                future.cancel()
                continue
            try:
                outcomes, seconds, counts = future.result(timeout=timeout)
            except FutureTimeoutError:
                if binding == "deadline":
                    cut_short = True
                    future.cancel()
                    continue
                # The worker-side watchdog attributes per-task hangs; the
                # parent backstop cannot see inside the chunk, so blame
                # falls on its head (exact when chunks are single-task,
                # the fault-injection and small-wave regime).
                head = chunk[0][1]
                completed.append(
                    self._quarantine(
                        head,
                        "timeout",
                        f"no result within {timeout:.3g}s backstop",
                    )
                )
                raise abort("hang", f"worker hung on {head}", False)
            except BrokenProcessPool as exc:
                raise abort(
                    "worker-crash", str(exc) or "pool broken", True
                ) from exc
            except Exception as exc:
                # The chunk raised outside the task guard (a plane the
                # worker cannot attach, say): no sketch is to blame.
                raise abort(
                    "worker-error", f"{type(exc).__name__}: {exc}", False
                ) from exc
            self._chunk_counts = tuple(
                total + count
                for total, count in zip(self._chunk_counts, counts)
            )
            busy_seconds += seconds
            for (group, sketch), outcome in zip(chunk, outcomes):
                scored = self._resolve_outcome(sketch, outcome)
                completed.append(scored)
                if scored.distance < incumbents[group]:
                    incumbents[group] = scored.distance
            top_up()
        note_occupancy()
        return completed

    def score_grouped(
        self,
        groups: Sequence[Sequence[Sketch]],
        segments: Sequence[TraceSegment],
        *,
        deadline: float | None = None,
        min_results: int = 0,
    ) -> list[list[ScoredHandler]]:
        """Score all *groups* as one fused wave on the pool (same
        contract as :meth:`SerialExecutor.score_grouped`)."""
        order, tasks, mandatory = self._open_wave(
            groups,
            min_results,
            workers=self.workers,
            run_length=derive_chunksize(
                sum(len(group) for group in groups), self.workers
            ),
        )
        incumbents = [math.inf] * len(groups)
        if self.degraded or len(tasks) < MIN_PARALLEL_SKETCHES:
            # The threshold judges the *flattened* wave: sub-threshold
            # buckets ride the fused dispatch with everything else.
            if tasks:
                self._note_inline_wave(1.0 / self.workers)
            flat = self._score_inline(
                tasks, segments, deadline, mandatory, incumbents
            )
            return _scatter(order, flat, len(groups))
        flat: list[ScoredHandler] = []
        while len(flat) < len(tasks):
            remaining = tasks[len(flat):]
            exempt = max(0, mandatory - len(flat))
            if self.degraded:
                flat.extend(
                    self._score_inline(
                        remaining, segments, deadline, exempt, incumbents
                    )
                )
                break
            handle = self._prime(segments)
            if handle is None:
                self._degrade("no shared-memory plane for the working set")
                continue
            try:
                flat.extend(
                    self._pool_wave(
                        remaining, deadline, exempt, incumbents, handle
                    )
                )
                self.supervisor.record_success()
                break
            except _PoolBroken as broken:
                # Keep the flat completed prefix, blame/strike the head
                # of the suffix, rebuild or degrade — incumbents survive,
                # so the retried suffix starts as warm as the wave left
                # it.
                flat.extend(broken.completed)
                offset = len(flat)
                self._emit(
                    WorkerCrashed(reason=broken.reason, detail=broken.detail)
                )
                if broken.blame_next and offset < len(tasks):
                    group, culprit = tasks[offset]
                    text = str(culprit)
                    strikes = self._crash_strikes.get(text, 0) + 1
                    self._crash_strikes[text] = strikes
                    if strikes >= _CRASH_STRIKES:
                        # The pool died twice with this sketch first in
                        # line: treat it as poison and skip it.
                        flat.append(
                            self._quarantine(
                                culprit,
                                "worker-crash",
                                f"pool broke {strikes}x scoring this sketch",
                            )
                        )
                if self.supervisor.next_action() == "degrade":
                    self._degrade(
                        f"{self.supervisor.consecutive_failures} consecutive"
                        " pool failures"
                    )
                    continue
                backoff = self.supervisor.backoff()
                self._shutdown_pool()
                self._emit(
                    PoolRebuilt(
                        rebuilds=self.supervisor.rebuilds,
                        backoff_seconds=backoff,
                    )
                )
                # Loop: _prime respawns the pool for the working set.
        return _scatter(order, flat, len(groups))

    # ------------------------------------------------------------------

    def close(self, *, wait: bool = False) -> None:
        """Shut the pool down; safe to call any number of times.

        The executor stays usable: the next wave respawns the pool, and
        that respawn is not a rebuild — sequential runs sharing one
        executor don't inflate ``pool_rebuilds``.

        ``wait=True`` blocks until the worker processes have exited —
        callers that own a healthy pool (the scheduler after a fleet
        drains) use it to avoid racing interpreter teardown.  Leave it
        off on paths that may hold a hung worker.

        Every shared-memory plane is unlinked here: the executor is the
        plane owner, and a closed executor must leave ``/dev/shm``
        exactly as it found it.  The next wave's ``_prime`` rebuilds a
        fresh plane along with the pool.
        """
        self._shutdown_pool(wait=wait)
        self._release_planes()


def make_executor(
    scorer: Scorer,
    workers: int,
    context: RunContext | None = None,
    *,
    policy: SupervisionPolicy | None = None,
    watchdog_seconds: float | None = None,
    fault_plan: FaultPlan | None = None,
) -> SerialExecutor:
    """The executor for a run: pooled when ``workers > 1``."""
    if workers > 1:
        return PooledExecutor(
            scorer,
            workers,
            context=context,
            policy=policy,
            watchdog_seconds=watchdog_seconds,
            fault_plan=fault_plan,
        )
    return SerialExecutor(
        scorer,
        context=context,
        watchdog_seconds=watchdog_seconds,
        fault_plan=fault_plan,
    )
