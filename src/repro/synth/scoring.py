"""Scoring handlers and sketches against trace segments.

The score of a concrete handler is the sum, over the working set of
segments, of the distance between its replayed cwnd series and the
observed one (both expressed in segments, i.e. divided by the MSS, so
values are comparable across environments).  The score of a *sketch* is
the minimum score over its sampled concretizations — the best behavior
the sketch can exhibit with pool constants (§4.2, §4.4).

Two paths compute that minimum.  The scalar reference path
(:meth:`Scorer.score_handler` per concretization) replays and scores
each concretization in full.  The batched fast path (default) compiles
the sketch once into a lane-vectorized numpy function
(:func:`repro.dsl.compiled.compile_sketch_vector`), replays all
concretizations in one pass per segment
(:func:`repro.synth.replay.replay_batch`), prescreens them with one
LB_Keogh pass over the whole working set (:mod:`repro.distance.lb`;
segments whose replays share a length and a memory order are stacked
into one envelope call), and scores the rest segment by segment, one
bounded :func:`dtw_distance_batch` sweep per segment.  Prunes only
fire for candidates that provably cannot beat the incumbent (distances
are non-negative and abandon thresholds carry float-safety slack), so
both paths return the same :class:`ScoredHandler` — the equivalence
the property suite enforces.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.distance.base import DEFAULT_METRIC, get_metric
from repro.distance.dtw import band_width, dtw_distance_batch, inflate_bound
from repro.distance.lb import keogh_envelope, keogh_envelope_batch
from repro.distance.preprocess import downsample
from repro.dsl.compiled import compile_handler, compile_sketch_vector
from repro.errors import EvaluationError
from repro.dsl import ast
from repro.dsl.families import DEFAULT_CONSTANT_POOL
from repro.synth.concretize import (
    DEFAULT_COMPLETION_CAP,
    concretization_assignments,
    concretizations,
)
from repro.synth.replay import replay_batch, replay_handler
from repro.synth.sketch import Sketch
from repro.trace.model import TraceSegment
from repro.trace.signals import SignalTable, extract_signals

__all__ = [
    "Scorer",
    "ScoredHandler",
    "ScoringCounters",
    "QuorumConfig",
    "QuorumDecision",
    "segment_quality",
    "quorum_filter",
    "DEFAULT_TABLE_CACHE_ENTRIES",
]

#: Default cap on the per-scorer signal-table LRU (an id()-keyed cache
#: that would otherwise grow without bound across refinement
#: iterations): a coalesced table is ~40 KiB, so 256 tables ≈ 10 MiB.
DEFAULT_TABLE_CACHE_ENTRIES = 256


def segment_quality(segment: TraceSegment) -> float:
    """The triage quality score of *segment*'s parent trace.

    Traces that never passed through :mod:`repro.trace.triage` (or were
    found clean) carry no ``quality`` key and score a full ``1.0``, so
    the quorum guard below is a no-op for well-formed input — the
    property the clean-trace differential harness pins.
    """
    quality = segment.trace.meta.get("quality", 1.0)
    try:
        return float(quality)
    except (TypeError, ValueError):
        return 1.0


@dataclass(frozen=True)
class QuorumConfig:
    """When to exclude low-quality segments, and how far exclusion may go.

    ``quality_threshold`` is the score below which a segment counts as
    suspect; ``min_segments`` is the quorum — the number of usable
    segments the working set must never drop below.  Exclusion with a
    floor (rather than score re-weighting) keeps accepted segments'
    distances bit-identical to an unguarded run.
    """

    min_segments: int = 2
    quality_threshold: float = 0.8

    def __post_init__(self) -> None:
        if self.min_segments < 1:
            raise ValueError("min_segments must be >= 1")
        if not 0.0 <= self.quality_threshold <= 1.0:
            raise ValueError("quality_threshold must be within [0, 1]")


@dataclass(frozen=True)
class QuorumDecision:
    """Outcome of the quorum guard over one segment collection."""

    kept: tuple[TraceSegment, ...]
    excluded: tuple[TraceSegment, ...]
    #: Low-quality segments kept anyway to satisfy the quorum.
    backfilled: tuple[TraceSegment, ...]

    @property
    def degraded(self) -> bool:
        """True when the ranking rests on below-threshold segments."""
        return bool(self.backfilled)


def quorum_filter(
    segments: Sequence[TraceSegment], config: QuorumConfig | None = None
) -> QuorumDecision:
    """Exclude low-quality segments without ever starving the scorer.

    Segments whose :func:`segment_quality` falls below the threshold
    are dropped — unless that would leave fewer than ``min_segments``
    usable segments, in which case the *best* low-quality segments are
    backfilled (stable order: quality descending, original position as
    tie-break) until the quorum is met or every segment is in use.  The
    guard therefore provably never reduces the working set below
    ``min(min_segments, len(segments))``; a backfilled decision is
    surfaced as a ``degraded_inputs`` event by the pipeline rather than
    silently producing a confidently wrong ranking.

    Kept segments preserve their original order, so downstream working
    set selection (and thus the ranking) is reproducible.
    """
    config = config or QuorumConfig()
    qualities = [segment_quality(segment) for segment in segments]
    good = [
        index
        for index, quality in enumerate(qualities)
        if quality >= config.quality_threshold
    ]
    bad = [
        index
        for index in range(len(segments))
        if qualities[index] < config.quality_threshold
    ]
    keep = set(good)
    backfill: list[int] = []
    if len(keep) < config.min_segments and bad:
        # Best-first backfill; sort is stable on (-quality, index).
        for index in sorted(bad, key=lambda i: (-qualities[i], i)):
            if len(keep) >= config.min_segments:
                break
            keep.add(index)
            backfill.append(index)
    backfill_set = set(backfill)
    return QuorumDecision(
        kept=tuple(
            segments[index] for index in range(len(segments)) if index in keep
        ),
        excluded=tuple(
            segments[index]
            for index in bad
            if index not in backfill_set
        ),
        backfilled=tuple(
            segments[index] for index in bad if index in backfill_set
        ),
    )


@dataclass(frozen=True)
class ScoredHandler:
    """A concrete handler and its summed distance over the working set."""

    handler: ast.NumExpr
    distance: float

    def __lt__(self, other: "ScoredHandler") -> bool:
        return self.distance < other.distance


@dataclass
class ScoringCounters:
    """Telemetry of the batched path's prunes (monotone run totals).

    Kept as a plain dataclass (not a runtime event) so :mod:`repro.synth`
    does not import :mod:`repro.runtime`; the executors snapshot these
    into a :class:`repro.runtime.events.ScoringStats` event.
    """

    #: Sketches scored through the batched (vectorized) path.
    batched_waves: int = 0
    #: Candidate×segment distance computations skipped by LB_Keogh.
    lb_pruned: int = 0
    #: DTW dynamic programs abandoned mid-row by the bound.
    dp_abandoned: int = 0
    #: Candidates dropped because their partial mean was already
    #: unbeatable (includes candidates whose segment loop stopped early).
    candidates_pruned: int = 0
    #: Candidates pruned because a *cross-sketch* incumbent (the fused
    #: scheduler's per-bucket warm-start bound) was tighter than anything
    #: this sketch had computed itself.
    warm_start_pruned: int = 0
    #: DP sweeps run by :func:`dtw_distance_batch`: per segment, one for
    #: the probe lane and one for the other live lanes.
    batched_dtw_sweeps: int = 0
    #: Wall-clock milliseconds spent eagerly building segment entries
    #: and Keogh envelopes in :meth:`Scorer.prepare_segments`.
    envelope_precompute_ms: float = 0.0

    def as_tuple(self) -> tuple[int, int, int, int, int, int, float]:
        return (
            self.batched_waves,
            self.lb_pruned,
            self.dp_abandoned,
            self.candidates_pruned,
            self.warm_start_pruned,
            self.batched_dtw_sweeps,
            self.envelope_precompute_ms,
        )


@dataclass
class _SegmentEntry:
    """Per-segment memo: table plus candidate-independent score inputs.

    ``observed``/``downsampled`` were previously recomputed for every
    one of the K×segments candidate evaluations; the LB_Keogh envelope
    is built lazily on first prescreen use (reach =
    :func:`~repro.distance.dtw.band_width` of the banded DP, so the
    bound stays valid for every cell the DP can visit).
    """

    segment: TraceSegment
    table: SignalTable
    observed: np.ndarray
    downsampled: np.ndarray
    envelope_cache: tuple[np.ndarray, np.ndarray] | None = None

    def envelope(self) -> tuple[np.ndarray, np.ndarray]:
        if self.envelope_cache is None:
            size = self.downsampled.size
            self.envelope_cache = keogh_envelope(
                self.downsampled, band_width(size, size)
            )
        return self.envelope_cache


def _prescreen(
    entries: "list[_SegmentEntry]", queries_by_segment: "list[np.ndarray]"
) -> np.ndarray:
    """LB_Keogh lower bounds of every lane's normalized distance on every
    segment, as a ``(K, segments)`` matrix.

    Both directions are bounded (the segment's envelope against each
    replayed row, and each row's envelope against the observed series)
    and the larger is kept.  Segments whose query matrices share a
    length and a memory order are stacked, so one envelope call and one
    set of numpy ops bound them all.  The excesses are laid out in the
    blocks' memory order, because numpy sums the rows of an F-ordered
    operand in another order than those of a C-ordered one: so every
    bound is the float a per-segment prescreen computes.  A segment
    whose query length is not its observed series' length gets no bound
    (``0``).
    """
    lanes = queries_by_segment[0].shape[0]
    lb_matrix = np.zeros((lanes, len(entries)))
    groups: dict[tuple[int, bool], list[int]] = {}
    for index, queries in enumerate(queries_by_segment):
        size = queries.shape[1]
        if size == entries[index].downsampled.size:
            groups.setdefault((size, queries.flags.fnc), []).append(index)
    for (size, fortran), members in groups.items():
        blocks = len(members)
        shape = (blocks, lanes, size)
        stacked = np.concatenate([queries_by_segment[i] for i in members])
        q_lower, q_upper = keogh_envelope_batch(
            stacked, band_width(size, size)
        )
        # Each segment's observed series and envelope, (blocks, 1, size)
        # each, broadcast over its lanes.
        observed, lower, upper = np.array(
            [(entries[i].downsampled, *entries[i].envelope()) for i in members]
        ).swapaxes(0, 1)[:, :, np.newaxis]
        # The four one-sided excesses, laid out like the blocks: points
        # along each row for C-ordered blocks, lanes first for F-ordered.
        if fortran:
            excess = np.empty((4, blocks, size, lanes)).swapaxes(2, 3)
        else:
            excess = np.empty((4, *shape))
        queries = stacked.reshape(shape)
        with np.errstate(invalid="ignore"):
            np.subtract(queries, upper, out=excess[0])
            np.subtract(lower, queries, out=excess[1])
            np.subtract(observed, q_upper.reshape(shape), out=excess[2])
            np.subtract(q_lower.reshape(shape), observed, out=excess[3])
            sums = np.maximum(excess, 0.0, out=excess).sum(axis=3)
            # Normalized like the metric; elementwise <= each lane's
            # true distance, and summing preserves that (rounding is
            # monotone), so accumulated sums stay lower bounds.
            bounds = np.maximum(sums[0] + sums[1], sums[2] + sums[3])
            lb_matrix[:, members] = (bounds / (2 * size)).T
    return lb_matrix


@dataclass
class Scorer:
    """Caches signal tables and scores handlers/sketches against them."""

    metric_name: str = DEFAULT_METRIC
    constant_pool: Sequence[float] = DEFAULT_CONSTANT_POOL
    completion_cap: int = DEFAULT_COMPLETION_CAP
    seed: int = 0
    #: Replay cost control: tables longer than this are coalesced
    #: (delayed-ACK merging, see :meth:`SignalTable.coalesce`).
    max_replay_rows: int = 384
    #: Distance cost control: series are down-sampled to this many points
    #: inside the metric.
    series_budget: int = 128
    #: Score sketches through the vectorized batch path (identical
    #: rankings; ``--no-batch`` forces the scalar reference path).
    batch: bool = True
    #: LRU cap on the per-segment table cache below.
    table_cache_entries: int = DEFAULT_TABLE_CACHE_ENTRIES
    #: Prune telemetry, aggregated across the scorer's lifetime.
    counters: ScoringCounters = field(default_factory=ScoringCounters)
    _tables: "OrderedDict[int, _SegmentEntry]" = field(
        default_factory=OrderedDict, repr=False
    )

    @property
    def cache(self) -> None:
        """Always ``None``: the scorer keeps no score memo.

        Kept read-only for its one reader, the traced benchmark's
        ``bench/layers.py``, which reads the memo's hit counters when a
        scorer has one; it goes when that read does.
        """
        return None

    def _entry_for(self, segment: TraceSegment) -> _SegmentEntry:
        """The cached :class:`_SegmentEntry` for *segment* (LRU).

        The cache key is ``id(segment)``, so each entry keeps a strong
        reference to its segment and verifies identity on lookup: without
        that, a freed segment's id can be reused by a new object and the
        lookup would silently return the *wrong* table.  The cache is
        LRU-bounded by ``table_cache_entries``: refinement's working set
        grows every iteration, and an unbounded cache would keep every
        table ever touched alive for the whole run.
        """
        key = id(segment)
        entry = self._tables.get(key)
        if entry is not None and entry.segment is segment:
            self._tables.move_to_end(key)
            return entry
        plane_entry = getattr(segment, "plane_entry", None)
        if plane_entry is not None:
            # A shared-memory plane segment carries its precomputed
            # table/series/envelope views (built by the parent's
            # prepare_segments); rebuild the entry from those instead of
            # re-extracting signals it does not have.
            table, observed, downsampled, envelope = plane_entry()
            entry = _SegmentEntry(
                segment=segment,
                table=table,
                observed=observed,
                downsampled=downsampled,
                envelope_cache=envelope,
            )
            self._tables[key] = entry
            while len(self._tables) > max(self.table_cache_entries, 1):
                self._tables.popitem(last=False)
            return entry
        table = extract_signals(segment).coalesce(self.max_replay_rows)
        observed = table.observed_cwnd() / table.mss
        entry = _SegmentEntry(
            segment=segment,
            table=table,
            observed=observed,
            downsampled=downsample(observed, self.series_budget),
        )
        self._tables[key] = entry
        while len(self._tables) > max(self.table_cache_entries, 1):
            self._tables.popitem(last=False)
        return entry

    def table_for(self, segment: TraceSegment) -> SignalTable:
        """Extract (and LRU-cache) the signal table for *segment*."""
        return self._entry_for(segment).table

    def forget_segments(self, segments: Sequence[TraceSegment]) -> None:
        """Drop every table entry that pins one of *segments* (matched
        by identity, like every lookup here)."""
        for segment in segments:
            entry = self._tables.get(id(segment))
            if entry is not None and entry.segment is segment:
                del self._tables[id(segment)]

    def prepare_segments(
        self, segments: Sequence[TraceSegment]
    ) -> "list[_SegmentEntry]":
        """Eagerly build every segment's entry — once per working set.

        Materializes the coalesced signal table, the normalized observed
        series, its downsampled form, and (for the DTW metric) the Keogh
        envelope, so neither serial waves nor pool workers pay the lazy
        per-wave cost; the shared-memory plane packs exactly these
        arrays.  Idempotent and cheap when the entries already exist
        (an LRU hit per segment); the time actually spent is accumulated
        into ``counters.envelope_precompute_ms``.
        """
        started = time.perf_counter()
        entries = []
        for segment in segments:
            entry = self._entry_for(segment)
            if self.metric_name == "dtw" and entry.envelope_cache is None:
                entry.envelope()
            entries.append(entry)
        self.counters.envelope_precompute_ms += (
            time.perf_counter() - started
        ) * 1000.0
        return entries

    def score_handler(
        self, handler: ast.NumExpr, segments: Sequence[TraceSegment]
    ) -> float:
        """Mean distance of *handler* across *segments* (lower = better).

        The mean (not the sum) keeps scores comparable across refinement
        iterations, whose working sets grow by two segments each round;
        the best-so-far handler the loop carries would otherwise always
        come from the smallest working set.

        This is the scalar reference: every segment is replayed and
        measured in full, with no bound, under any metric.
        """
        metric = get_metric(self.metric_name)
        try:
            compiled = compile_handler(handler)
        except EvaluationError:
            return float("inf")
        total = 0.0
        for segment in segments:
            entry = self._entry_for(segment)
            table = entry.table
            try:
                synthesized = (
                    replay_handler(handler, table, compiled=compiled)
                    / table.mss
                )
                distance = metric(
                    synthesized, entry.observed, budget=self.series_budget
                )
            except (EvaluationError, ArithmeticError, ValueError):
                # A candidate whose arithmetic blows up on this segment
                # cannot match it; charge the worst score for the segment
                # rather than letting one bad concretization poison the
                # whole sketch (the executor-level quarantine is for
                # faults this narrow guard cannot contain).
                distance = float("inf")
            total += distance
        return total / len(segments) if segments else float("inf")

    def _score_sketch_batched(
        self,
        sketch: Sketch,
        segments: Sequence[TraceSegment],
        bound: float | None = None,
    ) -> ScoredHandler | None:
        """Batched minimum over concretizations, or ``None`` to fall
        back to the scalar path (non-DTW metric, empty working set, or a
        sketch the vector backend cannot compile).

        A finite *bound* (an incumbent distance some *other* sketch
        already achieved) warm-starts the pruning: candidates provably
        unable to beat it are pruned before any DTW runs, and when the
        lower bounds rule out every lane the sketch is dismissed with
        zero distance computations.  The returned distance is then
        ``inf`` — callers only compare it against the incumbent, and the
        true minimum is provably worse, so rankings are unchanged."""
        if self.metric_name != "dtw" or not segments:
            return None
        try:
            vector = compile_sketch_vector(sketch.expr)
        except EvaluationError:
            return None
        assignments = list(
            concretization_assignments(
                sketch,
                self.constant_pool,
                cap=self.completion_cap,
                seed=self.seed,
            )
        )
        if not assignments:
            return None
        self.counters.batched_waves += 1
        hole_ids = [hole.hole_id for hole in ast.holes(sketch.expr)]
        count = len(segments)
        lanes = len(assignments)

        # Replay every concretization over every segment up front (one
        # K-wide vectorized pass per segment), then prescreen: a
        # lane-vectorized LB_Keogh over the whole working set gives each
        # candidate a lower bound on its *total* normalized distance for
        # a few numpy ops — candidates whose bound already tops the
        # incumbent mean are dropped with zero DTW calls.
        entries = [self._entry_for(segment) for segment in segments]
        #: Per segment, the (K, n) downsampled replay matrix — row
        #: ``lane`` holds the same floats ``downsample(matrix[lane])``
        #: yields, so the DTW sweeps score the very series the scalar
        #: reference would.
        queries_by_segment: list[np.ndarray] = []
        for entry in entries:
            table = entry.table
            matrix = replay_batch(vector, assignments, table) / table.mss
            size = matrix.shape[1]
            if size > self.series_budget:
                picks = (
                    np.linspace(0, size - 1, self.series_budget)
                    .round()
                    .astype(int)
                )
                # rows == downsample(row); a column pick is F-ordered,
                # which the prescreen's sums keep.
                matrix = matrix[:, picks]
            queries_by_segment.append(matrix)
        lb_matrix = _prescreen(entries, queries_by_segment)
        with np.errstate(invalid="ignore"):
            lb_totals = lb_matrix.sum(axis=1)
        warm = (
            bound
            if bound is not None and math.isfinite(bound)
            else float("inf")
        )

        def handler_at(lane: int) -> ast.NumExpr:
            return ast.fill_holes(
                sketch.expr, dict(zip(hole_ids, assignments[lane]))
            )

        if math.isfinite(warm):
            # Whole-sketch warm-start skip: when every lane's lower bound
            # already tops the caller's incumbent, the sketch's true
            # minimum is provably worse than a distance another sketch
            # achieved — dismiss it without probing (zero DTW calls).
            # NaN bounds compare False, so uncertain lanes stay alive.
            with np.errstate(invalid="ignore"):
                hopeless = lb_totals > inflate_bound(warm * count)
            if hopeless.all():
                self.counters.lb_pruned += count * lanes
                self.counters.candidates_pruned += lanes
                self.counters.warm_start_pruned += lanes
                return ScoredHandler(handler_at(0), float("inf"))

        # Probe: score the candidate the lower bounds like most against
        # the warm start alone, and sweep the other lanes against
        # ``min(warm, probe)``.  Any probe choice is sound — prunes only
        # ever discard candidates strictly worse than the incumbent they
        # are given, and the final minimum is at most the probe's — so
        # this does not disturb the stream-order tie semantics below; it
        # just starts the other lanes with a tight threshold.  With no
        # finite lower bound at all the probe is lane 0.
        finite_lb = np.isfinite(lb_totals)
        probe = int(np.argmin(np.where(finite_lb, lb_totals, np.inf)))
        probe_distance = float(
            self._sweep(
                np.array([probe]), warm, entries, queries_by_segment, lb_matrix
            )[0]
        )
        incumbent = min(warm, probe_distance)
        #: Lanes that take part in selection: a lane whose whole lower
        #: bound tops the incumbent cannot win and is left out.
        present = np.ones(lanes, dtype=bool)
        if math.isfinite(incumbent):
            with np.errstate(invalid="ignore"):
                hopeless = lb_totals > inflate_bound(incumbent * count)
            hopeless[probe] = False
            dropped = int(np.count_nonzero(hopeless))
            self.counters.lb_pruned += count * dropped
            self.counters.candidates_pruned += dropped
            if warm < probe_distance:
                self.counters.warm_start_pruned += dropped
            present &= ~hopeless
        distances = np.full(lanes, np.inf)
        distances[probe] = probe_distance
        rest = np.nonzero(present)[0]
        rest = rest[rest != probe]
        distances[rest] = self._sweep(
            rest, incumbent, entries, queries_by_segment, lb_matrix
        )

        # Stream order, strict ``<``: ties resolve to the first lane, as
        # in the scalar reference.  The incumbent is never tighter than
        # the final minimum, so the winning lane is always scored exactly.
        best: int | None = None
        for lane in np.nonzero(present)[0]:
            if best is None or distances[lane] < distances[best]:
                best = int(lane)
        assert best is not None  # the probe lane always takes part
        return ScoredHandler(handler_at(best), float(distances[best]))

    def _sweep(
        self,
        lanes: np.ndarray,
        incumbent: float,
        entries: "list[_SegmentEntry]",
        queries_by_segment: "list[np.ndarray]",
        lb_matrix: np.ndarray,
    ) -> np.ndarray:
        """Mean distance of each of *lanes* over the working set, or
        ``inf`` where the lane provably cannot beat *incumbent*.

        Segment by segment, the live lanes run one
        :func:`dtw_distance_batch` sweep, each lane's DP bounded by what
        the budget ``inflate_bound(incumbent * count)`` leaves it after
        its partial total and the lower bounds of the segments still to
        go.  A lane drops out before a sweep when that partial total
        plus those lower bounds tops the budget, and during one when its
        DP abandons.  Distances are non-negative, rounded addition is
        monotone and every threshold carries slack, so a dropped lane's
        mean is worse than *incumbent* for certain.
        """
        count = len(entries)
        finite_budget = math.isfinite(incumbent)
        budget = (
            inflate_bound(incumbent * count) if finite_budget else math.inf
        )
        lower = lb_matrix[lanes]
        suffix = np.zeros((lanes.size, count + 1))
        with np.errstate(invalid="ignore"):
            suffix[:, :count] = np.cumsum(lower[:, ::-1], axis=1)[:, ::-1]
        totals = np.zeros(lanes.size)
        alive = np.ones(lanes.size, dtype=bool)
        for seg_index, entry in enumerate(entries):
            live = np.nonzero(alive)[0]
            if finite_budget:
                over = totals[live] + suffix[live, seg_index] > budget
                alive[live[over]] = False
                self.counters.candidates_pruned += int(np.count_nonzero(over))
                live = live[~over]
            if live.size == 0:
                break
            with np.errstate(invalid="ignore"):
                bounds = budget - totals[live] - suffix[live, seg_index + 1]
            distances = dtw_distance_batch(
                queries_by_segment[seg_index][lanes[live]],
                entry.downsampled,
                bounds=bounds,
            )
            self.counters.batched_dtw_sweeps += 1
            # An abandoned DP (or a truly infinite distance, equally
            # hopeless) drops the lane.
            abandoned = distances == np.inf
            alive[live[abandoned]] = False
            dropped = int(np.count_nonzero(abandoned))
            self.counters.dp_abandoned += dropped
            self.counters.candidates_pruned += dropped
            totals[live[~abandoned]] += distances[~abandoned]
        return np.where(alive, totals / count, np.inf)

    def score_sketch(
        self,
        sketch: Sketch,
        segments: Sequence[TraceSegment],
        *,
        bound: float | None = None,
    ) -> ScoredHandler:
        """Best (minimum-distance) concretization of *sketch*.

        Candidate order is shared between the paths
        (:func:`concretization_assignments`), bounds only discard
        candidates strictly worse than the incumbent, and best-so-far
        updates are strict ``<`` — so ties resolve to the same
        first-seen handler and both paths return the same result.

        *bound* is an external incumbent (the fused scheduler's
        per-bucket warm start): when finite, the batched path may return
        ``inf`` for a sketch whose true minimum provably exceeds it.
        The scalar path stays the bound-free reference and ignores it.
        """
        if self.batch:
            best = self._score_sketch_batched(sketch, segments, bound)
            if best is not None:
                return best
        best = None
        for handler in concretizations(
            sketch,
            self.constant_pool,
            cap=self.completion_cap,
            seed=self.seed,
        ):
            distance = self.score_handler(handler, segments)
            if best is None or distance < best.distance:
                best = ScoredHandler(handler, distance)
        if best is None:  # a sketch always has >= 1 concretization
            raise AssertionError("sketch produced no concretizations")
        return best
