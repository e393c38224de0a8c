"""Trace triage: validate → repair → admit (the input-side guard).

The paper's premise (§2.2) is that vantage-point traces are noisy and
incomplete; the execution runtime already survives *worker* faults
(``docs/RESILIENCE.md``), and this module hardens the *input* side.  A
hostile trace — non-monotonic timestamps, duplicated ACKs, NaN windows,
clock jumps — must never silently poison segmentation, signal tables, or
the final ranking.  Triage runs in three stages:

1. **Validate** — a declarative table of invariant checks produces
   structured :class:`TraceDefect` records (one per offending record,
   capped per class) instead of raising on the first error.  Each check
   is a column operation: one mask per defect class over the trace's
   columns gives the exact count, and only the first few hits of each
   class are formatted into records, in row order.
2. **Repair** — pure, deterministic repair passes fix what can be fixed
   (timestamp de-skew and stable re-sort, duplicate-ACK dedup, NaN/inf
   interpolation or excision, trailing-garbage truncation, loss-record
   hygiene).  Every pass reports how many records it touched; the
   aggregate becomes the trace's **quality score**
   (``1 - touched/total``) stored in ``Trace.meta`` together with the
   defect histogram.
3. **Admit** — a :class:`TriagePolicy` decides what survives:
   ``strict`` refuses any defective trace, ``repair`` (the default)
   accepts traces whose defects were all repaired, ``permissive``
   accepts repaired traces even with residual (unrepairable but
   non-fatal) defects.  Fatal defects — no ACKs, no RTT samples — are
   refused under every policy: no downstream stage can use such a trace.

Clean traces take a fast path: when validation finds nothing, triage
returns the *same* ``Trace`` object, untouched — which is what makes
rankings bit-identical with triage on or off for well-formed input (the
differential harness in ``tests/integration`` enforces this).

All repairs are pure (the input trace is never mutated) and
deterministic: no randomness is involved, so the same hostile trace
always repairs to the same bytes.  Each defect class that repair mends
(non-finite cells, negative cells, duplicate rows, ``ack_seq``
regressions, clock jumps) is found by one detector over the trace's
columns, and both its validation check and its repair pass call it, so
the two cannot disagree on what the defect is.  Repair is column
operations throughout: excisions are masks, the re-sort is a stable
``argsort``, and the clock-jump pass loops over jumps, not rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.errors import TraceError
from repro.trace.model import ACK_FIELDS, LossRecord, Trace, counter

__all__ = [
    "TraceDefect",
    "DefectReport",
    "RepairAction",
    "TriagePolicy",
    "TriageResult",
    "TriageSummary",
    "POLICY_MODES",
    "DEFECT_CLASSES",
    "FATAL_DEFECTS",
    "REPAIRABLE_DEFECTS",
    "validate_trace",
    "repair_trace",
    "triage_trace",
    "triage_traces",
    "trace_quality",
]

#: Recognized policy modes, in increasing order of tolerance.
POLICY_MODES = ("strict", "repair", "permissive")

#: Forward time discontinuity (seconds) treated as a clock jump: far
#: beyond any plausible inter-ACK gap at the RTTs the paper studies.
CLOCK_JUMP_SECONDS = 60.0
#: A post-jump suffix shorter than this fraction of the trace is
#: truncated as trailing garbage instead of de-skewed back into place.
TRAILING_GARBAGE_FRACTION = 0.02
#: Two loss records closer than this (seconds) are duplicated epochs.
LOSS_EPOCH_EPSILON = 1e-9
#: Loss records may precede the first ACK / trail the last by this much
#: (seconds) before they count as outside the ack span.
LOSS_SPAN_MARGIN = 1.0
#: At most this many per-record defects are materialized per class;
#: the report still carries exact counts.
MAX_DEFECTS_PER_CLASS = 32


# ---------------------------------------------------------------------------
# Defect records


@dataclass(frozen=True)
class TraceDefect:
    """One detected invariant violation.

    ``code`` names the defect class (a key of :data:`DEFECT_CLASSES`),
    ``index`` the offending ack/loss record where that is meaningful.
    """

    code: str
    message: str
    index: int | None = None


@dataclass
class DefectReport:
    """Structured validation outcome for one trace."""

    trace_label: str
    defects: list[TraceDefect] = field(default_factory=list)
    #: Exact per-class counts (defect records are capped per class).
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def is_clean(self) -> bool:
        return not self.counts

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def has(self, code: str) -> bool:
        return code in self.counts

    @property
    def fatal(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.counts) & FATAL_DEFECTS))

    @property
    def unrepairable(self) -> tuple[str, ...]:
        return tuple(
            sorted(set(self.counts) - REPAIRABLE_DEFECTS - FATAL_DEFECTS)
        )

    def render(self) -> str:
        """One line per defect class: ``code xN`` plus a sample message."""
        if self.is_clean:
            return f"{self.trace_label}: clean"
        lines = [f"{self.trace_label}: {self.total} defect(s)"]
        samples: dict[str, str] = {}
        for defect in self.defects:
            samples.setdefault(defect.code, defect.message)
        for code in sorted(self.counts):
            lines.append(
                f"  {code} x{self.counts[code]}: {samples.get(code, '')}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class RepairAction:
    """One repair pass's effect on a trace."""

    repair: str
    touched: int
    detail: str = ""


# ---------------------------------------------------------------------------
# Defect detectors
#
# Each defect class that repair mends is found by one function over a
# trace's columns (a ``Trace.columns()`` mapping): validation formats
# its hits, and the repair pass drops or mends the same rows.

Columns = dict[str, np.ndarray]


def _nonfinite_cells(columns: Columns) -> dict[str, np.ndarray]:
    """Per field, in report order, the rows whose cell is NaN or ±inf
    (a missing RTT sample is no cell)."""
    cells = {
        name: ~np.isfinite(columns[name])
        for name in ACK_FIELDS[:-1]
        if name != "rtt_sample"
    }
    cells["rtt_sample"] = columns["has_rtt"] & ~np.isfinite(
        columns["rtt_sample"]
    )
    return cells


def _negative_cells(columns: Columns) -> dict[str, np.ndarray]:
    """Per field, the rows whose byte count or window is below zero, or
    whose RTT sample is not above it (``-inf`` included)."""
    cells = {
        name: columns[name] < 0
        for name in ("acked_bytes", "cwnd_bytes", "inflight_bytes")
    }
    cells["rtt_sample"] = columns["has_rtt"] & (columns["rtt_sample"] <= 0)
    return cells


def _any_cell(cells: dict[str, np.ndarray]) -> np.ndarray:
    """The rows with at least one flagged cell."""
    return np.logical_or.reduce(list(cells.values()))


def _duplicate_rows(columns: Columns) -> np.ndarray:
    """The rows equal, cell for cell, to an earlier row: ``-0.0``
    equals ``0.0``, and a NaN cell a NaN cell.

    Only rows that share a row hash can be equal, so the full-row
    comparison runs over those alone, in row order.
    """
    bits = []
    for name in ACK_FIELDS[:-1]:
        values = columns[name] + 0.0
        values[np.isnan(values)] = np.nan
        bits.append(values.view(np.uint64))
    bits += [columns[name].astype(np.uint64) for name in ("dupack", "has_rtt")]
    mixed = np.zeros(len(columns["time"]), dtype=np.uint64)
    for column in bits:
        mixed ^= column
        mixed *= np.uint64(0x9E3779B97F4A7C15)
    ordered = np.sort(mixed)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    duplicates = np.zeros(len(mixed), dtype=bool)
    if shared.size:
        seen: set[tuple] = set()
        for row in np.flatnonzero(np.isin(mixed, shared)).tolist():
            key = tuple(int(column[row]) for column in bits)
            duplicates[row] = key in seen
            seen.add(key)
    return duplicates


def _seq_regressions(columns: Columns) -> tuple[np.ndarray, np.ndarray]:
    """The new-data rows whose cumulative ACK falls below the highest
    earlier one, and that highest ACK for each.  A NaN compares false
    both ways, so it restarts the running highest."""
    rows = np.flatnonzero(~columns["dupack"])
    seq = columns["ack_seq"][rows]
    nan = np.isnan(seq)
    values = np.where(nan, -np.inf, seq)
    highest = np.full(len(seq), -np.inf)
    restarts = np.flatnonzero(nan).tolist()
    for start, stop in zip([0, *restarts], [*restarts, len(seq)]):
        if stop - start > 1:
            highest[start + 1 : stop] = np.maximum.accumulate(
                values[start : stop - 1]
            )
    regressed = seq < highest
    return rows[regressed], highest[regressed]


def _clock_jumps(time: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows more than :data:`CLOCK_JUMP_SECONDS` after the finite
    time before them, and those gaps."""
    rows = np.flatnonzero(np.isfinite(time))
    gaps = np.diff(time[rows])
    jumps = gaps > CLOCK_JUMP_SECONDS
    return rows[1:][jumps], gaps[jumps]


# ---------------------------------------------------------------------------
# Stage 1: validation
#
# Each check returns ``(counts, defects)``: exact per-class counts, and
# the defect records in the order a row-by-row walk would meet them,
# built lazily so that only the first few per class are ever formatted.

Check = Callable[[Trace], "tuple[dict[str, int], Iterator[TraceDefect]]"]


def _flagged(
    code: str, rows: np.ndarray, describe: Callable[[int, int], str]
) -> tuple[dict[str, int], Iterator[TraceDefect]]:
    """The hits of one class at *rows*, the k-th described as
    ``describe(k, row)``."""
    return {code: len(rows)}, (
        TraceDefect(code, describe(k, row), row)
        for k, row in enumerate(rows[:MAX_DEFECTS_PER_CLASS].tolist())
    )


def _whole_trace(
    code: str, hit: bool, message: str
) -> tuple[dict[str, int], Iterator[TraceDefect]]:
    """A defect of the trace as a whole: no record index."""
    return {code: int(hit)}, iter([TraceDefect(code, message)] if hit else [])


def _check_empty(trace: Trace):
    return _whole_trace(
        "empty_trace", not len(trace), "trace carries no ack records"
    )


def _check_rtt_samples(trace: Trace):
    rtt = trace.rtt_sample
    usable = trace.has_rtt & np.isfinite(rtt) & (rtt > 0)
    return _whole_trace(
        "no_rtt_samples",
        bool(len(trace)) and not usable.any(),
        "trace carries no finite positive RTT sample",
    )


def _check_nonfinite_fields(trace: Trace):
    cells = _nonfinite_cells(trace.columns())
    counts, acks = _flagged(
        "nonfinite_field",
        np.flatnonzero(_any_cell(cells)),
        lambda k, row: f"ack[{row}] has non-finite "
        + "/".join(name for name, mask in cells.items() if mask[row]),
    )
    losses = np.flatnonzero(~np.isfinite(trace.loss_times()))
    counts["nonfinite_field"] += len(losses)
    return counts, itertools.chain(
        acks,
        (
            TraceDefect(
                "nonfinite_field", f"loss[{index}] has non-finite time", index
            )
            for index in losses[:MAX_DEFECTS_PER_CLASS].tolist()
        ),
    )


def _check_negative_fields(trace: Trace):
    # A non-finite cell is reported as non-finite, not also as negative.
    columns = trace.columns()
    cells = {
        name: mask & np.isfinite(columns[name])
        for name, mask in _negative_cells(columns).items()
    }
    return _flagged(
        "negative_field",
        np.flatnonzero(_any_cell(cells)),
        lambda k, row: f"ack[{row}] has negative "
        + "/".join(name for name, mask in cells.items() if mask[row]),
    )


def _check_monotonic_time(trace: Trace):
    # A finite time behind the latest finite time before it regresses.
    time = trace.time
    finite = np.isfinite(time)
    latest = np.maximum.accumulate(np.where(finite, time, -np.inf))
    previous = np.concatenate(([-np.inf], latest[:-1]))
    return _flagged(
        "non_monotonic_time",
        np.flatnonzero(finite & (time < previous)),
        lambda k, row: f"ack[{row}] time {time[row]:.6f} precedes "
        f"{previous[row]:.6f}",
    )


def _check_clock_jump(trace: Trace):
    rows, gaps = _clock_jumps(trace.time)
    return _flagged(
        "clock_jump",
        rows,
        lambda k, row: f"ack[{row}] jumps {gaps[k]:.1f}s forward",
    )


def _check_duplicate_acks(trace: Trace):
    return _flagged(
        "duplicate_ack",
        np.flatnonzero(_duplicate_rows(trace.columns())),
        lambda k, row: f"ack[{row}] duplicates an earlier record "
        f"(seq {counter(float(trace.ack_seq[row]))} "
        f"at t={trace.time[row]:.6f})",
    )


def _check_ack_seq_regression(trace: Trace):
    rows, below = _seq_regressions(trace.columns())
    below = below.tolist()
    return _flagged(
        "ack_seq_regression",
        rows,
        lambda k, row: f"ack[{row}] cumulative seq "
        f"{counter(float(trace.ack_seq[row]))} "
        f"regresses below {counter(below[k])}",
    )


def _check_loss_records(trace: Trace):
    # Finite loss times in time order; ``index`` is the sorted position.
    times = trace.loss_times()
    times = np.sort(times[np.isfinite(times)], kind="stable")
    finite_acks = trace.time[np.isfinite(trace.time)]
    outside = np.zeros(len(times), dtype=bool)
    if finite_acks.size:
        # The first extreme in row order, as a walk finds it (which
        # tells -0.0 from 0.0 in the message).
        first = float(finite_acks[np.argmin(finite_acks)])
        last = float(finite_acks[np.argmax(finite_acks)])
        outside = (times < first - LOSS_SPAN_MARGIN) | (
            times > last + LOSS_SPAN_MARGIN
        )
    repeated = np.concatenate(([False], np.diff(times) <= LOSS_EPOCH_EPSILON))

    def defects() -> Iterator[TraceDefect]:
        for index in np.flatnonzero(outside | repeated).tolist():
            time = float(times[index])
            if outside[index]:
                yield TraceDefect(
                    "loss_outside_span",
                    f"loss at t={time:.6f} outside ack span "
                    f"[{first:.6f}, {last:.6f}]",
                    index,
                )
            if repeated[index]:
                yield TraceDefect(
                    "duplicate_loss",
                    f"loss epoch at t={time:.6f} duplicated",
                    index,
                )

    return {
        "loss_outside_span": int(outside.sum()),
        "duplicate_loss": int(repeated.sum()),
    }, defects()


#: The declarative checker table: defect class → check.  Order is the
#: report's presentation order; one check may count several classes.
DEFECT_CLASSES: dict[str, Check] = {
    "empty_trace": _check_empty,
    "no_rtt_samples": _check_rtt_samples,
    "nonfinite_field": _check_nonfinite_fields,
    "negative_field": _check_negative_fields,
    "non_monotonic_time": _check_monotonic_time,
    "clock_jump": _check_clock_jump,
    "duplicate_ack": _check_duplicate_acks,
    "ack_seq_regression": _check_ack_seq_regression,
    "loss_outside_span": _check_loss_records,
    "duplicate_loss": _check_loss_records,
}

#: Defects no policy can accept: the trace is unusable downstream.
FATAL_DEFECTS = frozenset({"empty_trace", "no_rtt_samples"})

#: Defects the repair stage fully resolves.
REPAIRABLE_DEFECTS = frozenset(
    {
        "nonfinite_field",
        "negative_field",
        "non_monotonic_time",
        "clock_jump",
        "duplicate_ack",
        "ack_seq_regression",
        "loss_outside_span",
        "duplicate_loss",
    }
)


def validate_trace(trace: Trace) -> DefectReport:
    """Run every invariant check; never raises on a defective trace.

    Counts are exact.  At most :data:`MAX_DEFECTS_PER_CLASS` defect
    records are kept per class, the first ones in row order, and a class
    enters ``counts`` when its first record is met.
    """
    report = DefectReport(
        trace_label=f"{trace.cca_name}/{trace.environment_label}"
    )
    for check in dict.fromkeys(DEFECT_CLASSES.values()):
        counts, defects = check(trace)
        wanted = {
            code: min(count, MAX_DEFECTS_PER_CLASS)
            for code, count in counts.items()
            if count
        }
        for defect in defects:
            if not any(wanted.values()):
                break
            report.counts.setdefault(defect.code, counts[defect.code])
            if wanted[defect.code]:
                wanted[defect.code] -= 1
                report.defects.append(defect)
    return report


# ---------------------------------------------------------------------------
# Stage 2: repair passes (pure, deterministic, each reports touch count)
#
# A pass takes the working columns and returns new ones: the trace's
# own columns are read-only, and no pass walks the rows.


def _rows(columns: Columns, rows) -> Columns:
    """*columns* at *rows* (a slice or row indices)."""
    return {name: column[rows] for name, column in columns.items()}


def _drop(columns: Columns, rows: np.ndarray) -> Columns:
    """*columns* without *rows* (a mask or row indices)."""
    return {name: np.delete(column, rows) for name, column in columns.items()}


def _repair_nonfinite_values(columns: Columns) -> tuple[Columns, int]:
    """Excise non-finite counters, unset non-finite RTT samples, and
    interpolate non-finite windows.

    Records whose counters (``ack_seq`` or a byte count) are non-finite
    are dropped: there is nothing to interpolate a *count* from.
    ``cwnd_bytes`` interpolates linearly between the nearest finite
    neighbors (window evolution is piecewise-smooth between losses), and
    a window at either end copies its one neighbor.  With no finite
    window left no record is kept, and every one counts as touched on
    top of the RTT samples already unset.
    """
    cells = _nonfinite_cells(columns)
    counters = (
        cells["ack_seq"] | cells["acked_bytes"] | cells["inflight_bytes"]
    )
    columns = _drop(columns, counters)
    unset = np.delete(cells["rtt_sample"], counters)
    columns["has_rtt"] = columns["has_rtt"] & ~unset
    columns["rtt_sample"] = np.where(unset, np.nan, columns["rtt_sample"])
    touched = int(counters.sum() + unset.sum())
    cwnd = columns["cwnd_bytes"]
    holes = ~np.isfinite(cwnd)
    if holes.all():
        return _rows(columns, slice(0)), touched + len(cwnd)
    if holes.any():
        # Each row's nearest finite neighbors (itself when finite).
        rows = np.arange(len(cwnd))
        before = np.maximum.accumulate(np.where(holes, -1, rows))
        after = np.minimum.accumulate(np.where(holes, len(cwnd), rows)[::-1])
        after = after[::-1]
        before = np.where(before < 0, after, before)
        after = np.where(after == len(cwnd), before, after)
        lo, hi = cwnd[before], cwnd[after]
        frac = (rows - before) / np.maximum(after - before, 1)
        columns["cwnd_bytes"] = np.where(
            before == after, lo, lo + frac * (hi - lo)
        )
        touched += int(holes.sum())
    return columns, touched


def _repair_clock_jump(columns: Columns) -> tuple[Columns, int, str]:
    """De-skew forward clock jumps; truncate short trailing garbage.

    A forward discontinuity larger than :data:`CLOCK_JUMP_SECONDS`
    cannot be queueing delay.  When the post-jump suffix is a tiny tail
    (< :data:`TRAILING_GARBAGE_FRACTION` of the trace) it is dropped as
    trailing garbage; otherwise every subsequent timestamp shifts back
    so the gap collapses to the median inter-ACK spacing — preserving
    the suffix's internal timing, and never to before the time it
    follows (with a zero median gap the subtraction can round the suffix
    a few ulps below it).  One jump at a time, in row order, each found
    in the times the earlier shifts left.
    """
    if len(columns["time"]) < 2:
        return columns, 0, ""
    time = columns["time"].copy()
    gaps = np.diff(time)
    gaps = np.sort(
        gaps[(gaps >= 0) & (gaps <= CLOCK_JUMP_SECONDS)], kind="stable"
    )
    median_gap = float(gaps[len(gaps) // 2]) if len(gaps) else 0.0
    touched = 0
    detail = ""
    index = 1
    while True:
        rows, jumps = _clock_jumps(time[index - 1 :])
        if not len(rows):
            break
        index += int(rows[0]) - 1
        suffix = len(time) - index
        if suffix <= max(2, int(len(time) * TRAILING_GARBAGE_FRACTION)):
            kept = _rows({**columns, "time": time}, slice(index))
            return kept, touched + suffix, (
                f"truncated {suffix} trailing record(s)"
            )
        shift = float(jumps[0]) - median_gap
        shifted = time[index:] - shift
        before = time[index - 1]
        time[index:] = np.where(shifted < before, before, shifted)
        # The corrupt datum is the one discontinuity; the shift
        # restores the timeline without losing any record, so the
        # quality-relevant touch count is 1 per jump, not the
        # suffix length.
        touched += 1
        detail = f"de-skewed {suffix} record(s) by {shift:.1f}s"
        index += 1
    return {**columns, "time": time}, touched, detail


def _repair_losses(
    losses: list[LossRecord], span: tuple[float, float] | None
) -> tuple[list, int]:
    """Sort losses, drop non-finite/out-of-span times, dedup epochs."""
    finite = sorted(
        (loss for loss in losses if math.isfinite(loss.time)),
        key=lambda loss: loss.time,
    )
    kept: list[LossRecord] = []
    for loss in finite:
        if span is not None and not (
            span[0] - LOSS_SPAN_MARGIN
            <= loss.time
            <= span[1] + LOSS_SPAN_MARGIN
        ):
            continue
        if kept and loss.time - kept[-1].time <= LOSS_EPOCH_EPSILON:
            continue
        kept.append(loss)
    return kept, len(losses) - len(kept)


def repair_trace(trace: Trace) -> tuple[Trace, list[RepairAction]]:
    """Apply every repair pass; return the repaired copy and the log.

    Pure: *trace* is never mutated.  Passes run in dependency order —
    excision before de-skew (NaN times cannot be sorted), de-skew
    before dedup (duplicates are defined on final timestamps).  Each
    excision drops the rows a detector finds; the re-sort is a stable
    ``argsort`` and touches every row it moves.
    """
    actions: list[RepairAction] = []

    def log(repair: str, touched: int, detail: str) -> None:
        if touched:
            actions.append(RepairAction(repair, touched, detail))

    columns = trace.columns()
    unusable = _nonfinite_cells(columns)["time"]
    columns = _drop(columns, unusable)
    log("excise_unusable", int(unusable.sum()), "non-finite timestamps")
    columns, touched = _repair_nonfinite_values(columns)
    log("nonfinite_values", touched, "interpolated/excised NaN-inf")
    negative = _any_cell(_negative_cells(columns))
    columns = _drop(columns, negative)
    log("negative_values", int(negative.sum()), "excised negatives")
    order = np.argsort(columns["time"], kind="stable")
    columns = _rows(columns, order)
    moved = int((order != np.arange(len(order))).sum())
    log("resort_time", moved, "stable re-sort by time")
    columns, touched, detail = _repair_clock_jump(columns)
    log("clock_jump", touched, detail)
    duplicates = _duplicate_rows(columns)
    columns = _drop(columns, duplicates)
    log("duplicate_acks", int(duplicates.sum()), "exact-duplicate dedup")
    regressions, _ = _seq_regressions(columns)
    columns = _drop(columns, regressions)
    log("ack_seq_regression", len(regressions), "dropped regressing acks")

    time = columns["time"]
    span = (float(time.min()), float(time.max())) if len(time) else None
    losses, touched = _repair_losses(list(trace.losses), span)
    log("loss_records", touched, "span/dedup loss hygiene")

    if not actions:
        return trace, []
    # A count is stored as the number a row holds (``counter``), which
    # reads -0.0 as 0.
    for name in ("ack_seq", "acked_bytes", "inflight_bytes"):
        columns[name] = columns[name] + 0.0
    repaired = Trace.from_columns(
        trace.cca_name,
        trace.environment_label,
        trace.mss,
        columns,
        losses,
        dict(trace.meta),
    )
    return repaired, actions


def trace_quality(
    original: Trace, actions: list[RepairAction]
) -> float:
    """Quality score: fraction of original records left untouched."""
    total = len(original) + len(original.losses)
    if total == 0:
        return 0.0
    touched = min(sum(action.touched for action in actions), total)
    return 1.0 - touched / total


# ---------------------------------------------------------------------------
# Stage 3: policy + admission


@dataclass(frozen=True)
class TriagePolicy:
    """How much repair the ingestion guard is allowed to perform.

    ``strict``     — refuse any trace with defects (collection QA).
    ``repair``     — repair what is repairable; refuse traces whose
                     defects survive repair (the default).
    ``permissive`` — accept repaired traces even with residual
                     non-fatal defects (salvage campaigns).

    ``min_quality`` refuses traces whose post-repair quality score falls
    below the floor, under every mode: a trace where most records were
    touched is evidence, not data.
    """

    mode: str = "repair"
    min_quality: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in POLICY_MODES:
            raise TraceError(
                f"unknown triage policy {self.mode!r}; "
                f"expected one of {', '.join(POLICY_MODES)}"
            )
        if not 0.0 <= self.min_quality <= 1.0:
            raise TraceError("min_quality must be within [0, 1]")


@dataclass
class TriageResult:
    """Outcome of triaging one trace."""

    trace: Trace | None  #: the admitted trace (``None`` when refused)
    report: DefectReport  #: pre-repair validation findings
    repairs: list[RepairAction]
    quality: float
    action: str  #: ``"clean" | "repaired" | "rejected"``
    reason: str = ""  #: rejection reason (empty when admitted)

    @property
    def accepted(self) -> bool:
        return self.trace is not None


@dataclass
class TriageSummary:
    """Aggregate outcome of triaging a trace collection."""

    results: list[TriageResult] = field(default_factory=list)

    @property
    def traces(self) -> list[Trace]:
        return [r.trace for r in self.results if r.trace is not None]

    @property
    def accepted(self) -> int:
        return sum(1 for r in self.results if r.accepted)

    @property
    def repaired(self) -> int:
        return sum(1 for r in self.results if r.action == "repaired")

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.results if r.action == "rejected")

    @property
    def min_quality(self) -> float:
        qualities = [r.quality for r in self.results if r.accepted]
        return min(qualities) if qualities else 0.0


def _defect_histogram(counts: dict[str, int]) -> str:
    """Render a defect histogram as a stable ``code:count`` string."""
    return ",".join(f"{code}:{counts[code]}" for code in sorted(counts))


def triage_trace(
    trace: Trace, policy: TriagePolicy | None = None
) -> TriageResult:
    """Validate, optionally repair, and admit or refuse one trace.

    Clean traces are returned as the *same object* (bit-identical
    downstream behavior); repaired traces are fresh copies carrying
    ``quality``, ``triage_defects`` and ``triage_repairs`` in their
    ``meta``.
    """
    policy = policy or TriagePolicy()
    report = validate_trace(trace)
    if report.is_clean:
        return TriageResult(
            trace=trace,
            report=report,
            repairs=[],
            quality=1.0,
            action="clean",
        )
    if report.fatal:
        return TriageResult(
            trace=None,
            report=report,
            repairs=[],
            quality=0.0,
            action="rejected",
            reason=f"fatal defect(s): {', '.join(report.fatal)}",
        )
    if policy.mode == "strict":
        return TriageResult(
            trace=None,
            report=report,
            repairs=[],
            quality=0.0,
            action="rejected",
            reason=(
                "strict policy refuses defective trace "
                f"({_defect_histogram(report.counts)})"
            ),
        )

    repaired, actions = repair_trace(trace)
    quality = trace_quality(trace, actions)
    residual = validate_trace(repaired)
    if residual.fatal:
        return TriageResult(
            trace=None,
            report=report,
            repairs=actions,
            quality=quality,
            action="rejected",
            reason=(
                "repair left fatal defect(s): "
                f"{', '.join(residual.fatal)}"
            ),
        )
    if not residual.is_clean and policy.mode == "repair":
        return TriageResult(
            trace=None,
            report=report,
            repairs=actions,
            quality=quality,
            action="rejected",
            reason=(
                "defects survive repair: "
                f"{_defect_histogram(residual.counts)}"
            ),
        )
    if quality < policy.min_quality:
        return TriageResult(
            trace=None,
            report=report,
            repairs=actions,
            quality=quality,
            action="rejected",
            reason=(
                f"quality {quality:.2f} below policy floor "
                f"{policy.min_quality:.2f}"
            ),
        )
    repaired.meta["quality"] = quality
    repaired.meta["triage_defects"] = _defect_histogram(report.counts)
    repaired.meta["triage_repairs"] = ",".join(
        f"{action.repair}:{action.touched}" for action in actions
    )
    if not residual.is_clean:
        repaired.meta["triage_residual"] = _defect_histogram(residual.counts)
    return TriageResult(
        trace=repaired,
        report=report,
        repairs=actions,
        quality=quality,
        action="repaired",
    )


def triage_traces(
    traces: list[Trace],
    policy: TriagePolicy | None = None,
    *,
    context=None,
) -> TriageSummary:
    """Triage a collection, emitting telemetry per trace and per repair.

    *context* is a :class:`repro.runtime.context.RunContext` (kept
    duck-typed so ``repro.trace`` does not import ``repro.runtime`` at
    module level).  Raises :class:`TraceError` when every trace is
    refused — downstream has nothing to work with, and the structured
    reports ride on the exception message.
    """
    summary = TriageSummary()
    for trace in traces:
        result = triage_trace(trace, policy)
        summary.results.append(result)
        if context is not None:
            from repro.runtime.events import TraceRepairApplied, TraceTriaged

            for action in result.repairs:
                context.emit(
                    TraceRepairApplied(
                        trace=result.report.trace_label,
                        repair=action.repair,
                        touched=action.touched,
                        detail=action.detail,
                    )
                )
            context.emit(
                TraceTriaged(
                    trace=result.report.trace_label,
                    action=result.action,
                    quality=round(result.quality, 6),
                    defects=dict(result.report.counts),
                    reason=result.reason,
                )
            )
    if traces and not summary.traces:
        reasons = "; ".join(
            f"{r.report.trace_label}: {r.reason}" for r in summary.results
        )
        raise TraceError(f"triage refused every trace ({reasons})")
    return summary
