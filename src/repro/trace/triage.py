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
always repairs to the same bytes.  They run row by row, over the
trace's ``acks`` view, on the dirty path only, and pack the repaired
rows back into a columnar trace.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Iterator

import numpy as np

from repro.errors import TraceError
from repro.trace.model import ACK_FIELDS, AckRecord, LossRecord, Trace, counter

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
# Stage 1: validation
#
# Each check computes one mask per defect class over the trace's columns
# and returns ``(counts, defects)``: exact per-class counts, and the
# defect records in the order a row-by-row walk would meet them, built
# lazily so that only the first few per class are ever formatted.

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
    fields = {
        name: ~np.isfinite(getattr(trace, name))
        for name in ("time", "acked_bytes", "cwnd_bytes", "inflight_bytes")
    }
    fields["rtt_sample"] = trace.has_rtt & ~np.isfinite(trace.rtt_sample)
    counts, acks = _flagged(
        "nonfinite_field",
        np.flatnonzero(np.logical_or.reduce(list(fields.values()))),
        lambda k, row: f"ack[{row}] has non-finite "
        + "/".join(name for name, mask in fields.items() if mask[row]),
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
    fields = {}
    for name in ("acked_bytes", "cwnd_bytes", "inflight_bytes"):
        column = getattr(trace, name)
        fields[name] = np.isfinite(column) & (column < 0)
    rtt = trace.rtt_sample
    fields["rtt_sample"] = trace.has_rtt & np.isfinite(rtt) & (rtt <= 0)
    return _flagged(
        "negative_field",
        np.flatnonzero(np.logical_or.reduce(list(fields.values()))),
        lambda k, row: f"ack[{row}] has negative "
        + "/".join(name for name, mask in fields.items() if mask[row]),
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
    # The gap to the previous finite time.
    rows = np.flatnonzero(np.isfinite(trace.time))
    gaps = np.diff(trace.time[rows])
    jumps = gaps > CLOCK_JUMP_SECONDS
    jump_gaps = gaps[jumps]
    return _flagged(
        "clock_jump",
        rows[1:][jumps],
        lambda k, row: f"ack[{row}] jumps {jump_gaps[k]:.1f}s forward",
    )


def _cell_bits(trace: Trace) -> list[np.ndarray]:
    """Each column as uint64 bit patterns, equal exactly when the cells
    are: ``-0.0`` reads as ``0.0``, and every NaN as one NaN."""
    columns = []
    for name in ACK_FIELDS[:-1]:
        values = getattr(trace, name) + 0.0
        values[np.isnan(values)] = np.nan
        columns.append(values.view(np.uint64))
    return columns + [
        trace.dupack.astype(np.uint64),
        trace.has_rtt.astype(np.uint64),
    ]


def _check_duplicate_acks(trace: Trace):
    # Only acks that share a row hash can be exact duplicates, so the
    # full-row comparison runs over those alone, in row order.
    columns = _cell_bits(trace)
    mixed = np.zeros(len(trace), dtype=np.uint64)
    for bits in columns:
        mixed ^= bits
        mixed *= np.uint64(0x9E3779B97F4A7C15)
    ordered = np.sort(mixed)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    duplicates = np.zeros(len(trace), dtype=bool)
    if shared.size:
        seen: set[tuple] = set()
        for row in np.flatnonzero(np.isin(mixed, shared)).tolist():
            key = tuple(int(bits[row]) for bits in columns)
            duplicates[row] = key in seen
            seen.add(key)
    return _flagged(
        "duplicate_ack",
        np.flatnonzero(duplicates),
        lambda k, row: f"ack[{row}] duplicates an earlier record "
        f"(seq {counter(float(trace.ack_seq[row]))} "
        f"at t={trace.time[row]:.6f})",
    )


def _check_ack_seq_regression(trace: Trace):
    # A new-data ack regresses below the highest earlier one.  A NaN
    # compares false both ways, so it restarts the running highest.
    rows = np.flatnonzero(~trace.dupack)
    seq = trace.ack_seq[rows]
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
    found, below = seq[regressed].tolist(), highest[regressed].tolist()
    return _flagged(
        "ack_seq_regression",
        rows[regressed],
        lambda k, row: f"ack[{row}] cumulative seq {counter(found[k])} "
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


def _repair_excise_unusable(acks: list[AckRecord]) -> tuple[list, int]:
    """Drop records whose time cannot be trusted at all (NaN/inf)."""
    kept = [ack for ack in acks if math.isfinite(ack.time)]
    return kept, len(acks) - len(kept)


def _repair_nonfinite_values(acks: list[AckRecord]) -> tuple[list, int]:
    """Interpolate or excise non-finite payload fields.

    ``cwnd_bytes`` interpolates linearly between the nearest finite
    neighbors (window evolution is piecewise-smooth between losses);
    non-finite RTT samples become ``None`` (no sample); records whose
    byte counters are non-finite are dropped — there is nothing to
    interpolate a *count* from.
    """
    touched = 0
    kept: list[AckRecord] = []
    for ack in acks:
        if not (
            math.isfinite(ack.acked_bytes) and math.isfinite(ack.inflight_bytes)
        ):
            touched += 1
            continue
        if ack.rtt_sample is not None and not math.isfinite(ack.rtt_sample):
            ack = dc_replace(ack, rtt_sample=None)
            touched += 1
        kept.append(ack)
    # Interpolate non-finite cwnd from finite neighbors.
    finite_indices = [
        i for i, ack in enumerate(kept) if math.isfinite(ack.cwnd_bytes)
    ]
    if finite_indices and len(finite_indices) < len(kept):
        for i, ack in enumerate(kept):
            if math.isfinite(ack.cwnd_bytes):
                continue
            before = max(
                (j for j in finite_indices if j < i), default=None
            )
            after = min((j for j in finite_indices if j > i), default=None)
            if before is not None and after is not None:
                lo, hi = kept[before], kept[after]
                frac = (i - before) / (after - before)
                value = lo.cwnd_bytes + frac * (hi.cwnd_bytes - lo.cwnd_bytes)
            elif before is not None:
                value = kept[before].cwnd_bytes
            elif after is not None:
                value = kept[after].cwnd_bytes
            else:  # pragma: no cover - guarded by finite_indices truthiness
                continue
            kept[i] = dc_replace(ack, cwnd_bytes=value)
            touched += 1
    elif not finite_indices:
        touched += len(kept)
        kept = []
    return kept, touched


def _repair_negative_values(acks: list[AckRecord]) -> tuple[list, int]:
    """Excise records with negative counters or windows.

    A negative byte count or window is field corruption, not
    observation noise; the neighboring records are the trustworthy
    signal, so the corrupt record is removed rather than clamped to a
    fabricated value.
    """
    def bad(ack: AckRecord) -> bool:
        return (
            ack.acked_bytes < 0
            or ack.cwnd_bytes < 0
            or ack.inflight_bytes < 0
            or (ack.rtt_sample is not None and ack.rtt_sample <= 0)
        )

    kept = [ack for ack in acks if not bad(ack)]
    return kept, len(acks) - len(kept)


def _repair_clock_jump(acks: list[AckRecord]) -> tuple[list, int, str]:
    """De-skew forward clock jumps; truncate short trailing garbage.

    A forward discontinuity larger than :data:`CLOCK_JUMP_SECONDS`
    cannot be queueing delay.  When the post-jump suffix is a tiny tail
    (< :data:`TRAILING_GARBAGE_FRACTION` of the trace) it is dropped as
    trailing garbage; otherwise every subsequent timestamp shifts back
    so the gap collapses to the median inter-ACK spacing — preserving
    the suffix's internal timing.
    """
    if len(acks) < 2:
        return acks, 0, ""
    gaps = sorted(
        b.time - a.time
        for a, b in zip(acks, acks[1:])
        if 0 <= b.time - a.time <= CLOCK_JUMP_SECONDS
    )
    median_gap = gaps[len(gaps) // 2] if gaps else 0.0
    out = list(acks)
    touched = 0
    detail = ""
    index = 1
    while index < len(out):
        jump = out[index].time - out[index - 1].time
        if jump > CLOCK_JUMP_SECONDS:
            suffix = len(out) - index
            if suffix <= max(2, int(len(out) * TRAILING_GARBAGE_FRACTION)):
                touched += suffix
                detail = f"truncated {suffix} trailing record(s)"
                out = out[:index]
                break
            shift = jump - median_gap
            out[index:] = [
                dc_replace(ack, time=ack.time - shift)
                for ack in out[index:]
            ]
            # The corrupt datum is the one discontinuity; the shift
            # restores the timeline without losing any record, so the
            # quality-relevant touch count is 1 per jump, not the
            # suffix length.
            touched += 1
            detail = f"de-skewed {suffix} record(s) by {shift:.1f}s"
        index += 1
    return out, touched, detail


def _repair_resort_time(acks: list[AckRecord]) -> tuple[list, int]:
    """Stable re-sort by timestamp (jitter/shuffle de-skew).

    ``sorted`` is stable, so equal-time records keep their arrival
    order; touch count is the number of records whose position changed.
    """
    resorted = sorted(acks, key=lambda ack: ack.time)
    touched = sum(
        1 for before, after in zip(acks, resorted) if before is not after
    )
    return resorted, touched


def _repair_duplicate_acks(acks: list[AckRecord]) -> tuple[list, int]:
    """Drop exact-duplicate ack records, keeping first occurrences.

    As in validation, a NaN cell equals a NaN cell.  The earlier passes
    left a NaN only in ``ack_seq``, which no pass repairs.
    """
    seen: set[tuple] = set()
    kept: list[AckRecord] = []
    for ack in acks:
        seq = ack.ack_seq
        key = (
            ack.time,
            math.nan if seq != seq else seq,
            ack.acked_bytes,
            ack.rtt_sample,
            ack.cwnd_bytes,
            ack.inflight_bytes,
            ack.dupack,
        )
        if key in seen:
            continue
        seen.add(key)
        kept.append(ack)
    return kept, len(acks) - len(kept)


def _repair_ack_seq_regression(acks: list[AckRecord]) -> tuple[list, int]:
    """Drop new-data records whose cumulative ACK regresses."""
    kept: list[AckRecord] = []
    highest: int | None = None
    for ack in acks:
        if not ack.dupack:
            if highest is not None and ack.ack_seq < highest:
                continue
            highest = ack.ack_seq
        kept.append(ack)
    return kept, len(acks) - len(kept)


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
    before dedup (duplicates are defined on final timestamps).
    """
    actions: list[RepairAction] = []
    acks = list(trace.acks)

    acks, touched = _repair_excise_unusable(acks)
    if touched:
        actions.append(
            RepairAction("excise_unusable", touched, "non-finite timestamps")
        )
    acks, touched = _repair_nonfinite_values(acks)
    if touched:
        actions.append(
            RepairAction(
                "nonfinite_values", touched, "interpolated/excised NaN-inf"
            )
        )
    acks, touched = _repair_negative_values(acks)
    if touched:
        actions.append(
            RepairAction("negative_values", touched, "excised negatives")
        )
    acks, touched = _repair_resort_time(acks)
    if touched:
        actions.append(
            RepairAction("resort_time", touched, "stable re-sort by time")
        )
    acks, touched, detail = _repair_clock_jump(acks)
    if touched:
        actions.append(RepairAction("clock_jump", touched, detail))
    acks, touched = _repair_duplicate_acks(acks)
    if touched:
        actions.append(
            RepairAction("duplicate_acks", touched, "exact-duplicate dedup")
        )
    acks, touched = _repair_ack_seq_regression(acks)
    if touched:
        actions.append(
            RepairAction(
                "ack_seq_regression", touched, "dropped regressing acks"
            )
        )

    span = None
    times = [ack.time for ack in acks]
    if times:
        span = (min(times), max(times))
    losses, touched = _repair_losses(list(trace.losses), span)
    if touched:
        actions.append(
            RepairAction("loss_records", touched, "span/dedup loss hygiene")
        )

    if not actions:
        return trace, []
    repaired = Trace(
        cca_name=trace.cca_name,
        environment_label=trace.environment_label,
        mss=trace.mss,
        acks=acks,
        losses=losses,
        meta=dict(trace.meta),
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
