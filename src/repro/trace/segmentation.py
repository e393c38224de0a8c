"""Loss inference and trace segmentation (§3.2).

Abagnale splits flow traces into *segments* between loss events, because
the cwnd-ack handler only governs the window between losses.  Losses are
inferred the way a passive observer would: a run of three duplicate ACKs
for the same sequence number signals a retransmission.  Explicit loss
records in the trace (when the vantage point has them) are merged with
the inferred ones.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from repro.errors import TraceError
from repro.trace.model import Trace, TraceSegment

__all__ = ["infer_loss_times", "segment_trace"]

#: Duplicate-ACK count that signals a loss, per standard fast retransmit.
DUPACK_THRESHOLD = 3
#: Segments shorter than this many new-data ACKs are discarded: they carry
#: too little window evolution to score against.
MIN_SEGMENT_ACKS = 12
#: Two loss signals closer than this (seconds) collapse into one event.
LOSS_MERGE_WINDOW = 0.05


def infer_loss_times(trace: Trace) -> list[float]:
    """Infer loss-event times from triple-duplicate-ACK runs.

    Returns merged, deduplicated timestamps, combining inference with any
    loss records the trace already carries.
    """
    inferred: list[float] = []
    dup_count = 0
    dup_seq: int | None = None
    for ack in trace.acks:
        if ack.dupack and ack.ack_seq == dup_seq:
            dup_count += 1
            if dup_count == DUPACK_THRESHOLD:
                inferred.append(ack.time)
        elif ack.dupack:
            dup_seq = ack.ack_seq
            dup_count = 1
        else:
            dup_seq = ack.ack_seq
            dup_count = 0

    merged: list[float] = []
    for time in sorted(inferred + [loss.time for loss in trace.losses]):
        if not merged or time - merged[-1] > LOSS_MERGE_WINDOW:
            merged.append(time)
    return merged


def segment_trace(
    trace: Trace, *, min_acks: int = MIN_SEGMENT_ACKS
) -> list[TraceSegment]:
    """Split *trace* into loss-delimited segments.

    Segment boundaries sit at inferred loss events; each segment starts at
    the first new-data ACK after a loss (when the CCA has reacted) and
    runs to the ACK preceding the next loss.  Segments with fewer than
    *min_acks* new-data ACKs are dropped.
    """
    # Segmentation assumes time-ordered, finite timestamps: the epoch
    # windows below are half-open time intervals, so an out-of-order or
    # NaN timestamp silently scatters ACKs across the wrong segments.
    # Refuse with an actionable error instead — repairable through
    # :mod:`repro.trace.triage`.
    acks = trace.acks
    times: list[float] = []
    for index, ack in enumerate(acks):
        time = ack.time
        if not math.isfinite(time):
            raise TraceError(
                f"ack[{index}] has non-finite timestamp; run trace "
                "triage (or `repro validate`) before segmentation"
            )
        if times and time < times[-1]:
            raise TraceError(
                f"ack[{index}] time {time:.6f} precedes its "
                f"predecessor ({times[-1]:.6f}); run trace triage "
                "(or `repro validate`) before segmentation"
            )
        times.append(time)

    # The precheck proved the times sorted, so each epoch ``(lo, hi]``
    # is one contiguous run of ACKs, found by binary search.
    losses = infer_loss_times(trace)
    boundaries = [float("-inf")] + losses + [float("inf")]
    segments: list[TraceSegment] = []
    for epoch_index in range(len(boundaries) - 1):
        lo, hi = boundaries[epoch_index], boundaries[epoch_index + 1]
        if not lo <= hi:
            continue  # a NaN loss time: no ACK time compares inside
        indices = [
            index
            for index in range(
                bisect_right(times, lo), bisect_right(times, hi)
            )
            if not acks[index].dupack
        ]
        if len(indices) < min_acks:
            continue
        segments.append(
            TraceSegment(
                trace=trace,
                start=indices[0],
                stop=indices[-1] + 1,
                preceding_loss_time=lo if lo != float("-inf") else 0.0,
            )
        )
    return segments
