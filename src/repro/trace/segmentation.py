"""Loss inference and trace segmentation (§3.2).

Abagnale splits flow traces into *segments* between loss events, because
the cwnd-ack handler only governs the window between losses.  Losses are
inferred the way a passive observer would: a run of three duplicate ACKs
for the same sequence number signals a retransmission.  Explicit loss
records in the trace (when the vantage point has them) are merged with
the inferred ones.
"""

from __future__ import annotations

import numpy as np

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
    # A dupack repeating the previous ack's sequence number extends a
    # run; a dupack that does not starts one at 1, and a new-data ack
    # resets it to 0.  The run's third duplicate signals the loss.
    dupack, seq = trace.dupack, trace.ack_seq
    extends = np.zeros(len(trace), dtype=bool)
    extends[1:] = dupack[1:] & (seq[1:] == seq[:-1])
    extended = np.cumsum(extends)
    run = extended - np.maximum.accumulate(np.where(extends, 0, extended))
    rows = np.arange(len(trace))
    count = run + dupack[rows - run]
    inferred = trace.time[extends & (count == DUPACK_THRESHOLD)].tolist()

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
    times = trace.time
    nonfinite = ~np.isfinite(times)
    backwards = np.zeros(len(trace), dtype=bool)
    backwards[1:] = times[1:] < times[:-1]
    if nonfinite.any() or backwards.any():
        index = int(np.argmax(nonfinite | backwards))
        if nonfinite[index]:
            raise TraceError(
                f"ack[{index}] has non-finite timestamp; run trace "
                "triage (or `repro validate`) before segmentation"
            )
        raise TraceError(
            f"ack[{index}] time {times[index]:.6f} precedes its "
            f"predecessor ({times[index - 1]:.6f}); run trace triage "
            "(or `repro validate`) before segmentation"
        )

    # The precheck proved the times sorted, so each epoch ``(lo, hi]``
    # is one contiguous run of ACKs, found by binary search; the
    # new-data ACKs before each position count the ones inside.
    losses = infer_loss_times(trace)
    boundaries = [float("-inf")] + losses + [float("inf")]
    edges = np.searchsorted(times, boundaries, side="right").tolist()
    new_rows = np.flatnonzero(~trace.dupack).tolist()
    new_before = np.concatenate(([0], np.cumsum(~trace.dupack))).tolist()
    segments: list[TraceSegment] = []
    for epoch_index in range(len(boundaries) - 1):
        lo, hi = boundaries[epoch_index], boundaries[epoch_index + 1]
        if not lo <= hi:
            continue  # a NaN loss time: no ACK time compares inside
        first = new_before[edges[epoch_index]]
        last = new_before[edges[epoch_index + 1]]
        if last - first < min_acks:
            continue
        segments.append(
            TraceSegment(
                trace=trace,
                start=new_rows[first],
                stop=new_rows[last - 1] + 1,
                preceding_loss_time=lo if lo != float("-inf") else 0.0,
            )
        )
    return segments
