"""Trace signatures for classification.

Classifiers compare a target flow's visible-cwnd dynamics against
reference flows of known CCAs.  The signature concatenates two views:

* the cwnd-over-time *shape* (resampled to a fixed grid, scaled by its
  mean) — separates sawtooth (Reno), cubic-plateau (Cubic), pulsing
  (BBR) and flat (Vegas) families;
* the normalized *queueing-delay profile* (RTT above the path minimum)
  — separates delay-yielding CCAs from buffer-filling ones at similar
  window shapes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ClassificationError
from repro.trace.model import Trace

__all__ = ["trace_signature", "signature_distance", "SIGNATURE_POINTS"]

#: Points per signature component.
SIGNATURE_POINTS = 96

#: Weight of the delay profile relative to the cwnd shape.
_DELAY_WEIGHT = 0.5


def trace_signature(trace: Trace) -> np.ndarray:
    """Compute the classification signature of *trace*."""
    rows = ~trace.dupack
    if np.count_nonzero(rows) < 8:
        raise ClassificationError(
            f"trace {trace.environment_label!r} too short to classify"
        )
    times = trace.time[rows]
    cwnd = trace.cwnd_bytes[rows]
    # A missing sample reads NaN, like a non-finite one.
    rtts = trace.rtt_sample[rows]
    # Forward-fill missing RTT samples.
    mask = np.isnan(rtts)
    if mask.all():
        raise ClassificationError("trace carries no RTT samples")
    indices = np.where(~mask, np.arange(len(rtts)), 0)
    np.maximum.accumulate(indices, out=indices)
    rtts = rtts[indices]

    grid = np.linspace(times[0], times[-1], SIGNATURE_POINTS)
    cwnd_resampled = np.interp(grid, times, cwnd)
    rtt_resampled = np.interp(grid, times, rtts)

    cwnd_mean = cwnd_resampled.mean()
    shape = cwnd_resampled / cwnd_mean if cwnd_mean > 0 else cwnd_resampled

    rtt_floor = rtt_resampled.min()
    span = max(rtt_resampled.max() - rtt_floor, 1e-9)
    delay_profile = (rtt_resampled - rtt_floor) / span

    return np.concatenate([shape, _DELAY_WEIGHT * delay_profile])


def signature_distance(left: np.ndarray, right: np.ndarray) -> float:
    """Mean absolute difference between two signatures."""
    return float(np.mean(np.abs(left - right)))
