"""Summary statistics over collected traces.

Measurement studies report flows by goodput, utilization, loss rate and
RTT inflation; these helpers compute those summaries from a
:class:`~repro.trace.model.Trace` so examples, the CLI and tests don't
re-derive them ad hoc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.trace.model import Trace
from repro.trace.signals import usable_rtt

__all__ = ["TraceStats", "summarize"]


@dataclass(frozen=True)
class TraceStats:
    """Flow-level summary of one trace."""

    duration: float
    delivered_bytes: int
    goodput_bps: float
    loss_events: int
    loss_rate_per_sec: float
    rtt_min: float
    rtt_p50: float
    rtt_p95: float
    rtt_max: float
    cwnd_mean: float
    cwnd_p10: float
    cwnd_p90: float
    ack_count: int
    dupack_fraction: float

    def utilization(self, bandwidth_bps: float) -> float:
        """Fraction of *bandwidth_bps* the flow's goodput achieved."""
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        return min(self.goodput_bps / bandwidth_bps, 1.0)

    def rtt_inflation(self) -> float:
        """Median RTT relative to the observed floor (1.0 = no queueing)."""
        return self.rtt_p50 / self.rtt_min if self.rtt_min > 0 else float("inf")


def summarize(trace: Trace) -> TraceStats:
    """Compute :class:`TraceStats` for *trace*."""
    if not len(trace):
        raise TraceError("cannot summarize an empty trace")
    new = ~trace.dupack
    if not new.any():
        raise TraceError("trace has no new-data ACKs")
    times = trace.time[new]
    seqs = trace.ack_seq[new]
    duration = float(times[-1] - times[0]) if len(times) > 1 else 0.0
    delivered = float(seqs[-1] - (seqs[0] - trace.acked_bytes[new][0]))
    goodput = 8.0 * delivered / duration if duration > 0 else 0.0
    # The samples signal extraction uses: finite and positive.
    rtts = trace.rtt_sample[usable_rtt(trace)[0]]
    if rtts.size == 0:
        raise TraceError("trace carries no RTT samples")
    cwnd = trace.cwnd_bytes[new]
    return TraceStats(
        duration=duration,
        delivered_bytes=int(delivered),
        goodput_bps=goodput,
        loss_events=len(trace.losses),
        loss_rate_per_sec=len(trace.losses) / duration if duration > 0 else 0.0,
        rtt_min=float(rtts.min()),
        rtt_p50=float(np.percentile(rtts, 50)),
        rtt_p95=float(np.percentile(rtts, 95)),
        rtt_max=float(rtts.max()),
        cwnd_mean=float(cwnd.mean()),
        cwnd_p10=float(np.percentile(cwnd, 10)),
        cwnd_p90=float(np.percentile(cwnd, 90)),
        ack_count=len(trace),
        dupack_fraction=1.0 - len(times) / len(trace),
    )
