"""Congestion-signal extraction from trace segments.

Replaying a candidate handler (§3.1) needs, for every ACK in a segment,
the *signal environment* the DSL reads: RTT statistics, ACK rate,
time-since-loss, etc.  This module turns a :class:`TraceSegment` into a
:class:`SignalTable` of aligned numpy arrays.  All signals are derived
from information a sender-side vantage point has — cumulative running
minima/maxima start fresh at the beginning of the *trace* (not segment),
like a measurement tool that watched the whole flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro.errors import TraceError
from repro.trace.model import AckRecord, TraceSegment

__all__ = ["SignalTable", "extract_signals", "window_columns", "SIGNAL_NAMES"]

#: Signals every table provides, aligned per new-data ACK.
SIGNAL_NAMES: tuple[str, ...] = (
    "time",
    "cwnd",
    "acked_bytes",
    "rtt",
    "min_rtt",
    "max_rtt",
    "ewma_rtt",
    "ack_rate",
    "rtt_gradient",
    "delay_gradient",
    "time_since_loss",
    "inflight",
)

#: EWMA gain for the smoothed-RTT signal.
_EWMA_GAIN = 0.125
#: Sliding window for the ACK-rate signal, seconds.
_RATE_WINDOW = 0.25


@dataclass
class SignalTable:
    """Aligned per-ACK signal arrays for one trace segment."""

    mss: float
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    #: Per-table memo of ``columns[name].tolist()`` — the replay loop
    #: binds columns as plain Python lists (scalar iteration is ~2x
    #: faster than over numpy arrays), and tables are replayed thousands
    #: of times per wave, so the conversion is hoisted out of the
    #: per-replay path.  Lazily built; never part of equality.
    _column_lists: dict[str, list[float]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.columns["time"]) if self.columns else 0

    def column_list(self, name: str) -> list[float]:
        """``columns[name].tolist()``, memoized per table instance."""
        values = self._column_lists.get(name)
        if values is None:
            values = self.columns[name].tolist()
            self._column_lists[name] = values
        return values

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def environment_at(self, index: int, cwnd: float) -> dict[str, float]:
        """The DSL evaluation environment for ACK *index*.

        ``cwnd`` is the *candidate's* window (its evolving state), not the
        trace's — that substitution is what makes replay stateful (§3.1).
        """
        columns = self.columns
        return {
            "mss": self.mss,
            "cwnd": cwnd,
            "acked_bytes": columns["acked_bytes"][index],
            "rtt": columns["rtt"][index],
            "min_rtt": columns["min_rtt"][index],
            "max_rtt": columns["max_rtt"][index],
            "ewma_rtt": columns["ewma_rtt"][index],
            "ack_rate": columns["ack_rate"][index],
            "rtt_gradient": columns["rtt_gradient"][index],
            "delay_gradient": columns["delay_gradient"][index],
            "time_since_loss": columns["time_since_loss"][index],
            "inflight": columns["inflight"][index],
            "wmax": self.wmax,
        }

    @property
    def wmax(self) -> float:
        """Window at the loss that opened this segment (Cubic's W_max).

        Approximated as the first observed window of the segment divided
        by a canonical 0.7 decrease when the segment follows a loss.
        """
        return float(self.columns["wmax"][0]) if "wmax" in self.columns else 0.0

    def observed_cwnd(self) -> np.ndarray:
        """The ground-truth visible window the synthesizer must match."""
        return self.columns["cwnd"]

    def times(self) -> np.ndarray:
        return self.columns["time"]

    def coalesce(self, max_rows: int) -> "SignalTable":
        """Merge consecutive ACK rows down to at most *max_rows*.

        Coalescing models delayed/stretched ACKs: within a group,
        ``acked_bytes`` sums (so additive handlers accrue the same total
        window growth) while every other signal takes the group's last
        value.  Replaying a handler over a coalesced table costs
        proportionally less with near-identical window trajectories.
        """
        n = len(self)
        if n <= max_rows:
            return self
        edges = np.linspace(0, n, max_rows + 1).round().astype(int)
        merged: dict[str, np.ndarray] = {}
        sums = np.add.reduceat(self.columns["acked_bytes"], edges[:-1])
        last_indices = np.clip(edges[1:] - 1, 0, n - 1)
        for name, column in self.columns.items():
            if name == "acked_bytes":
                merged[name] = sums.astype(float)
            else:
                merged[name] = column[last_indices]
        return SignalTable(mss=self.mss, columns=merged)


def _usable_rtt(ack) -> float | None:
    """The record's RTT sample, or ``None`` when absent or garbage.

    Non-finite and non-positive samples are treated as missing rather
    than poisoning every running statistic downstream (min/max/EWMA and
    the gradients are all cumulative — one ``inf`` would stick for the
    rest of the flow).
    """
    sample = ack.rtt_sample
    if sample is None or not math.isfinite(sample) or sample <= 0:
        return None
    return sample


def window_columns(
    segment: TraceSegment,
) -> tuple[list[AckRecord], np.ndarray, np.ndarray]:
    """The new-data ACKs of *segment* with their ``time`` and ``cwnd``.

    The guards of :func:`extract_signals` live here, so a caller that
    needs only these two columns refuses exactly the segments a full
    extraction refuses: :class:`~repro.errors.TraceError` when the
    segment has no new-data ACK, a non-finite timestamp, no usable RTT
    sample up to its end, or no finite window observation.  A non-finite
    window carries the previous finite one, and a leading run of them
    back-fills from the first finite one, instead of landing NaN in the
    series the scorer matches against.
    """
    trace = segment.trace
    inside = [
        ack
        for ack in trace.acks[segment.start : segment.stop]
        if not ack.dupack
    ]
    if not inside:
        raise TraceError(f"segment {segment.label} has no new-data ACKs")
    if not all(math.isfinite(ack.time) for ack in inside):
        raise TraceError(
            f"segment {segment.label} has non-finite timestamps; "
            "run trace triage before extraction"
        )
    if not any(
        not ack.dupack and _usable_rtt(ack) is not None
        for ack in islice(trace.acks, segment.stop)
    ):
        raise TraceError(f"segment {segment.label} has no usable RTT samples")
    times = np.array([ack.time for ack in inside], dtype=float)
    cwnd = np.array([ack.cwnd_bytes for ack in inside], dtype=float)
    finite = np.isfinite(cwnd)
    if not finite.all():
        if not finite.any():
            raise TraceError(
                f"segment {segment.label} has no finite cwnd observations"
            )
        # Each row reads the latest finite row at or before it; rows
        # before the first finite one read that one.
        source = np.where(finite, np.arange(len(cwnd)), finite.argmax())
        cwnd = cwnd[np.maximum.accumulate(source)]
    return inside, times, cwnd


def extract_signals(segment: TraceSegment) -> SignalTable:
    """Compute the :class:`SignalTable` for *segment*.

    Only new-data ACKs (``acked_bytes > 0``) contribute rows; dupacks
    carry no RTT sample and no window progress.  Guards keep garbage
    out of the table: non-finite RTT samples count as missing, a run of
    missing samples at the trace head back-fills from the first real
    sample (instead of fabricating a 1 ms RTT), and the window guards
    and refusals of :func:`window_columns` apply — a segment it refuses
    needs :mod:`repro.trace.triage` first.
    """
    inside, times, cwnd = window_columns(segment)
    trace = segment.trace
    prefix = [ack for ack in trace.acks[: segment.start] if not ack.dupack]

    loss_times = trace.loss_times()

    # Warm the running statistics over the trace prefix, so min/max RTT and
    # the EWMA reflect the whole flow up to the segment, as a real vantage
    # point's would.
    min_rtt = float("inf")
    max_rtt = 0.0
    ewma = None
    prev_rtt = None
    prev_time = None
    gradient = 0.0
    for ack in prefix:
        rtt_sample = _usable_rtt(ack)
        if rtt_sample is not None:
            min_rtt = min(min_rtt, rtt_sample)
            max_rtt = max(max_rtt, rtt_sample)
            ewma = (
                rtt_sample
                if ewma is None
                else ewma + _EWMA_GAIN * (rtt_sample - ewma)
            )
            if prev_rtt is not None and ack.time > prev_time:
                sample = (rtt_sample - prev_rtt) / (ack.time - prev_time)
                gradient += _EWMA_GAIN * (sample - gradient)
            prev_rtt, prev_time = rtt_sample, ack.time

    n = len(inside)
    out = {name: np.zeros(n) for name in SIGNAL_NAMES}
    out["time"] = times
    out["cwnd"] = cwnd
    delivered: list[tuple[float, float]] = []  # (time, cumulative bytes)
    cumulative = 0.0
    last_rtt = prev_rtt
    if last_rtt is None:
        # A missing-sample run at the trace head: back-fill from the
        # first real sample in the segment (the way
        # :meth:`Trace.rtt_series` does) rather than fabricating a 1 ms
        # RTT that would poison min_rtt for the whole flow.
        # :func:`window_columns` refused a segment without one.
        last_rtt = next(
            sample
            for sample in map(_usable_rtt, inside)
            if sample is not None
        )

    for row, ack in enumerate(inside):
        time = ack.time
        rtt_sample = _usable_rtt(ack)
        if rtt_sample is not None:
            last_rtt = rtt_sample
            min_rtt = min(min_rtt, rtt_sample)
            max_rtt = max(max_rtt, rtt_sample)
            ewma = (
                rtt_sample
                if ewma is None
                else ewma + _EWMA_GAIN * (rtt_sample - ewma)
            )
            if prev_rtt is not None and time > prev_time:
                sample = (rtt_sample - prev_rtt) / (time - prev_time)
                gradient += _EWMA_GAIN * (sample - gradient)
            prev_rtt, prev_time = rtt_sample, time
        rtt = last_rtt

        acked = (
            float(ack.acked_bytes)
            if math.isfinite(ack.acked_bytes)
            else 0.0
        )
        cumulative += acked
        delivered.append((time, cumulative))
        while len(delivered) > 2 and time - delivered[0][0] > _RATE_WINDOW:
            delivered.pop(0)
        span = time - delivered[0][0]
        if span > 0:
            rate = (cumulative - delivered[0][1]) / span
        else:
            rate = acked / max(rtt, 1e-6)

        earlier_losses = loss_times[loss_times <= time]
        since_loss = (
            time - earlier_losses[-1] if earlier_losses.size else time
        )

        out["acked_bytes"][row] = acked
        out["rtt"][row] = rtt
        out["min_rtt"][row] = min_rtt if min_rtt != float("inf") else rtt
        out["max_rtt"][row] = max_rtt if max_rtt > 0 else rtt
        out["ewma_rtt"][row] = ewma if ewma is not None else rtt
        out["ack_rate"][row] = rate
        out["rtt_gradient"][row] = gradient
        out["delay_gradient"][row] = gradient
        out["time_since_loss"][row] = max(since_loss, 1e-6)
        out["inflight"][row] = (
            ack.inflight_bytes if math.isfinite(ack.inflight_bytes) else 0.0
        )

    table = SignalTable(mss=float(trace.mss), columns=out)
    # W_max estimate: the window at segment start, undone by a canonical
    # 0.7 beta when the segment opens right after a loss.
    first_cwnd = out["cwnd"][0]
    table.columns["wmax"] = np.full(n, first_cwnd / 0.7)
    return table
