"""Congestion-signal extraction from trace segments.

Replaying a candidate handler (§3.1) needs, for every ACK in a segment,
the *signal environment* the DSL reads: RTT statistics, ACK rate,
time-since-loss, etc.  This module turns a :class:`TraceSegment` into a
:class:`SignalTable` of aligned numpy arrays.  All signals are derived
from information a sender-side vantage point has — cumulative running
minima/maxima start fresh at the beginning of the *trace* (not segment),
like a measurement tool that watched the whole flow.

Extraction works on the trace's columns.  The running RTT statistics
(min, max, EWMA, gradient and the latest sample) are computed once per
trace, in one pass over its ACKs, and each table takes copies of its
segment's rows; the ack rate and the time since loss are computed per
segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TraceError
from repro.trace.model import Trace, TraceSegment

__all__ = [
    "SignalTable",
    "extract_signals",
    "usable_rtt",
    "window_columns",
    "SIGNAL_NAMES",
]

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


def usable_rtt(trace: Trace) -> tuple[np.ndarray, int]:
    """New-data acks with a usable RTT sample, and the first such row.

    Non-finite and non-positive samples are treated as missing rather
    than poisoning every running statistic downstream (min/max/EWMA and
    the gradients are all cumulative — one ``inf`` would stick for the
    rest of the flow).  The first row is ``len(trace)`` when there is
    none.
    """
    rtt = trace.rtt_sample
    usable = ~trace.dupack & trace.has_rtt & np.isfinite(rtt) & (rtt > 0)
    return usable, int(np.argmax(usable)) if usable.any() else len(trace)


def _rtt_state(trace: Trace) -> dict[str, np.ndarray]:
    """The running RTT statistics after each ack of *trace*.

    Computed once per trace and sliced per segment: each statistic
    starts at the flow start, like a measurement tool that watched the
    whole flow.  Rows before the first usable sample read that sample
    (the way :meth:`Trace.rtt_series` back-fills), and a zero gradient.
    """
    usable, _ = trace.derived("usable_rtt", usable_rtt)
    rows = np.flatnonzero(usable)
    samples = trace.rtt_sample[rows]
    # EWMA and gradient are sequential recurrences: one pass, with the
    # arithmetic of a per-ACK walk (a closed form rounds differently).
    ewma_values: list[float] = []
    gradients: list[float] = []
    ewma = prev_rtt = prev_time = None
    gradient = 0.0
    for sample, time in zip(samples.tolist(), trace.time[rows].tolist()):
        ewma = sample if ewma is None else ewma + _EWMA_GAIN * (sample - ewma)
        if prev_rtt is not None and time > prev_time:
            slope = (sample - prev_rtt) / (time - prev_time)
            gradient += _EWMA_GAIN * (slope - gradient)
        prev_rtt, prev_time = sample, time
        ewma_values.append(ewma)
        gradients.append(gradient)
    # Each row reads the state after the latest usable sample at or
    # before it; rows before the first one read index -1, which is the
    # entry ``running`` appends after the values.
    latest = np.cumsum(usable) - 1
    first = samples[:1] if samples.size else np.array([np.nan])

    def running(values, before) -> np.ndarray:
        return np.concatenate((values, before))[latest]

    return {
        "rtt": running(samples, first),
        "min_rtt": running(np.minimum.accumulate(samples), first),
        "max_rtt": running(np.maximum.accumulate(samples), first),
        "ewma_rtt": running(np.array(ewma_values, dtype=float), first),
        "rtt_gradient": running(np.array(gradients, dtype=float), [0.0]),
    }


def window_columns(
    segment: TraceSegment,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The new-data rows of *segment* with their ``time`` and ``cwnd``.

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
    rows = segment.start + np.flatnonzero(
        ~trace.dupack[segment.start : segment.stop]
    )
    if not rows.size:
        raise TraceError(f"segment {segment.label} has no new-data ACKs")
    times = trace.time[rows]
    if not np.isfinite(times).all():
        raise TraceError(
            f"segment {segment.label} has non-finite timestamps; "
            "run trace triage before extraction"
        )
    if trace.derived("usable_rtt", usable_rtt)[1] >= segment.stop:
        raise TraceError(f"segment {segment.label} has no usable RTT samples")
    cwnd = trace.cwnd_bytes[rows]
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
    return rows, times, cwnd


def _rate_fronts(times: list[float]) -> list[int]:
    """Per row, the oldest row still in its ack-rate window.

    The window keeps at least the last two rows and drops older rows
    while they lie more than :data:`_RATE_WINDOW` before the current one.
    """
    fronts: list[int] = []
    front = 0
    for row, time in enumerate(times):
        while row - front > 1 and time - times[front] > _RATE_WINDOW:
            front += 1
        fronts.append(front)
    return fronts


def extract_signals(segment: TraceSegment) -> SignalTable:
    """Compute the :class:`SignalTable` for *segment*.

    Only new-data ACKs (``acked_bytes > 0``) contribute rows; dupacks
    carry no RTT sample and no window progress.  Guards keep garbage
    out of the table: non-finite RTT samples count as missing, a run of
    missing samples at the trace head back-fills from the first real
    sample (instead of fabricating a 1 ms RTT), and the window guards
    and refusals of :func:`window_columns` apply — a segment it refuses
    needs :mod:`repro.trace.triage` first.

    The running RTT statistics come from one per-trace pass; the ack
    rate restarts at each segment, and ``time_since_loss`` reads the
    latest loss record at or before each row.
    """
    rows, times, cwnd = window_columns(segment)
    trace = segment.trace
    state = trace.derived("rtt_state", _rtt_state)
    rtt = state["rtt"][rows]

    acked = trace.acked_bytes[rows]
    acked[~np.isfinite(acked)] = 0.0
    cumulative = np.cumsum(np.concatenate(([0.0], acked)))[1:]
    front = np.array(_rate_fronts(times.tolist()), dtype=np.intp)
    span = times - times[front]
    ack_rate = acked / np.maximum(rtt, 1e-6)
    moving = span > 0
    ack_rate[moving] = (
        cumulative[moving] - cumulative[front[moving]]
    ) / span[moving]

    losses = np.sort(trace.loss_times())
    earlier = np.searchsorted(losses, times, side="right")
    since_loss = times.copy()
    after = earlier > 0
    since_loss[after] = times[after] - losses[earlier[after] - 1]

    inflight = trace.inflight_bytes[rows]
    inflight[~np.isfinite(inflight)] = 0.0

    columns = {
        "time": times,
        "cwnd": cwnd,
        "acked_bytes": acked,
        "rtt": rtt,
        "min_rtt": state["min_rtt"][rows],
        "max_rtt": state["max_rtt"][rows],
        "ewma_rtt": state["ewma_rtt"][rows],
        "ack_rate": ack_rate,
        "rtt_gradient": state["rtt_gradient"][rows],
        "delay_gradient": state["rtt_gradient"][rows],
        "time_since_loss": np.maximum(since_loss, 1e-6),
        "inflight": inflight,
    }
    # W_max estimate: the window at segment start, undone by a canonical
    # 0.7 beta when the segment opens right after a loss.
    columns["wmax"] = np.full(len(rows), cwnd[0] / 0.7)
    return SignalTable(mss=float(trace.mss), columns=columns)
