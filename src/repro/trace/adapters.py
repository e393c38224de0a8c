"""Adapters: building :class:`Trace` objects from external packet logs.

Abagnale's input "in the wild" is a packet capture, not our simulator's
records.  This module converts the two log shapes a measurement vantage
point realistically produces:

* :func:`from_packet_log` — separate *data* events ``(time, seq_end)``
  and *ack* events ``(time, ack)`` as captured at/near the sender.  The
  visible congestion window is estimated per ACK as bytes in flight
  (highest sequence sent so far minus the cumulative ACK), which is
  exactly how classifier tools like Gordon estimate the window from taps.
  RTT samples are matched by sequence: an ACK's RTT is measured from the
  send time of the segment whose end equals the ACK value.
* :func:`from_ack_log` — a pre-digested per-ACK table (time, ack, rtt)
  with an optional explicit window column, for tools that already export
  one row per ACK.

Both mark duplicate ACKs, so the standard segmentation/loss-inference
pipeline applies unchanged.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import TraceError
from repro.trace.model import AckLog, Trace

__all__ = ["from_packet_log", "from_ack_log"]


def from_packet_log(
    data_events: Iterable[tuple[float, int]],
    ack_events: Iterable[tuple[float, int]],
    *,
    mss: int = 1500,
    cca_name: str = "unknown",
    label: str = "imported",
) -> Trace:
    """Build a trace from raw data/ACK capture events.

    ``data_events`` are ``(send_time, segment_end_seq)`` per transmitted
    segment; ``ack_events`` are ``(arrival_time, cumulative_ack)``.  Both
    must be time-sorted.
    """
    data = sorted(data_events)
    acks = sorted(ack_events)
    if not data or not acks:
        raise TraceError("packet log needs both data and ack events")

    send_time_by_end: dict[int, float] = {}
    records = AckLog()
    data_index = 0
    highest_sent = 0
    last_ack = 0
    for time, ack in acks:
        while data_index < len(data) and data[data_index][0] <= time:
            send_time, end = data[data_index]
            send_time_by_end.setdefault(end, send_time)
            highest_sent = max(highest_sent, end)
            data_index += 1
        acked = ack - last_ack
        dupack = acked <= 0
        rtt = None
        if not dupack:
            sent_at = send_time_by_end.get(ack)
            if sent_at is not None and time > sent_at:
                rtt = time - sent_at
        inflight = max(highest_sent - ack, 0)
        records.append(
            time,
            ack,
            max(acked, 0),
            rtt,
            float(max(inflight, mss)),
            inflight,
            dupack,
        )
        last_ack = max(last_ack, ack)
    return Trace.from_columns(cca_name, label, mss, records.columns())


def from_ack_log(
    rows: Sequence[tuple[float, int, float | None]],
    *,
    mss: int = 1500,
    cwnd: Sequence[float] | None = None,
    cca_name: str = "unknown",
    label: str = "imported",
) -> Trace:
    """Build a trace from per-ACK rows ``(time, cumulative_ack, rtt)``.

    When *cwnd* (one visible-window value per row) is omitted, the window
    is approximated by the delivery rate over the latest RTT — the best a
    purely ACK-side log can do.
    """
    if not rows:
        raise TraceError("ack log is empty")
    if cwnd is not None and len(cwnd) != len(rows):
        raise TraceError("cwnd column length must match the rows")
    records = AckLog()
    last_ack = 0
    for index, (time, ack, rtt) in enumerate(rows):
        acked = ack - last_ack
        dupack = acked <= 0
        if cwnd is not None:
            window = float(cwnd[index])
        else:
            window = _rate_window(rows, index, mss)
        records.append(
            time,
            ack,
            max(acked, 0),
            rtt if not dupack else None,
            max(window, float(mss)),
            int(max(window, mss)),
            dupack,
        )
        last_ack = max(last_ack, ack)
    return Trace.from_columns(cca_name, label, mss, records.columns())


def _rate_window(
    rows: Sequence[tuple[float, int, float | None]], index: int, mss: int
) -> float:
    """Delivery-rate x RTT window estimate at *index*."""
    time, ack, rtt = rows[index]
    if rtt is None or rtt <= 0:
        return float(mss)
    start = time - rtt
    earlier_ack = 0
    for t_prev, a_prev, _ in reversed(rows[: index + 1]):
        if t_prev <= start:
            earlier_ack = a_prev
            break
    return float(max(ack - earlier_ack, mss))
