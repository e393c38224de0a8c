"""Trace data model: what a measurement vantage point records.

A :class:`Trace` is the per-ACK time series collected for one flow — the
raw material both for classifiers and for Abagnale's synthesis.  Each
ACK holds what is observable at the sender-side vantage point: arrival
time, cumulative ACK, bytes newly acknowledged, an RTT sample, the
visible congestion window, and bytes in flight.

A trace stores each of those fields as one read-only numpy column
(:data:`ACK_FIELDS`), so validation, segmentation and signal extraction
are column operations.  The counters are stored as floats, because a
trace read from JSON may carry a non-finite or fractional one that
triage must see; an absent RTT sample is a ``False`` in the ``has_rtt``
mask, so a NaN that arrived as data stays distinguishable from a
missing sample.  :attr:`Trace.acks` is a read-only row view that builds
:class:`AckRecord` rows on access, for code that reads a few rows.

:class:`TraceSegment` is a slice of a trace between loss events; the
synthesizer scores candidate handlers per segment (§3.2).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import TraceError

__all__ = [
    "ACK_FIELDS",
    "AckLog",
    "AckRecord",
    "LossRecord",
    "Trace",
    "TraceSegment",
]

#: The fields of one ACK, in row order: a trace's columns.
ACK_FIELDS: tuple[str, ...] = (
    "time",
    "ack_seq",
    "acked_bytes",
    "rtt_sample",
    "cwnd_bytes",
    "inflight_bytes",
    "dupack",
)
#: Positions of the fields that count bytes (stored as floats).
_COUNTER_POSITIONS = (1, 2, 5)


@dataclass(slots=True)
class AckRecord:
    """One processed acknowledgment at the vantage point."""

    time: float
    ack_seq: int
    acked_bytes: int
    rtt_sample: float | None
    cwnd_bytes: float
    inflight_bytes: int
    dupack: bool = False


@dataclass(slots=True)
class LossRecord:
    """A loss event inferred or observed at the vantage point.

    ``kind`` is ``"dupack"`` for fast-retransmit losses or ``"timeout"``
    for RTO expirations.
    """

    time: float
    kind: str = "dupack"


def counter(value: float) -> int | float:
    """A stored counter as the number a row holds: ``int`` when integral."""
    return int(value) if value.is_integer() else value


def _counter_list(column: np.ndarray) -> list[int | float]:
    # A column of integers within int64 range converts in one call.
    if (np.abs(column) < 2.0**63).all() and (column == np.trunc(column)).all():
        return column.astype(np.int64).tolist()
    return list(map(counter, column.tolist()))


def row_values(trace: "Trace", window: slice = slice(None)) -> list[list]:
    """Each column's cells at *window* as the Python values a row holds.

    Counters that are integral read back as ``int`` (simulated counters
    are integers, and serialize as the integers they were), and a
    missing RTT sample as ``None``.
    """
    cells = [
        _counter_list(getattr(trace, name)[window])
        if position in _COUNTER_POSITIONS
        else getattr(trace, name)[window].tolist()
        for position, name in enumerate(ACK_FIELDS)
    ]
    cells[3] = [
        sample if present else None
        for sample, present in zip(cells[3], trace.has_rtt[window].tolist())
    ]
    return cells


class AckLog:
    """Per-field lists a producer appends ACKs to, packed into a trace once."""

    __slots__ = ACK_FIELDS

    def __init__(self) -> None:
        for name in ACK_FIELDS:
            setattr(self, name, [])

    def append(
        self,
        time: float,
        ack_seq: int,
        acked_bytes: int,
        rtt_sample: float | None,
        cwnd_bytes: float,
        inflight_bytes: int,
        dupack: bool,
    ) -> None:
        self.time.append(time)
        self.ack_seq.append(ack_seq)
        self.acked_bytes.append(acked_bytes)
        self.rtt_sample.append(rtt_sample)
        self.cwnd_bytes.append(cwnd_bytes)
        self.inflight_bytes.append(inflight_bytes)
        self.dupack.append(dupack)

    def columns(self) -> dict[str, list]:
        return {name: getattr(self, name) for name in ACK_FIELDS}


class AckRows(Sequence):
    """The rows of a trace's columns as :class:`AckRecord`, built on access."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.time)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._rows(index))
        position = range(len(self))[index]
        return next(self._rows(slice(position, position + 1)))

    def __iter__(self) -> Iterator[AckRecord]:
        return self._rows(slice(None))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (AckRows, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def _rows(self, window: slice) -> Iterator[AckRecord]:
        return map(AckRecord, *row_values(self._trace, window))


class Trace:
    """A full per-flow packet trace, stored as read-only columns.

    ``acks`` are :class:`AckRecord` rows, packed into columns here; it
    is how hand-built traces are made.  Producers that already hold
    columns use :meth:`from_columns`.  Two traces are equal when their
    headers, loss records and columns are (a NaN cell equals a NaN cell).
    """

    __slots__ = (
        "cca_name",
        "environment_label",
        "mss",
        "losses",
        "meta",
        *ACK_FIELDS,
        "has_rtt",
        "_derived",
    )
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        cca_name: str,
        environment_label: str,
        mss: int,
        acks: Iterable[AckRecord] = (),
        losses: Iterable[LossRecord] = (),
        meta: dict[str, float | str] | None = None,
    ) -> None:
        if mss <= 0:
            raise TraceError("mss must be positive")
        self.cca_name = cca_name
        self.environment_label = environment_label
        self.mss = mss
        self.losses = list(losses)
        self.meta = {} if meta is None else meta
        self.acks = acks

    @classmethod
    def from_columns(
        cls,
        cca_name: str,
        environment_label: str,
        mss: int,
        columns: Mapping[str, Any],
        losses: Iterable[LossRecord] = (),
        meta: dict[str, float | str] | None = None,
    ) -> "Trace":
        """A trace over *columns*: one sequence per :data:`ACK_FIELDS` name.

        ``rtt_sample`` marks a missing sample with ``None``, unless the
        columns carry the ``has_rtt`` mask themselves.
        """
        trace = cls(cca_name, environment_label, mss, (), losses, meta)
        trace._set_columns(columns)
        return trace

    def _set_columns(self, columns: Mapping[str, Any]) -> None:
        has_rtt = columns.get("has_rtt")
        if has_rtt is None:
            has_rtt = [sample is not None for sample in columns["rtt_sample"]]
        arrays = {
            name: np.array(columns[name], dtype=bool if name == "dupack" else float)
            for name in ACK_FIELDS
        }
        arrays["has_rtt"] = np.array(has_rtt, dtype=bool)
        if len({len(column) for column in arrays.values()}) > 1:
            raise TraceError("trace columns differ in length")
        # A missing sample reads NaN, whatever the producer left there.
        arrays["rtt_sample"][~arrays["has_rtt"]] = np.nan
        for name, column in arrays.items():
            column.flags.writeable = False
            setattr(self, name, column)
        self._derived: dict[str, Any] = {}

    @property
    def acks(self) -> AckRows:
        """The ACKs as read-only :class:`AckRecord` rows."""
        return AckRows(self)

    @acks.setter
    def acks(self, rows: Iterable[AckRecord]) -> None:
        rows = list(rows)
        self._set_columns(
            {
                name: [getattr(row, name) for row in rows]
                for name in ACK_FIELDS
            }
        )

    def columns(self, rows: Any = slice(None)) -> dict[str, np.ndarray]:
        """Every column at *rows* (a slice, mask or index array),
        ``has_rtt`` included, ready for :meth:`from_columns`."""
        return {name: getattr(self, name)[rows] for name in (*ACK_FIELDS, "has_rtt")}

    def derived(self, key: str, build: Callable[["Trace"], Any]) -> Any:
        """``build(self)``, computed once per trace: the columns never change."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build(self)
        return value

    def __len__(self) -> int:
        return len(self.time)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            (self.cca_name, self.environment_label, self.mss, self.meta)
            == (other.cca_name, other.environment_label, other.mss, other.meta)
            and self.losses == other.losses
            and all(
                np.array_equal(mine, theirs, equal_nan=True)
                for mine, theirs in zip(
                    self.columns().values(), other.columns().values()
                )
            )
        )

    def __reduce__(self):
        # Repacked on load: read-only columns, and no derived arrays
        # shipped to another process.
        return (
            Trace.from_columns,
            (
                self.cca_name,
                self.environment_label,
                self.mss,
                self.columns(),
                self.losses,
                self.meta,
            ),
        )

    def __repr__(self) -> str:
        return (
            f"Trace(cca_name={self.cca_name!r}, "
            f"environment_label={self.environment_label!r}, mss={self.mss}, "
            f"acks={len(self)}, losses={len(self.losses)})"
        )

    @property
    def duration(self) -> float:
        if not len(self):
            return 0.0
        return float(self.time[-1] - self.time[0])

    def times(self) -> np.ndarray:
        return self.time

    def cwnd_series(self) -> np.ndarray:
        """The visible congestion window over time, in bytes."""
        return self.cwnd_bytes

    def rtt_series(self) -> np.ndarray:
        """Per-ack RTT samples; gaps (dupacks) carry the previous sample."""
        latest = np.where(self.has_rtt, np.arange(len(self)), -1)
        np.maximum.accumulate(latest, out=latest)
        out = np.where(latest >= 0, self.rtt_sample[latest], np.nan)
        # Back-fill any leading NaNs with the first real sample.
        if len(out) and np.isnan(out[0]):
            real = out[~np.isnan(out)]
            if real.size == 0:
                raise TraceError("trace has no RTT samples")
            out[np.isnan(out)] = real[0]
        return out

    def loss_times(self) -> np.ndarray:
        return np.array([loss.time for loss in self.losses], dtype=float)


@dataclass
class TraceSegment:
    """A slice of a trace between two loss events (§3.2).

    ``start``/``stop`` index into the trace's rows; the segment covers
    ``acks[start:stop]``.  ``preceding_loss_time`` is the timestamp of the
    loss event that opened the segment (or the flow start), from which the
    ``time_since_loss`` signal is measured.
    """

    trace: Trace
    start: int
    stop: int
    preceding_loss_time: float

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.stop <= len(self.trace)):
            raise TraceError(
                f"segment bounds [{self.start}, {self.stop}) out of range "
                f"for trace of {len(self.trace)} acks"
            )

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def acks(self) -> list[AckRecord]:
        return self.trace.acks[self.start : self.stop]

    @property
    def mss(self) -> int:
        return self.trace.mss

    @property
    def label(self) -> str:
        return (
            f"{self.trace.cca_name}/{self.trace.environment_label}"
            f"[{self.start}:{self.stop}]"
        )

    def times(self) -> np.ndarray:
        return self.trace.time[self.start : self.stop]

    def cwnd_series(self) -> np.ndarray:
        return self.trace.cwnd_bytes[self.start : self.stop]

    def iter_acks(self) -> Iterator[AckRecord]:
        return iter(self.acks)
