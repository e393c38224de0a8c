"""Trace serialization: JSON round-trips and CSV export.

Traces are plain-data, so a JSON representation supports archiving
collection campaigns and shipping fixtures into tests.  CSV export gives
one row per ACK for ad-hoc plotting.

Deserialization is the first line of the ingestion guard
(:mod:`repro.trace.triage` is the second): every structural problem —
unknown format version, malformed record arity, type-confused cells,
impossible MSS, a document that is not JSON at all — raises a
:class:`~repro.errors.TraceError` whose message carries the source path
and offending record index, instead of an ``IndexError``/``KeyError``
surfacing from deep inside construction.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import IO

from repro.errors import TraceError
from repro.trace.model import ACK_FIELDS, LossRecord, Trace, row_values

__all__ = [
    "trace_to_dict",
    "trace_from_dict",
    "save_trace",
    "load_trace",
    "save_traces",
    "load_traces",
    "load_trace_file",
    "export_csv",
]

_FORMAT_VERSION = 1


def _row_cells(trace: Trace) -> list[list]:
    """:func:`row_values` with ``dupack`` as the 0/1 a file holds."""
    cells = row_values(trace)
    cells[6] = trace.dupack.astype(int).tolist()
    return cells


def trace_to_dict(trace: Trace) -> dict:
    """Convert *trace* to a JSON-serializable dict."""
    return {
        "version": _FORMAT_VERSION,
        "cca_name": trace.cca_name,
        "environment_label": trace.environment_label,
        "mss": trace.mss,
        "meta": dict(trace.meta),
        "acks": [list(row) for row in zip(*_row_cells(trace))],
        "losses": [[loss.time, loss.kind] for loss in trace.losses],
    }


def _where(source: str | None) -> str:
    return f"{source}: " if source else ""


def _require_number(
    value: object, *, what: str, source: str | None, nullable: bool = False
) -> float | int | None:
    """A numeric cell, or a :class:`TraceError` naming the bad cell.

    ``bool`` is rejected despite being an ``int`` subclass — a ``true``
    in a timestamp cell is type confusion, not a number.
    """
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TraceError(
            f"{_where(source)}{what} must be a number, got "
            f"{type(value).__name__} {value!r}"
        )
    return value


def _check_ack_row(row: object, index: int, source: str | None) -> None:
    """Raise the :class:`TraceError` that names *row*'s first bad cell."""
    if not isinstance(row, (list, tuple)):
        raise TraceError(
            f"{_where(source)}acks[{index}] must be an array of "
            f"{len(ACK_FIELDS)} cells, got {type(row).__name__}"
        )
    if len(row) != len(ACK_FIELDS):
        raise TraceError(
            f"{_where(source)}acks[{index}] has {len(row)} cell(s), "
            f"expected {len(ACK_FIELDS)} ({', '.join(ACK_FIELDS)})"
        )
    cell = f"acks[{index}]"
    dupack = row[6]
    if not isinstance(dupack, (bool, int)):
        raise TraceError(
            f"{_where(source)}{cell}.dupack must be 0/1, got {dupack!r}"
        )
    for position, name in enumerate(ACK_FIELDS[:6]):
        _require_number(
            row[position],
            what=f"{cell}.{name}",
            source=source,
            nullable=name == "rtt_sample",
        )


#: The cell types each ack column admits without a per-cell check.
_NUMBER_TYPES = frozenset({int, float})
_CELL_TYPES = (
    _NUMBER_TYPES,
    _NUMBER_TYPES,
    _NUMBER_TYPES,
    _NUMBER_TYPES | {type(None)},
    _NUMBER_TYPES,
    _NUMBER_TYPES,
    frozenset({bool, int}),
)


def _ack_columns(rows: list, source: str | None) -> dict[str, tuple]:
    """The ack rows of a document as columns, each column checked once.

    Row shapes come first, then the cell types of each column.  Numeric
    cells are kept verbatim (no ``int()`` coercion): value repair is
    triage's job.  A check that fails hands the rows to
    :func:`_check_ack_row`, in order, so that the error names the first
    bad cell as a row-by-row reader would.
    """
    width = len(ACK_FIELDS)
    if all(type(row) is list and len(row) == width for row in rows):
        columns = list(zip(*rows)) if rows else [()] * width
        if all(
            set(map(type, column)) <= allowed
            for column, allowed in zip(columns, _CELL_TYPES)
        ):
            return dict(zip(ACK_FIELDS, columns))
    for index, row in enumerate(rows):
        _check_ack_row(row, index, source)
    # Every row passed: the fast checks refused only tuples and
    # subclasses of the admitted types, which rows may hold.
    return dict(zip(ACK_FIELDS, zip(*rows)))


def _loss_from_row(row: object, index: int, source: str | None) -> LossRecord:
    if not isinstance(row, (list, tuple)) or len(row) != 2:
        raise TraceError(
            f"{_where(source)}losses[{index}] must be a [time, kind] pair"
        )
    kind = row[1]
    if not isinstance(kind, str):
        raise TraceError(
            f"{_where(source)}losses[{index}].kind must be a string, "
            f"got {kind!r}"
        )
    return LossRecord(
        time=_require_number(
            row[0], what=f"losses[{index}].time", source=source
        ),
        kind=kind,
    )


def trace_from_dict(data: dict, *, source: str | None = None) -> Trace:
    """Rebuild a :class:`Trace` from :func:`trace_to_dict` output.

    *source* (usually a file path) is woven into every error message so
    a failing record in a collection campaign is locatable.
    """
    if not isinstance(data, dict):
        raise TraceError(
            f"{_where(source)}trace document must be a JSON object, "
            f"got {type(data).__name__}"
        )
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise TraceError(
            f"{_where(source)}unsupported trace format version {version!r} "
            f"(this reader speaks version {_FORMAT_VERSION})"
        )
    missing = [
        key
        for key in ("cca_name", "environment_label", "mss", "acks", "losses")
        if key not in data
    ]
    if missing:
        raise TraceError(
            f"{_where(source)}trace document lacks required key(s): "
            f"{', '.join(missing)}"
        )
    mss = data["mss"]
    if isinstance(mss, bool) or not isinstance(mss, int) or mss <= 0:
        raise TraceError(
            f"{_where(source)}mss must be a positive integer, got {mss!r}"
        )
    acks_data = data["acks"]
    losses_data = data["losses"]
    if not isinstance(acks_data, list) or not isinstance(losses_data, list):
        raise TraceError(
            f"{_where(source)}'acks' and 'losses' must be arrays"
        )
    meta = dict(data.get("meta", {}))
    columns = _ack_columns(acks_data, source)
    losses = [
        _loss_from_row(row, index, source)
        for index, row in enumerate(losses_data)
    ]
    return Trace.from_columns(
        str(data["cca_name"]),
        str(data["environment_label"]),
        mss,
        columns,
        losses,
        meta,
    )


def _parse_json(text: str, source: str | None) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceError(
            f"{_where(source)}not valid JSON (truncated or corrupt "
            f"document): {exc}"
        ) from exc


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write one trace as JSON."""
    Path(path).write_text(json.dumps(trace_to_dict(trace)))


def load_trace(path: str | Path) -> Trace:
    """Read one trace from JSON."""
    source = str(path)
    return trace_from_dict(
        _parse_json(Path(path).read_text(), source), source=source
    )


def save_traces(traces: list[Trace], path: str | Path) -> None:
    """Write a list of traces as one JSON document."""
    Path(path).write_text(
        json.dumps(
            {
                "version": _FORMAT_VERSION,
                "traces": [trace_to_dict(trace) for trace in traces],
            }
        )
    )


def load_traces(path: str | Path) -> list[Trace]:
    """Read a list of traces written by :func:`save_traces`."""
    source = str(path)
    data = _parse_json(Path(path).read_text(), source)
    if not isinstance(data, dict):
        raise TraceError(f"{source}: trace bundle must be a JSON object")
    if data.get("version") != _FORMAT_VERSION:
        raise TraceError(
            f"{source}: unsupported trace bundle version "
            f"{data.get('version')!r}"
        )
    items = data.get("traces")
    if not isinstance(items, list):
        raise TraceError(f"{source}: bundle lacks a 'traces' array")
    return [
        trace_from_dict(item, source=f"{source}[{index}]")
        for index, item in enumerate(items)
    ]


def load_trace_file(path: str | Path) -> list[Trace]:
    """Read either a single-trace file or a bundle, as a list.

    Sniffs the document shape: a ``traces`` key means a
    :func:`save_traces` bundle, otherwise the document is a single
    :func:`save_trace` trace.  The validate CLI and collection tooling
    accept both formats through this one entry point.
    """
    source = str(path)
    data = _parse_json(Path(path).read_text(), source)
    if isinstance(data, dict) and "traces" in data:
        if data.get("version") != _FORMAT_VERSION:
            raise TraceError(
                f"{source}: unsupported trace bundle version "
                f"{data.get('version')!r}"
            )
        items = data["traces"]
        if not isinstance(items, list):
            raise TraceError(f"{source}: bundle 'traces' must be an array")
        return [
            trace_from_dict(item, source=f"{source}[{index}]")
            for index, item in enumerate(items)
        ]
    return [trace_from_dict(data, source=source)]


def export_csv(trace: Trace, sink: IO[str] | str | Path) -> None:
    """Write one row per ACK: time, ack, acked, rtt, cwnd, inflight, dup.

    An empty trace produces a header-only file — collection campaigns
    export whatever they gathered, including nothing.
    """
    own = isinstance(sink, (str, Path))
    handle = open(sink, "w", newline="") if own else sink
    try:
        writer = csv.writer(handle)
        writer.writerow(list(ACK_FIELDS))
        for time, seq, acked, rtt, cwnd, inflight, dupack in zip(
            *_row_cells(trace)
        ):
            writer.writerow(
                [
                    f"{time:.6f}",
                    seq,
                    acked,
                    "" if rtt is None else f"{rtt:.6f}",
                    f"{cwnd:.1f}",
                    inflight,
                    dupack,
                ]
            )
    finally:
        if own:
            handle.close()
