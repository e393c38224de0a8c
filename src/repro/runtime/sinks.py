"""Event sinks: where run telemetry goes.

A sink receives ``(event, t)`` pairs — *t* is seconds since the run
started — and may buffer, print, or persist them.  Three implementations
cover the common needs: :class:`CollectorSink` (in-memory, for tests and
for building the post-run summary table), :class:`JsonlSink` (one JSON
object per line, the run-log format documented in ``docs/RUNTIME.md``)
and :class:`ConsoleProgressSink` (a human-readable progress line per
iteration).  Serial, no-sink execution is the default everywhere, so a
run with no sinks configured behaves exactly like the pre-runtime code.
"""

from __future__ import annotations

import json
import sys
from typing import IO, Iterator, Protocol

from repro.runtime.events import (
    BudgetExceeded,
    Event,
    IterationFinished,
    PoolSpawned,
    RunFinished,
    RunStarted,
    event_payload,
)

__all__ = ["EventSink", "CollectorSink", "JsonlSink", "ConsoleProgressSink"]


class EventSink(Protocol):
    """Anything that can receive timestamped run events."""

    def handle(self, event: Event, t: float) -> None: ...

    def close(self) -> None: ...


class CollectorSink:
    """Keeps every event in memory; the sink tests and summaries use."""

    def __init__(self) -> None:
        self.timeline: list[tuple[float, Event]] = []

    @property
    def events(self) -> list[Event]:
        return [event for _, event in self.timeline]

    def of_kind(self, kind: str) -> list[Event]:
        return [event for event in self.events if event.kind == kind]

    def last_of_kind(self, kind: str) -> Event | None:
        matches = self.of_kind(kind)
        return matches[-1] if matches else None

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.timeline)

    def handle(self, event: Event, t: float) -> None:
        self.timeline.append((t, event))

    def close(self) -> None:  # nothing to release
        pass


class JsonlSink:
    """Appends one JSON object per event to a file (the run log).

    Each line is ``{"event": <kind>, "t": <seconds>, ...payload}``.  The
    file is opened lazily on the first event so constructing the sink
    (e.g. from a CLI flag) costs nothing if the run dies before emitting.
    """

    def __init__(self, path: str):
        self.path = path
        self._file: IO[str] | None = None

    def handle(self, event: Event, t: float) -> None:
        if self._file is None:
            self._file = open(self.path, "w", encoding="utf-8")
        payload = event_payload(event)
        payload["t"] = round(t, 6)
        self._file.write(json.dumps(payload) + "\n")

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class ConsoleProgressSink:
    """One line per notable event, for watching a long run from a shell."""

    def __init__(self, stream: IO[str] | None = None):
        self._stream = stream if stream is not None else sys.stderr

    def _say(self, text: str, t: float) -> None:
        self._stream.write(f"[{t:7.1f}s] {text}\n")
        self._stream.flush()

    def handle(self, event: Event, t: float) -> None:
        if isinstance(event, RunStarted):
            self._say(
                f"run started: DSL {event.dsl_name!r}, "
                f"{event.bucket_count} buckets, "
                f"{event.segment_count} segments, "
                f"workers={event.workers}",
                t,
            )
        elif isinstance(event, PoolSpawned):
            self._say(f"process pool spawned ({event.workers} workers)", t)
        elif isinstance(event, IterationFinished):
            self._say(
                f"iter {event.index}: {event.bucket_count} buckets -> "
                f"kept {event.kept}, best {event.best_distance:.3f}, "
                f"{event.handlers_scored} handlers scored",
                t,
            )
        elif isinstance(event, BudgetExceeded):
            self._say(
                f"time budget of {event.budget_seconds:.1f}s exceeded, "
                + (
                    "refinement stops"
                    if event.phase == "refinement"
                    else "exhaustive pass skipped"
                ),
                t,
            )
        elif isinstance(event, RunFinished):
            self._say(
                f"done: {event.expression}  "
                f"(distance {event.best_distance:.3f}, "
                f"{event.elapsed_seconds:.1f}s)",
                t,
            )

    def close(self) -> None:  # the stream is not ours to close
        pass
