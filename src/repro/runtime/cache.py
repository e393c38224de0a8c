"""Bounded cross-iteration score cache.

The refinement loop re-scores every sketch a surviving bucket has drawn
against each iteration's working set (the set changed, so scores must be
refreshed) — but the working sets *overlap*: the schedule grows them by
two segments per iteration, and the exhaustive pass reuses the final
set.  The per-(handler, segment) distance is a pure function of

    (canonical handler text, segment, metric, replay-budget knobs)

so those repeats can skip replay + DTW entirely.  :class:`ScoreCache` is
a bounded LRU memo over exactly that key with hit/miss counters, the
counters being how the benchmark proves the win.

Segments have no stable serial id, so the key uses ``id(segment)`` and
each entry pins the segment object and verifies identity on lookup —
the same discipline as ``Scorer.table_for`` (a freed segment's id can be
recycled by a new object; returning the old score would be silent
corruption).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.runtime.events import CacheStats
from repro.trace.model import TraceSegment

__all__ = ["ScoreCache", "DEFAULT_CACHE_ENTRIES"]

#: Default bound: ~100k floats plus keys is a few tens of MB, far below
#: the segment tables the scorer already holds.
DEFAULT_CACHE_ENTRIES = 100_000

_Key = tuple[str, int, str, int, int]


class ScoreCache:
    """LRU memo of per-(handler, segment) distances with counters."""

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[_Key, tuple[TraceSegment, float]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    @staticmethod
    def key(
        handler_text: str,
        segment: TraceSegment,
        metric: str,
        max_replay_rows: int,
        series_budget: int,
    ) -> _Key:
        return (
            handler_text,
            id(segment),
            metric,
            max_replay_rows,
            series_budget,
        )

    def get(self, key: _Key, segment: TraceSegment) -> float | None:
        """The cached distance, or ``None`` (counting a miss)."""
        entry = self._entries.get(key)
        if entry is not None and entry[0] is segment:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]
        if entry is not None:  # id reuse by a different segment object
            del self._entries[key]
        self.misses += 1
        return None

    def put(self, key: _Key, segment: TraceSegment, value: float) -> None:
        self._entries[key] = (segment, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits, misses=self.misses, entries=len(self._entries)
        )

    def clear(self) -> None:
        self._entries.clear()

    def forget_segments(self, segments: Iterable[TraceSegment]) -> None:
        """Drop the entries of *segments* (matched by identity)."""
        doomed = {id(segment) for segment in segments}
        for key in [
            key
            for key, (segment, _) in self._entries.items()
            if id(segment) in doomed
        ]:
            del self._entries[key]
