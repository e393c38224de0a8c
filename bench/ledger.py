"""Roll recorded spans up into self times, and export them for viewers.

Self time is a span's duration minus the part of it that its children
in the same process cover.  A worker span runs beside its parent-side
wave, not inside the parent's thread, so it does not reduce the wave's
self time: a pooled wave's self time is the parent's time spent
dispatching to and waiting for its workers.

Worker spans reach the rollup without a parent; :func:`link` attaches
each one to the innermost parent-side wave that was open when it
started and copies that wave's labels onto it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Iterable

#: Name of the executor-wave span that worker spans are linked under.
WAVE = "runtime.executors.wave"
#: Root spans the benchmark opens around its own phases.
ANSWER = "bench.answer"
SETUP = "bench.setup"
LABELS = ("workload", "rep", "job")


def link(spans: list[dict], main_pid: int) -> int:
    """Parent each worker root span under its enclosing wave.

    Returns the number of worker roots no wave enclosed (they stay
    unparented and belong to no answer).
    """
    waves = sorted(
        (s for s in spans if s["pid"] == main_pid and s["name"] == WAVE),
        key=lambda s: s["start"],
    )
    by_id = {span["id"]: span for span in spans}
    orphans = 0
    for span in spans:
        if span["pid"] == main_pid or span["parent"] is not None:
            continue
        enclosing = [
            wave
            for wave in waves
            if wave["start"] <= span["start"] <= wave["end"]
        ]
        if not enclosing:
            orphans += 1
            continue
        wave = max(enclosing, key=lambda w: w["start"])
        span["parent"] = wave["id"]
        span["remote"] = True
    # Worker descendants inherit labels from their (now linked) roots.
    for span in sorted(spans, key=lambda s: s["start"]):
        if span["pid"] == main_pid:
            continue
        parent = by_id.get(span["parent"])
        if parent is not None:
            for label in LABELS:
                if label in parent and label not in span:
                    span[label] = parent[label]
    return orphans


def _union(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> None:
    """Set ``span["self"]`` (seconds) on every span."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    pids = {span["id"]: span["pid"] for span in spans}
    for span in spans:
        parent = span["parent"]
        if parent is not None and pids.get(parent) == span["pid"]:
            children[parent].append((span["start"], span["end"]))
    for span in spans:
        duration = span["end"] - span["start"]
        span["self"] = duration - _union(children.get(span["id"], ()))


def roots(spans: list[dict], name: str) -> dict[str, list[dict]]:
    """Spans grouped under each root span called *name*, by root id.

    A root's group includes the root itself and every descendant,
    following linked worker spans across processes.
    """
    by_id = {span["id"]: span for span in spans}
    owner: dict[str, str | None] = {}

    def find(span_id: str) -> str | None:
        chain = []
        current: str | None = span_id
        found: str | None = None
        while current is not None:
            if current in owner:
                found = owner[current]
                break
            span = by_id.get(current)
            if span is None:
                break
            chain.append(current)
            if span["name"] == name:
                found = current
                break
            current = span["parent"]
        for visited in chain:
            owner[visited] = found
        return found

    groups: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        root = find(span["id"])
        if root is not None:
            groups[root].append(span)
    return dict(groups)


def rollup(spans: list[dict], main_pid: int) -> dict:
    """Link, time and group *spans* into answers and setups."""
    orphans = link(spans, main_pid)
    self_times(spans)
    by_id = {span["id"]: span for span in spans}
    return {
        "answers": [
            (by_id[root], group) for root, group in roots(spans, ANSWER).items()
        ],
        "setups": [
            (by_id[root], group) for root, group in roots(spans, SETUP).items()
        ],
        "orphans": orphans,
    }


def chrome_trace(spans: list[dict], main_pid: int) -> dict:
    """Chrome trace-event JSON (opens offline in Perfetto/about:tracing)."""
    origin = min((span["start"] for span in spans), default=0.0)
    events: list[dict] = []
    for pid in sorted({span["pid"] for span in spans}):
        role = "benchmark" if pid == main_pid else "pool worker"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": f"{role} {pid}"},
            }
        )
    for span in sorted(spans, key=lambda s: (s["pid"], s["start"])):
        args = dict(span.get("attrs", {}))
        for label in LABELS:
            if label in span:
                args[label] = span[label]
        if "self" in span:
            args["self_ms"] = round(span["self"] * 1e3, 6)
        events.append(
            {
                "name": span["name"],
                "cat": span["name"].rsplit(".", 1)[0],
                "ph": "X",
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": span["pid"],
                "tid": span["pid"],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
