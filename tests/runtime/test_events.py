"""Event schema tests: payloads must stay JSON-serializable and stable."""

import dataclasses
import json
import types
import typing

from repro.runtime import events
from repro.runtime.events import (
    BucketScored,
    BudgetExceeded,
    IterationFinished,
    PoolSpawned,
    RunFinished,
    RunStarted,
    ScoringStats,
    SegmentsPrimed,
    SketchesDrawn,
    WaveDispatched,
    bucket_label,
    event_payload,
)

ALL_EVENTS = [
    RunStarted(
        run="synthesis",
        dsl_name="reno-4",
        bucket_count=64,
        segment_count=6,
        workers=1,
    ),
    PoolSpawned(workers=4),
    SegmentsPrimed(epoch=0, segment_count=2),
    SketchesDrawn(target=16, generated=120, live_buckets=64),
    BucketScored(iteration=1, bucket="+add+mul", score=3.5, sketches=6),
    WaveDispatched(groups=5, tasks=40, workers=4),
    ScoringStats(
        batched_waves=12,
        lb_pruned=200,
        dp_abandoned=40,
        candidates_pruned=9,
        warm_start_pruned=17,
        fused_waves=2,
        fused_tasks=40,
        peak_in_flight=8,
        mean_occupancy=0.8,
    ),
    IterationFinished(
        index=1,
        samples_per_bucket=16,
        segment_count=2,
        bucket_count=64,
        kept=5,
        best_distance=2.25,
        handlers_scored=800,
        elapsed_seconds=1.5,
    ),
    BudgetExceeded(
        phase="refinement", budget_seconds=5.0, elapsed_seconds=5.2
    ),
    RunFinished(
        run="synthesis",
        best_distance=2.25,
        expression="cwnd + mss",
        handlers_scored=1200,
        elapsed_seconds=9.0,
        phase_seconds={"refinement": 8.0, "exhaustive": 1.0},
    ),
]


def test_every_event_payload_is_json_round_trippable():
    for event in ALL_EVENTS:
        payload = event_payload(event)
        assert payload["event"] == event.kind
        restored = json.loads(json.dumps(payload))
        assert restored["event"] == event.kind


def test_kinds_are_unique():
    kinds = [event.kind for event in ALL_EVENTS]
    assert len(kinds) == len(set(kinds))


def test_bucket_label_sorts_and_joins():
    assert bucket_label(frozenset({"mul", "add"})) == "add+mul"
    assert bucket_label(frozenset()) == "(empty)"
    assert bucket_label("already-a-label") == "already-a-label"


def test_event_fields_are_scalars_or_dicts_of_scalars():
    """``event_payload`` writes each field as it is, a dict with string
    keys: a set, tuple or nested field would need a conversion the run
    log does not have, so a new one fails here, not in the JSONL sink."""

    def scalar(hint) -> bool:
        if typing.get_origin(hint) in (typing.Union, types.UnionType):
            return all(
                arg is type(None) or scalar(arg)
                for arg in typing.get_args(hint)
            )
        return hint in (str, int, float, bool)

    kinds = [
        value
        for value in vars(events).values()
        if isinstance(value, type)
        and issubclass(value, events.Event)
        and value is not events.Event
    ]
    assert {kind.__name__ for kind in kinds} == set(events.__all__) - {
        "Event",
        "bucket_label",
        "event_payload",
    }
    for kind in kinds:
        hints = typing.get_type_hints(kind)
        for field in dataclasses.fields(kind):
            hint = hints[field.name]
            if typing.get_origin(hint) is dict:
                key, value = typing.get_args(hint)
                assert key is str and scalar(value), (kind, field.name)
            else:
                assert scalar(hint), (kind, field.name)
