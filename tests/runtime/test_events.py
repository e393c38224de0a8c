"""Event schema tests: payloads must stay JSON-serializable and stable."""

import json

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


def test_frozenset_payloads_become_sorted_lists():
    payload = event_payload(
        RunFinished(
            run="synthesis",
            best_distance=1.0,
            expression="cwnd",
            handlers_scored=1,
            elapsed_seconds=0.1,
            phase_seconds={"a": 1.0},
        )
    )
    assert payload["phase_seconds"] == {"a": 1.0}
