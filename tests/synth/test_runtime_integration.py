"""Runtime-substrate acceptance tests for the refinement loop.

These pin the contract the `repro.runtime` refactor makes: parallel and
serial runs agree bit-for-bit, one process pool serves a whole run, the
event stream covers every iteration, and the time budget is enforced
*inside* scoring waves.
"""

import pytest

from repro.dsl import RENO_DSL, with_budget
from repro.runtime import CollectorSink, RunContext
from repro.synth.refinement import SynthesisConfig, synthesize

TINY = with_budget(RENO_DSL, max_depth=3, max_nodes=4)

FAST = SynthesisConfig(
    initial_samples=6,
    initial_keep=3,
    completion_cap=8,
    max_iterations=2,
    exhaustive_cap=120,
)


def _essentials(result):
    """Everything about a SynthesisResult except wall-clock time."""
    return (
        result.best.handler,
        result.best.distance,
        result.dsl_name,
        tuple(result.iterations),
        result.initial_bucket_count,
        result.total_handlers_scored,
        result.total_sketches_drawn,
    )


def _config(**overrides) -> SynthesisConfig:
    from dataclasses import replace

    return replace(FAST, **overrides)


def test_workers_two_matches_workers_one(reno_segments):
    serial = synthesize(reno_segments[:6], TINY, _config(workers=1))
    parallel = synthesize(reno_segments[:6], TINY, _config(workers=2))
    assert _essentials(serial) == _essentials(parallel)


def test_event_stream_covers_every_iteration(reno_segments):
    collector = CollectorSink()
    result = synthesize(
        reno_segments[:6], TINY, FAST, context=RunContext([collector])
    )
    kinds = [event.kind for event in collector]
    assert kinds[0] == "run_started"
    assert kinds[-1] == "run_finished"
    iterations = collector.of_kind("iteration_finished")
    assert len(iterations) == len(result.iterations)
    for record, event in zip(result.iterations, iterations):
        assert event.index == record.index
        assert event.samples_per_bucket == record.samples_per_bucket
        assert event.segment_count == record.segment_count
        assert event.bucket_count == record.bucket_count
    # Every iteration also drew sketches and scored buckets.
    assert len(collector.of_kind("sketches_drawn")) >= len(result.iterations)
    assert collector.of_kind("bucket_scored")
    finished = collector.last_of_kind("run_finished")
    assert finished.best_distance == result.best.distance
    assert "refinement" in finished.phase_seconds


def test_parallel_run_spawns_at_most_one_pool(reno_segments):
    collector = CollectorSink()
    result = synthesize(
        reno_segments[:6],
        TINY,
        _config(workers=2),
        context=RunContext([collector]),
    )
    assert result.best.distance < float("inf")
    spawns = collector.of_kind("pool_spawned")
    assert len(spawns) == 1
    # The working set changed between iterations, so the pool re-primed
    # segments rather than being rebuilt.
    assert len(collector.of_kind("segments_primed")) >= 1


def test_budget_enforced_inside_waves(reno_segments):
    """With an already-expired budget, every bucket scores exactly its
    guaranteed minimum of one sketch: the wave is cut short *inside*,
    not only between iterations."""
    collector = CollectorSink()
    result = synthesize(
        reno_segments[:4],
        TINY,
        _config(max_iterations=5, time_budget_seconds=0.0),
        context=RunContext([collector]),
    )
    assert len(result.iterations) == 1  # stopped right after iteration 1
    waves = collector.of_kind("bucket_scored")
    assert waves
    assert all(event.sketches == 1 for event in waves)
    budget = collector.of_kind("budget_exceeded")
    assert budget and budget[0].phase == "refinement"
    # Best-so-far still exists despite the truncated waves.
    assert result.best.distance < float("inf")


def test_null_context_keeps_phase_timers_private(reno_segments):
    # No context: silent, and nothing observable changes (covered by the
    # equivalence tests); passing a context must not alter the result.
    collector = CollectorSink()
    with_ctx = synthesize(
        reno_segments[:6], TINY, FAST, context=RunContext([collector])
    )
    without_ctx = synthesize(reno_segments[:6], TINY, FAST)
    assert _essentials(with_ctx) == _essentials(without_ctx)
