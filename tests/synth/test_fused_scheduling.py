"""Fused wave scheduling: one pipelined dispatch per iteration.

Every refinement iteration scores all live buckets as one executor wave
and threads warm-start incumbent bounds through it.  These tests pin
that the wave is the same search at one worker and at four, that runs
announce their waves, and that the shared bounds actually prune.
"""

from dataclasses import replace

from repro.dsl import RENO_DSL, with_budget
from repro.runtime import CollectorSink, RunContext, WaveDispatched
from repro.runtime.events import ScoringStats
from repro.synth.refinement import SynthesisConfig, synthesize

TINY = with_budget(RENO_DSL, max_depth=3, max_nodes=4)

FAST = SynthesisConfig(
    initial_samples=6,
    initial_keep=3,
    completion_cap=8,
    max_iterations=2,
    exhaustive_cap=120,
)


def _config(**overrides) -> SynthesisConfig:
    return replace(FAST, **overrides)


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


def _run(segments, config, collector=None):
    sinks = [collector] if collector is not None else []
    with RunContext(sinks) as ctx:
        return synthesize(segments[:6], TINY, config, context=ctx)


def test_fused_parallel_matches_fused_serial(reno_segments):
    serial = _run(reno_segments, _config(workers=1))
    pooled = _run(reno_segments, _config(workers=4))
    assert _essentials(serial) == _essentials(pooled)


def test_fused_run_emits_wave_dispatched(reno_segments):
    collector = CollectorSink()
    _run(reno_segments, _config(workers=1), collector)
    waves = [e for e in collector.events if isinstance(e, WaveDispatched)]
    assert waves, "fused run must announce its dispatches"
    assert all(wave.groups >= 1 and wave.tasks >= 1 for wave in waves)
    stats = [e for e in collector.events if isinstance(e, ScoringStats)]
    assert stats[-1].fused_waves == len(waves)
    assert stats[-1].fused_tasks == sum(wave.tasks for wave in waves)


def test_fused_run_warm_starts_the_cascade(reno_segments):
    """Multi-bucket iterations must actually exercise the shared
    incumbent bounds (the whole point of fusing), not just match
    results."""
    collector = CollectorSink()
    _run(reno_segments, _config(workers=1), collector)
    stats = [e for e in collector.events if isinstance(e, ScoringStats)]
    assert stats[-1].warm_start_pruned > 0
