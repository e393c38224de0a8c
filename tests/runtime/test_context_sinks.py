"""RunContext and sink behavior: timing, fan-out, JSONL format."""

import io
import json

from repro.runtime.context import RunContext
from repro.runtime.events import (
    BudgetExceeded,
    IterationFinished,
    PoolSpawned,
    RunFinished,
    RunStarted,
)
from repro.runtime.sinks import CollectorSink, ConsoleProgressSink, JsonlSink

STARTED = RunStarted(
    run="synthesis",
    dsl_name="reno-4",
    bucket_count=64,
    segment_count=4,
    workers=2,
)
ITERATION = IterationFinished(
    index=1,
    samples_per_bucket=8,
    segment_count=2,
    bucket_count=64,
    kept=5,
    best_distance=3.0,
    handlers_scored=100,
    elapsed_seconds=0.5,
)
FINISHED = RunFinished(
    run="synthesis",
    best_distance=3.0,
    expression="cwnd + mss",
    handlers_scored=100,
    elapsed_seconds=1.0,
    phase_seconds={"refinement": 1.0},
)


def test_collector_preserves_order_and_timestamps():
    collector = CollectorSink()
    ctx = RunContext([collector])
    ctx.emit(STARTED)
    ctx.emit(ITERATION)
    ctx.emit(FINISHED)
    assert [event.kind for event in collector] == [
        "run_started",
        "iteration_finished",
        "run_finished",
    ]
    times = [t for t, _ in collector.timeline]
    assert times == sorted(times)
    assert collector.last_of_kind("run_finished") is FINISHED
    assert collector.last_of_kind("pool_spawned") is None
    assert len(collector) == 3


def test_no_sink_context_counts_but_stores_nothing():
    ctx = RunContext()
    ctx.emit(STARTED)
    assert ctx.events_emitted == 1


def test_timer_accumulates_across_reentry():
    ticks = iter([0.0, 0.0, 1.0, 5.0, 7.0])
    ctx = RunContext(clock=lambda: next(ticks))
    with ctx.timer("phase"):
        pass  # 0.0 -> 1.0
    with ctx.timer("phase"):
        pass  # 5.0 -> 7.0
    assert ctx.phase_seconds == {"phase": 3.0}


def test_jsonl_sink_writes_one_parseable_object_per_line(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunContext([JsonlSink(str(path))]) as ctx:
        ctx.emit(STARTED)
        ctx.emit(ITERATION)
        ctx.emit(FINISHED)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    parsed = [json.loads(line) for line in lines]
    assert [p["event"] for p in parsed] == [
        "run_started",
        "iteration_finished",
        "run_finished",
    ]
    assert all("t" in p for p in parsed)
    assert parsed[0]["workers"] == 2


def test_jsonl_sink_without_events_creates_no_file(tmp_path):
    path = tmp_path / "never.jsonl"
    sink = JsonlSink(str(path))
    sink.close()
    assert not path.exists()


def test_console_sink_mentions_the_essentials():
    stream = io.StringIO()
    sink = ConsoleProgressSink(stream)
    ctx = RunContext([sink])
    ctx.emit(STARTED)
    ctx.emit(PoolSpawned(workers=2))
    ctx.emit(ITERATION)
    ctx.emit(
        BudgetExceeded(phase="refinement", budget_seconds=1.0,
                       elapsed_seconds=1.2)
    )
    ctx.emit(FINISHED)
    out = stream.getvalue()
    assert "run started" in out
    assert "pool spawned" in out
    assert "iter 1" in out
    assert "budget" in out
    assert "cwnd + mss" in out
    assert len(out.strip().splitlines()) == 5
