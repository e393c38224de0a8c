"""Checkpoint/resume tests: a killed run resumed from its last
checkpoint converges to the same final result as an uninterrupted one.

The DSL budget here (depth 4, nodes 7) is the smallest that keeps the
reno family's buckets un-exhausted after iteration 1, so the loop
genuinely runs two iterations and leaves a *mid-run* boundary to resume
from — the tiny budgets the rest of the suite uses collapse to a single
iteration and would only exercise the resume-from-finished path.
"""

import json
from dataclasses import replace

import pytest

from repro.dsl import family, with_budget
from repro.dsl.printer import to_text
from repro.errors import SynthesisError
from repro.runtime.sinks import CollectorSink
from repro.runtime.context import RunContext
from repro.synth.refinement import SynthesisConfig, synthesize

DSL = with_budget(family("reno"), max_depth=4, max_nodes=7)

CONFIG = SynthesisConfig(
    initial_samples=4,
    initial_keep=4,
    completion_cap=4,
    max_iterations=2,
    exhaustive_cap=30,
    series_budget=48,
    max_replay_rows=192,
)


@pytest.fixture(scope="module")
def segments(reno_segments):
    return reno_segments[:6]


@pytest.fixture(scope="module")
def full_run(segments, tmp_path_factory):
    """One uninterrupted checkpointed run, shared read-only."""
    path = str(tmp_path_factory.mktemp("ckpt") / "full.jsonl")
    config = replace(CONFIG, checkpoint_path=path)
    result = synthesize(segments, DSL, config)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return result, lines


def _same_outcome(resumed, full):
    assert resumed.expression == full.expression
    assert resumed.distance == pytest.approx(full.distance)
    assert resumed.total_handlers_scored == full.total_handlers_scored
    assert [r.kept for r in resumed.iterations] == [
        r.kept for r in full.iterations
    ]
    assert [r.ranking for r in resumed.iterations] == [
        r.ranking for r in full.iterations
    ]


def test_full_run_checkpoints_every_iteration(full_run):
    result, lines = full_run
    assert len(result.iterations) == 2
    assert len(lines) == 2


def test_resume_from_mid_run_boundary_matches_full(full_run, segments, tmp_path):
    """Simulate a kill after iteration 1: keep only the first checkpoint
    line, resume, and demand the identical final result."""
    full, lines = full_run
    partial = tmp_path / "killed.jsonl"
    partial.write_text(lines[0] + "\n")
    collector = CollectorSink()
    with RunContext([collector]) as ctx:
        resumed = synthesize(
            segments,
            DSL,
            replace(CONFIG, resume_path=str(partial)),
            context=ctx,
        )
    _same_outcome(resumed, full)
    restored = collector.of_kind("run_resumed")
    assert [e.iterations_restored for e in restored] == [1]


def test_resume_from_finished_checkpoint_matches_full(
    full_run, segments, tmp_path
):
    """Resuming a run that already finished its loop skips straight to
    the exhaustive pass and still lands on the same result."""
    full, lines = full_run
    path = tmp_path / "finished.jsonl"
    path.write_text("\n".join(lines) + "\n")
    resumed = synthesize(
        segments, DSL, replace(CONFIG, resume_path=str(path))
    )
    _same_outcome(resumed, full)


def test_resume_continues_checkpoint_history(full_run, segments, tmp_path):
    """``--checkpoint X --resume X`` appends to one continuous history."""
    _, lines = full_run
    path = tmp_path / "continue.jsonl"
    path.write_text(lines[0] + "\n")
    synthesize(
        segments,
        DSL,
        replace(CONFIG, resume_path=str(path), checkpoint_path=str(path)),
    )
    with open(path, encoding="utf-8") as handle:
        assert len(handle.read().splitlines()) == 2


def test_resume_refuses_mismatched_config(full_run, segments, tmp_path):
    _, lines = full_run
    path = tmp_path / "mismatch.jsonl"
    path.write_text(lines[0] + "\n")
    with pytest.raises(SynthesisError, match="seed"):
        synthesize(
            segments, DSL, replace(CONFIG, resume_path=str(path), seed=99)
        )


def test_resume_refuses_mismatched_dsl(full_run, segments, tmp_path):
    _, lines = full_run
    path = tmp_path / "wrong-dsl.jsonl"
    path.write_text(lines[0] + "\n")
    with pytest.raises(SynthesisError, match="dsl"):
        synthesize(
            segments,
            with_budget(family("vegas"), max_depth=4, max_nodes=7),
            replace(CONFIG, resume_path=str(path)),
        )


def test_resume_refuses_missing_checkpoint(segments, tmp_path):
    with pytest.raises(SynthesisError, match="no usable checkpoint"):
        synthesize(
            segments,
            DSL,
            replace(CONFIG, resume_path=str(tmp_path / "absent.jsonl")),
        )


def test_resume_can_change_worker_count(full_run, segments, tmp_path):
    """Execution knobs are not part of the fingerprint: a run
    checkpointed serially resumes under the pool (and vice versa)."""
    full, lines = full_run
    path = tmp_path / "reworked.jsonl"
    path.write_text(lines[0] + "\n")
    resumed = synthesize(
        segments, DSL, replace(CONFIG, resume_path=str(path), workers=2)
    )
    _same_outcome(resumed, full)


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_stop_resumes_to_full_run(full_run, segments, tmp_path, workers):
    """A run the time budget stops leaves the uninterrupted run's first
    checkpoint, byte for byte, and resuming it without a budget lands on
    the uninterrupted result: the budget is checked only at iteration
    boundaries, so it never changes what an iteration concludes."""
    full, lines = full_run
    path = tmp_path / "budgeted.jsonl"
    stopped = synthesize(
        segments,
        DSL,
        replace(
            CONFIG,
            checkpoint_path=str(path),
            time_budget_seconds=0.0,
            workers=workers,
        ),
    )
    assert len(stopped.iterations) == 1
    assert stopped.budget_exceeded
    assert path.read_text(encoding="utf-8").splitlines() == lines[:1]
    resumed = synthesize(
        segments,
        DSL,
        replace(CONFIG, resume_path=str(path), workers=workers),
    )
    _same_outcome(resumed, full)
    assert not resumed.budget_exceeded


def test_budget_skipping_exhaustive_pass_is_marked(full_run, segments, tmp_path):
    """A resumed run whose loop already finished meets the budget only
    before the exhaustive pass: skipping that pass is marked too, with
    one ``budget_exceeded`` event, and the answer is the checkpoint's."""
    _, lines = full_run
    path = tmp_path / "finished.jsonl"
    path.write_text("\n".join(lines) + "\n")
    collector = CollectorSink()
    with RunContext([collector]) as ctx:
        resumed = synthesize(
            segments,
            DSL,
            replace(CONFIG, resume_path=str(path), time_budget_seconds=0.0),
            context=ctx,
        )
    assert resumed.budget_exceeded
    assert [e.phase for e in collector.of_kind("budget_exceeded")] == [
        "exhaustive"
    ]
    finished = json.loads(lines[-1])
    assert resumed.total_handlers_scored == finished["handlers_scored"]
    assert to_text(resumed.best.handler) == finished["best_expression"]
