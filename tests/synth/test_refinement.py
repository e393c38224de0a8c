"""Refinement-loop tests (Algorithm 1) on a tiny DSL so they stay fast."""

from dataclasses import replace

import pytest

from repro.dsl import RENO_DSL, with_budget
from repro.errors import SynthesisError
from repro.synth.refinement import SynthesisConfig, synthesize

TINY = with_budget(RENO_DSL, max_depth=3, max_nodes=4)

FAST = SynthesisConfig(
    initial_samples=6,
    initial_keep=3,
    completion_cap=8,
    max_iterations=2,
    exhaustive_cap=120,
)


@pytest.fixture(scope="module")
def result(reno_segments):
    return synthesize(reno_segments[:6], TINY, FAST)


def test_returns_best_handler(result):
    assert result.best.distance < float("inf")
    assert result.expression


def test_handler_has_no_holes(result):
    from repro.dsl import ast

    assert not ast.holes(result.best.handler)


def test_iteration_records(result):
    assert 1 <= len(result.iterations) <= 2
    first = result.iterations[0]
    assert first.index == 1
    assert first.samples_per_bucket == 6
    assert first.ranking  # non-empty ranking
    scores = [score for _, score in first.ranking]
    assert scores == sorted(scores)


def test_top_k_with_ties(result):
    first = result.iterations[0]
    cutoff_scores = dict(first.ranking)
    kept_scores = [cutoff_scores[key] for key in first.kept]
    dropped = [
        score for key, score in first.ranking if key not in set(first.kept)
    ]
    if dropped:
        assert max(kept_scores) <= min(dropped)


def test_schedule_growth(reno_segments):
    config = SynthesisConfig(
        initial_samples=4,
        initial_keep=4,
        completion_cap=4,
        max_iterations=3,
        exhaustive_cap=50,
    )
    result = synthesize(reno_segments[:6], TINY, config)
    samples = [record.samples_per_bucket for record in result.iterations]
    for earlier, later in zip(samples, samples[1:]):
        assert later == earlier * config.sample_growth


def test_segment_working_set_grows(reno_segments):
    config = SynthesisConfig(
        initial_samples=4,
        initial_keep=4,
        completion_cap=4,
        max_iterations=3,
        exhaustive_cap=50,
        initial_segments=2,
    )
    result = synthesize(reno_segments[:6], TINY, config)
    counts = [record.segment_count for record in result.iterations]
    assert counts == sorted(counts)


def test_empty_segments_rejected():
    with pytest.raises(SynthesisError):
        synthesize([], TINY, FAST)


def test_best_is_minimum_seen(result, reno_segments):
    """The returned distance must not exceed a known-good handler's score
    by an unreasonable margin — and must be the minimum of everything the
    loop scored (spot-check with the recorded bucket scores)."""
    final_ranking = result.iterations[-1].ranking
    assert result.best.distance <= min(score for _, score in final_ranking) + 1e-9


def test_time_budget_stops_early(reno_segments):
    config = SynthesisConfig(
        initial_samples=4,
        initial_keep=2,
        completion_cap=4,
        max_iterations=5,
        exhaustive_cap=10,
        time_budget_seconds=0.0,
    )
    result = synthesize(reno_segments[:4], TINY, config)
    assert len(result.iterations) == 1  # stopped right after iteration 1


def test_rank_of_helper(result):
    record = result.iterations[0]
    best_key = record.ranking[0][0]
    assert record.rank_of(best_key) == 1
    assert record.rank_of(frozenset({"definitely-not-a-key"})) is None


def test_summary_string(result):
    text = result.summary()
    assert "handlers scored" in text
    assert result.dsl_name in text


def test_exhaustive_phase_scores_fresh_only(reno_segments):
    """The final exhaustive pass must not re-score samples from the
    iteration phase (they are already reflected in best-so-far)."""
    config = SynthesisConfig(
        initial_samples=4,
        initial_keep=2,
        completion_cap=4,
        max_iterations=1,
        exhaustive_cap=30,
    )
    result = synthesize(reno_segments[:4], TINY, config)
    # handlers_scored strictly grows through the exhaustive phase (the
    # final bucket has more than 4 sketches in this DSL).
    assert result.total_handlers_scored > result.iterations[-1].handlers_scored


def test_custom_seed_changes_nothing_structural(reno_segments):
    """Different seeds may pick different working sets but the loop's
    termination structure is unchanged."""
    for seed in (0, 7):
        config = SynthesisConfig(
            initial_samples=4,
            initial_keep=2,
            completion_cap=4,
            max_iterations=2,
            exhaustive_cap=20,
            seed=seed,
        )
        result = synthesize(reno_segments[:5], TINY, config)
        assert result.best.distance < float("inf")
        assert result.initial_bucket_count == 64


@pytest.mark.parametrize("workers", [1, 4])
def test_refinement_matches_scalar_oracle(reno_segments, workers, monkeypatch):
    """The batched route is an execution detail: at any worker count
    its rankings, survivors and final handler match the scalar oracle
    (``reference_score_sketch`` in place of ``Scorer.score_sketch``) at
    ``workers=1`` exactly, while the telemetry shows the batched run
    actually pruned work."""
    from repro.runtime import CollectorSink, RunContext, ScoringStats
    from repro.synth.scoring import Scorer, reference_score_sketch

    config = SynthesisConfig(
        initial_samples=6,
        initial_keep=3,
        completion_cap=8,
        max_iterations=2,
        exhaustive_cap=120,
    )

    def run(workers: int):
        collector = CollectorSink()
        with RunContext([collector]) as context:
            result = synthesize(
                reno_segments[:6],
                TINY,
                replace(config, workers=workers),
                context=context,
            )
        return result, [
            e for e in collector.events if isinstance(e, ScoringStats)
        ]

    batched, batched_stats = run(workers)
    with monkeypatch.context() as patched:
        patched.setattr(Scorer, "score_sketch", reference_score_sketch)
        scalar, scalar_stats = run(1)
    assert batched.expression == scalar.expression
    assert batched.best.distance == scalar.best.distance
    assert batched.iterations == scalar.iterations  # full ranking identity
    # One ScoringStats per iteration plus the final snapshot.
    assert len(batched_stats) == len(batched.iterations) + 1
    final = batched_stats[-1]
    assert final.batched_waves > 0
    assert final.lb_pruned > 0
    assert final.candidates_pruned > 0
    assert scalar_stats[-1].batched_waves == 0
    assert scalar_stats[-1].lb_pruned == 0
