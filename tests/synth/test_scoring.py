"""Scorer tests: handler and sketch scoring semantics."""

import pytest

from repro.dsl.parser import parse
from repro.synth.scoring import ScoredHandler, Scorer
from repro.synth.sketch import Sketch


@pytest.fixture(scope="module")
def scorer():
    return Scorer(constant_pool=(0.5, 0.7, 1.0, 2.0), completion_cap=16)


@pytest.fixture(scope="module")
def working(reno_segments):
    return reno_segments[1:4]


def test_lower_is_better_on_matching_cca(scorer, working):
    reno = scorer.score_handler(parse("cwnd + 0.7 * reno_inc"), working)
    flat = scorer.score_handler(parse("2 * mss"), working)
    assert reno < flat


def test_score_is_mean_over_segments(scorer, working):
    handler = parse("cwnd + reno_inc")
    total = scorer.score_handler(handler, working)
    parts = sum(
        scorer.score_handler(handler, [segment]) for segment in working
    )
    assert total == pytest.approx(parts / len(working))


def test_score_deterministic(scorer, working):
    handler = parse("cwnd + 0.7 * reno_inc")
    assert scorer.score_handler(handler, working) == scorer.score_handler(
        handler, working
    )


def test_sketch_score_is_min_over_completions(scorer, working):
    sketch = Sketch.from_expr(parse("cwnd + c0 * reno_inc"))
    best = scorer.score_sketch(sketch, working)
    assert isinstance(best, ScoredHandler)
    # The chosen completion's own score equals the reported distance.
    assert scorer.score_handler(best.handler, working) == pytest.approx(
        best.distance
    )
    # And no pool completion beats it.
    for value in scorer.constant_pool:
        handler = parse(f"cwnd + {value} * reno_inc")
        assert scorer.score_handler(handler, working) >= best.distance - 1e-9


def test_scored_handler_ordering():
    a = ScoredHandler(parse("cwnd"), 1.0)
    b = ScoredHandler(parse("mss"), 2.0)
    assert a < b
    assert min(b, a) is a


def test_table_cache_reused(scorer, working):
    first = scorer.table_for(working[0])
    second = scorer.table_for(working[0])
    assert first is second


def test_metric_selection_changes_scores(working):
    dtw = Scorer(metric_name="dtw").score_handler(
        parse("cwnd + reno_inc"), working
    )
    euclid = Scorer(metric_name="euclidean").score_handler(
        parse("cwnd + reno_inc"), working
    )
    assert dtw != euclid


def test_coalescing_bounds_table_length(working):
    scorer = Scorer(max_replay_rows=64)
    table = scorer.table_for(working[0])
    assert len(table) <= 64


def test_table_cache_is_identity_safe(scorer, reno_trace):
    """A recycled id() must not alias a different segment's table.

    Create short-lived segments in a loop: CPython frequently reuses the
    freed object's address, which would poison an id()-keyed cache that
    does not hold and verify its keys.
    """
    from repro.trace.segmentation import segment_trace

    lengths = set()
    for _ in range(6):
        segment = segment_trace(reno_trace)[1]  # fresh object each time
        table = scorer.table_for(segment)
        assert len(table) == len(scorer.table_for(segment))
        lengths.add(len(table))
        del segment
    assert len(lengths) == 1  # always the same segment's table


def test_scoring_route_has_no_switches():
    """Every sketch scores through one route: the scorer takes no batch
    switch or cache size, and the synthesis config no batch knob."""
    from repro.synth.refinement import SynthesisConfig

    with pytest.raises(TypeError):
        Scorer(batch=False)
    with pytest.raises(TypeError):
        Scorer(table_cache_entries=2)
    with pytest.raises(TypeError):
        SynthesisConfig(batch_scoring=False)
