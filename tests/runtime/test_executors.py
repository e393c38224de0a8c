"""Executor tests: serial/pooled agreement, priming, wave order, chunking."""

import pytest

from repro.dsl.parser import parse
from repro.runtime.context import RunContext
from repro.runtime.executors import (
    PooledExecutor,
    SerialExecutor,
    derive_chunksize,
    make_executor,
)
from repro.runtime.sinks import CollectorSink
from repro.synth.scoring import Scorer
from repro.synth.sketch import Sketch

SKETCH_TEXTS = [
    "cwnd + c0 * reno_inc",
    "cwnd + reno_inc",
    "c0 * mss",
    "cwnd + mss",
    "(c0 < c1) ? cwnd + mss : cwnd",
]


@pytest.fixture(scope="module")
def sketches():
    return [Sketch.from_expr(parse(text)) for text in SKETCH_TEXTS]


def _scorer():
    return Scorer(constant_pool=(0.5, 1.0), completion_cap=8)


def _each(executor, sketches, segments, **kwargs):
    """Score every sketch as its own group, so no incumbent bound prunes
    and every distance is the sketch's exact score."""
    grouped = executor.score_grouped(
        [[sketch] for sketch in sketches], segments, **kwargs
    )
    return [result for results in grouped for result in results]


# ----------------------------------------------------------------- chunking


def test_derive_chunksize_spreads_small_waves():
    # The old hardcoded chunksize=8 put 10 tasks on at most 2 workers.
    assert derive_chunksize(10, 4) == 1
    assert derive_chunksize(3, 8) == 1
    assert derive_chunksize(1000, 4) == 63
    assert derive_chunksize(0, 4) == 1


# ------------------------------------------------------------------- serial


def test_serial_matches_direct_scoring(sketches, reno_segments):
    scorer = _scorer()
    executor = SerialExecutor(scorer)
    working = reno_segments[:2]
    results = _each(executor, sketches, working)
    assert len(results) == len(sketches)
    fresh = _scorer()
    for sketch, result in zip(sketches, results):
        assert fresh.score_sketch(sketch, working).distance == pytest.approx(
            result.distance
        )


# ------------------------------------------------------------------- pooled


def test_pooled_matches_serial(sketches, reno_segments):
    working = reno_segments[:2]
    serial = _each(SerialExecutor(_scorer()), sketches, working)
    with PooledExecutor(_scorer(), 2) as pooled:
        parallel = _each(pooled, sketches, working)
    assert [r.distance for r in parallel] == pytest.approx(
        [r.distance for r in serial]
    )
    assert [r.handler for r in parallel] == [r.handler for r in serial]


def test_pooled_spawns_one_pool_and_reprimes_on_change(
    sketches, reno_segments
):
    collector = CollectorSink()
    ctx = RunContext([collector])
    with PooledExecutor(_scorer(), 2, context=ctx) as pooled:
        first = reno_segments[:2]
        second = reno_segments[:3]
        _each(pooled, sketches, first)
        _each(pooled, sketches, first)  # unchanged set: no re-prime
        _each(pooled, sketches, second)
        _each(pooled, sketches, second)
    assert len(collector.of_kind("pool_spawned")) == 1
    primes = collector.of_kind("segments_primed")
    assert [p.segment_count for p in primes] == [2, 3]
    assert pooled.pools_spawned == 1


def test_pooled_tiny_wave_stays_in_process(sketches, reno_segments):
    collector = CollectorSink()
    ctx = RunContext([collector])
    with PooledExecutor(_scorer(), 2, context=ctx) as pooled:
        results = _each(pooled, sketches[:2], reno_segments[:1])
    assert len(results) == 2
    assert collector.of_kind("pool_spawned") == []  # never forked


def test_pooled_rejects_single_worker():
    with pytest.raises(ValueError):
        PooledExecutor(_scorer(), 1)


def test_make_executor_picks_by_workers():
    assert isinstance(make_executor(_scorer(), 1), SerialExecutor)
    pooled = make_executor(_scorer(), 3)
    assert isinstance(pooled, PooledExecutor)
    pooled.close()


# ------------------------------------------------------------ scoring stats


def test_serial_reports_scoring_stats(sketches, reno_segments):
    executor = SerialExecutor(_scorer())
    _each(executor, sketches, reno_segments[:2])
    stats = executor.stats()
    assert stats.kind == "scoring_stats"
    assert stats.batched_waves > 0


def _deterministic(stats):
    """*stats* without the wall-clock, transport and pipeline-shape
    fields (precompute ms, shm bytes, in-flight peak, occupancy): they
    describe *how* the work ran, not how much."""
    import dataclasses

    return dataclasses.replace(
        stats,
        envelope_precompute_ms=0.0,
        shm_bytes=0,
        peak_in_flight=0,
        mean_occupancy=0.0,
    )


def test_pooled_scoring_stats_match_serial(sketches, reno_segments):
    """Counter totals are per-sketch work, so the worker split (and the
    per-worker scorers it implies) cannot change the aggregate."""
    working = reno_segments[:2]
    serial = SerialExecutor(_scorer())
    _each(serial, sketches, working)
    expected = serial.stats()
    with PooledExecutor(_scorer(), 2) as pooled:
        _each(pooled, sketches, working)
        stats = pooled.stats()
        assert stats.shm_bytes > 0  # the plane carried the working set
    assert _deterministic(stats) == _deterministic(expected)
    assert stats.batched_waves == len(sketches)


def test_pooled_stats_without_fork_match_serial(
    sketches, reno_segments, monkeypatch
):
    """A pool built without ``fork`` (``spawn`` workers attach the same
    plane) reports its workers' counters, because they come back with
    the chunk results."""
    import multiprocessing

    working = reno_segments[:2]
    serial = SerialExecutor(_scorer())
    _each(serial, sketches, working)
    expected = serial.stats()
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    with PooledExecutor(_scorer(), 2) as pooled:
        _each(pooled, sketches, working)
        stats = pooled.stats()
        assert pooled.pools_spawned == 1
        assert pooled._mp_context.get_start_method() == "spawn"
        assert stats.shm_bytes > 0  # the plane serves spawned workers too
    assert _deterministic(stats) == _deterministic(expected)
    assert stats.batched_waves == len(sketches)


# ------------------------------------------------------------- fused waves


def test_wave_order_leaders_then_runs():
    from repro.runtime.executors import wave_order

    # run_length=1: leaders round, then plain round-robin.
    assert wave_order([2, 3, 1]) == [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1, 2),
    ]
    # run_length=2: leaders first, then same-group runs of two,
    # round-robined across groups.
    assert wave_order([3, 4, 1], run_length=2) == [
        (0, 0), (1, 0), (2, 0),
        (0, 1), (0, 2), (1, 1), (1, 2),
        (1, 3),
    ]
    assert wave_order([]) == []
    assert wave_order([0, 2], run_length=4) == [(1, 0), (1, 1)]


def test_wave_order_leaders_first_and_prefixes_per_group():
    """Every group's leader comes first, and any flat prefix maps to
    per-group rank prefixes, for any run length — what positional
    scatter and crash-retry prefix retention rely on."""
    from repro.runtime.executors import wave_order

    sizes = [4, 1, 7, 0, 3]
    for run_length in (1, 2, 5):
        order = wave_order(sizes, run_length=run_length)
        leaders = [(group, 0) for group, size in enumerate(sizes) if size]
        assert order[: len(leaders)] == leaders
        assert sorted(order) == sorted(
            (group, rank)
            for group, size in enumerate(sizes)
            for rank in range(size)
        )
        seen = [0] * len(sizes)
        for group, rank in order:
            assert rank == seen[group]
            seen[group] += 1


def test_serial_grouped_minima_match_per_group(sketches, reno_segments):
    """The fused wave may return inf for warm-pruned sketches, but every
    group's *minimum* is the exact minimum of its sketches' unbounded
    scores — the only number the refinement ranking consumes."""
    working = reno_segments[:2]
    groups = [sketches[:3], sketches[3:]]
    executor = SerialExecutor(_scorer())
    grouped = executor.score_grouped(groups, working)
    assert [len(results) for results in grouped] == [3, 2]
    for group, results in zip(groups, grouped):
        plain = _each(SerialExecutor(_scorer()), group, working)
        assert min(r.distance for r in results) == min(
            r.distance for r in plain
        )
    # Non-pruned distances are the exact per-sketch scores.
    for group, results in zip(groups, grouped):
        for sketch, result in zip(group, results):
            if result.distance != float("inf"):
                assert result.distance == _scorer().score_sketch(
                    sketch, working
                ).distance


def test_pooled_grouped_matches_serial_grouped(sketches, reno_segments):
    working = reno_segments[:2]
    groups = [sketches[:3], sketches[3:]]
    serial = SerialExecutor(_scorer()).score_grouped(groups, working)
    with PooledExecutor(_scorer(), 2) as pooled:
        parallel = pooled.score_grouped(groups, working)
    assert [len(results) for results in parallel] == [3, 2]
    for mine, theirs in zip(parallel, serial):
        assert min(r.distance for r in mine) == min(
            r.distance for r in theirs
        )


def test_grouped_fuses_small_groups_onto_pool(sketches, reno_segments):
    """Regression for the small-bucket serial leak: three sub-threshold
    buckets, each scored as its own wave, stay inline with the pool
    idle; flattened into one wave they clear MIN_PARALLEL_SKETCHES and
    fork."""
    collector = CollectorSink()
    ctx = RunContext([collector])
    with PooledExecutor(_scorer(), 2, context=ctx) as pooled:
        pooled.score_grouped([sketches[:2]], reno_segments[:1])
        assert collector.of_kind("pool_spawned") == []  # one bucket: inline
        grouped = pooled.score_grouped(
            [sketches[:2], sketches[2:4], sketches[4:]], reno_segments[:1]
        )
    assert [len(results) for results in grouped] == [2, 2, 1]
    assert len(collector.of_kind("pool_spawned")) == 1  # fused wave forked


def test_grouped_tiny_flattened_wave_stays_in_process(
    sketches, reno_segments
):
    collector = CollectorSink()
    ctx = RunContext([collector])
    with PooledExecutor(_scorer(), 2, context=ctx) as pooled:
        grouped = pooled.score_grouped(
            [sketches[:1], sketches[1:2]], reno_segments[:1]
        )
    assert [len(results) for results in grouped] == [1, 1]
    assert collector.of_kind("pool_spawned") == []


def test_grouped_emits_wave_dispatched(sketches, reno_segments):
    collector = CollectorSink()
    ctx = RunContext([collector])
    executor = SerialExecutor(_scorer(), context=ctx)
    executor.score_grouped([sketches[:3], sketches[3:]], reno_segments[:1])
    waves = collector.of_kind("wave_dispatched")
    assert len(waves) == 1
    assert waves[0].groups == 2
    assert waves[0].tasks == 5
    assert waves[0].workers == 1
    stats = executor.stats()
    assert stats.fused_waves == 1
    assert stats.fused_tasks == 5
    assert stats.peak_in_flight >= 1
    assert stats.mean_occupancy > 0.0


def test_pooled_stats_submits_no_pool_task(
    sketches, reno_segments, monkeypatch
):
    """Worker counters ride back on chunk results, so stats() reads
    them in the parent without a pool round trip."""
    with PooledExecutor(_scorer(), 2) as pooled:
        _each(pooled, sketches, reno_segments[:2])
        submitted = []
        monkeypatch.setattr(
            pooled._pool, "submit", lambda fn, *args: submitted.append(fn)
        )
        scoring = pooled.stats()
    assert submitted == []
    assert scoring.batched_waves == len(sketches)


# ------------------------------------------------------- lifecycle (service)


def test_pooled_close_then_reuse_across_runs(sketches, reno_segments):
    """close() is a clean seam between sequential runs: the next wave
    respawns a pool without counting it as a crash rebuild."""
    collector = CollectorSink()
    ctx = RunContext([collector])
    pooled = PooledExecutor(_scorer(), 2, context=ctx)
    working = reno_segments[:2]
    first = _each(pooled, sketches, working)
    pooled.close()
    pooled.close()  # idempotent
    second = _each(pooled, sketches, working)
    pooled.close()
    assert [r.distance for r in second] == pytest.approx(
        [r.distance for r in first]
    )
    assert pooled.pools_spawned == 2
    assert pooled.pool_rebuilds == 0  # planned respawns are not faults
    assert len(collector.of_kind("pool_spawned")) == 2


def test_pooled_adopt_scorer_switches_jobs(sketches, reno_segments):
    """Adopting a new scorer redirects scoring without a new pool, and
    stats aggregate across every scorer the pool has served."""
    collector = CollectorSink()
    ctx = RunContext([collector])
    working = reno_segments[:2]
    first_scorer = _scorer()
    second_scorer = Scorer(constant_pool=(0.25, 2.0), completion_cap=4)
    with PooledExecutor(first_scorer, 2, context=ctx) as pooled:
        baseline = _each(pooled, sketches, working)
        pooled.adopt_scorer(second_scorer)
        adopted = _each(pooled, sketches, working)
        pooled.adopt_scorer(first_scorer)
        back = _each(pooled, sketches, working)
    expected = _each(
        SerialExecutor(
            Scorer(constant_pool=(0.25, 2.0), completion_cap=4)
        ),
        sketches,
        working,
    )
    assert [r.distance for r in adopted] == pytest.approx(
        [r.distance for r in expected]
    )
    assert [r.distance for r in back] == pytest.approx(
        [r.distance for r in baseline]
    )
    assert pooled.pools_spawned == 1  # adoption never respawns
    assert len(collector.of_kind("pool_spawned")) == 1


def test_pooled_adopt_same_config_keeps_working_set(sketches, reno_segments):
    """Two scorers with identical config share the pool's working set."""
    collector = CollectorSink()
    ctx = RunContext([collector])
    with PooledExecutor(_scorer(), 2, context=ctx) as pooled:
        working = reno_segments[:2]
        first = _each(pooled, sketches, working)
        pooled.adopt_scorer(_scorer())  # identical config
        second = _each(pooled, sketches, working)
    assert [r.distance for r in second] == pytest.approx(
        [r.distance for r in first]
    )
    # Same segments + same config: the second wave needed no re-prime,
    # so the epoch (segments_primed count) did not move.
    assert len(collector.of_kind("segments_primed")) == 1


def test_pooled_adopt_other_data_knobs_switches_plane(sketches, reno_segments):
    """Same segments, a scorer with another ``series_budget``: the plane
    holds arrays shaped by the data knobs, so the pool must move to the
    new scorer's plane, not score the new config against the old one."""
    working = reno_segments[:2]

    def scorer(budget):
        return Scorer(
            constant_pool=(0.5, 1.0), completion_cap=8, series_budget=budget
        )

    expected = _each(SerialExecutor(scorer(32)), sketches, working)
    with PooledExecutor(scorer(128), 2) as pooled:
        _each(pooled, sketches, working)
        pooled.adopt_scorer(scorer(32))
        adopted = _each(pooled, sketches, working)
        assert len(pooled._planes) == 2
    assert [r.distance for r in adopted] == [r.distance for r in expected]
