"""Shared-memory segment plane suite (``repro.runtime.shm``).

The plane is pure transport: scores, rankings, and checkpoints at one
worker and at four must be bit-identical to the scalar serial oracle
(``Scorer(batch=False)``, ``workers=1``).  Around that differential core
sit the lifecycle guarantees — crash-mid-wave pool rebuilds re-attach
the same plane, co-scheduled jobs get isolated planes, a host without a
plane respawns the pool instead, and no ``/dev/shm`` segment survives an
executor close or a fleet drain.
"""

import multiprocessing
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.dsl import RENO_DSL, with_budget
from repro.dsl.parser import parse
from repro.runtime.context import RunContext
from repro.runtime.executors import (
    PooledExecutor,
    SerialExecutor,
    make_executor,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.shm import (
    PLANE_NAME_PREFIX,
    SegmentPlane,
    attach_plane,
    plane_segments,
)
from repro.runtime.sinks import CollectorSink
from repro.service import FleetServer, submit_job
from repro.synth.refinement import SynthesisConfig, synthesize
from repro.synth.scoring import Scorer
from repro.synth.sketch import Sketch
from repro.trace.io import save_traces

SHM_DIR = "/dev/shm"

SKETCH_TEXTS = [
    "cwnd + c0 * reno_inc",
    "cwnd + reno_inc",
    "c0 * mss",
    "cwnd + mss",
    "(c0 < c1) ? cwnd + mss : cwnd",
]

TINY = with_budget(RENO_DSL, max_depth=3, max_nodes=4)

FAST = SynthesisConfig(
    initial_samples=6,
    initial_keep=3,
    completion_cap=8,
    max_iterations=2,
    exhaustive_cap=120,
)


@pytest.fixture(scope="module")
def sketches():
    return [Sketch.from_expr(parse(text)) for text in SKETCH_TEXTS]


def _scorer(**kwargs):
    return Scorer(constant_pool=(0.5, 1.0), completion_cap=8, **kwargs)


def _each(executor, sketches, segments):
    """Score every sketch as its own group, so no incumbent bound prunes
    and every distance is the sketch's exact score."""
    grouped = executor.score_grouped(
        [[sketch] for sketch in sketches], segments
    )
    return [result for results in grouped for result in results]


def _live_planes():
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - exotic platform
        pytest.skip("no /dev/shm to inspect")
    return sorted(
        name
        for name in os.listdir(SHM_DIR)
        if name.startswith(PLANE_NAME_PREFIX)
    )


# ---------------------------------------------------------------- roundtrip


def test_plane_roundtrip_preserves_every_array(reno_segments):
    scorer = _scorer()
    entries = scorer.prepare_segments(reno_segments[:3])
    plane = SegmentPlane.build(entries)
    assert plane is not None
    assert plane.name in _live_planes()
    shm = attach_plane(plane.handle)
    try:
        rebuilt = plane_segments(shm, plane.handle)
        assert len(rebuilt) == len(entries)
        for entry, segment in zip(entries, rebuilt):
            table, observed, downsampled, envelope = segment.plane_entry()
            assert table.mss == entry.table.mss
            assert set(table.columns) == set(entry.table.columns)
            for name, column in entry.table.columns.items():
                assert np.array_equal(table.columns[name], column)
            assert np.array_equal(observed, entry.observed)
            assert np.array_equal(downsampled, entry.downsampled)
            assert entry.envelope_cache is not None, "dtw precomputes"
            assert envelope is not None
            assert np.array_equal(envelope[0], entry.envelope_cache[0])
            assert np.array_equal(envelope[1], entry.envelope_cache[1])
            # Views are read-only: a worker can never corrupt the plane.
            with pytest.raises(ValueError):
                observed[0] = 0.0
    finally:
        shm.close()
        plane.close()
    assert plane.name not in _live_planes()
    plane.close()  # idempotent


def test_plane_build_rejects_unpackable_inputs(reno_segments):
    before = _live_planes()
    assert SegmentPlane.build([]) is None
    entry = _scorer().prepare_segments(reno_segments[:1])[0]
    empty_series = SimpleNamespace(
        table=entry.table,
        observed=np.empty(0),
        downsampled=entry.downsampled,
        envelope_cache=None,
    )
    assert SegmentPlane.build([empty_series]) is None
    assert _live_planes() == before, "failed builds must not leak blocks"


# ------------------------------------------------------------- bit-identity


@pytest.mark.parametrize("workers", [1, 4])
def test_wave_bit_identity_across_transport_and_kernel(
    sketches, reno_segments, workers
):
    """The batched kernel, in-process or through the plane, returns the
    exact floats of the scalar serial oracle — not approximately."""
    working = reno_segments[:2]
    reference = _each(SerialExecutor(_scorer(batch=False)), sketches, working)
    executor = make_executor(_scorer(), workers)
    try:
        results = _each(executor, sketches, working)
    finally:
        executor.close()
    assert [r.distance for r in results] == [
        r.distance for r in reference
    ]
    assert [r.handler for r in results] == [r.handler for r in reference]
    assert _live_planes() == []


@pytest.mark.parametrize("workers", [1, 4])
def test_synthesis_checkpoints_byte_identical(
    reno_segments, tmp_path, workers
):
    """Full batched refinement runs checkpoint byte-identically to the
    scalar oracle at ``workers=1`` — the resume contract behind keeping
    workers and ``batch_scoring`` out of the run fingerprint."""
    segments = reno_segments[:4]
    baseline_path = tmp_path / "baseline.jsonl"
    variant_path = tmp_path / "variant.jsonl"
    baseline = synthesize(
        segments,
        TINY,
        replace(
            FAST,
            workers=1,
            batch_scoring=False,
            checkpoint_path=str(baseline_path),
        ),
    )
    variant = synthesize(
        segments,
        TINY,
        replace(FAST, workers=workers, checkpoint_path=str(variant_path)),
    )
    assert variant.best.handler == baseline.best.handler
    assert variant.best.distance == baseline.best.distance
    assert tuple(variant.iterations) == tuple(baseline.iterations)
    assert variant.total_handlers_scored == baseline.total_handlers_scored
    assert variant_path.read_bytes() == baseline_path.read_bytes()
    assert _live_planes() == []


# ------------------------------------------------------- crash re-attach


def test_crash_mid_wave_rebuild_reattaches_plane(sketches, reno_segments):
    """A transient worker crash rebuilds the pool; the fresh workers
    re-attach the *cached* plane (no new block) and finish with the
    fault-free distances."""
    working = reno_segments[:2]
    with PooledExecutor(_scorer(), 2) as clean:
        expected = _each(clean, sketches, working)
    collector = CollectorSink()
    plan = FaultPlan.make(crash_on=[sketches[2]], crash_generations=[1])
    with PooledExecutor(
        _scorer(), 2, context=RunContext([collector]), fault_plan=plan
    ) as pooled:
        results = _each(pooled, sketches, working)
        assert len(pooled._planes) == 1, "rebuild reuses the cached plane"
        (plane,) = pooled._planes.values()
        assert pooled.shm_bytes == plane.nbytes
    assert len(collector.of_kind("worker_crashed")) == 1
    assert len(collector.of_kind("pool_rebuilt")) == 1
    assert [r.distance for r in results] == [
        r.distance for r in expected
    ]
    assert _live_planes() == []


# ------------------------------------------------------- fleet isolation


def test_coscheduled_working_sets_get_isolated_planes(
    sketches, reno_segments
):
    """Two jobs multiplexed over one executor (the scheduler's shape)
    each get their own plane — distinct names, both live while the pool
    serves them, all unlinked on close."""
    job_a = reno_segments[:2]
    job_b = reno_segments[2:4]
    with PooledExecutor(_scorer(), 2) as pooled:
        first = _each(pooled, sketches, job_a)
        second = _each(pooled, sketches, job_b)
        assert len(first) == len(second) == len(sketches)
        assert len(pooled._planes) == 2
        names = [plane.name for plane in pooled._planes.values()]
        assert len(set(names)) == 2
        live = _live_planes()
        for name in names:
            assert name in live
    assert _live_planes() == []


# ------------------------------------------------------- plane switching


def test_plane_switch_drops_views_of_the_closed_plane(
    sketches, reno_segments, monkeypatch
):
    """A worker that switches planes A -> B -> A keeps no scorer entry
    (signal table or cached score) pinning a segment of a plane it has
    closed, and scores each plane exactly as a worker that only ever
    saw that plane."""
    from repro.runtime import executors

    config = ({"constant_pool": (0.5, 1.0), "completion_cap": 8}, 1_000)
    tasks = list(enumerate(sketches))
    builder = _scorer()
    planes = {
        name: SegmentPlane.build(builder.prepare_segments(working))
        for name, working in (
            ("A", reno_segments[:2]),
            ("B", reno_segments[2:4]),
        )
    }

    def fresh_worker():
        attached = executors._worker_plane
        for name in (
            "_worker_scorer",
            "_worker_config",
            "_worker_segments",
            "_worker_plane",
        ):
            monkeypatch.setattr(executors, name, None)
        if attached is not None:
            attached[1].close()

    def chunk(name):
        bounds = {group: float("inf") for group, _ in tasks}
        outcomes, _, _ = executors._score_chunk(
            tasks, bounds, config, planes[name].handle
        )
        return [outcome.distance for outcome in outcomes]

    try:
        expected = {}
        for name in planes:
            fresh_worker()
            expected[name] = chunk(name)
        fresh_worker()
        closed = []
        for name in ("A", "B", "A"):
            if executors._worker_segments is not None:
                closed.extend(executors._worker_segments)
            assert chunk(name) == expected[name]
            scorer = executors._worker_scorer
            assert scorer._tables and scorer.cache._entries, "both filled"
            pinned = [entry.segment for entry in scorer._tables.values()]
            pinned += [pair[0] for pair in scorer.cache._entries.values()]
            assert not any(
                segment is old for segment in pinned for old in closed
            )
    finally:
        fresh_worker()
        for plane in planes.values():
            plane.close()
    assert _live_planes() == []


# ---------------------------------------------------------- no-plane hosts


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="hosts without fork never build a plane",
)
def test_no_plane_respawns_pool_with_segments(
    sketches, reno_segments, monkeypatch
):
    """When no plane can be built the segments ride a pool respawn, a
    planned spawn: the scalar oracle's floats, no rebuild counted, no
    block in ``/dev/shm``, and each new working set respawns again."""
    monkeypatch.setattr(SegmentPlane, "build", lambda entries: None)
    collector = CollectorSink()
    first = reno_segments[:2]
    second = reno_segments[2:4]
    with PooledExecutor(
        _scorer(), 2, context=RunContext([collector])
    ) as pooled:
        results = _each(pooled, sketches, first)
        assert _live_planes() == []
        assert pooled.pools_spawned == 1
        _each(pooled, sketches, first)  # same working set: no respawn
        assert pooled.pools_spawned == 1
        again = _each(pooled, sketches, second)
        assert pooled.pools_spawned == 2
        assert pooled.pool_rebuilds == 0
        assert pooled.shm_bytes == 0
    for working, scored in ((first, results), (second, again)):
        oracle = _each(SerialExecutor(_scorer(batch=False)), sketches, working)
        assert [r.distance for r in scored] == [r.distance for r in oracle]
        assert [r.handler for r in scored] == [r.handler for r in oracle]
    assert len(collector.of_kind("pool_spawned")) == 2
    assert collector.of_kind("pool_rebuilt") == []
    primes = collector.of_kind("segments_primed")
    assert [p.segment_count for p in primes] == [2, 2]
    assert _live_planes() == []


# ------------------------------------------------------------ leak checks


def test_drained_server_leaves_no_planes(reno_trace, tmp_path):
    """A graceful drain (the SIGTERM handler's path) tears the shared
    executor down plane-free, exactly like a normal completion."""
    archive = tmp_path / "reno.json"
    save_traces([reno_trace], str(archive))
    spool = str(tmp_path / "spool")
    submit_job(
        spool,
        "job",
        traces=str(archive),
        dsl="reno",
        max_depth=3,
        max_nodes=4,
        config={
            "initial_samples": 4,
            "initial_keep": 3,
            "completion_cap": 8,
            "max_iterations": 2,
            "exhaustive_cap": 120,
        },
    )
    calls = {"n": 0}

    def drain_after_one_slice():
        calls["n"] += 1
        return calls["n"] > 2

    sink = CollectorSink()
    server = FleetServer(
        spool,
        server_id="srv-shm",
        workers=2,
        quantum_tasks=2,
        drain=drain_after_one_slice,
        context=RunContext([sink]),
    )
    server.run()
    (drained,) = sink.of_kind("server_drained")
    assert drained.jobs_released == 1
    assert _live_planes() == []
