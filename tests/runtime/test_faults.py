"""Fault-tolerance tests: every recovery path, under both executors.

The :class:`~repro.runtime.faults.FaultPlan` makes each failure a
scoring task can meet injectable on demand — crash a worker on a
specific sketch, hang a candidate, raise from the scorer — and a
patched ``attach_plane`` fails a chunk before its tasks run, so the
supervision, quarantine, and degradation machinery is exercised
deterministically in CI rather than only when a real cluster misbehaves.
"""

import multiprocessing
import os
import time

import pytest

from repro.dsl import RENO_DSL, with_budget
from repro.dsl.parser import parse
from repro.runtime.context import RunContext
from repro.runtime.executors import PooledExecutor, SerialExecutor
from repro.runtime.faults import FaultPlan
from repro.runtime.sinks import CollectorSink
from repro.runtime.supervise import (
    WORST_DISTANCE,
    SupervisionPolicy,
    watchdog_available,
)
from repro.synth.refinement import SynthesisConfig, synthesize
from repro.synth.scoring import Scorer, reference_score_sketch
from repro.synth.sketch import Sketch

SKETCH_TEXTS = [
    "cwnd + c0 * reno_inc",
    "cwnd + reno_inc",
    "c0 * mss",
    "cwnd + mss",
    "(c0 < c1) ? cwnd + mss : cwnd",
]

WATCHDOG = 0.3

#: CI runs this suite across a worker matrix (see ``.github/workflows``):
#: serial recovery paths always run; pooled paths use this many workers,
#: clamped to the pool's minimum of 2.
WORKERS = int(os.environ.get("REPRO_FAULT_WORKERS", "2"))
POOL_WORKERS = max(2, WORKERS)


@pytest.fixture(scope="module")
def sketches():
    return [Sketch.from_expr(parse(text)) for text in SKETCH_TEXTS]


def _scorer():
    return Scorer(constant_pool=(0.5, 1.0), completion_cap=8)


def _collected():
    collector = CollectorSink()
    return collector, RunContext([collector])


def _each(executor, sketches, segments):
    """Score every sketch as its own group, so no incumbent bound prunes
    and every distance is the sketch's exact score."""
    grouped = executor.score_grouped(
        [[sketch] for sketch in sketches], segments
    )
    return [result for results in grouped for result in results]


def _baseline(sketches, segments):
    serial = SerialExecutor(_scorer())
    return [r.distance for r in _each(serial, sketches, segments)]


def _assert_no_pool_children(deadline_seconds=10.0):
    """The scoring pool's workers must all be reaped after close()."""
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    raise AssertionError(
        f"leaked worker processes: {multiprocessing.active_children()}"
    )


# ------------------------------------------------------------------- serial


def test_serial_raise_quarantined(sketches, reno_segments):
    victim = sketches[1]
    executor = SerialExecutor(
        _scorer(), fault_plan=FaultPlan.make(raise_on=[victim])
    )
    results = _each(executor, sketches, reno_segments[:1])
    assert len(results) == len(sketches)
    assert results[1].distance == WORST_DISTANCE
    assert [q.sketch for q in executor.quarantined] == [str(victim)]
    assert executor.quarantined[0].reason == "exception"
    # Healthy siblings still score normally.
    assert results[0].distance < WORST_DISTANCE


@pytest.mark.skipif(not watchdog_available(), reason="needs SIGALRM")
def test_serial_hang_quarantined_within_watchdog(sketches, reno_segments):
    victim = sketches[2]
    executor = SerialExecutor(
        _scorer(),
        watchdog_seconds=WATCHDOG,
        fault_plan=FaultPlan.make(hang_on=[victim], hang_seconds=60.0),
    )
    started = time.monotonic()
    results = _each(executor, sketches, reno_segments[:1])
    elapsed = time.monotonic() - started
    assert elapsed < 10.0  # quarantined by the watchdog, not the hang
    assert results[2].distance == WORST_DISTANCE
    assert [q.reason for q in executor.quarantined] == ["timeout"]


def test_serial_crash_fault_quarantined(sketches, reno_segments):
    # A process cannot survive its own crash, so in serial mode the
    # crash fault raises instead and lands on the quarantine path.
    executor = SerialExecutor(
        _scorer(), fault_plan=FaultPlan.make(crash_on=[sketches[0]])
    )
    results = _each(executor, sketches, reno_segments[:1])
    assert results[0].distance == WORST_DISTANCE
    assert executor.quarantined[0].reason == "exception"


def test_serial_quarantine_emits_event(sketches, reno_segments):
    collector, ctx = _collected()
    executor = SerialExecutor(
        _scorer(), context=ctx, fault_plan=FaultPlan.make(raise_on=[sketches[0]])
    )
    _each(executor, sketches, reno_segments[:1])
    events = collector.of_kind("sketch_quarantined")
    assert [e.sketch for e in events] == [str(sketches[0])]


# ------------------------------------------------------- pooled: quarantine


def test_pooled_raise_quarantined_without_rebuild(sketches, reno_segments):
    victim = sketches[1]
    with PooledExecutor(
        _scorer(), POOL_WORKERS, fault_plan=FaultPlan.make(raise_on=[victim])
    ) as pooled:
        results = _each(pooled, sketches, reno_segments[:1])
        assert pooled.pools_spawned == 1  # failure stayed inside the task
    assert results[1].distance == WORST_DISTANCE
    assert [q.sketch for q in pooled.quarantined] == [str(victim)]
    assert pooled.quarantined[0].reason == "exception"


@pytest.mark.skipif(not watchdog_available(), reason="needs SIGALRM")
def test_pooled_hang_quarantined_pool_survives(sketches, reno_segments):
    # The in-worker SIGALRM interrupts the hang, so the pool itself
    # stays healthy: no rebuild, siblings scored normally.
    victim = sketches[3]
    with PooledExecutor(
        _scorer(),
        POOL_WORKERS,
        watchdog_seconds=WATCHDOG,
        fault_plan=FaultPlan.make(hang_on=[victim], hang_seconds=60.0),
    ) as pooled:
        started = time.monotonic()
        results = _each(pooled, sketches, reno_segments[:1])
        elapsed = time.monotonic() - started
        assert pooled.pools_spawned == 1
    assert elapsed < 30.0
    assert results[3].distance == WORST_DISTANCE
    assert [q.reason for q in pooled.quarantined] == ["timeout"]
    healthy = [r for i, r in enumerate(results) if i != 3]
    assert all(r.distance < WORST_DISTANCE for r in healthy)


# ------------------------------------------------------ pooled: supervision


def test_pool_broken_during_submission_recovers(
    sketches, reno_segments, monkeypatch
):
    """A worker can die while a wave is still being submitted, and then
    ``submit`` itself raises BrokenProcessPool.  That is a worker crash
    like any other: rebuild, re-score, fault-free group minima."""
    from concurrent.futures.process import BrokenProcessPool

    working = reno_segments[:1]
    groups = [sketches[:3], sketches[3:]]
    expected = _group_minima(
        SerialExecutor(_scorer()).score_grouped(groups, working)
    )
    collector, ctx = _collected()
    with PooledExecutor(_scorer(), POOL_WORKERS, context=ctx) as pooled:
        pooled.score_grouped(groups, working)  # a live, primed pool
        real_submit = pooled._pool.submit
        submitted = []

        def submit(fn, *args, **kwargs):
            submitted.append(fn)
            if len(submitted) > 1:
                raise BrokenProcessPool("worker died mid-submission")
            return real_submit(fn, *args, **kwargs)

        monkeypatch.setattr(pooled._pool, "submit", submit)
        actual = _group_minima(pooled.score_grouped(groups, working))
        assert pooled.pool_rebuilds == 1
    assert actual == pytest.approx(expected)
    assert pooled.quarantined == []
    assert len(collector.of_kind("worker_crashed")) == 1


def test_pooled_degrades_to_serial_after_rebuild_budget(
    sketches, reno_segments
):
    """Crashes on distinct sketches exhaust the rebuild budget without
    ever giving one sketch two strikes: supervision degrades to serial,
    where the crash fault raises instead and the wave still completes."""
    working = reno_segments[:1]
    collector, ctx = _collected()
    plan = FaultPlan.make(crash_on=[sketches[0], sketches[3]])
    policy = SupervisionPolicy(
        max_pool_rebuilds=1, backoff_base_seconds=0.0
    )
    with PooledExecutor(
        _scorer(), POOL_WORKERS, context=ctx, policy=policy, fault_plan=plan
    ) as pooled:
        results = _each(pooled, sketches, working)
        assert pooled.degraded
    assert len(results) == len(sketches)
    degraded = collector.of_kind("degraded_to_serial")
    assert len(degraded) == 1
    # In the serial fallback the crash faults raise -> quarantine.
    reasons = {q.reason for q in pooled.quarantined}
    assert "exception" in reasons


def test_pooled_failing_run_leaks_no_children(sketches, reno_segments):
    with PooledExecutor(
        _scorer(),
        POOL_WORKERS,
        policy=SupervisionPolicy(backoff_base_seconds=0.0),
        fault_plan=FaultPlan.make(crash_on=[sketches[0]]),
    ) as pooled:
        _each(pooled, sketches, reno_segments[:1])
    pooled.close()  # idempotent with __exit__'s close
    _assert_no_pool_children()


def test_pooled_close_is_idempotent(sketches, reno_segments):
    pooled = PooledExecutor(_scorer(), POOL_WORKERS)
    _each(pooled, sketches, reno_segments[:1])
    for _ in range(3):
        pooled.close()
    _assert_no_pool_children()


# ---------------------------------------------------- pooled: chunk errors

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers inherit the patched attach only by fork",
)


def _failing_attach(monkeypatch, generations=None):
    """Make pool workers fail to attach a plane — in the pool
    *generations* given, or always.  Patched before the pool forks, so
    its workers inherit the patch."""
    from repro.runtime import executors

    real = executors.attach_plane

    def attach(handle):
        if generations is None or executors._worker_generation in generations:
            raise OSError("injected attach failure")
        return real(handle)

    monkeypatch.setattr(executors, "attach_plane", attach)


@needs_fork
def test_attach_failure_rebuilds_once(sketches, reno_segments, monkeypatch):
    """A chunk that fails outside its task guard blames no sketch: the
    pool is rebuilt and the fresh workers score the wave cleanly."""
    working = reno_segments[:1]
    baseline = _baseline(sketches, working)
    _failing_attach(monkeypatch, generations={1})
    collector, ctx = _collected()
    with PooledExecutor(
        _scorer(),
        POOL_WORKERS,
        context=ctx,
        policy=SupervisionPolicy(backoff_base_seconds=0.0),
    ) as pooled:
        results = _each(pooled, sketches, working)
        assert pooled.pool_rebuilds == 1
        assert not pooled.degraded
    assert [r.distance for r in results] == pytest.approx(baseline)
    assert pooled.quarantined == []
    crashes = collector.of_kind("worker_crashed")
    assert [c.reason for c in crashes] == ["worker-error"]
    assert len(collector.of_kind("pool_rebuilt")) == 1


@needs_fork
def test_persistent_attach_failure_degrades_to_serial(
    sketches, reno_segments, monkeypatch
):
    working = reno_segments[:1]
    oracle = [
        reference_score_sketch(_scorer(), sketch, working)
        for sketch in sketches
    ]
    _failing_attach(monkeypatch)
    collector, ctx = _collected()
    policy = SupervisionPolicy(max_pool_rebuilds=1, backoff_base_seconds=0.0)
    with PooledExecutor(
        _scorer(), POOL_WORKERS, context=ctx, policy=policy
    ) as pooled:
        results = _each(pooled, sketches, working)
        assert pooled.degraded
    assert [r.distance for r in results] == [r.distance for r in oracle]
    assert pooled.quarantined == []
    crashes = collector.of_kind("worker_crashed")
    assert [c.reason for c in crashes] == ["worker-error"] * 2
    assert len(collector.of_kind("degraded_to_serial")) == 1
    _assert_no_pool_children()


# ---------------------------------------------------------- whole-run


TINY = with_budget(RENO_DSL, max_depth=3, max_nodes=4)


def _run_config(**overrides):
    base = dict(
        initial_samples=6,
        initial_keep=3,
        completion_cap=8,
        max_iterations=2,
        exhaustive_cap=60,
    )
    base.update(overrides)
    return SynthesisConfig(**base)


def _drawn_sketch(index=1, samples=6):
    """A sketch the refinement loop will actually dispatch to the pool:
    drawn in iteration 1, from a bucket big enough to leave the parent
    process (waves under MIN_PARALLEL_SKETCHES stay in-process).  The
    default ``index=1`` sits mid-wave, so a prefix completes before a
    crash fault fires."""
    from repro.synth.pool import BucketPool

    pool = BucketPool(TINY)
    pool.draw(samples)
    bucket = max(pool.live, key=lambda b: len(b.drawn))
    assert len(bucket.drawn) >= 4
    return bucket.drawn[index]


def test_synthesize_survives_mid_wave_crash_same_result(reno_segments):
    """Acceptance: crash a worker mid-wave; the run completes with the
    same final ranking and winner as the fault-free run."""
    segments = reno_segments[:6]
    clean = synthesize(segments, TINY, _run_config(workers=POOL_WORKERS))
    plan = FaultPlan.make(
        crash_on=[_drawn_sketch()], crash_generations=[1]
    )
    faulty = synthesize(
        segments, TINY, _run_config(workers=POOL_WORKERS, fault_plan=plan)
    )
    assert faulty.pool_rebuilds >= 1
    assert faulty.quarantined == ()
    assert faulty.expression == clean.expression
    assert faulty.distance == pytest.approx(clean.distance)
    assert [r.kept for r in faulty.iterations] == [
        r.kept for r in clean.iterations
    ]
    _assert_no_pool_children()


def test_synthesize_reports_quarantine_in_result(reno_segments):
    segments = reno_segments[:6]
    victim = _drawn_sketch()
    plan = FaultPlan.make(raise_on=[victim])
    result = synthesize(
        segments, TINY, _run_config(workers=POOL_WORKERS, fault_plan=plan)
    )
    assert any(q.sketch == str(victim) for q in result.quarantined)
    assert "quarantined" in result.summary()
    assert result.best.distance < WORST_DISTANCE


def test_synthesize_serial_quarantines_and_completes(reno_segments):
    """The serial executor survives the same faults: a raising candidate
    and a hanging candidate both end as quarantine records, and the run
    still produces a finite winner."""
    segments = reno_segments[:6]
    hang_on = [_drawn_sketch(index=2)] if watchdog_available() else []
    plan = FaultPlan.make(
        raise_on=[_drawn_sketch(index=0)],
        hang_on=hang_on,
        hang_seconds=60.0,
    )
    result = synthesize(
        segments,
        TINY,
        _run_config(workers=1, fault_plan=plan, watchdog_seconds=WATCHDOG),
    )
    assert result.quarantined
    assert result.best.distance < WORST_DISTANCE


# -------------------------------------------------------------- fused waves
#
# Grouped (fused-wave) dispatch shares warm-start bounds across the
# wave, so individual pruned distances are timing-dependent under a
# pool; only each group's MINIMUM is contractually exact.  These tests
# therefore compare minima, never raw per-sketch distances.


def _group_minima(grouped):
    return [min(r.distance for r in group) for group in grouped]


def test_grouped_transient_crash_recovers_same_minima(
    sketches, reno_segments
):
    """A worker crash mid-fused-wave: rebuild, rescore the suffix from
    the flat completed prefix, and land on the fault-free group minima
    with nothing quarantined."""
    working = reno_segments[:1]
    groups = [sketches[:3], sketches[3:]]
    expected = _group_minima(
        SerialExecutor(_scorer()).score_grouped(groups, working)
    )
    collector, ctx = _collected()
    plan = FaultPlan.make(crash_on=[sketches[2]], crash_generations=[1])
    with PooledExecutor(
        _scorer(), POOL_WORKERS, context=ctx, fault_plan=plan
    ) as pooled:
        grouped = pooled.score_grouped(groups, working)
        assert pooled.pool_rebuilds == 1
        assert not pooled.degraded
    assert _group_minima(grouped) == pytest.approx(expected)
    assert pooled.quarantined == []
    assert len(collector.of_kind("worker_crashed")) == 1
    assert len(collector.of_kind("pool_rebuilt")) == 1


def test_grouped_persistent_crash_quarantines_culprit(
    sketches, reno_segments
):
    """A sketch that kills its worker every generation: the flat-index
    blame lands on it (it leads the interleaved wave), it is quarantined
    after two strikes, and every group still reports its exact
    fault-free minimum."""
    working = reno_segments[:1]
    victim = sketches[0]
    groups = [sketches[:3], sketches[3:]]
    survivors = _group_minima(
        SerialExecutor(_scorer()).score_grouped(
            [sketches[1:3], sketches[3:]], working
        )
    )
    collector, ctx = _collected()
    with PooledExecutor(
        _scorer(),
        POOL_WORKERS,
        context=ctx,
        fault_plan=FaultPlan.make(crash_on=[victim]),
    ) as pooled:
        grouped = pooled.score_grouped(groups, working)
        assert not pooled.degraded
    assert [len(group) for group in grouped] == [3, 2]
    assert grouped[0][0].distance == WORST_DISTANCE
    assert _group_minima(grouped) == pytest.approx(survivors)
    assert [q.sketch for q in pooled.quarantined] == [str(victim)]
    assert pooled.quarantined[0].reason == "worker-crash"
    assert len(collector.of_kind("worker_crashed")) == 2


# ------------------------------------------------- service fault plans


def test_service_fault_plan_make_normalizes():
    from repro.runtime.faults import SERVICE_KILL_EXIT_CODE, ServiceFaultPlan

    plan = ServiceFaultPlan.make(poison_jobs=["bad", "worse"])
    assert plan.poison_jobs == frozenset({"bad", "worse"})
    assert plan.kill_after_slices is None
    assert plan.exit_code == SERVICE_KILL_EXIT_CODE
    assert not plan.is_empty()
    assert ServiceFaultPlan.make().is_empty()


def test_service_kill_due_fleet_wide_counter():
    from repro.runtime.faults import ServiceFaultPlan, service_kill_due

    plan = ServiceFaultPlan.make(kill_after_slices=4)
    assert not service_kill_due(
        plan, job_id="any", job_slices=3, total_slices=3
    )
    assert service_kill_due(
        plan, job_id="any", job_slices=1, total_slices=4
    )
    assert not service_kill_due(
        None, job_id="any", job_slices=99, total_slices=99
    )


def test_service_kill_due_poison_job_is_per_job():
    from repro.runtime.faults import ServiceFaultPlan, service_kill_due

    plan = ServiceFaultPlan.make(poison_jobs=["bad"], poison_after_slices=2)
    assert not service_kill_due(
        plan, job_id="bad", job_slices=1, total_slices=50
    )
    assert service_kill_due(
        plan, job_id="bad", job_slices=2, total_slices=50
    )
    assert not service_kill_due(
        plan, job_id="good", job_slices=50, total_slices=50
    )


def test_apply_service_faults_exits_with_plan_code(monkeypatch):
    from repro.runtime.faults import ServiceFaultPlan, apply_service_faults

    exits = []
    monkeypatch.setattr(os, "_exit", exits.append)
    plan = ServiceFaultPlan.make(kill_after_slices=2, exit_code=71)
    apply_service_faults(plan, job_id="j", job_slices=1, total_slices=1)
    assert exits == []
    apply_service_faults(plan, job_id="j", job_slices=2, total_slices=2)
    assert exits == [71]
    apply_service_faults(None, job_id="j", job_slices=9, total_slices=9)
    assert exits == [71]
