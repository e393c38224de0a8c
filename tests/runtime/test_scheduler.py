"""Scheduler differential suite: many jobs over one pool == one job each.

The tentpole contract: N jobs multiplexed through one
:class:`~repro.runtime.scheduler.Scheduler` (shared executor,
group-aligned wave slicing, round-robin preemption) produce
byte-identical checkpoints and identical rankings/best handlers to
running each job alone through the blocking
:func:`~repro.synth.refinement.synthesize` — at one worker and at four,
and even when the scheduler is killed mid-fleet and a successor resumes
every job from its checkpoint lease.
"""

from dataclasses import replace

import pytest

from repro.dsl import RENO_DSL, family, with_budget
from repro.runtime import CollectorSink, RunContext
from repro.runtime.checkpoint import CheckpointLease
from repro.runtime.events import (
    JobCompleted,
    JobPreempted,
    JobStarted,
    LeaseStolen,
    PoolSpawned,
)
from repro.runtime.jobs import Job, JobState, ResultStore
from repro.runtime.scheduler import Scheduler
from repro.synth.refinement import (
    SynthesisConfig,
    synthesize,
    synthesize_core,
)

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


def _job_slices(reno_segments):
    """Three distinct (but overlapping) working sets — distinct searches."""
    return {
        "alpha": reno_segments[:6],
        "beta": reno_segments[:4],
        "gamma": reno_segments[1:6],
    }


def _core_job(job_id, segments, config, **kwargs):
    return Job(
        job_id=job_id,
        source=lambda: synthesize_core(segments, TINY, config),
        **kwargs,
    )


@pytest.mark.parametrize("workers", [1, 4])
def test_fleet_matches_sequential(reno_segments, tmp_path, workers):
    slices = _job_slices(reno_segments)
    sequential = {}
    for job_id, segments in slices.items():
        config = replace(
            FAST, checkpoint_path=str(tmp_path / f"seq_{job_id}.jsonl")
        )
        sequential[job_id] = synthesize(segments, TINY, config)

    scheduler = Scheduler(workers=workers, quantum_tasks=5)
    for job_id, segments in slices.items():
        config = replace(
            FAST, checkpoint_path=str(tmp_path / f"fleet_{job_id}.jsonl")
        )
        scheduler.submit(
            _core_job(
                job_id,
                segments,
                config,
                checkpoint_path=config.checkpoint_path,
            )
        )
    with scheduler:
        completed = scheduler.run()

    assert sorted(completed) == sorted(slices)
    for job_id in slices:
        assert _essentials(completed[job_id].result) == _essentials(
            sequential[job_id]
        )
        fleet_bytes = (tmp_path / f"fleet_{job_id}.jsonl").read_text(
            encoding="utf-8"
        )
        seq_bytes = (tmp_path / f"seq_{job_id}.jsonl").read_text(
            encoding="utf-8"
        )
        assert fleet_bytes == seq_bytes
        assert fleet_bytes.strip(), "jobs must checkpoint boundaries"
        # Interleaving really happened: every job gave up the executor.
        assert completed[job_id].preemptions > 0


def test_fleet_shares_one_pool(reno_segments, tmp_path):
    collector = CollectorSink()
    slices = _job_slices(reno_segments)
    with RunContext([collector]) as ctx:
        scheduler = Scheduler(workers=4, quantum_tasks=5, context=ctx)
        for job_id, segments in slices.items():
            scheduler.submit(_core_job(job_id, segments, FAST))
        with scheduler:
            completed = scheduler.run()
    assert len(completed) == 3
    spawns = [e for e in collector.events if isinstance(e, PoolSpawned)]
    assert len(spawns) == 1, "the whole fleet must share one pool"
    preemptions = [
        e for e in collector.events if isinstance(e, JobPreempted)
    ]
    assert preemptions, "multi-job fleets must interleave"


def test_solo_job_takes_whole_waves(reno_segments):
    scheduler = Scheduler(workers=1, quantum_tasks=1)
    scheduler.submit(_core_job("solo", reno_segments[:6], FAST))
    with scheduler:
        completed = scheduler.run()
    job = completed["solo"]
    assert job.preemptions == 0
    assert job.slices_dispatched == job.waves_dispatched


def test_priority_runs_first(reno_segments):
    collector = CollectorSink()
    with RunContext([collector]) as ctx:
        scheduler = Scheduler(workers=1, max_active=1, context=ctx)
        scheduler.submit(
            _core_job("background", reno_segments[:4], FAST, priority=0)
        )
        scheduler.submit(
            _core_job("urgent", reno_segments[:6], FAST, priority=5)
        )
        with scheduler:
            scheduler.run()
    finished = [
        e.job_id for e in collector.events if isinstance(e, JobCompleted)
    ]
    assert finished == ["urgent", "background"]


def test_job_failure_isolated_from_fleet(reno_segments):
    def broken():
        raise RuntimeError("boom")
        yield  # pragma: no cover - make it a generator

    scheduler = Scheduler(workers=1)
    scheduler.submit(Job(job_id="bad", source=broken))
    scheduler.submit(_core_job("good", reno_segments[:4], FAST))
    with scheduler:
        completed = scheduler.run()
    assert "good" in completed
    assert scheduler.failed["bad"].state is JobState.FAILED
    assert "RuntimeError: boom" in scheduler.failed["bad"].error


def test_live_foreign_lease_defers_job(reno_segments, tmp_path):
    checkpoint = str(tmp_path / "contested.jsonl")
    foreign = CheckpointLease(checkpoint, "other-scheduler", 3600.0)
    assert foreign.acquire()
    scheduler = Scheduler(workers=1)
    scheduler.submit(
        _core_job(
            "contested",
            reno_segments[:4],
            replace(FAST, checkpoint_path=checkpoint),
            checkpoint_path=checkpoint,
        )
    )
    scheduler.submit(_core_job("free", reno_segments[:4], FAST))
    with scheduler:
        completed = scheduler.run()
    assert "free" in completed
    assert [job.job_id for job in scheduler.deferred] == ["contested"]
    assert scheduler.jobs["contested"].state is JobState.PENDING


def test_anytime_answers_stream_to_store(reno_segments, tmp_path):
    store = ResultStore(str(tmp_path / "results"))
    scheduler = Scheduler(workers=1, store=store, quantum_tasks=5)
    scheduler.submit(_core_job("watched", reno_segments[:6], FAST))
    with scheduler:
        scheduler.run()
    latest = store.latest("watched")
    assert latest["state"] == "completed"
    assert latest["best_expression"]
    assert latest["best_distance"] is not None
    # History: pending -> running -> progress... -> completed.
    with open(store._path("watched"), "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert len(lines) >= 3


# ---------------------------------------------------------------- kill/resume

# Needs buckets that survive iteration 1 so the resumed half genuinely
# replays from a mid-run boundary (same rationale as test_resume.py).
RESUME_DSL = with_budget(family("reno"), max_depth=4, max_nodes=7)

RESUME_CONFIG = SynthesisConfig(
    initial_samples=4,
    initial_keep=4,
    completion_cap=4,
    max_iterations=2,
    exhaustive_cap=30,
    series_budget=48,
    max_replay_rows=192,
)


def _resume_job(job_id, segments, checkpoint, *, resume=False):
    config = replace(
        RESUME_CONFIG,
        checkpoint_path=checkpoint,
        resume_path=checkpoint if resume else None,
    )
    return Job(
        job_id=job_id,
        source=lambda: synthesize_core(segments, RESUME_DSL, config),
        checkpoint_path=checkpoint,
        resumed=resume,
    )


@pytest.mark.parametrize("workers", [1, 4])
def test_killed_fleet_resumes_every_job(reno_segments, tmp_path, workers):
    slices = {"one": reno_segments[:6], "two": reno_segments[:5]}
    sequential = {}
    for job_id, segments in slices.items():
        config = replace(
            RESUME_CONFIG,
            checkpoint_path=str(tmp_path / f"seq_{job_id}.jsonl"),
        )
        sequential[job_id] = synthesize(segments, RESUME_DSL, config)

    paths = {
        job_id: str(tmp_path / f"fleet_{job_id}.jsonl") for job_id in slices
    }
    first = Scheduler(workers=workers, quantum_tasks=4, owner="first")
    for job_id, segments in slices.items():
        first.submit(_resume_job(job_id, segments, paths[job_id]))
    while first.step():
        jobs = first.jobs.values()
        if all(job.iterations_done >= 1 for job in jobs):
            break
    in_flight = [
        job_id
        for job_id, job in first.jobs.items()
        if job.state is JobState.RUNNING
    ]
    assert in_flight, "kill point must leave work in flight"
    first.close(release_leases=False)  # simulated crash: leases stay

    collector = CollectorSink()
    with RunContext([collector]) as ctx:
        second = Scheduler(
            workers=workers,
            quantum_tasks=4,
            steal_leases=True,
            context=ctx,
            owner="second",
        )
        for job_id, segments in slices.items():
            second.submit(
                _resume_job(job_id, segments, paths[job_id], resume=True)
            )
        with second:
            completed = second.run()

    assert sorted(completed) == sorted(slices)
    stolen = [e for e in collector.events if isinstance(e, LeaseStolen)]
    assert {e.job_id for e in stolen} == set(in_flight)
    resumed_flags = {
        e.job_id: e.resumed
        for e in collector.events
        if isinstance(e, JobStarted)
    }
    assert all(resumed_flags.values())
    for job_id, segments in slices.items():
        full = sequential[job_id]
        resumed = completed[job_id].result
        assert resumed.expression == full.expression
        assert resumed.distance == pytest.approx(full.distance)
        assert resumed.total_handlers_scored == full.total_handlers_scored
        assert [r.ranking for r in resumed.iterations] == [
            r.ranking for r in full.iterations
        ]
        fleet_bytes = (tmp_path / f"fleet_{job_id}.jsonl").read_text(
            encoding="utf-8"
        )
        seq_bytes = (tmp_path / f"seq_{job_id}.jsonl").read_text(
            encoding="utf-8"
        )
        assert fleet_bytes == seq_bytes


# -------------------------------------------------------------- tiny fleets


def test_sub_parallel_waves_never_spawn_a_pool(reno_segments):
    """Jobs whose every wave is under the executor's parallel threshold
    score inline in the scheduler process, even on a parallel scheduler
    (MIN_PARALLEL_SKETCHES short-circuit, shared-pool edition)."""
    from repro.dsl.parser import parse
    from repro.runtime.protocol import ScorerReady, WaveRequest
    from repro.synth.scoring import Scorer
    from repro.synth.sketch import Sketch

    segments = reno_segments[:2]
    sketches = tuple(
        Sketch.from_expr(parse(text))
        for text in ("cwnd + mss", "cwnd + c0 * reno_inc")
    )

    def tiny_core(ctx):
        scorer = Scorer(
            constant_pool=(0.5, 1.0), completion_cap=4, cache=None
        )
        yield ScorerReady(
            scorer=scorer,
            workers=4,
            max_pool_rebuilds=3,
            watchdog_seconds=None,
            fault_plan=None,
            context=ctx,
        )
        reply = yield WaveRequest(
            groups=(sketches,),  # 2 tasks < MIN_PARALLEL_SKETCHES
            segments=segments,
            deadline=None,
            min_results=0,
            phase="refinement",
        )
        return reply.grouped

    collector = CollectorSink()
    with RunContext([collector]) as ctx:
        scheduler = Scheduler(workers=4, quantum_tasks=1, context=ctx)
        scheduler.submit(Job(job_id="t1", source=lambda: tiny_core(ctx)))
        scheduler.submit(Job(job_id="t2", source=lambda: tiny_core(ctx)))
        with scheduler:
            completed = scheduler.run()
    assert len(completed) == 2
    for job in completed.values():
        grouped = job.result
        assert len(grouped) == 1 and len(grouped[0]) == 2
    spawns = [e for e in collector.events if isinstance(e, PoolSpawned)]
    assert spawns == []


# ------------------------------------------------- fleet-server plumbing


def test_lease_renewed_on_every_dispatched_slice(reno_segments, tmp_path):
    """The heartbeat: every wave slice a job dispatches renews its
    lease, so a peer watching the lease file sees liveness at slice
    granularity, not just iteration boundaries."""
    checkpoint = str(tmp_path / "hb.jsonl")
    lease = CheckpointLease(checkpoint, "svc", 30.0)
    assert lease.acquire()
    renewals = []
    original_renew = lease.renew
    lease.renew = lambda: (renewals.append(1), original_renew())[1]
    job = _core_job(
        "hb",
        reno_segments[:4],
        replace(FAST, checkpoint_path=checkpoint),
        checkpoint_path=checkpoint,
    )
    job.lease = lease
    scheduler = Scheduler(workers=1, quantum_tasks=3)
    scheduler.submit(job)
    with scheduler:
        completed = scheduler.run()
    assert completed["hb"].slices_dispatched > 0
    assert len(renewals) >= completed["hb"].slices_dispatched


def test_pre_acquired_lease_is_used_not_reacquired(reno_segments, tmp_path):
    """A claim-loop server arbitrates ownership before submission; the
    scheduler must run under that lease (service identity) instead of
    acquiring its own — and release it at retirement."""
    from repro.runtime.checkpoint import lease_path, read_lease

    checkpoint = str(tmp_path / "pre.jsonl")
    lease = CheckpointLease(checkpoint, "fleet-server-1", 3600.0)
    assert lease.acquire()
    job = _core_job(
        "pre",
        reno_segments[:4],
        replace(FAST, checkpoint_path=checkpoint),
        checkpoint_path=checkpoint,
    )
    job.lease = lease
    scheduler = Scheduler(workers=1, owner="scheduler-identity")
    scheduler.submit(job)
    assert scheduler.step()  # job admitted and running under the lease
    state = read_lease(lease_path(checkpoint))
    assert state is not None and state.owner == "fleet-server-1"
    assert scheduler.deferred == []
    with scheduler:
        completed = scheduler.run()
    assert "pre" in completed
    assert read_lease(lease_path(checkpoint)) is None  # released


def test_drain_stops_dispatch_and_close_releases_leases(
    reno_segments, tmp_path
):
    from repro.runtime.checkpoint import lease_path, read_lease

    # Two jobs so waves are sliced (a solo job takes whole waves and
    # could finish before the drain lands).
    checkpoints = {
        job_id: str(tmp_path / f"drain_{job_id}.jsonl")
        for job_id in ("one", "two")
    }
    scheduler = Scheduler(workers=1, quantum_tasks=2)
    for job_id, checkpoint in checkpoints.items():
        scheduler.submit(
            _core_job(
                job_id,
                reno_segments[:6],
                replace(FAST, checkpoint_path=checkpoint),
                checkpoint_path=checkpoint,
            )
        )
    while scheduler.slices_dispatched < 3:
        assert scheduler.step(), "jobs finished before the drain landed"
    slices_before = scheduler.slices_dispatched
    scheduler.request_drain()
    assert scheduler.draining
    assert not scheduler.step()  # reports no work immediately
    assert scheduler.slices_dispatched == slices_before  # nothing more ran
    active = [job.job_id for job in scheduler.active_jobs]
    assert active, "drain must leave the in-flight jobs claimable"
    for job_id in active:
        assert read_lease(lease_path(checkpoints[job_id])) is not None
    scheduler.close(release_leases=True)
    for job_id in active:
        assert read_lease(lease_path(checkpoints[job_id])) is None


def test_service_fault_plan_kills_between_slices(
    reno_segments, tmp_path, monkeypatch
):
    import os as os_module

    from repro.runtime.faults import ServiceFaultPlan

    exits = []
    monkeypatch.setattr(os_module, "_exit", exits.append)
    scheduler = Scheduler(
        workers=1,
        quantum_tasks=2,
        service_fault_plan=ServiceFaultPlan.make(kill_after_slices=1),
    )
    scheduler.submit(_core_job("victim", reno_segments[:6], FAST))
    with scheduler:
        scheduler.run()
    assert exits and exits[0] == 70
