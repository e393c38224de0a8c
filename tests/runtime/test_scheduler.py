"""Scheduler differential suite: many jobs over one pool == one job each.

The tentpole contract: N jobs multiplexed through one
:class:`~repro.runtime.scheduler.Scheduler` (shared executor,
group-aligned wave slicing, round-robin preemption) produce
byte-identical checkpoints and identical rankings/best handlers to
running each job alone through the blocking
:func:`~repro.synth.refinement.synthesize` — at one worker and at four,
and even when the scheduler is killed mid-fleet and a successor resumes
every job from its checkpoint.
"""

from dataclasses import replace

import pytest

from repro.dsl import RENO_DSL, family, with_budget
from repro.runtime import CollectorSink, RunContext
from repro.runtime.checkpoint import CheckpointLease, JobLedger
from repro.runtime.events import (
    JobCompleted,
    JobPreempted,
    JobStarted,
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
        scheduler.submit(_core_job(job_id, segments, config))
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
    first = Scheduler(workers=workers, quantum_tasks=4)
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
    first.close()  # simulated crash: the fleet stops mid-run

    collector = CollectorSink()
    with RunContext([collector]) as ctx:
        second = Scheduler(workers=workers, quantum_tasks=4, context=ctx)
        for job_id, segments in slices.items():
            second.submit(
                _resume_job(job_id, segments, paths[job_id], resume=True)
            )
        with second:
            completed = second.run()

    assert sorted(completed) == sorted(slices)
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
    from repro.runtime.protocol import WaveRequest
    from repro.synth.scoring import Scorer
    from repro.synth.sketch import Sketch

    segments = reno_segments[:2]
    sketches = tuple(
        Sketch.from_expr(parse(text))
        for text in ("cwnd + mss", "cwnd + c0 * reno_inc")
    )

    def tiny_core():
        scorer = Scorer(constant_pool=(0.5, 1.0), completion_cap=4)
        reply = yield WaveRequest(
            scorer=scorer,
            groups=(sketches,),  # 2 tasks < MIN_PARALLEL_SKETCHES
            segments=segments,
            phase="refinement",
        )
        return reply.grouped

    collector = CollectorSink()
    with RunContext([collector]) as ctx:
        scheduler = Scheduler(workers=4, quantum_tasks=1, context=ctx)
        scheduler.submit(Job(job_id="t1", source=tiny_core))
        scheduler.submit(Job(job_id="t2", source=tiny_core))
        with scheduler:
            completed = scheduler.run()
    assert len(completed) == 2
    for job in completed.values():
        grouped = job.result
        assert len(grouped) == 1 and len(grouped[0]) == 2
    spawns = [e for e in collector.events if isinstance(e, PoolSpawned)]
    assert spawns == []


# ------------------------------------------------- fleet-server plumbing


def _held_lease(tmp_path, job_id, owner):
    lease = CheckpointLease(
        JobLedger(str(tmp_path / "state")), job_id, owner, 3600.0
    )
    assert lease.acquire(lease.stamp)
    return lease


def _owner(tmp_path, job_id):
    return JobLedger(str(tmp_path / "state")).read(job_id).owner


def test_lease_renewed_on_every_dispatched_slice(reno_segments, tmp_path):
    """The heartbeat: every wave slice a job dispatches renews its
    lease, so a peer watching the job's record sees liveness at slice
    granularity, not just iteration boundaries."""
    lease = _held_lease(tmp_path, "hb", "svc")
    renewals = []
    original_renew = lease.renew
    lease.renew = lambda: (renewals.append(1), original_renew())[1]
    job = _core_job("hb", reno_segments[:4], FAST)
    job.lease = lease
    scheduler = Scheduler(workers=1, quantum_tasks=3)
    scheduler.submit(job)
    with scheduler:
        completed = scheduler.run()
    assert completed["hb"].slices_dispatched > 0
    assert len(renewals) >= completed["hb"].slices_dispatched


def test_pre_acquired_lease_is_used_not_reacquired(reno_segments, tmp_path):
    """A claim-loop server arbitrates ownership before submission; the
    scheduler must run under that lease (service identity) — and
    release it at retirement."""
    lease = _held_lease(tmp_path, "pre", "fleet-server-1")
    job = _core_job("pre", reno_segments[:4], FAST)
    job.lease = lease
    scheduler = Scheduler(workers=1)
    scheduler.submit(job)
    assert scheduler.step()  # job admitted and running under the lease
    assert _owner(tmp_path, "pre") == "fleet-server-1"
    assert [job.job_id for job in scheduler.active_jobs] == ["pre"]
    with scheduler:
        completed = scheduler.run()
    assert "pre" in completed
    assert _owner(tmp_path, "pre") is None  # released


def test_stolen_lease_drops_the_job(reno_segments, tmp_path):
    """A stolen lease stays stolen: once another owner holds the job's
    record, this scheduler dispatches no further slice, appends no
    snapshot, writes no record, and never completes the job."""
    ledger = JobLedger(str(tmp_path / "state"))
    store = ResultStore(str(tmp_path / "results"))
    victim = _core_job("victim", reno_segments[:6], FAST)
    victim.lease = _held_lease(tmp_path, "victim", "first")
    scheduler = Scheduler(workers=1, quantum_tasks=2, store=store)
    scheduler.submit(victim)
    # A second job so waves are sliced and the steal lands between two.
    scheduler.submit(_core_job("other", reno_segments[:4], FAST))
    while victim.slices_dispatched < 1:
        assert scheduler.step()
    thief = CheckpointLease(ledger, "victim", "second", 3600.0)
    assert thief.acquire(thief.stamp)
    stolen = ledger.read("victim")
    slices_at_steal = victim.slices_dispatched
    with open(store._path("victim"), "r", encoding="utf-8") as handle:
        lines_at_steal = handle.read().splitlines()
    with scheduler:
        completed = scheduler.run()
    assert "other" in completed
    assert "victim" not in completed
    assert "victim" not in scheduler.jobs
    assert victim.state is not JobState.COMPLETED
    assert victim.slices_dispatched <= slices_at_steal + 1
    assert ledger.read("victim") == stolen
    with open(store._path("victim"), "r", encoding="utf-8") as handle:
        assert handle.read().splitlines() == lines_at_steal


def test_lease_stolen_as_the_job_finishes_gets_no_terminal_snapshot(
    reno_segments, tmp_path
):
    """A job renews once more before it ends: when a peer took the
    record after the job's last slice, the finished job is dropped — no
    ``completed`` snapshot, no release, no ``job_completed`` event."""
    ledger = JobLedger(str(tmp_path / "state"))
    store = ResultStore(str(tmp_path / "results"))
    thief = CheckpointLease(ledger, "late", "second", 3600.0)
    config = replace(FAST, max_iterations=1)

    def stolen_at_the_end():
        result = yield from synthesize_core(reno_segments[:4], TINY, config)
        assert thief.acquire(thief.stamp)
        return result

    job = Job(job_id="late", source=stolen_at_the_end)
    job.lease = _held_lease(tmp_path, "late", "first")
    collector = CollectorSink()
    with RunContext([collector]) as ctx:
        scheduler = Scheduler(workers=1, store=store, context=ctx)
        scheduler.submit(job)
        with scheduler:
            completed = scheduler.run()
    assert completed == {}
    assert "late" not in scheduler.jobs
    assert ledger.read("late").owner == "second"
    assert store.latest("late")["state"] == "running"
    assert not [e for e in collector.events if isinstance(e, JobCompleted)]


def test_drain_stops_dispatch_and_close_releases_leases(
    reno_segments, tmp_path
):
    # Two jobs so waves are sliced (a solo job takes whole waves and
    # could finish before the drain lands).
    scheduler = Scheduler(workers=1, quantum_tasks=2)
    for job_id in ("one", "two"):
        job = _core_job(job_id, reno_segments[:6], FAST)
        job.lease = _held_lease(tmp_path, job_id, "drainer")
        scheduler.submit(job)
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
        assert _owner(tmp_path, job_id) == "drainer"
    scheduler.close()
    for job_id in active:
        assert _owner(tmp_path, job_id) is None


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
