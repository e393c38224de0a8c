"""Fleet behaviour: the spool state machine (:class:`JobLedger`), the
claim loop's takeover/backoff/quarantine decisions, graceful drain,
concurrent servers and submits, and the end-to-end chaos scenarios —
kill a subset of N subprocess servers, poison-job quarantine via the
CLI."""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.dsl import family, with_budget
from repro.pipeline import reverse_engineer
from repro.runtime.checkpoint import CheckpointLease, takeover_delay
from repro.runtime.context import RunContext
from repro.runtime.jobs import JobState, ResultStore
from repro.runtime.sinks import CollectorSink
from repro.service import (
    FleetServer,
    JobLedger,
    JobRecord,
    fleet_status,
    load_specs,
    serve,
    submit_job,
)
from repro.synth.refinement import SynthesisConfig
from repro.trace.io import save_traces

FAST_OVERRIDES = {
    "initial_samples": 4,
    "initial_keep": 3,
    "completion_cap": 8,
    "max_iterations": 2,
    "exhaustive_cap": 120,
}


@pytest.fixture()
def archive(reno_trace, tmp_path):
    path = tmp_path / "reno.json"
    save_traces([reno_trace], str(path))
    return str(path)


def _submit(spool, job_id, archive, **kwargs):
    return submit_job(
        spool,
        job_id,
        traces=archive,
        dsl="reno",
        max_depth=3,
        max_nodes=4,
        config=dict(FAST_OVERRIDES),
        **kwargs,
    )


def _direct_reference(reno_trace):
    return reverse_engineer(
        [reno_trace],
        dsl=with_budget(family("reno"), max_depth=3, max_nodes=4),
        config=SynthesisConfig(**FAST_OVERRIDES),
    )


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class StubScheduler:
    """Just enough Scheduler surface for :meth:`FleetServer._claim_one`."""

    def __init__(self):
        self.jobs = {}
        self.submitted = []

    def submit(self, job):
        self.jobs[job.job_id] = job
        self.submitted.append(job)


def _checkpoint(spool, job_id):
    root = os.path.join(spool, "checkpoints")
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, f"{job_id}.jsonl")


# ------------------------------------------------------------------ ledger


def test_ledger_round_trip(tmp_path):
    clock = FakeClock(50.0)
    ledger = JobLedger(str(tmp_path / "state"), clock=clock)
    written = ledger.write(
        JobRecord(
            job_id="j",
            state="running",
            attempts=3,
            crashes=1,
            owner="srv-a",
            last_failure={"reason": "server-died", "detail": "boom"},
        )
    )
    assert written.updated_at == 50.0
    read = ledger.read("j")
    assert read == written
    assert not any(
        ".tmp." in name for name in os.listdir(str(tmp_path / "state"))
    ), "ledger writes must not leave temp files behind"


def test_ledger_missing_or_corrupt_reads_as_fresh_queued(tmp_path):
    ledger = JobLedger(str(tmp_path / "state"))
    assert ledger.read("ghost") == JobRecord(job_id="ghost")
    with open(ledger.path("broken"), "w", encoding="utf-8") as handle:
        handle.write("{not json")
    assert ledger.read("broken") == JobRecord(job_id="broken")
    with open(ledger.path("listy"), "w", encoding="utf-8") as handle:
        json.dump([1, 2], handle)
    assert ledger.read("listy") == JobRecord(job_id="listy")


def test_ledger_transition_preserves_untouched_fields(tmp_path):
    ledger = JobLedger(str(tmp_path / "state"))
    ledger.write(
        JobRecord(job_id="j", state="running", attempts=2, crashes=1)
    )
    record = ledger.transition("j", "done", owner=None)
    assert record.state == "done"
    assert record.attempts == 2
    assert record.crashes == 1


# ------------------------------------------------- takeover eligibility


def _expired_peer_lease(spool, job_id, clock, ttl=8.0, owner="peer"):
    """The record of a job *owner* claims and then stops heartbeating."""
    ledger = JobLedger(os.path.join(spool, "state"), clock=clock)
    peer = CheckpointLease(ledger, job_id, owner, ttl, clock=clock)
    assert peer.acquire(
        lambda record: peer.stamp(dataclasses.replace(record, state="running"))
    )
    return ledger.read(job_id)


def test_live_foreign_lease_blocks_unless_stealing(tmp_path, archive):
    spool = str(tmp_path / "spool")
    _submit(spool, "job", archive)
    clock = FakeClock()
    state = _expired_peer_lease(spool, "job", clock, ttl=8.0)
    polite = FleetServer(spool, server_id="srv-a", clock=clock)
    thief = FleetServer(
        spool, server_id="srv-b", steal_leases=True, clock=clock
    )
    clock.advance(1.0)  # well inside the TTL
    assert not polite._may_take_over("job", state, polite._emit)
    assert thief._may_take_over("job", state, thief._emit)


def test_takeover_waits_for_jitter_then_crash_backoff(tmp_path, archive):
    spool = str(tmp_path / "spool")
    _submit(spool, "job", archive)
    clock = FakeClock()
    ttl = 8.0
    state = _expired_peer_lease(spool, "job", clock, ttl=ttl)
    server = FleetServer(
        spool, server_id="srv-a", retry_backoff_seconds=4.0, clock=clock
    )
    jitter = takeover_delay("srv-a", "job", ttl)

    clock.now = state.renewed_at + ttl + jitter - 1e-6
    assert not server._may_take_over("job", state, server._emit)
    clock.now = state.renewed_at + ttl + jitter + 1e-6
    assert server._may_take_over("job", state, server._emit)

    # Two prior crashes: the wait stretches by base * 2**(2-1) = 8s.
    crashed = dataclasses.replace(state, crashes=2)
    clock.now = state.renewed_at + ttl + jitter + 8.0 - 0.5
    assert not server._may_take_over("job", crashed, server._emit)
    clock.now = state.renewed_at + ttl + jitter + 8.0 + 0.5
    assert server._may_take_over("job", crashed, server._emit)


def test_heartbeat_missed_emitted_once_per_expiry(tmp_path, archive):
    spool = str(tmp_path / "spool")
    _submit(spool, "job", archive)
    clock = FakeClock()
    state = _expired_peer_lease(spool, "job", clock, ttl=2.0)
    sink = CollectorSink()
    server = FleetServer(
        spool,
        server_id="srv-a",
        clock=clock,
        context=RunContext([sink], clock=clock),
    )
    clock.advance(5.0)
    server._may_take_over("job", state, server._emit)
    server._may_take_over("job", state, server._emit)
    missed = sink.of_kind("heartbeat_missed")
    assert len(missed) == 1
    assert missed[0].owner == "peer"
    assert missed[0].age_seconds == pytest.approx(5.0)
    assert missed[0].ttl_seconds == 2.0


# ------------------------------------------------------ claim-loop races


def test_claim_recheck_after_acquire_catches_fresh_completion(
    tmp_path, archive
):
    """A peer finishes the job while this server waits for the record's
    lock.  The claim reads the results file only inside its critical
    section, so it sees the completion, reconciles the record to done,
    and submits nothing."""
    spool = str(tmp_path / "spool")
    _submit(spool, "job", archive)
    server = FleetServer(spool, server_id="srv-a")
    lock = os.path.join(spool, "state", "job.lock")
    with open(lock, "w", encoding="utf-8"):
        pass  # the peer is mid-change on the record
    calls = {"n": 0}
    latest = server.store.latest

    def counting_latest(job_id):
        calls["n"] += 1
        return latest(job_id)

    def peer_finishes():
        time.sleep(0.2)
        server.store.record({"job_id": "job", "state": "completed"})
        os.remove(lock)

    server.store.latest = counting_latest
    peer = threading.Thread(target=peer_finishes)
    peer.start()
    scheduler = StubScheduler()
    (spec,) = load_specs(spool)
    assert server._claim_one(spec, scheduler) is False
    peer.join(timeout=60)
    assert not peer.is_alive()
    assert calls["n"] == 1, "the one read must run under the lock"
    assert not scheduler.submitted
    assert server.jobs_claimed == 0
    assert server.ledger.read("job").state == "done"
    assert server.ledger.read("job").owner is None


def test_peer_claim_during_completion_snapshot_is_refused(
    tmp_path, archive
):
    """A job ends snapshot first, release second: while its owner
    appends the ``completed`` snapshot the record still names the
    owner, so a peer claiming at that moment gets nothing."""
    spool = str(tmp_path / "spool")
    _submit(spool, "job", archive)
    (spec,) = load_specs(spool)
    peer = FleetServer(spool, server_id="srv-b")
    peer_scheduler = StubScheduler()
    claims = []

    class ClaimOnCompletion(ResultStore):
        def update(self, job):
            if job.state is JobState.COMPLETED:
                claims.append(peer._claim_one(spec, peer_scheduler))
            super().update(job)

    owner = FleetServer(
        spool,
        server_id="srv-a",
        store=ClaimOnCompletion(os.path.join(spool, "results")),
    )
    owner.run()
    assert claims == [False]
    assert not peer_scheduler.submitted
    record = owner.ledger.read("job")
    assert record.state == "done"
    assert record.attempts == 1
    assert record.owner is None


def test_racing_claimants_yield_exactly_one_winner(tmp_path, archive):
    spool = str(tmp_path / "spool")
    _submit(spool, "job", archive)
    (spec,) = load_specs(spool)
    servers = [
        FleetServer(spool, server_id=f"srv-{tag}") for tag in "ab"
    ]
    schedulers = [StubScheduler(), StubScheduler()]
    barrier = threading.Barrier(2)
    wins = []

    def race(index):
        barrier.wait()
        if servers[index]._claim_one(spec, schedulers[index]):
            wins.append(index)

    threads = [
        threading.Thread(target=race, args=(i,)) for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(wins) == 1
    winner = servers[wins[0]]
    state = winner.ledger.read("job")
    assert state is not None and state.owner == winner.server_id
    assert winner.ledger.read("job").owner == winner.server_id


def test_retry_budget_exhaustion_quarantines(tmp_path, archive):
    spool = str(tmp_path / "spool")
    _submit(spool, "job", archive)
    clock = FakeClock()
    _expired_peer_lease(spool, "job", clock, ttl=2.0)
    sink = CollectorSink()
    server = FleetServer(
        spool,
        server_id="srv-a",
        steal_leases=True,
        max_job_retries=2,
        clock=clock,
        context=RunContext([sink], clock=clock),
    )
    # The job has already crashed its server max_job_retries times.
    server.ledger.write(
        JobRecord(
            job_id="job",
            state="running",
            attempts=3,
            crashes=2,
            owner="peer",
        )
    )
    scheduler = StubScheduler()
    (spec,) = load_specs(spool)
    assert server._claim_one(spec, scheduler) is False
    assert not scheduler.submitted
    assert server.quarantined == ["job"]
    record = server.ledger.read("job")
    assert record.state == "quarantined"
    assert record.crashes == 3
    assert record.last_failure["reason"] == "retry-budget-exhausted"
    assert "peer" in record.last_failure["detail"]
    snapshot = server.store.latest("job")
    assert snapshot["state"] == "quarantined"
    assert snapshot["crashes"] == 3
    assert server.ledger.read("job").owner is None
    (event,) = sink.of_kind("job_quarantined")
    assert event.reason == "retry-budget-exhausted"
    assert event.crashes == 3
    # The spool is settled (quarantined is terminal): a serve over it
    # returns immediately and fleet-status surfaces the parked job.
    assert server._spool_settled()
    status = fleet_status(spool, clock=clock)
    assert status["jobs"]["job"]["state"] == "quarantined"
    assert status["states"] == {"quarantined": 1}


# ------------------------------------------------------- drain + resume


def test_drain_requeues_in_flight_jobs_then_peer_finishes(
    tmp_path, archive, reno_trace
):
    spool = str(tmp_path / "spool")
    _submit(spool, "job", archive)
    sink = CollectorSink()
    calls = {"n": 0}

    def drain_after_one_slice():
        calls["n"] += 1
        return calls["n"] > 2

    server = FleetServer(
        spool,
        server_id="srv-a",
        quantum_tasks=2,
        drain=drain_after_one_slice,
        context=RunContext([sink]),
    )
    server.run()
    (drained,) = sink.of_kind("server_drained")
    assert drained.jobs_released == 1
    assert drained.slices_dispatched >= 1
    assert server.ledger.read("job").state == "queued"
    snapshot = server.store.latest("job")
    assert snapshot["state"] == "pending"
    assert server.ledger.read("job").owner is None, (
        "drain must release the lease for peers"
    )
    # A successor picks the requeued job up and finishes it normally.
    snapshots = serve(spool, quantum_tasks=5)
    direct = _direct_reference(reno_trace)
    assert snapshots["job"]["state"] == "completed"
    assert snapshots["job"]["best_expression"] == direct.expression
    ledger = JobLedger(os.path.join(spool, "state"))
    record = ledger.read("job")
    assert record.state == "done"
    assert record.crashes == 0, "a graceful drain never spends retries"


def test_drain_leaves_a_job_a_peer_took_alone(tmp_path, archive):
    """A draining server renews before it appends a ``pending``
    snapshot: a job a peer took meanwhile gets no snapshot from it and
    stays the peer's."""
    spool = str(tmp_path / "spool")
    _submit(spool, "job", archive)
    sink = CollectorSink()
    ledger = JobLedger(os.path.join(spool, "state"))
    thief = CheckpointLease(ledger, "job", "srv-b", 3600.0)

    def steal_then_drain():
        scheduler = server._scheduler
        if scheduler is None or scheduler.slices_dispatched < 1:
            return False
        if not thief.held:
            assert thief.acquire(thief.stamp)
        return True

    server = FleetServer(
        spool,
        server_id="srv-a",
        drain=steal_then_drain,
        context=RunContext([sink]),
    )
    server.run()
    (drained,) = sink.of_kind("server_drained")
    assert drained.jobs_released == 0
    record = ledger.read("job")
    assert record.owner == "srv-b"
    assert record.state == "running"
    assert server.store.latest("job")["state"] == "running"


def test_request_drain_is_signal_safe_noop_before_run(tmp_path):
    server = FleetServer(str(tmp_path / "spool"))
    server.request_drain()  # no scheduler yet: must not raise
    assert server._drain_requested()


# --------------------------------------------- concurrency over one spool


def test_concurrent_submit_mid_serve_is_picked_up(tmp_path, archive):
    """Satellite: specs submitted while a server is mid-claim-loop are
    claimed on a later scan of the same run — no restart needed."""
    spool = str(tmp_path / "spool")
    _submit(spool, "early", archive)

    class SubmitMidRun:
        def __init__(self):
            self.events = 0
            self.submitted = False

        def handle(self, event, t):
            self.events += 1
            if self.events >= 3 and not self.submitted:
                self.submitted = True
                _submit(spool, "late", archive)

        def close(self):
            pass

    hook = SubmitMidRun()
    snapshots = serve(
        spool,
        quantum_tasks=3,
        claim_interval_seconds=0.0,
        context=RunContext([hook]),
    )
    assert hook.submitted, "the mid-run submission must have happened"
    assert sorted(snapshots) == ["early", "late"]
    for job_id in ("early", "late"):
        assert snapshots[job_id]["state"] == "completed"
        results = os.path.join(spool, "results", f"{job_id}.jsonl")
        with open(results, "r", encoding="utf-8") as handle:
            completed = [
                line
                for line in handle.read().splitlines()
                if json.loads(line).get("state") == "completed"
            ]
        assert len(completed) == 1


def test_two_servers_one_spool_complete_everything_once(
    tmp_path, archive
):
    spool = str(tmp_path / "spool")
    for job_id in ("one", "two"):
        _submit(spool, job_id, archive)
    servers = [
        FleetServer(
            spool,
            server_id=f"srv-{tag}",
            quantum_tasks=3,
            claim_interval_seconds=0.05,
        )
        for tag in "ab"
    ]
    results = {}

    def run(server):
        results[server.server_id] = server.run()

    threads = [
        threading.Thread(target=run, args=(server,)) for server in servers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert len(results) == 2
    assert sum(server.jobs_claimed for server in servers) == 2, (
        "every job must be claimed exactly once across the fleet"
    )
    ledger = JobLedger(os.path.join(spool, "state"))
    for job_id in ("one", "two"):
        assert ledger.read(job_id).state == "done"
        results_file = os.path.join(spool, "results", f"{job_id}.jsonl")
        with open(results_file, "r", encoding="utf-8") as handle:
            completed = [
                line
                for line in handle.read().splitlines()
                if json.loads(line).get("state") == "completed"
            ]
        assert len(completed) == 1


def test_two_stealing_servers_never_take_a_job_back_and_forth(
    tmp_path, archive
):
    """``--steal-leases`` displaces only an owner silent since the
    stealing server started.  Two live servers that both steal share one
    job without taking it back and forth: it runs once, ends ``done``
    with no crash charged, and is never quarantined."""
    spool = str(tmp_path / "spool")
    _submit(spool, "job", archive)
    servers = [
        FleetServer(
            spool,
            server_id=f"srv-{tag}",
            steal_leases=True,
            quantum_tasks=3,
            claim_interval_seconds=0.01,
        )
        for tag in "ab"
    ]
    threads = [threading.Thread(target=server.run) for server in servers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads)
    assert sum(server.jobs_claimed for server in servers) == 1
    assert not any(server.quarantined for server in servers)
    record = JobLedger(os.path.join(spool, "state")).read("job")
    assert record.state == "done"
    assert record.attempts == 1
    assert record.crashes == 0
    results_file = os.path.join(spool, "results", "job.jsonl")
    with open(results_file, "r", encoding="utf-8") as handle:
        states = [json.loads(line)["state"] for line in handle]
    assert states.count("completed") == 1


# -------------------------------------------------------- chaos (CLI)


def _spawn_serve(spool, server_id, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--spool", spool, "--quantum", "3",
            "--server-id", server_id,
            "--lease-ttl", "1", "--claim-interval", "0.2",
            "--retry-backoff", "0.5",
            *extra,
        ],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_killing_a_subset_of_three_servers_loses_no_work(
    tmp_path, archive, reno_trace
):
    """The acceptance scenario: 3 serve daemons over one spool, the
    first (which claimed everything) dies mid-run, a second may die
    too; survivors take every job over within one TTL and the final
    answers — and checkpoint files, byte for byte — match a sequential
    single-server run."""
    reference = str(tmp_path / "reference")
    fleet = str(tmp_path / "fleet")
    for spool in (reference, fleet):
        for job_id in ("one", "two"):
            _submit(spool, job_id, archive)
    ref_snapshots = serve(reference, quantum_tasks=3)

    first = _spawn_serve(fleet, "s1", "--exit-after-slices", "3")
    time.sleep(0.5)  # let s1 claim both jobs before peers appear
    second = _spawn_serve(fleet, "s2", "--exit-after-slices", "3")
    third = _spawn_serve(fleet, "s3")
    outs = {}
    for name, proc in (("s1", first), ("s2", second), ("s3", third)):
        out, err = proc.communicate(timeout=300)
        outs[name] = (proc.returncode, out, err)
    assert outs["s1"][0] == 70, outs["s1"][2]
    assert outs["s2"][0] in (0, 70), outs["s2"][2]
    assert outs["s3"][0] == 0, outs["s3"][2]

    ledger = JobLedger(os.path.join(fleet, "state"))
    for job_id in ("one", "two"):
        record = ledger.read(job_id)
        assert record.state == "done"
        assert record.crashes >= 1, (
            "both jobs were in flight on s1 when it died: takeover "
            "must have been charged"
        )
        ref_ckpt = _checkpoint(reference, job_id)
        fleet_ckpt = _checkpoint(fleet, job_id)
        with open(ref_ckpt, "rb") as handle:
            ref_bytes = handle.read()
        with open(fleet_ckpt, "rb") as handle:
            assert handle.read() == ref_bytes, (
                f"{job_id}: checkpoint streams must be bit-identical"
            )
    status = fleet_status(fleet)
    direct = _direct_reference(reno_trace)
    for job_id in ("one", "two"):
        job = status["jobs"][job_id]
        assert job["state"] == "done"
        assert job["best_expression"] == direct.expression
        assert job["best_expression"] == (
            ref_snapshots[job_id]["best_expression"]
        )
        assert job["best_distance"] == pytest.approx(
            ref_snapshots[job_id]["best_distance"]
        )


def test_poison_job_is_retried_then_quarantined_via_cli(
    tmp_path, archive, capsys
):
    """A job that kills its server on every attempt burns through the
    retry budget (one initial claim + max_job_retries restarts), is
    quarantined with a structured reason, and never blocks the healthy
    rest of the spool."""
    spool = str(tmp_path / "spool")
    _submit(spool, "healthy", archive)
    healthy_first = serve(spool, quantum_tasks=5)
    assert healthy_first["healthy"]["state"] == "completed"
    _submit(spool, "poison", archive)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    codes = []
    for attempt in range(6):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--spool", spool, "--quantum", "3",
                "--server-id", f"pk{attempt}",
                "--steal-leases", "--max-job-retries", "2",
                "--retry-backoff", "0",
                "--poison-job", "poison", "--poison-after-slices", "1",
            ],
            cwd=os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))
            ),
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        codes.append(proc.returncode)
        if proc.returncode != 70:
            break
    assert codes == [70, 70, 70, 1], (
        "expected initial claim + 2 retries (each killed, exit 70), "
        f"then quarantine on the 4th serve (exit 1); got {codes}"
    )
    record = JobLedger(os.path.join(spool, "state")).read("poison")
    assert record.state == "quarantined"
    assert record.attempts == 3  # 1 initial + max_job_retries restarts
    assert record.crashes == 3
    assert record.last_failure["reason"] == "retry-budget-exhausted"
    # The healthy job was untouched throughout.
    healthy = JobLedger(os.path.join(spool, "state")).read("healthy")
    assert healthy.state == "done"
    # fleet-status renders the quarantine for triage.
    assert main(["fleet-status", "--spool", spool, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jobs"]["poison"]["state"] == "quarantined"
    assert payload["jobs"]["healthy"]["state"] == "done"
    assert payload["states"]["quarantined"] == 1
