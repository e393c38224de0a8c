"""Checkpoint leases: expiring exclusive ownership of a job, kept in its
record and changed only under the record's lock, with an injected
clock."""

import json
import os
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.runtime.checkpoint import (
    DEFAULT_LEASE_TTL,
    CheckpointLease,
    JobLedger,
    JobRecord,
)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _ledger(tmp_path):
    return JobLedger(str(tmp_path / "state"))


def _lease(tmp_path, owner, clock, ttl=10.0):
    return CheckpointLease(_ledger(tmp_path), "job", owner, ttl, clock=clock)


def _record(tmp_path):
    return _ledger(tmp_path).read("job")


def _lock(tmp_path):
    return str(tmp_path / "state" / "job.lock")


def _polite(lease, clock):
    """A claimant's decision: take the record unless another owner's
    heartbeat is still live (steals and takeover delays are the fleet
    server's policy, tested in tests/test_fleet.py)."""

    def decide(record):
        foreign = record.owner not in (None, lease.owner)
        if foreign and not record.expired(clock()):
            return None
        return lease.stamp(record)

    return decide


def test_acquire_on_absent_lease(tmp_path):
    clock = FakeClock()
    lease = _lease(tmp_path, "a", clock)
    assert lease.acquire(lease.stamp)
    assert lease.held
    assert lease.path == _ledger(tmp_path).path("job")
    record = _record(tmp_path)
    assert record.owner == "a"
    assert record.ttl_seconds == 10.0
    assert not record.expired(clock())


def test_fresh_foreign_lease_blocks_without_steal(tmp_path):
    clock = FakeClock()
    first = _lease(tmp_path, "a", clock)
    assert first.acquire(first.stamp)
    other = _lease(tmp_path, "b", clock)
    assert not other.acquire(_polite(other, clock))
    assert not other.held
    assert _record(tmp_path).owner == "a"  # untouched


def test_steal_displaces_fresh_owner(tmp_path):
    clock = FakeClock()
    first = _lease(tmp_path, "a", clock)
    assert first.acquire(first.stamp)
    thief = _lease(tmp_path, "b", clock)
    assert thief.acquire(thief.stamp)  # the decision overrides the owner
    assert _record(tmp_path).owner == "b"


def test_expired_lease_acquirable_without_steal(tmp_path):
    clock = FakeClock()
    first = _lease(tmp_path, "a", clock, ttl=10.0)
    assert first.acquire(first.stamp)
    clock.advance(10.0)  # boundary counts as expired
    successor = _lease(tmp_path, "b", clock, ttl=10.0)
    assert successor.acquire(_polite(successor, clock))
    assert _record(tmp_path).owner == "b"


def test_renew_extends_the_ttl_window(tmp_path):
    clock = FakeClock()
    holder = _lease(tmp_path, "a", clock, ttl=10.0)
    assert holder.acquire(holder.stamp)
    clock.advance(8.0)
    assert holder.renew()
    clock.advance(8.0)  # 16s since acquire, 8s since renew
    contender = _lease(tmp_path, "b", clock, ttl=10.0)
    assert not contender.acquire(_polite(contender, clock))
    assert _record(tmp_path).renewed_at == 1008.0


def test_renew_without_hold_is_noop(tmp_path):
    clock = FakeClock()
    lease = _lease(tmp_path, "a", clock)
    assert lease.renew() is False
    assert not os.path.exists(lease.path)


def test_renew_after_a_steal_returns_false_and_writes_nothing(tmp_path):
    """A stolen lease stays stolen: the loser's heartbeat must not write
    itself back over the new owner, and its release leaves it alone."""
    clock = FakeClock()
    victim = _lease(tmp_path, "victim", clock)
    assert victim.acquire(victim.stamp)
    clock.advance(1.0)
    thief = _lease(tmp_path, "thief", clock)
    assert thief.acquire(thief.stamp)
    stolen = _record(tmp_path)
    clock.advance(1.0)
    assert victim.renew() is False
    assert not victim.held
    assert _record(tmp_path) == stolen
    victim.release()
    assert _record(tmp_path) == stolen
    assert thief.renew()
    assert _record(tmp_path).owner == "thief"


def test_renew_of_a_terminal_record_returns_false(tmp_path):
    clock = FakeClock()
    lease = _lease(tmp_path, "a", clock)
    assert lease.acquire(lease.stamp)
    _ledger(tmp_path).transition("job", "done")
    assert lease.renew() is False
    assert _record(tmp_path).state == "done"


def test_reacquire_own_lease_is_not_a_steal(tmp_path):
    clock = FakeClock()
    lease = _lease(tmp_path, "a", clock)
    assert lease.acquire(lease.stamp)
    again = _lease(tmp_path, "a", clock)
    assert again.acquire(_polite(again, clock))  # its own lease never blocks
    assert _record(tmp_path).owner == "a"


def test_release_clears_owner_and_is_idempotent(tmp_path):
    clock = FakeClock()
    lease = _lease(tmp_path, "a", clock)
    assert lease.acquire(lease.stamp)
    lease.release()
    assert not lease.held
    assert _record(tmp_path).owner is None
    lease.release()  # second release: no error
    assert _record(tmp_path).owner is None


def test_release_survives_missing_file(tmp_path):
    clock = FakeClock()
    lease = _lease(tmp_path, "a", clock)
    assert lease.acquire(lease.stamp)
    os.remove(lease.path)
    lease.release()
    assert not lease.held
    assert not os.path.exists(lease.path)


def test_corrupt_lease_reads_as_absent(tmp_path):
    clock = FakeClock()
    path = _ledger(tmp_path).path("job")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"owner": ')  # torn write
    assert _record(tmp_path) == JobRecord(job_id="job")
    lease = _lease(tmp_path, "b", clock)
    assert lease.acquire(_polite(lease, clock))  # a torn write never blocks


def test_record_without_heartbeat_holds_no_live_lease(tmp_path):
    """A record written before the lease moved into it names an owner
    but no heartbeat: that owner holds no live lease."""
    clock = FakeClock()
    path = _ledger(tmp_path).path("job")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"job_id": "job", "state": "running", "owner": "x"}, handle)
    assert _record(tmp_path).expired(clock())
    successor = _lease(tmp_path, "b", clock)
    assert successor.acquire(_polite(successor, clock))


def test_lease_file_is_json_with_expected_fields(tmp_path):
    clock = FakeClock()
    lease = _lease(tmp_path, "a", clock)
    assert lease.acquire(lease.stamp)
    with open(lease.path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert set(payload) == {
        "job_id",
        "state",
        "attempts",
        "crashes",
        "owner",
        "renewed_at",
        "ttl_seconds",
        "updated_at",
        "last_failure",
    }


def test_default_ttl_applies(tmp_path):
    lease = CheckpointLease(_ledger(tmp_path), "c", "a")
    assert lease.ttl_seconds == DEFAULT_LEASE_TTL


# ----------------------------------------------------- takeover jitter


def test_takeover_delay_deterministic_and_bounded():
    from repro.runtime.checkpoint import (
        DEFAULT_TAKEOVER_JITTER_FRACTION,
        takeover_delay,
    )

    first = takeover_delay("server-a", "job-1", 30.0)
    assert first == takeover_delay("server-a", "job-1", 30.0)
    assert 0.0 <= first <= 30.0 * DEFAULT_TAKEOVER_JITTER_FRACTION


def test_takeover_delay_spreads_servers_and_jobs():
    from repro.runtime.checkpoint import takeover_delay

    delays = {
        takeover_delay(server, job, 30.0)
        for server in ("a", "b", "c", "d")
        for job in ("one", "two")
    }
    # A stable hash should elect different first responders; eight
    # (server, job) pairs collapsing to one delay would defeat it.
    assert len(delays) == 8


def test_takeover_delay_scales_with_ttl():
    from repro.runtime.checkpoint import takeover_delay

    assert takeover_delay("a", "j", 60.0) == pytest.approx(
        2.0 * takeover_delay("a", "j", 30.0)
    )


def test_takeover_delay_custom_fraction_zero():
    from repro.runtime.checkpoint import takeover_delay

    assert takeover_delay("a", "j", 30.0, max_fraction=0.0) == 0.0


# ----------------------------------------------------- the claim lock


def test_held_claim_lock_blocks_acquire(tmp_path):
    clock = FakeClock()
    lease = _lease(tmp_path, "b", clock)
    lock = _lock(tmp_path)
    with open(lock, "w", encoding="utf-8"):
        pass  # a concurrent claimant is mid-critical-section
    written_while_held = []

    def holder_finishes():
        time.sleep(0.2)
        written_while_held.append(os.path.exists(lease.path))
        os.remove(lock)

    holder = threading.Thread(target=holder_finishes)
    holder.start()
    assert lease.acquire(lease.stamp)  # waits for the holder, no failure
    holder.join(timeout=60)
    assert not holder.is_alive()
    assert written_while_held == [False]
    assert lease.held


def test_stale_claim_lock_is_reaped_then_acquirable(tmp_path):
    clock = FakeClock()
    lease = _lease(tmp_path, "b", clock)
    lock = _lock(tmp_path)
    with open(lock, "w", encoding="utf-8"):
        pass
    ancient = os.path.getmtime(lock) - 3600.0
    os.utime(lock, (ancient, ancient))  # holder crashed long ago
    assert lease.acquire(lease.stamp)  # the wreckage is reaped first
    assert not os.path.exists(lock)
    assert lease.held


def test_acquire_removes_its_own_lock(tmp_path):
    clock = FakeClock()
    lease = _lease(tmp_path, "a", clock)
    assert lease.acquire(lease.stamp)
    assert not os.path.exists(_lock(tmp_path))
    loser = _lease(tmp_path, "b", clock)
    assert not loser.acquire(_polite(loser, clock))  # declined, lock freed
    assert not os.path.exists(_lock(tmp_path))


def test_racing_claimants_one_winner(tmp_path):
    """Two servers racing the same expired lease: exactly one wins."""
    clock = FakeClock()
    dead = _lease(tmp_path, "dead", clock, ttl=5.0)
    assert dead.acquire(dead.stamp)
    clock.advance(10.0)
    a = _lease(tmp_path, "a", clock, ttl=5.0)
    b = _lease(tmp_path, "b", clock, ttl=5.0)
    winners = [
        lease for lease in (a, b) if lease.acquire(_polite(lease, clock))
    ]
    assert len(winners) == 1
    # The loser saw the winner's *fresh* lease and backed off.
    assert _record(tmp_path).owner == winners[0].owner


def test_concurrent_changes_lose_no_update(tmp_path):
    """Every change is one locked read-modify-write: eight threads
    bumping one record, with a short switch interval, lose nothing."""
    ledger = _ledger(tmp_path)

    def bump():
        for _ in range(10):
            ledger.update(
                "job", lambda r: replace(r, attempts=r.attempts + 1)
            )

    threads = [threading.Thread(target=bump) for _ in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert ledger.read("job").attempts == 80


def test_release_leaves_stolen_lease_alone(tmp_path):
    clock = FakeClock()
    victim = _lease(tmp_path, "victim", clock)
    assert victim.acquire(victim.stamp)
    thief = _lease(tmp_path, "thief", clock)
    assert thief.acquire(thief.stamp)
    victim.release()  # drain racing a steal must not free the thief's claim
    assert _record(tmp_path).owner == "thief"
