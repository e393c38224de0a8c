"""Crash-point enumeration for the spool: kill a server at every one of
its mutating spool calls, and prove that the fleet still completes the
job exactly once.

A clean ``serve`` of a one-job spool is run first, counting its
mutating spool calls: ``os.open`` of a record lock, ``os.replace``,
``os.remove`` and ``ResultStore.record``.  Then, for every k, a forked
server whose k-th such call is ``os._exit(70)`` — no ``finally`` block
runs, exactly as with SIGKILL — is followed by a survivor,
``serve(spool, steal_leases=True)``.  At every kill point the job's
record must end ``done``, its results file must hold exactly one
``completed`` snapshot, its checkpoint must equal the clean run's byte
for byte, and the job may have been charged at most one crash.  A
second enumeration kills a server that drains after its first slice.
"""

import json
import os
import shutil
import signal
import time
import traceback

import pytest

from repro.cca import make_cca
from repro.netsim import simulate
from repro.runtime import checkpoint
from repro.runtime.jobs import ResultStore
from repro.service import FleetServer, JobLedger, serve
from repro.trace.io import save_traces
from tests.test_fleet import _submit

KILLED = 70
SERVER_TIMEOUT = 120.0


@pytest.fixture(scope="module")
def template(small_env, tmp_path_factory):
    """A spool holding one queued job, copied afresh for every run.  A
    10 s trace keeps each server run to a fraction of a second."""
    root = tmp_path_factory.mktemp("crash_points")
    archive = str(root / "reno.json")
    trace = simulate(make_cca("reno"), small_env, duration=10.0)
    save_traces([trace], archive)
    spool = str(root / "template")
    _submit(spool, "job", archive)
    return spool


@pytest.fixture()
def fast_reaper(monkeypatch):
    """A kill inside a critical section leaves its lock behind; the
    survivor reaps it after a tenth of a second instead of five."""
    monkeypatch.setattr(checkpoint, "_STALE_LOCK_SECONDS", 0.1)


def _instrument(spool, kill_at, patch):
    """Route the mutating calls on *spool* through a counter whose
    *kill_at*-th call exits the process instead; returns the calls."""
    calls = []
    real_open, real_replace, real_remove = os.open, os.replace, os.remove
    real_record = ResultStore.record

    def gate(path):
        if str(path).startswith(spool + os.sep):
            calls.append(str(path))
            if len(calls) == kill_at:
                os._exit(KILLED)

    def counted_open(path, flags, *args, **kwargs):
        if str(path).endswith(".lock"):
            gate(path)
        return real_open(path, flags, *args, **kwargs)

    def counted_replace(src, dst, *args, **kwargs):
        gate(dst)
        return real_replace(src, dst, *args, **kwargs)

    def counted_remove(path, *args, **kwargs):
        gate(path)
        return real_remove(path, *args, **kwargs)

    def counted_record(self, snapshot):
        gate(self.root)
        return real_record(self, snapshot)

    patch(os, "open", counted_open)
    patch(os, "replace", counted_replace)
    patch(os, "remove", counted_remove)
    patch(ResultStore, "record", counted_record)
    return calls


def _serve(spool):
    serve(spool, server_id="victim")


def _serve_then_drain(spool):
    server = FleetServer(
        spool,
        server_id="victim",
        quantum_tasks=2,
        drain=lambda: server._scheduler is not None
        and server._scheduler.slices_dispatched >= 1,
    )
    server.run()


def _killed_at(spool, kill_at, run):
    """Run *run* over *spool* in a forked server that dies at its
    *kill_at*-th mutating call; returns the server's exit code.

    A fork starts the server from the modules this process already
    imported, which keeps each of the enumeration's runs far below the
    cost of a fresh interpreter."""
    pid = os.fork()
    if pid == 0:  # the server: never returns into the test runner
        code = 1
        try:
            _instrument(spool, kill_at, setattr)
            run(spool)
            code = 0
        except Exception:  # noqa: BLE001 - report, then exit
            traceback.print_exc()
        finally:
            os._exit(code)
    deadline = time.monotonic() + SERVER_TIMEOUT
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail(f"server killed at call {kill_at} hung")


def _completed_snapshots(spool):
    with open(
        os.path.join(spool, "results", "job.jsonl"), "r", encoding="utf-8"
    ) as handle:
        return [
            line
            for line in handle.read().splitlines()
            if json.loads(line).get("state") == "completed"
        ]


def _checkpoint_bytes(spool):
    with open(os.path.join(spool, "checkpoints", "job.jsonl"), "rb") as h:
        return h.read()


def _enumerate(template, tmp_path, monkeypatch, run):
    """Kill *run* at each of its mutating calls, finish the spool with a
    stealing survivor, and check exactly-once completion every time."""
    reference = os.path.join(str(tmp_path), "reference")
    shutil.copytree(template, reference)
    serve(reference)
    clean = _checkpoint_bytes(reference)

    counted = os.path.join(str(tmp_path), "counted")
    shutil.copytree(template, counted)
    with monkeypatch.context() as patch:
        calls = _instrument(counted, None, patch.setattr)
        run(counted)
    assert len(calls) >= 10, calls

    # One point past the last call: the server runs to its own end.
    for kill_at in range(1, len(calls) + 2):
        spool = os.path.join(str(tmp_path), f"k{kill_at}")
        shutil.copytree(template, spool)
        code = _killed_at(spool, kill_at, run)
        expected = KILLED if kill_at <= len(calls) else 0
        where = f"kill point {kill_at} ({calls[kill_at - 1:kill_at]})"
        assert code == expected, where
        serve(spool, steal_leases=True)
        record = JobLedger(os.path.join(spool, "state")).read("job")
        assert record.state == "done", where
        assert record.owner is None, where
        assert record.crashes <= 1, where
        assert len(_completed_snapshots(spool)) == 1, where
        assert _checkpoint_bytes(spool) == clean, where
        assert not [
            name
            for name in os.listdir(os.path.join(spool, "state"))
            if name.endswith(".lock")
        ], where
        shutil.rmtree(spool)


def test_every_kill_point_completes_exactly_once(
    template, tmp_path, monkeypatch, fast_reaper
):
    _enumerate(template, tmp_path, monkeypatch, _serve)


def test_every_kill_point_of_a_draining_server_completes_exactly_once(
    template, tmp_path, monkeypatch, fast_reaper
):
    _enumerate(template, tmp_path, monkeypatch, _serve_then_drain)
