#!/usr/bin/env python
"""Service smoke: the full crash-recovery story through the real CLI.

CI's fast answer to "did a change break synthesis-as-a-service?":

1. ``repro submit`` queues a two-job fleet into a fresh spool (specs
   collected from the simulator, no fixture files);
2. a first ``repro serve`` is killed mid-fleet via the test-only
   ``--exit-after-slices`` switch (the process dies with ``os._exit(70)``
   exactly like a SIGKILL: its job records still name it as owner, and
   partial checkpoints stay on disk);
3. a successor ``repro serve --steal-leases`` must recover the whole
   fleet from the spool and report every job completed;
4. the differential: each job's served answer must match a direct
   in-process ``reverse_engineer`` run over the same traces and config —
   crash, steal, and resume may not move the result by a bit.

Exit code 0 when every check passes; 1 with a per-case report
otherwise.  Runs in well under a minute — this is a smoke test, not the
full ``tests/test_service.py`` / ``tests/runtime/test_scheduler.py``
harness.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.dsl import family, with_budget  # noqa: E402
from repro.netsim.environments import Environment  # noqa: E402
from repro.pipeline import reverse_engineer  # noqa: E402
from repro.service import JobLedger  # noqa: E402
from repro.synth.refinement import SynthesisConfig  # noqa: E402
from repro.trace.collect import CollectionConfig, collect_traces  # noqa: E402

JOB_IDS = ("smoke-one", "smoke-two")
KILLED_SERVER = "smoke-killed"
DURATION = 8.0
BANDWIDTH = 10.0
RTT = 50.0

SUBMIT_FLAGS = [
    "--cca", "reno",
    "--duration", str(DURATION),
    "--bandwidth", str(BANDWIDTH),
    "--rtt", str(RTT),
    "--dsl", "reno",
    "--max-depth", "3",
    "--max-nodes", "4",
    "--samples", "4",
    "--keep", "3",
    "--iterations", "2",
]


def submit_fleet(spool: str) -> list[str]:
    failures: list[str] = []
    for job_id in JOB_IDS:
        code = cli_main(
            ["submit", "--spool", spool, "--job-id", job_id, *SUBMIT_FLAGS]
        )
        if code != 0:
            failures.append(f"submit {job_id}: exit {code}")
    return failures


def crash_first_serve(spool: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    killed = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve",
            "--spool", spool, "--quantum", "3",
            "--server-id", KILLED_SERVER,
            "--exit-after-slices", "4",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    failures: list[str] = []
    if killed.returncode != 70:
        failures.append(
            f"killed serve: exit {killed.returncode}, expected 70 "
            f"(stderr: {killed.stderr.strip()[:200]})"
        )
    ledger = JobLedger(os.path.join(spool, "state"))
    owners = [ledger.read(job_id).owner for job_id in JOB_IDS]
    if KILLED_SERVER not in owners:
        failures.append(
            f"no job record still names the killed serve (owners {owners})"
        )
    return failures


def recover_fleet(spool: str) -> tuple[dict | None, list[str]]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(
            [
                "serve", "--spool", spool, "--quantum", "3",
                "--steal-leases", "--report", "json",
            ]
        )
    if code != 0:
        return None, [f"recovery serve: exit {code}"]
    try:
        payload = json.loads(stdout.getvalue())
    except json.JSONDecodeError as exc:
        return None, [f"recovery serve: unparseable JSON report: {exc}"]
    failures: list[str] = []
    fleet = payload.get("fleet") or {}
    if fleet.get("leases_stolen", 0) < 1:
        failures.append("recovery serve stole no leases")
    return payload, failures


def check_differential(payload: dict) -> list[str]:
    traces = collect_traces(
        "reno",
        CollectionConfig(
            duration=DURATION,
            environments=(
                Environment(bandwidth_mbps=BANDWIDTH, rtt_ms=RTT),
            ),
        ),
    )
    direct = reverse_engineer(
        traces,
        dsl=with_budget(family("reno"), max_depth=3, max_nodes=4),
        config=SynthesisConfig(
            metric="dtw", initial_samples=4, initial_keep=3, max_iterations=2
        ),
    )
    failures: list[str] = []
    for job_id in JOB_IDS:
        snap = payload["jobs"].get(job_id)
        if snap is None:
            failures.append(f"{job_id}: missing from the recovery report")
            continue
        if snap["state"] != "completed":
            failures.append(
                f"{job_id}: state {snap['state']!r} "
                f"({snap.get('error') or 'no error recorded'})"
            )
            continue
        if snap["best_expression"] != direct.expression:
            failures.append(
                f"{job_id}: expression diverged after crash recovery "
                f"({snap['best_expression']!r} vs {direct.expression!r})"
            )
        if abs(snap["best_distance"] - direct.distance) > 1e-9:
            failures.append(
                f"{job_id}: distance diverged after crash recovery "
                f"({snap['best_distance']!r} vs {direct.distance!r})"
            )
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        spool = os.path.join(tmp, "spool")
        failures = submit_fleet(spool)
        if not failures:
            failures += crash_first_serve(spool)
        if not failures:
            payload, recover_failures = recover_fleet(spool)
            failures += recover_failures
            if payload is not None:
                failures += check_differential(payload)
    if failures:
        print(f"SERVICE SMOKE: {len(failures)} failure(s)")
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        "SERVICE SMOKE OK: fleet submitted, killed mid-run (exit 70, "
        "records still owned), recovered with --steal-leases; every job's "
        "answer bit-identical to the direct run"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
