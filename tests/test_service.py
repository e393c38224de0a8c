"""Service layer: spool specs, serve(), the submit/serve CLI pair, and
crash recovery through the spool (kill -> steal leases -> resume)."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.dsl import family, with_budget
from repro.errors import SynthesisError
from repro.pipeline import reverse_engineer
from repro.runtime import CollectorSink, RunContext
from repro.runtime.checkpoint import CheckpointWriter, RefinementCheckpoint
from repro.service import JobLedger, build_job, load_specs, serve, submit_job
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


# ------------------------------------------------------------------- specs


def test_submit_requires_exactly_one_source(tmp_path):
    with pytest.raises(SynthesisError):
        submit_job(str(tmp_path), "job")
    with pytest.raises(SynthesisError):
        submit_job(str(tmp_path), "job", traces="t.json", cca="reno")


def test_submit_rejects_unknown_config_key(tmp_path):
    with pytest.raises(SynthesisError, match="checkpoint_path"):
        submit_job(
            str(tmp_path),
            "job",
            cca="reno",
            config={"checkpoint_path": "/tmp/x"},
        )
    with pytest.raises(SynthesisError, match="nope"):
        submit_job(str(tmp_path), "job", cca="reno", config={"nope": 1})
    # Config fields that no longer exist are unknown like any other, and
    # so are the pool knobs that serve's shared executor owns.
    for refused in (
        "fused_scheduling",
        "shm_plane",
        "batch_dtw",
        "checkpoint_every",
        "cache_max_entries",
        "workers",
        "max_pool_rebuilds",
        "watchdog_seconds",
    ):
        with pytest.raises(SynthesisError, match=refused):
            submit_job(
                str(tmp_path), "job", cca="reno", config={refused: False}
            )


def test_submit_rejects_unknown_dsl(tmp_path):
    with pytest.raises(SynthesisError, match="marsian"):
        submit_job(str(tmp_path), "job", cca="reno", dsl="marsian")


def test_load_specs_sorted_and_garbage_tolerant(tmp_path, archive):
    spool = str(tmp_path / "spool")
    _submit(spool, "zeta", archive)
    _submit(spool, "alpha", archive)
    with open(
        os.path.join(spool, "queue", "broken.json"), "w", encoding="utf-8"
    ) as handle:
        handle.write("{not json")
    specs = load_specs(spool)
    assert [spec["job_id"] for spec in specs] == ["alpha", "zeta"]


def test_build_job_fresh_checkpoint_not_resumed(tmp_path, archive):
    spool = str(tmp_path / "spool")
    _submit(spool, "fresh", archive, priority=3)
    (spec,) = load_specs(spool)
    job = build_job(spool, spec)
    assert job.job_id == "fresh"
    assert job.priority == 3
    assert not job.resumed
    # The job checkpoints under the spool: a boundary there resumes it.
    CheckpointWriter(
        os.path.join(spool, "checkpoints", "fresh.jsonl")
    ).write(
        RefinementCheckpoint(
            fingerprint={},
            records=(),
            best_expression=None,
            best_distance=float("inf"),
            handlers_scored=0,
            loop_done=False,
            next_samples=4,
            next_keep=3,
            next_segment_count=1,
        )
    )
    assert build_job(spool, spec).resumed


@pytest.mark.parametrize(
    "knob, value",
    [("workers", 4), ("max_pool_rebuilds", 0), ("watchdog_seconds", 0.5)],
)
def test_claim_fails_a_spec_naming_a_pool_knob(
    tmp_path, archive, knob, value
):
    """A spec that sets a knob of the shared executor, written past
    submit_job, is a bad spec: the claim marks it failed, runs nothing."""
    spool = str(tmp_path / "spool")
    path = _submit(spool, "pooled", archive)
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    spec["config"][knob] = value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    snapshots = serve(spool, workers=1)
    assert snapshots["pooled"]["state"] == "failed"
    assert knob in snapshots["pooled"]["error"]
    record = JobLedger(os.path.join(spool, "state")).read("pooled")
    assert record.state == "failed"
    assert record.last_failure["reason"] == "bad-spec"
    checkpoint = os.path.join(spool, "checkpoints", "pooled.jsonl")
    assert not os.path.exists(checkpoint)


# ------------------------------------------------------------------- serve


def test_serve_completes_fleet_and_matches_direct_run(
    tmp_path, archive, reno_trace
):
    spool = str(tmp_path / "spool")
    _submit(spool, "one", archive)
    _submit(spool, "two", archive)
    snapshots = serve(spool, workers=1, quantum_tasks=5)
    assert sorted(snapshots) == ["one", "two"]
    direct = reverse_engineer(
        [reno_trace],
        dsl=with_budget(family("reno"), max_depth=3, max_nodes=4),
        config=SynthesisConfig(**FAST_OVERRIDES),
    )
    for snap in snapshots.values():
        assert snap["state"] == "completed"
        assert snap["best_expression"] == direct.expression
        assert snap["best_distance"] == pytest.approx(direct.distance)
    # Four files per job: spec, record, checkpoint, results — no lease
    # sidecar, no lock left behind.
    layout = {
        name: sorted(os.listdir(os.path.join(spool, name)))
        for name in sorted(os.listdir(spool))
    }
    assert layout == {
        "checkpoints": ["one.jsonl", "two.jsonl"],
        "queue": ["one.json", "two.json"],
        "results": ["one.jsonl", "two.jsonl"],
        "state": ["one.json", "two.json"],
    }


def test_serve_skips_already_completed_jobs(tmp_path, archive):
    spool = str(tmp_path / "spool")
    _submit(spool, "done", archive)
    first = serve(spool, workers=1)
    assert first["done"]["state"] == "completed"
    # Results and checkpoints persist; a second serve resubmits nothing.
    again = serve(spool, workers=1)
    assert again["done"]["state"] == "completed"
    results = os.path.join(spool, "results", "done.jsonl")
    with open(results, "r", encoding="utf-8") as handle:
        lines_after = len(handle.read().splitlines())
    third = serve(spool, workers=1)
    with open(results, "r", encoding="utf-8") as handle:
        assert len(handle.read().splitlines()) == lines_after
    assert third == again


def test_serve_run_started_names_the_shared_pool(tmp_path, archive):
    """Each job's ``run_started`` names the width of the pool that
    scores it, not the job config's default of one worker."""
    spool = str(tmp_path / "spool")
    _submit(spool, "one", archive)
    _submit(spool, "two", archive)
    collector = CollectorSink()
    with RunContext([collector]) as ctx:
        snapshots = serve(spool, workers=2, quantum_tasks=5, context=ctx)
    assert {snap["state"] for snap in snapshots.values()} == {"completed"}
    widths = {
        kind: [
            event.workers
            for event in collector.events
            if event.kind == kind
        ]
        for kind in ("server_started", "run_started", "pool_spawned")
    }
    assert widths == {
        "server_started": [2],
        "run_started": [2, 2],
        "pool_spawned": [2],
    }


# --------------------------------------------------------------------- CLI


def test_cli_submit_writes_spec(tmp_path, archive, capsys):
    spool = str(tmp_path / "spool")
    code = main(
        [
            "submit", "--spool", spool, "--job-id", "cli-job",
            "--traces", archive, "--dsl", "reno",
            "--max-depth", "3", "--max-nodes", "4",
            "--samples", "4", "--keep", "3", "--iterations", "2",
            "--priority", "2",
        ]
    )
    assert code == 0
    assert "queued cli-job" in capsys.readouterr().out
    (spec,) = load_specs(spool)
    assert spec["job_id"] == "cli-job"
    assert spec["priority"] == 2
    assert spec["config"]["initial_samples"] == 4
    assert spec["trace_policy"] == "repair"


def test_cli_submit_requires_one_source(tmp_path):
    with pytest.raises(SystemExit):
        main(["submit", "--spool", str(tmp_path), "--job-id", "x"])


def test_cli_serve_reports_fleet_json(tmp_path, archive, capsys):
    spool = str(tmp_path / "spool")
    _submit(spool, "alpha", archive)
    _submit(spool, "beta", archive)
    code = main(
        ["serve", "--spool", spool, "--quantum", "5", "--report", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["jobs"]) == ["alpha", "beta"]
    assert payload["fleet"]["submitted"] == 2
    assert payload["fleet"]["completed"] == 2
    assert payload["fleet"]["preemptions"] > 0
    assert payload["fleet"]["jobs"]["alpha"]["state"] == "completed"


def test_cli_serve_text_summary(tmp_path, archive, capsys):
    spool = str(tmp_path / "spool")
    _submit(spool, "solo", archive)
    assert main(["serve", "--spool", spool]) == 0
    out = capsys.readouterr().out
    assert "solo: completed" in out
    assert "fleet:  1 job(s) submitted" in out
    assert "fleet jobs" in out


# ----------------------------------------------------------- crash recovery


def test_killed_serve_resumes_from_spool(tmp_path, archive, reno_trace):
    """A serve killed mid-fleet (exit 70, its job records still naming
    it as owner) is fully recovered by a successor with --steal-leases:
    every job completes with the same answer an uninterrupted run
    produces."""
    spool = str(tmp_path / "spool")
    for job_id in ("one", "two"):
        _submit(spool, job_id, archive)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    killed = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve",
            "--spool", spool, "--quantum", "3",
            "--server-id", "killed",
            "--exit-after-slices", "4",
        ],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert killed.returncode == 70, killed.stderr
    ledger = JobLedger(os.path.join(spool, "state"))
    owners = [ledger.read(job_id).owner for job_id in ("one", "two")]
    assert "killed" in owners, "crashed serve must leave its claims behind"
    snapshots = serve(spool, workers=1, quantum_tasks=3, steal_leases=True)
    direct = reverse_engineer(
        [reno_trace],
        dsl=with_budget(family("reno"), max_depth=3, max_nodes=4),
        config=SynthesisConfig(**FAST_OVERRIDES),
    )
    for job_id in ("one", "two"):
        assert snapshots[job_id]["state"] == "completed"
        assert snapshots[job_id]["best_expression"] == direct.expression
