"""Wave-protocol event streams, pinned by digest.

The refinement core talks to its driver only through the wave protocol
(:mod:`repro.runtime.protocol`), and the run log is what the core, the
executor and the scheduler emit as its messages go by.  A change to the
protocol or to either driver that moves, drops, adds or alters an event
fails here.

Each stream digest hashes one JSON line per event, in emission order:
the event's kind and every payload field that depends neither on wall
clock nor on which pool worker ran which task (a path is reduced to its
file name).  The fleet run hashes its event kinds and the server's
final snapshots.  The digests were recorded with the four-request
protocol (a scorer message, waves, a stats request and progress
reports) that the two-request one replaced.  The three run-log digests
were re-recorded once since, when the scorer's probe lane joined the
per-segment DTW sweep: a decoded diff showed ``batched_dtw_sweeps`` as
the only field that moved.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

from repro.dsl import RENO_DSL, with_budget
from repro.pipeline import reverse_engineer
from repro.runtime import CollectorSink, RunContext
from repro.runtime.events import event_payload
from repro.service import serve, submit_job
from repro.synth.refinement import SynthesisConfig, synthesize
from repro.trace.io import save_traces

#: Large enough for two refinement iterations before the exhaustive pass.
DSL = with_budget(RENO_DSL, max_depth=4, max_nodes=7)

CONFIG = SynthesisConfig(
    initial_samples=4,
    initial_keep=4,
    completion_cap=8,
    max_iterations=2,
    exhaustive_cap=60,
)

#: Payload fields that measure wall clock.
TIMINGS = frozenset(
    {"t", "elapsed_seconds", "phase_seconds", "envelope_precompute_ms"}
)

#: Fields that also depend on which pool worker ran which task: each
#: worker keeps a private score cache, and occupancy is sampled.
PLACEMENT = frozenset(
    {
        "mean_occupancy",
        "peak_in_flight",
        "hits",
        "misses",
        "entries",
        "hit_rate",
    }
)


def _digest(lines) -> tuple[int, str]:
    """(line count, sha256 of the newline-terminated lines)."""
    digest = hashlib.sha256()
    count = 0
    for line in lines:
        digest.update(line.encode() + b"\n")
        count += 1
    return count, digest.hexdigest()


def _stream(events, dropped=TIMINGS) -> tuple[int, str]:
    def line(event) -> str:
        payload = {
            key: value
            for key, value in event_payload(event).items()
            if key not in dropped
        }
        if "path" in payload:
            payload["path"] = os.path.basename(payload["path"])
        return json.dumps(payload, sort_keys=True)

    return _digest(line(event) for event in events)


def _synthesize(segments, config):
    collector = CollectorSink()
    with RunContext([collector]) as ctx:
        synthesize(segments, DSL, config, context=ctx)
    return collector.events


def test_synthesize_stream_one_worker(reno_segments, tmp_path):
    """Two refinement waves and an exhaustive wave, checkpointed."""
    checkpoint = tmp_path / "run.jsonl"
    events = _synthesize(
        reno_segments[:6], replace(CONFIG, checkpoint_path=str(checkpoint))
    )
    assert _stream(events) == (
        40,
        "bd5bfdcf923968e3463fa2376b72a00455a01482fed0be4a7453da5eeb995d39",
    )
    assert _digest(checkpoint.read_text(encoding="utf-8").splitlines()) == (
        2,
        "733be4c502fb2a45e190393107e997edf4e01d3e42811c1945dbf8e51f54d5e3",
    )


def test_synthesize_stream_two_workers(reno_segments):
    events = _synthesize(reno_segments[:6], replace(CONFIG, workers=2))
    assert any(event.kind == "pool_spawned" for event in events)
    assert _stream(events, TIMINGS | PLACEMENT) == (
        42,
        "1dc0f4e9f27bc35aeb6fbddd77b48650911423b130f7bc98f73569798b508061",
    )


def test_triaged_reverse_engineer_stream(reno_trace):
    """Three refinement waves; the exhaustive pass draws nothing new, so
    the run's last counters are those of the third wave."""
    collector = CollectorSink()
    with RunContext([collector]) as ctx:
        reverse_engineer(
            [reno_trace],
            dsl=DSL,
            config=replace(CONFIG, max_iterations=3),
            context=ctx,
            trace_policy="repair",
        )
    assert _stream(collector.events) == (
        46,
        "21e713b7de5a8dae52c590dfe2370a96df01b02801e2dea4fb5868cdd5108da6",
    )


def test_serve_stream_two_jobs_two_workers(reno_trace, tmp_path):
    archive = str(tmp_path / "reno.json")
    save_traces([reno_trace], archive)
    spool = str(tmp_path / "spool")
    for job_id in ("one", "two"):
        submit_job(
            spool,
            job_id,
            traces=archive,
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
    collector = CollectorSink()
    with RunContext([collector]) as ctx:
        snapshots = serve(spool, workers=2, quantum_tasks=5, context=ctx)
    assert _digest(event.kind for event in collector.events) == (
        60,
        "ad580520fed82052b394a5616904249b3bd6d0d1b2eb22e1fc40550ed5f30ea7",
    )
    assert _digest(
        json.dumps(snapshots[job_id], sort_keys=True)
        for job_id in sorted(snapshots)
    ) == (
        2,
        "1de12bd2ece5c3c2e231cf624052a155138861704a16376c6dabac49d393d8d8",
    )
