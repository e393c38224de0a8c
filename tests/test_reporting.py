"""Reporting-helper tests."""

from repro.reporting import (
    format_run_summary,
    format_series,
    format_table,
    sparkline,
)


def test_format_table_alignment():
    text = format_table(
        ["cca", "distance"],
        [["reno", 18.84], ["bbr", 195.21]],
        title="Table 2",
    )
    lines = text.splitlines()
    assert lines[0] == "Table 2"
    assert lines[1].startswith("cca ")
    assert set(lines[2]) <= {"-", "+"}
    assert "reno" in lines[3] and "18.84" in lines[3]
    # Columns align: header and row pipes at the same offsets.
    assert lines[1].index("|") == lines[3].index("|")


def test_format_table_empty_rows():
    text = format_table(["a", "b"], [])
    assert "a" in text and "b" in text


def test_sparkline_range():
    line = sparkline([0, 1, 2, 3, 4, 5])
    assert len(line) == 6
    assert line[0] == "▁" and line[-1] == "█"


def test_sparkline_resamples_to_width():
    assert len(sparkline(list(range(1000)), width=40)) == 40


def test_sparkline_flat_series():
    assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"


def test_sparkline_empty():
    assert sparkline([]) == ""


def test_format_series():
    text = format_series("cwnd", [10.0, 20.0, 30.0])
    assert text.startswith("cwnd")
    assert "[10..30]" in text


def test_format_series_empty():
    assert "(empty)" in format_series("x", [])


def test_run_summary_faults_line_and_quarantine_table():
    from repro.reporting import format_run_summary
    from repro.runtime.events import (
        DegradedToSerial,
        PoolRebuilt,
        SketchQuarantined,
        WorkerCrashed,
    )

    events = [
        WorkerCrashed(reason="worker-crash", detail="pool broken"),
        PoolRebuilt(rebuilds=1, backoff_seconds=0.05),
        SketchQuarantined(sketch="c0 * mss", reason="timeout", detail="0.3s"),
        DegradedToSerial(reason="3 consecutive pool failures"),
    ]
    text = format_run_summary(events)
    assert "1 worker crash(es)" in text
    assert "1 pool rebuild(s)" in text
    assert "1 sketch(es) quarantined" in text
    assert "degraded to serial (3 consecutive pool failures)" in text
    assert "quarantined sketches" in text
    assert "c0 * mss" in text and "timeout" in text


def test_run_summary_silent_on_healthy_run():
    from repro.reporting import format_run_summary

    assert "faults" not in format_run_summary([])


def test_run_summary_scoring_prunes_line():
    from repro.reporting import format_run_summary
    from repro.runtime.events import ScoringStats

    events = [
        ScoringStats(
            batched_waves=5, lb_pruned=10, dp_abandoned=1, candidates_pruned=2
        ),
        ScoringStats(
            batched_waves=9, lb_pruned=40, dp_abandoned=3, candidates_pruned=7
        ),
    ]
    text = format_run_summary(events)
    # The latest (cumulative) snapshot wins, named counters included.
    assert "40 lb_pruned" in text
    assert "3 dp_abandoned" in text
    assert "7 candidates dropped" in text
    assert "9 batched_waves" in text


def test_scoring_stats_event_payload_roundtrips():
    from repro.runtime.events import ScoringStats, event_payload

    payload = event_payload(
        ScoringStats(
            batched_waves=1,
            lb_pruned=2,
            dp_abandoned=3,
            candidates_pruned=4,
            warm_start_pruned=5,
            fused_waves=6,
            fused_tasks=7,
            peak_in_flight=8,
            mean_occupancy=0.75,
            batched_dtw_sweeps=9,
            envelope_precompute_ms=1.25,
            shm_bytes=4096,
        )
    )
    assert payload == {
        "event": "scoring_stats",
        "batched_waves": 1,
        "lb_pruned": 2,
        "dp_abandoned": 3,
        "candidates_pruned": 4,
        "warm_start_pruned": 5,
        "fused_waves": 6,
        "fused_tasks": 7,
        "peak_in_flight": 8,
        "mean_occupancy": 0.75,
        "batched_dtw_sweeps": 9,
        "envelope_precompute_ms": 1.25,
        "shm_bytes": 4096,
    }


def test_run_summary_wave_line():
    from repro.reporting import format_run_summary
    from repro.runtime.events import ScoringStats

    quiet = format_run_summary(
        [ScoringStats(batched_waves=1, lb_pruned=0, dp_abandoned=0,
                      candidates_pruned=0)]
    )
    assert "waves:" not in quiet  # no fused waves, no waves: line
    text = format_run_summary(
        [
            ScoringStats(
                batched_waves=9,
                lb_pruned=40,
                dp_abandoned=3,
                candidates_pruned=7,
                warm_start_pruned=11,
                fused_waves=4,
                fused_tasks=120,
                peak_in_flight=16,
                mean_occupancy=0.82,
            )
        ]
    )
    assert "4 fused wave(s)" in text
    assert "120 task(s)" in text
    assert "peak 16 in flight" in text
    assert "82% mean occupancy" in text
    assert "11 warm-start prune(s)" in text


def test_run_summary_triage_and_quorum_lines():
    from repro.runtime.events import (
        DegradedInputs,
        TraceRepairApplied,
        TraceTriaged,
    )

    events = [
        TraceTriaged(
            trace="reno/baseline", action="clean", quality=1.0, defects={}
        ),
        TraceRepairApplied(
            trace="reno/noisy", repair="duplicate_acks", touched=5
        ),
        TraceTriaged(
            trace="reno/noisy",
            action="repaired",
            quality=0.95,
            defects={"duplicate_ack": 5},
        ),
        TraceTriaged(
            trace="reno/broken",
            action="rejected",
            quality=0.0,
            defects={"empty_trace": 1},
            reason="fatal defect(s): empty_trace",
        ),
        DegradedInputs(
            total_segments=6, usable=1, excluded=3, backfilled=1, min_quorum=2
        ),
    ]
    text = format_run_summary(events)
    assert "triage: 3 trace(s)" in text
    assert "1 repaired" in text
    assert "1 rejected" in text
    assert "5 record(s) touched" in text
    assert "triaged traces" in text  # the per-trace table
    assert "duplicate_ack x5" in text
    assert "quorum: 1/6 segment(s) usable" in text
    assert "backfilled to hold the 2-segment quorum" in text


def test_run_summary_silent_without_triage():
    assert "triage" not in format_run_summary([])


def _fleet_events():
    from repro.runtime.events import (
        JobCompleted,
        JobFailed,
        JobPreempted,
        JobProgress,
        JobStarted,
        JobSubmitted,
        LeaseStolen,
    )

    return [
        JobSubmitted(job_id="alpha", priority=5),
        JobSubmitted(job_id="beta", priority=0),
        JobStarted(job_id="alpha", resumed=True),
        JobStarted(job_id="beta", resumed=False),
        LeaseStolen(job_id="alpha", path="a.lease", previous_owner="dead"),
        JobPreempted(job_id="alpha", phase="refinement", groups_remaining=2),
        JobPreempted(job_id="beta", phase="refinement", groups_remaining=1),
        JobProgress(
            job_id="alpha",
            iteration=1,
            best_distance=4.5,
            expression="cwnd + mss",
            handlers_scored=40,
        ),
        JobCompleted(
            job_id="alpha",
            best_distance=4.25,
            expression="cwnd + mss",
            iterations=2,
            handlers_scored=80,
            waves=6,
        ),
        JobFailed(job_id="beta", error="ValueError: bad trace"),
    ]


def test_fleet_rollup_aggregates_job_events():
    from repro.reporting import fleet_rollup

    rollup = fleet_rollup(_fleet_events())
    assert rollup["submitted"] == 2
    assert rollup["completed"] == 1
    assert rollup["failed"] == 1
    assert rollup["resumed"] == 1
    assert rollup["preemptions"] == 2
    assert rollup["leases_stolen"] == 1
    alpha = rollup["jobs"]["alpha"]
    assert alpha["priority"] == 5
    assert alpha["state"] == "completed"
    assert alpha["resumed"] is True
    assert alpha["best_distance"] == 4.25
    assert alpha["expression"] == "cwnd + mss"
    assert alpha["waves"] == 6
    beta = rollup["jobs"]["beta"]
    assert beta["state"] == "failed"
    assert beta["error"] == "ValueError: bad trace"


def test_fleet_rollup_none_without_job_events():
    from repro.reporting import fleet_rollup
    from repro.runtime.events import PoolSpawned

    assert fleet_rollup([]) is None
    assert fleet_rollup([PoolSpawned(workers=2)]) is None


def test_run_summary_renders_fleet_section():
    text = format_run_summary(_fleet_events())
    assert "fleet:  2 job(s) submitted" in text
    assert "1 completed" in text
    assert "1 failed" in text
    assert "1 resumed" in text
    assert "2 preemption(s)" in text
    assert "1 lease(s) stolen" in text
    assert "fleet jobs" in text
    lines = text.splitlines()
    alpha_row = next(line for line in lines if line.startswith("alpha"))
    assert "completed" in alpha_row and "4.250" in alpha_row
    beta_row = next(line for line in lines if line.startswith("beta"))
    assert "failed" in beta_row and "-" in beta_row


def test_run_summary_silent_without_fleet_events():
    from repro.runtime.events import PoolSpawned

    text = format_run_summary([PoolSpawned(workers=2)])
    assert "fleet" not in text


def _resilience_events():
    from repro.runtime.events import (
        HeartbeatMissed,
        JobCompleted,
        JobQuarantined,
        JobRetried,
        JobStarted,
        JobSubmitted,
        JobTakenOver,
        ServerDrained,
        ServerStarted,
    )

    return [
        ServerStarted(server="s1", spool="/spool", workers=1),
        ServerStarted(server="s2", spool="/spool", workers=1),
        JobSubmitted(job_id="alpha", priority=0),
        JobSubmitted(job_id="poison", priority=0),
        JobStarted(job_id="alpha", resumed=False),
        JobStarted(job_id="poison", resumed=False),
        HeartbeatMissed(
            job_id="alpha", owner="s1", age_seconds=3.2, ttl_seconds=1.0
        ),
        JobTakenOver(
            job_id="alpha", server="s2", previous_owner="s1", attempts=2
        ),
        JobRetried(
            job_id="alpha",
            server="s2",
            attempts=2,
            crashes=1,
            backoff_seconds=0.0,
        ),
        JobCompleted(
            job_id="alpha",
            best_distance=1.5,
            expression="cwnd + mss",
            iterations=2,
            handlers_scored=40,
            waves=4,
        ),
        JobQuarantined(
            job_id="poison",
            server="s2",
            attempts=3,
            crashes=3,
            reason="retry-budget-exhausted",
            detail="job killed its server 3 time(s)",
        ),
        ServerDrained(server="s2", jobs_released=0, slices_dispatched=9),
    ]


def test_fleet_rollup_aggregates_resilience_events():
    from repro.reporting import fleet_rollup

    rollup = fleet_rollup(_resilience_events())
    assert rollup["heartbeats_missed"] == 1
    assert rollup["takeovers"] == 1
    assert rollup["retries"] == 1
    assert rollup["quarantined"] == 1
    assert rollup["drained"] == 1
    alpha = rollup["jobs"]["alpha"]
    assert alpha["takeovers"] == 1
    assert alpha["retries"] == 1
    assert alpha["crashes"] == 1
    assert alpha["state"] == "completed"
    poison = rollup["jobs"]["poison"]
    assert poison["state"] == "quarantined"
    assert poison["crashes"] == 3
    assert poison["error"].startswith("retry-budget-exhausted:")
    servers = rollup["servers"]
    assert servers["s1"]["state"] == "dead"
    assert servers["s1"]["heartbeats_missed"] == 1
    assert servers["s2"]["state"] == "drained"
    assert servers["s2"]["jobs_taken_over"] == 1


def test_server_started_alone_yields_a_rollup():
    from repro.reporting import fleet_rollup
    from repro.runtime.events import ServerStarted

    rollup = fleet_rollup([ServerStarted(server="s1", spool="/s", workers=1)])
    assert rollup is not None
    assert rollup["servers"]["s1"]["state"] == "serving"


def test_run_summary_renders_resilience_section():
    text = format_run_summary(_resilience_events())
    assert "1 heartbeat(s) missed" in text
    assert "1 takeover(s)" in text
    assert "1 retry(ies)" in text
    assert "1 quarantined" in text
    assert "1 server(s) drained" in text
    assert "fleet servers" in text
    lines = text.splitlines()
    s1_row = next(line for line in lines if line.startswith("s1"))
    assert "dead" in s1_row
    s2_row = next(line for line in lines if line.startswith("s2"))
    assert "drained" in s2_row
