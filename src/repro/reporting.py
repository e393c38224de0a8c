"""Plain-text rendering of tables and series for benchmark output.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that output aligned and readable in a
terminal.  :func:`format_run_summary`
renders the telemetry a :class:`~repro.runtime.sinks.CollectorSink`
gathered over one synthesis run as the post-run summary table the CLI
prints.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.runtime.events import (
    CacheStats,
    DegradedInputs,
    DegradedToSerial,
    Event,
    HeartbeatMissed,
    IterationFinished,
    JobCompleted,
    JobFailed,
    JobPreempted,
    JobProgress,
    JobQuarantined,
    JobRetried,
    JobStarted,
    JobSubmitted,
    JobTakenOver,
    LeaseStolen,
    PoolRebuilt,
    PoolSpawned,
    RunFinished,
    ScoringStats,
    SegmentsPrimed,
    ServerDrained,
    ServerStarted,
    SketchQuarantined,
    TraceRepairApplied,
    TraceTriaged,
    WorkerCrashed,
)

__all__ = [
    "format_table",
    "sparkline",
    "format_series",
    "format_run_summary",
    "fleet_rollup",
]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[column]), *(len(row[column]) for row in cells))
        if cells
        else len(headers[column])
        for column in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(
        header.ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for row in cells:
        lines.append(
            " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def sparkline(values: Sequence[float], *, width: int = 60) -> str:
    """A one-line unicode sparkline of *values* (resampled to *width*)."""
    if not len(values):
        return ""
    data = list(values)
    if len(data) > width:
        step = len(data) / width
        data = [data[int(index * step)] for index in range(width)]
    lo = min(data)
    hi = max(data)
    span = hi - lo or 1.0
    return "".join(
        _SPARK_CHARS[int((value - lo) / span * (len(_SPARK_CHARS) - 1))]
        for value in data
    )


def format_series(
    label: str, values: Sequence[float], *, width: int = 60
) -> str:
    """A labelled sparkline with min/max annotations."""
    if not len(values):
        return f"{label}: (empty)"
    return (
        f"{label:24s} {sparkline(values, width=width)} "
        f"[{min(values):.0f}..{max(values):.0f}]"
    )


def _format_bytes(count: int) -> str:
    """``4096 -> '4.0 KiB'``; keeps the summary readable at any scale."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024.0
    return f"{int(size)} B"  # pragma: no cover - unreachable


def fleet_rollup(events: Iterable[Event]) -> dict | None:
    """Aggregate the scheduler's ``job_*``/``lease_stolen`` events.

    Returns ``None`` when the stream holds no fleet telemetry (a plain
    single-run search), otherwise fleet-wide counters plus a per-job
    breakdown keyed by job id — the JSON half of the ``repro serve``
    summary.
    """
    per_job: dict[str, dict] = {}
    servers: dict[str, dict] = {}
    totals = {
        "submitted": 0,
        "completed": 0,
        "failed": 0,
        "resumed": 0,
        "preemptions": 0,
        "leases_stolen": 0,
        "heartbeats_missed": 0,
        "takeovers": 0,
        "retries": 0,
        "quarantined": 0,
        "drained": 0,
    }

    def job(job_id: str) -> dict:
        return per_job.setdefault(
            job_id,
            {
                "priority": 0,
                "state": "pending",
                "resumed": False,
                "preemptions": 0,
                "iterations": 0,
                "handlers_scored": 0,
                "waves": 0,
                "best_distance": None,
                "expression": None,
                "leases_stolen": 0,
                "takeovers": 0,
                "retries": 0,
                "crashes": 0,
                "error": None,
            },
        )

    def server(name: str) -> dict:
        return servers.setdefault(
            name,
            {
                "state": "serving",
                "jobs_taken_over": 0,
                "jobs_released": 0,
                "heartbeats_missed": 0,
            },
        )

    for event in events:
        if isinstance(event, JobSubmitted):
            totals["submitted"] += 1
            job(event.job_id)["priority"] = event.priority
        elif isinstance(event, JobStarted):
            entry = job(event.job_id)
            entry["state"] = "running"
            entry["resumed"] = event.resumed
            totals["resumed"] += int(event.resumed)
        elif isinstance(event, JobPreempted):
            totals["preemptions"] += 1
            job(event.job_id)["preemptions"] += 1
        elif isinstance(event, JobProgress):
            entry = job(event.job_id)
            entry["iterations"] = event.iteration
            entry["handlers_scored"] = event.handlers_scored
            entry["best_distance"] = event.best_distance
            entry["expression"] = event.expression
        elif isinstance(event, JobCompleted):
            totals["completed"] += 1
            entry = job(event.job_id)
            entry["state"] = "completed"
            entry["iterations"] = event.iterations
            entry["handlers_scored"] = event.handlers_scored
            entry["waves"] = event.waves
            entry["best_distance"] = event.best_distance
            entry["expression"] = event.expression
        elif isinstance(event, JobFailed):
            totals["failed"] += 1
            entry = job(event.job_id)
            entry["state"] = "failed"
            entry["error"] = event.error
        elif isinstance(event, LeaseStolen):
            totals["leases_stolen"] += 1
            job(event.job_id)["leases_stolen"] += 1
        elif isinstance(event, ServerStarted):
            server(event.server)
        elif isinstance(event, HeartbeatMissed):
            totals["heartbeats_missed"] += 1
            server(event.owner)["state"] = "dead"
            server(event.owner)["heartbeats_missed"] += 1
        elif isinstance(event, JobTakenOver):
            totals["takeovers"] += 1
            job(event.job_id)["takeovers"] += 1
            server(event.server)["jobs_taken_over"] += 1
            # The previous owner demonstrably stopped serving this job.
            previous = server(event.previous_owner)
            if previous["state"] == "serving":
                previous["state"] = "displaced"
        elif isinstance(event, JobRetried):
            totals["retries"] += 1
            entry = job(event.job_id)
            entry["retries"] += 1
            entry["crashes"] = event.crashes
        elif isinstance(event, JobQuarantined):
            totals["quarantined"] += 1
            entry = job(event.job_id)
            entry["state"] = "quarantined"
            entry["crashes"] = event.crashes
            entry["error"] = f"{event.reason}: {event.detail}"
        elif isinstance(event, ServerDrained):
            totals["drained"] += 1
            entry = server(event.server)
            entry["state"] = "drained"
            entry["jobs_released"] += event.jobs_released
    if not per_job and not servers:
        return None
    rollup = {**totals, "jobs": per_job}
    if servers:
        rollup["servers"] = servers
    return rollup


def format_run_summary(events: Iterable[Event]) -> str:
    """Render one run's event stream as a terminal summary.

    Shows the per-iteration schedule (samples, working set, surviving
    buckets, best distance), then one line each for the execution
    substrate (pools spawned, segment primes), the score cache, and the
    per-phase wall-clock split — everything a multi-minute search used
    to keep to itself.
    """
    events = list(events)
    iterations = [e for e in events if isinstance(e, IterationFinished)]
    lines: list[str] = []
    fleet = fleet_rollup(events)
    if fleet is not None:
        parts = [f"{fleet['submitted']} job(s) submitted"]
        if fleet["completed"]:
            parts.append(f"{fleet['completed']} completed")
        if fleet["failed"]:
            parts.append(f"{fleet['failed']} failed")
        if fleet["resumed"]:
            parts.append(f"{fleet['resumed']} resumed")
        parts.append(f"{fleet['preemptions']} preemption(s)")
        if fleet["leases_stolen"]:
            parts.append(f"{fleet['leases_stolen']} lease(s) stolen")
        if fleet["heartbeats_missed"]:
            parts.append(
                f"{fleet['heartbeats_missed']} heartbeat(s) missed"
            )
        if fleet["takeovers"]:
            parts.append(f"{fleet['takeovers']} takeover(s)")
        if fleet["retries"]:
            parts.append(f"{fleet['retries']} retry(ies)")
        if fleet["quarantined"]:
            parts.append(f"{fleet['quarantined']} quarantined")
        if fleet["drained"]:
            parts.append(f"{fleet['drained']} server(s) drained")
        lines.append(f"fleet:  {', '.join(parts)}")
        if fleet.get("servers"):
            lines.append(
                format_table(
                    ("server", "state", "taken_over", "released",
                     "hb_missed"),
                    [
                        (
                            name,
                            entry["state"],
                            entry["jobs_taken_over"],
                            entry["jobs_released"],
                            entry["heartbeats_missed"],
                        )
                        for name, entry in sorted(fleet["servers"].items())
                    ],
                    title="fleet servers",
                )
            )
        lines.append(
            format_table(
                ("job", "prio", "state", "resumed", "iters", "handlers",
                 "preempt", "best"),
                [
                    (
                        job_id,
                        entry["priority"],
                        entry["state"],
                        "yes" if entry["resumed"] else "no",
                        entry["iterations"],
                        entry["handlers_scored"],
                        entry["preemptions"],
                        "-"
                        if entry["best_distance"] is None
                        else f"{entry['best_distance']:.3f}",
                    )
                    for job_id, entry in sorted(fleet["jobs"].items())
                ],
                title="fleet jobs",
            )
        )
    triaged = [e for e in events if isinstance(e, TraceTriaged)]
    repairs = [e for e in events if isinstance(e, TraceRepairApplied)]
    if triaged:
        clean = sum(1 for e in triaged if e.action == "clean")
        repaired = sum(1 for e in triaged if e.action == "repaired")
        rejected = sum(1 for e in triaged if e.action == "rejected")
        parts = [f"{clean} clean"]
        if repaired:
            parts.append(f"{repaired} repaired")
        if rejected:
            parts.append(f"{rejected} rejected")
        lines.append(
            f"triage: {len(triaged)} trace(s) — {', '.join(parts)}, "
            f"{sum(e.touched for e in repairs)} record(s) touched"
        )
        problems = [e for e in triaged if e.action != "clean"]
        if problems:
            lines.append(
                format_table(
                    ("trace", "action", "quality", "defects"),
                    [
                        (
                            e.trace,
                            e.action,
                            f"{e.quality:.2f}",
                            ", ".join(
                                f"{code} x{count}"
                                for code, count in sorted(e.defects.items())
                            ),
                        )
                        for e in problems
                    ],
                    title="triaged traces",
                )
            )
    degraded_inputs = [e for e in events if isinstance(e, DegradedInputs)]
    if degraded_inputs:
        final_quorum = degraded_inputs[-1]
        lines.append(
            f"quorum: {final_quorum.usable}/{final_quorum.total_segments} "
            f"segment(s) usable, {final_quorum.excluded} excluded, "
            f"{final_quorum.backfilled} backfilled to hold the "
            f"{final_quorum.min_quorum}-segment quorum"
        )
    if iterations:
        rows = [
            (
                record.index,
                record.samples_per_bucket,
                record.segment_count,
                record.bucket_count,
                record.kept,
                f"{record.best_distance:.3f}",
                record.handlers_scored,
            )
            for record in iterations
        ]
        lines.append(
            format_table(
                ("iter", "N/bucket", "segments", "buckets", "kept",
                 "best", "handlers"),
                rows,
                title="run summary",
            )
        )
    pools = [e for e in events if isinstance(e, PoolSpawned)]
    primes = [e for e in events if isinstance(e, SegmentsPrimed)]
    if pools:
        lines.append(
            f"pools:  {len(pools)} spawned "
            f"({pools[0].workers} workers), "
            f"{len(primes)} segment prime(s)"
        )
    crashes = [e for e in events if isinstance(e, WorkerCrashed)]
    rebuilds = [e for e in events if isinstance(e, PoolRebuilt)]
    degraded = [e for e in events if isinstance(e, DegradedToSerial)]
    quarantines = [e for e in events if isinstance(e, SketchQuarantined)]
    if crashes or rebuilds or degraded or quarantines:
        parts = [
            f"{len(crashes)} worker crash(es)",
            f"{len(rebuilds)} pool rebuild(s)",
            f"{len(quarantines)} sketch(es) quarantined",
        ]
        if degraded:
            parts.append(f"degraded to serial ({degraded[-1].reason})")
        lines.append(f"faults: {', '.join(parts)}")
    if quarantines:
        lines.append(
            format_table(
                ("sketch", "reason", "detail"),
                [(q.sketch, q.reason, q.detail) for q in quarantines],
                title="quarantined sketches",
            )
        )
    caches = [e for e in events if isinstance(e, CacheStats)]
    if caches:
        final = caches[-1]
        lines.append(
            f"cache:  {final.hits} hits / {final.lookups} lookups "
            f"({final.hit_rate:.0%}), {final.entries} entries"
        )
    scorings = [e for e in events if isinstance(e, ScoringStats)]
    if scorings:
        final_scoring = scorings[-1]
        lines.append(
            f"prunes: {final_scoring.lb_pruned} lb_pruned, "
            f"{final_scoring.dp_abandoned} dp_abandoned, "
            f"{final_scoring.candidates_pruned} candidates dropped over "
            f"{final_scoring.batched_waves} batched_waves"
        )
        if final_scoring.fused_waves:
            lines.append(
                f"waves:  {final_scoring.fused_waves} fused wave(s) carrying "
                f"{final_scoring.fused_tasks} task(s), "
                f"peak {final_scoring.peak_in_flight} in flight, "
                f"{final_scoring.mean_occupancy:.0%} mean occupancy, "
                f"{final_scoring.warm_start_pruned} warm-start prune(s)"
            )
        if (
            final_scoring.batched_dtw_sweeps
            or final_scoring.envelope_precompute_ms
        ):
            lines.append(
                f"dtw:    {final_scoring.batched_dtw_sweeps} batched "
                f"sweep(s), envelopes precomputed in "
                f"{final_scoring.envelope_precompute_ms:.1f}ms"
            )
        if final_scoring.shm_bytes:
            lines.append(
                f"plane:  {_format_bytes(final_scoring.shm_bytes)} "
                f"shared-memory segment plane"
            )
    finals = [e for e in events if isinstance(e, RunFinished)]
    if finals and finals[-1].phase_seconds:
        split = ", ".join(
            f"{phase} {seconds:.2f}s"
            for phase, seconds in finals[-1].phase_seconds.items()
        )
        lines.append(f"phases: {split}")
    return "\n".join(lines) if lines else "(no run telemetry collected)"
