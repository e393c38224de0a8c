"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``collect``     simulate a named CCA over the environment matrix and
                archive the traces as JSON (plus optional CSV export).
``classify``    run a classifier on archived traces (or on a named CCA
                probed live) and print the verdict.
``synthesize``  reverse-engineer archived traces (or a named CCA) and
                print the recovered handler with search telemetry.
``race``        run two or more CCAs in competition over one bottleneck
                and report goodput shares and Jain's fairness index.
``stats``       summarize archived traces (goodput, RTT percentiles,
                loss rate, window statistics).
``validate``    run the trace triage report over archived traces:
                per-class defect counts, repair outcomes, quality
                scores; exit code 1 when any trace is refused under
                the chosen policy (collection-campaign QA).
``submit``      enqueue a reverse-engineering job spec into a spool
                directory (see ``serve``).
``serve``       run a claim-loop fleet server over a spool: claims
                queued jobs via heartbeat leases, takes over jobs from
                dead peers, retries crash-looping jobs under a budget
                and quarantines the rest (synthesis-as-a-service; any
                number of serve daemons may share one spool — see
                ``docs/SERVICE.md``).
``fleet-status``read-only view of a spool: per-job state machine,
                retry counts, lease holders, per-server health.
``zoo``         list every registered CCA.

Examples
--------
::

    python -m repro collect --cca reno --out reno.json
    python -m repro classify --traces reno.json
    python -m repro synthesize --traces reno.json --max-nodes 5
    python -m repro synthesize --cca vegas --time-budget 120
    python -m repro synthesize --traces reno.json --workers 4 \\
        --progress --run-log run.jsonl --report json
    python -m repro validate field_captures/*.json --policy strict
    python -m repro submit --spool /tmp/fleet --job-id reno --cca reno
    python -m repro serve --spool /tmp/fleet --workers 4 --progress
    python -m repro race --cca bbr reno
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cca.registry import ALL_CCAS, cca_names
from repro.dsl.families import FAMILIES, family, with_budget
from repro.netsim.environments import Environment
from repro.pipeline import reverse_engineer
from repro.reporting import format_run_summary
from repro.runtime import (
    CollectorSink,
    ConsoleProgressSink,
    IterationFinished,
    JsonlSink,
    RunContext,
    ScoringStats,
)
from repro.synth.refinement import SynthesisConfig
from repro.synth.scoring import QuorumConfig
from repro.trace.collect import CollectionConfig, collect_traces
from repro.trace.io import export_csv, load_trace_file, load_traces, save_traces
from repro.trace.model import Trace
from repro.trace.noise import NoiseModel
from repro.trace.triage import TriagePolicy, triage_trace

__all__ = ["main", "build_parser"]


def _collection_from_args(args: argparse.Namespace) -> CollectionConfig:
    environments = tuple(
        Environment(bandwidth_mbps=bw, rtt_ms=rtt)
        for bw in args.bandwidth
        for rtt in args.rtt
    )
    noise = NoiseModel(
        jitter_std=args.jitter,
        dropout=args.dropout,
        cwnd_error=args.cwnd_error,
        seed=args.seed,
    )
    return CollectionConfig(
        duration=args.duration, environments=environments, noise=noise
    )


def _add_collection_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bandwidth",
        type=float,
        nargs="+",
        default=[5.0, 10.0, 15.0],
        help="bottleneck bandwidths, Mbps (default: 5 10 15)",
    )
    parser.add_argument(
        "--rtt",
        type=float,
        nargs="+",
        default=[25.0, 50.0, 80.0],
        help="base RTTs, ms (default: 25 50 80)",
    )
    parser.add_argument(
        "--duration", type=float, default=15.0, help="seconds per trace"
    )
    parser.add_argument("--jitter", type=float, default=0.0)
    parser.add_argument("--dropout", type=float, default=0.0)
    parser.add_argument("--cwnd-error", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)


def _load_or_collect(args: argparse.Namespace) -> list[Trace]:
    if getattr(args, "traces", None):
        return load_traces(args.traces)
    if getattr(args, "cca", None):
        return collect_traces(args.cca, _collection_from_args(args))
    raise SystemExit("error: provide --traces FILE or --cca NAME")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Abagnale: reverse-engineer CCA behavior from traces",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    collect = commands.add_parser("collect", help="simulate and archive traces")
    collect.add_argument("--cca", required=True, choices=sorted(ALL_CCAS))
    collect.add_argument("--out", required=True, help="output JSON path")
    collect.add_argument("--csv", help="also export the first trace as CSV")
    _add_collection_args(collect)

    classify = commands.add_parser("classify", help="classify traces")
    classify.add_argument("--traces", help="JSON archive from 'collect'")
    classify.add_argument("--cca", choices=sorted(ALL_CCAS))
    classify.add_argument(
        "--classifier", choices=("gordon", "ccanalyzer"), default="gordon"
    )
    _add_collection_args(classify)

    synthesize = commands.add_parser(
        "synthesize", help="reverse-engineer a handler expression"
    )
    synthesize.add_argument("--traces", help="JSON archive from 'collect'")
    synthesize.add_argument("--cca", choices=sorted(ALL_CCAS))
    synthesize.add_argument(
        "--classifier", choices=("gordon", "ccanalyzer"), default="gordon"
    )
    synthesize.add_argument(
        "--dsl", choices=sorted(FAMILIES), help="skip the classifier"
    )
    synthesize.add_argument("--max-depth", type=int, default=3)
    synthesize.add_argument("--max-nodes", type=int, default=5)
    synthesize.add_argument("--metric", default="dtw")
    synthesize.add_argument("--samples", type=int, default=8, help="initial N")
    synthesize.add_argument("--keep", type=int, default=5, help="initial k")
    synthesize.add_argument("--iterations", type=int, default=3)
    synthesize.add_argument(
        "--workers",
        type=int,
        default=1,
        help="scoring processes (1 = serial; >1 spawns one pool per run)",
    )
    synthesize.add_argument(
        "--time-budget", type=float, default=None, help="seconds"
    )
    synthesize.add_argument(
        "--progress",
        action="store_true",
        help="print a progress line per iteration (stderr)",
    )
    synthesize.add_argument(
        "--run-log",
        metavar="PATH",
        help="write the run's telemetry as JSONL events to PATH",
    )
    synthesize.add_argument(
        "--report",
        choices=("text", "json"),
        default="text",
        help="result format: human-readable summary or a JSON document",
    )
    synthesize.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="write atomic JSONL refinement checkpoints to PATH at "
        "iteration boundaries",
    )
    synthesize.add_argument(
        "--resume",
        metavar="PATH",
        help="resume a killed run from its checkpoint file "
        "(may equal --checkpoint to continue appending)",
    )
    synthesize.add_argument(
        "--max-pool-rebuilds",
        type=int,
        default=3,
        help="consecutive pool failures tolerated before degrading to "
        "serial scoring (default: 3)",
    )
    synthesize.add_argument(
        "--watchdog",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-sketch scoring watchdog: candidates exceeding this "
        "are quarantined with a worst-case score (default: off)",
    )
    synthesize.add_argument(
        "--trace-policy",
        choices=("off", "strict", "repair", "permissive"),
        default="repair",
        help="input triage policy for loaded traces: validate invariants "
        "and repair/refuse hostile records before synthesis "
        "(default: repair; 'off' trusts the input verbatim — "
        "bit-identical for clean traces)",
    )
    synthesize.add_argument(
        "--min-quorum",
        type=int,
        default=2,
        metavar="K",
        help="quorum guard: never score fewer than K usable segments "
        "when excluding low-quality inputs (default: 2)",
    )
    _add_collection_args(synthesize)

    validate = commands.add_parser(
        "validate",
        help="triage trace archives: defect report, repairs, quality",
    )
    validate.add_argument(
        "traces",
        nargs="+",
        metavar="TRACE.json",
        help="trace files (single-trace or bundle archives)",
    )
    validate.add_argument(
        "--policy",
        choices=("strict", "repair", "permissive"),
        default="repair",
        help="admission policy applied to each trace (default: repair)",
    )
    validate.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON report document instead of text",
    )

    submit = commands.add_parser(
        "submit", help="enqueue a reverse-engineering job into a spool"
    )
    submit.add_argument(
        "--spool", required=True, help="spool directory (created on demand)"
    )
    submit.add_argument(
        "--job-id", required=True, help="unique job name within the spool"
    )
    submit.add_argument("--traces", help="JSON archive from 'collect'")
    submit.add_argument("--cca", choices=sorted(ALL_CCAS))
    submit.add_argument(
        "--classifier", choices=("gordon", "ccanalyzer"), default="gordon"
    )
    submit.add_argument(
        "--dsl", choices=sorted(FAMILIES), help="skip the classifier"
    )
    submit.add_argument("--max-depth", type=int, default=3)
    submit.add_argument("--max-nodes", type=int, default=5)
    submit.add_argument("--metric", default="dtw")
    submit.add_argument("--samples", type=int, default=8, help="initial N")
    submit.add_argument("--keep", type=int, default=5, help="initial k")
    submit.add_argument("--iterations", type=int, default=3)
    submit.add_argument(
        "--time-budget", type=float, default=None, help="seconds"
    )
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="admission priority (higher runs first; default: 0)",
    )
    submit.add_argument(
        "--trace-policy",
        choices=("off", "strict", "repair", "permissive"),
        default="repair",
        help="input triage policy applied when the job starts",
    )
    submit.add_argument(
        "--duration",
        type=float,
        default=None,
        help="seconds per collected trace (--cca jobs only)",
    )
    submit.add_argument(
        "--bandwidth",
        type=float,
        nargs="+",
        default=None,
        help="bottleneck bandwidths, Mbps (--cca jobs only)",
    )
    submit.add_argument(
        "--rtt",
        type=float,
        nargs="+",
        default=None,
        help="base RTTs, ms (--cca jobs only)",
    )

    serve = commands.add_parser(
        "serve",
        help="run every queued spool job through one shared scheduler",
    )
    serve.add_argument(
        "--spool", required=True, help="spool directory (see 'submit')"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="scoring processes shared by the whole fleet (1 = serial)",
    )
    serve.add_argument(
        "--quantum",
        type=int,
        default=64,
        metavar="TASKS",
        help="preemption quantum: flattened scoring tasks one job may "
        "dispatch before its peers get a turn (default: 64)",
    )
    serve.add_argument(
        "--steal-leases",
        action="store_true",
        help="take over jobs whose lease is still fresh but whose owner "
        "has not renewed it since this server started (use after killing "
        "a previous serve on the same spool)",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="job-lease TTL; an expired lease may be taken "
        "without --steal-leases (default: 30)",
    )
    serve.add_argument(
        "--progress",
        action="store_true",
        help="print a progress line per event (stderr)",
    )
    serve.add_argument(
        "--run-log",
        metavar="PATH",
        help="write the fleet's telemetry as JSONL events to PATH",
    )
    serve.add_argument(
        "--report",
        choices=("text", "json"),
        default="text",
        help="fleet summary format",
    )
    serve.add_argument(
        "--server-id",
        default=None,
        metavar="NAME",
        help="stable identity recorded as the owner of claimed jobs "
        "(default: serve-<pid>)",
    )
    serve.add_argument(
        "--claim-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between claim scans of the spool queue "
        "(default: 1)",
    )
    serve.add_argument(
        "--max-job-retries",
        type=int,
        default=3,
        metavar="N",
        help="restarts allowed for a job that keeps killing its server "
        "before it is quarantined (default: 3)",
    )
    serve.add_argument(
        "--retry-backoff",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="base of the exponential backoff applied to crash retries "
        "(default: 2)",
    )
    serve.add_argument(
        "--drain-on-sigterm",
        action="store_true",
        help="on SIGTERM finish the slice in flight, requeue unfinished "
        "jobs, release leases, and exit 0 (graceful drain)",
    )
    serve.add_argument(
        "--exit-after-slices",
        type=int,
        default=None,
        metavar="N",
        help="fault injection: die without cleanup (exit 70) after N "
        "wave slices — exercises lease takeover and resume",
    )
    serve.add_argument(
        "--poison-job",
        action="append",
        default=None,
        metavar="JOB_ID",
        help="fault injection: kill the server (exit 70, no cleanup) "
        "whenever this job reaches --poison-after-slices dispatched "
        "slices; repeatable — exercises retry budgets and quarantine",
    )
    serve.add_argument(
        "--poison-after-slices",
        type=int,
        default=1,
        metavar="N",
        help="slices a --poison-job runs before the injected kill "
        "(default: 1)",
    )

    fleet_status_cmd = commands.add_parser(
        "fleet-status",
        help="inspect a spool without claiming: job states, retries, "
        "lease holders, server health",
    )
    fleet_status_cmd.add_argument(
        "--spool", required=True, help="spool directory (see 'submit')"
    )
    fleet_status_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON status document instead of text",
    )

    race = commands.add_parser(
        "race", help="run CCAs in competition and report fairness"
    )
    race.add_argument(
        "--cca",
        nargs="+",
        required=True,
        choices=sorted(ALL_CCAS),
        help="two or more CCAs to race",
    )
    race.add_argument("--bandwidth-mbps", type=float, default=10.0)
    race.add_argument("--rtt-ms", type=float, default=50.0)
    race.add_argument("--queue-bdp", type=float, default=1.0)
    race.add_argument("--duration", type=float, default=25.0)

    stats = commands.add_parser("stats", help="summarize archived traces")
    stats.add_argument("--traces", required=True, help="JSON archive")

    commands.add_parser("zoo", help="list registered CCAs")
    return parser


def _cmd_collect(args: argparse.Namespace) -> int:
    traces = collect_traces(args.cca, _collection_from_args(args))
    save_traces(traces, args.out)
    total_acks = sum(len(trace) for trace in traces)
    print(f"wrote {len(traces)} traces ({total_acks} acks) to {args.out}")
    if args.csv:
        export_csv(traces[0], args.csv)
        print(f"wrote CSV of {traces[0].environment_label} to {args.csv}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.classify import CcaAnalyzer, GordonClassifier

    traces = _load_or_collect(args)
    tool = GordonClassifier() if args.classifier == "gordon" else CcaAnalyzer()
    verdict = tool.classify(traces)
    print(f"verdict:  {verdict.render()}")
    print(f"closest:  {verdict.closest} (distance {verdict.distance:.3f})")
    if verdict.votes:
        print(f"votes:    {verdict.votes}")
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    traces = _load_or_collect(args)
    config = SynthesisConfig(
        metric=args.metric,
        initial_samples=args.samples,
        initial_keep=args.keep,
        max_iterations=args.iterations,
        workers=args.workers,
        time_budget_seconds=args.time_budget,
        checkpoint_path=args.checkpoint,
        resume_path=args.resume,
        max_pool_rebuilds=args.max_pool_rebuilds,
        watchdog_seconds=args.watchdog,
    )
    dsl = None
    if args.dsl:
        dsl = with_budget(
            family(args.dsl), max_depth=args.max_depth, max_nodes=args.max_nodes
        )
    collector = CollectorSink()
    sinks: list = [collector]
    if args.run_log:
        try:
            open(args.run_log, "w", encoding="utf-8").close()
        except OSError as exc:
            print(f"error: cannot write --run-log: {exc}", file=sys.stderr)
            return 2
        sinks.append(JsonlSink(args.run_log))
    if args.progress:
        sinks.append(ConsoleProgressSink())
    trace_policy = None if args.trace_policy == "off" else args.trace_policy
    with RunContext(sinks) as context:
        report = reverse_engineer(
            traces,
            classifier=args.classifier,
            dsl=dsl,
            config=config,
            max_depth=None if args.dsl else args.max_depth,
            max_nodes=None if args.dsl else args.max_nodes,
            context=context,
            trace_policy=trace_policy,
            quorum=QuorumConfig(min_segments=args.min_quorum),
        )
    if args.report == "json":
        print(json.dumps(_json_report(report, collector, context)))
    else:
        print(report.summary())
        print(format_run_summary(collector.events))
    return 0


def _json_report(report, collector: CollectorSink, context: RunContext) -> dict:
    """The machine-readable synthesis report (``--report json``)."""
    scoring = collector.last_of_kind(ScoringStats.kind)
    return {
        "dsl": report.dsl.name,
        "classifier": report.verdict.render() if report.verdict else None,
        "handler": report.expression,
        "distance": report.distance,
        "segments": report.segment_count,
        "handlers_scored": report.result.total_handlers_scored,
        "sketches_drawn": report.result.total_sketches_drawn,
        "elapsed_seconds": report.result.elapsed_seconds,
        "faults": {
            "quarantined": [
                {"sketch": q.sketch, "reason": q.reason, "detail": q.detail}
                for q in report.result.quarantined
            ],
            "pool_rebuilds": report.result.pool_rebuilds,
            "degraded": report.result.degraded,
        },
        "iterations": [
            {
                "index": event.index,
                "samples_per_bucket": event.samples_per_bucket,
                "segment_count": event.segment_count,
                "buckets": event.bucket_count,
                "kept": event.kept,
                "best_distance": event.best_distance,
            }
            for event in collector.of_kind(IterationFinished.kind)
        ],
        "scoring": (
            {
                "batched_waves": scoring.batched_waves,
                "lb_pruned": scoring.lb_pruned,
                "dp_abandoned": scoring.dp_abandoned,
                "candidates_pruned": scoring.candidates_pruned,
                "warm_start_pruned": scoring.warm_start_pruned,
                "fused_waves": scoring.fused_waves,
                "fused_tasks": scoring.fused_tasks,
                "peak_in_flight": scoring.peak_in_flight,
                "mean_occupancy": scoring.mean_occupancy,
                "batched_dtw_sweeps": scoring.batched_dtw_sweeps,
                "envelope_precompute_ms": scoring.envelope_precompute_ms,
                "shm_bytes": scoring.shm_bytes,
            }
            if scoring is not None
            else None
        ),
        "triage": (
            {
                "accepted": report.triage.accepted,
                "repaired": report.triage.repaired,
                "rejected": report.triage.rejected,
                "min_quality": report.triage.min_quality,
                "traces": [
                    {
                        "trace": r.report.trace_label,
                        "action": r.action,
                        "quality": r.quality,
                        "defects": dict(r.report.counts),
                        "repairs": {
                            a.repair: a.touched for a in r.repairs
                        },
                        "reason": r.reason,
                    }
                    for r in report.triage.results
                ],
                "quorum": (
                    {
                        "kept": len(report.quorum.kept),
                        "excluded": len(report.quorum.excluded),
                        "backfilled": len(report.quorum.backfilled),
                        "degraded": report.quorum.degraded,
                    }
                    if report.quorum is not None
                    else None
                ),
            }
            if report.triage is not None
            else None
        ),
        "phase_seconds": dict(context.phase_seconds),
    }


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.errors import SynthesisError
    from repro.service import submit_job

    if bool(args.traces) == bool(args.cca):
        raise SystemExit("error: provide --traces FILE or --cca NAME")
    config = {
        "metric": args.metric,
        "initial_samples": args.samples,
        "initial_keep": args.keep,
        "max_iterations": args.iterations,
    }
    if args.time_budget is not None:
        config["time_budget_seconds"] = args.time_budget
    collection = {}
    if args.duration is not None:
        collection["duration"] = args.duration
    if args.bandwidth is not None:
        collection["bandwidth"] = args.bandwidth
    if args.rtt is not None:
        collection["rtt"] = args.rtt
    try:
        path = submit_job(
            args.spool,
            args.job_id,
            traces=args.traces,
            cca=args.cca,
            classifier=args.classifier,
            dsl=args.dsl,
            max_depth=args.max_depth,
            max_nodes=args.max_nodes,
            priority=args.priority,
            trace_policy=(
                None if args.trace_policy == "off" else args.trace_policy
            ),
            config=config,
            collection=collection or None,
        )
    except SynthesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"queued {args.job_id}: {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.reporting import fleet_rollup
    from repro.runtime.faults import ServiceFaultPlan
    from repro.service import FleetServer

    collector = CollectorSink()
    sinks: list = [collector]
    if args.run_log:
        try:
            open(args.run_log, "w", encoding="utf-8").close()
        except OSError as exc:
            print(f"error: cannot write --run-log: {exc}", file=sys.stderr)
            return 2
        sinks.append(JsonlSink(args.run_log))
    if args.progress:
        sinks.append(ConsoleProgressSink())
    fault_plan = None
    if args.exit_after_slices is not None or args.poison_job:
        fault_plan = ServiceFaultPlan.make(
            kill_after_slices=args.exit_after_slices,
            poison_jobs=args.poison_job or (),
            poison_after_slices=args.poison_after_slices,
        )
    with RunContext(sinks) as context:
        server = FleetServer(
            args.spool,
            server_id=args.server_id,
            workers=args.workers,
            quantum_tasks=args.quantum,
            steal_leases=args.steal_leases,
            lease_ttl_seconds=args.lease_ttl,
            claim_interval_seconds=args.claim_interval,
            max_job_retries=args.max_job_retries,
            retry_backoff_seconds=args.retry_backoff,
            context=context,
            fault_plan=fault_plan,
        )
        if args.drain_on_sigterm:
            signal.signal(
                signal.SIGTERM, lambda *_: server.request_drain()
            )
        snapshots = server.run()
    failed = sum(
        1
        for snap in snapshots.values()
        if snap.get("state") in ("failed", "quarantined")
    )
    if args.report == "json":
        print(
            json.dumps(
                {
                    "jobs": snapshots,
                    "fleet": fleet_rollup(collector.events),
                    "phase_seconds": dict(context.phase_seconds),
                }
            )
        )
    else:
        for job_id, snap in sorted(snapshots.items()):
            state = snap.get("state", "?")
            if state == "completed":
                distance = snap.get("best_distance")
                rendered = "-" if distance is None else f"{distance:.3f}"
                print(
                    f"{job_id}: {state} "
                    f"(distance {rendered}) {snap.get('best_expression')}"
                )
            else:
                print(f"{job_id}: {state} ({snap.get('error') or 'pending'})")
        print(format_run_summary(collector.events))
    return 1 if failed else 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    from repro.service import fleet_status

    status = fleet_status(args.spool)
    if args.json:
        print(json.dumps(status))
        return 0
    states = status["states"]
    total = sum(states.values())
    summary = ", ".join(
        f"{states[state]} {state}" for state in sorted(states)
    )
    print(
        f"spool {status['spool']}: {total} job(s)"
        + (f" ({summary})" if summary else "")
    )
    for job_id, info in sorted(status["jobs"].items()):
        lease = info["lease"]
        held = "-"
        if lease is not None:
            mark = "expired" if lease["expired"] else "live"
            held = (
                f"{lease['owner']} ({mark}, "
                f"hb {lease['age_seconds']:.1f}s ago)"
            )
        distance = info["best_distance"]
        rendered = "-" if distance is None else f"{distance:.3f}"
        print(
            f"  {job_id}: {info['state']} attempts={info['attempts']} "
            f"crashes={info['crashes']} distance={rendered} lease={held}"
        )
        failure = info["last_failure"]
        if failure:
            print(
                f"    last failure: {failure.get('reason')}: "
                f"{failure.get('detail')}"
            )
    for server, info in sorted(status["servers"].items()):
        mark = "live" if info["live"] else "dead"
        print(
            f"  server {server}: {mark}, {len(info['jobs'])} job(s): "
            f"{', '.join(info['jobs'])}"
        )
    return 0


def _cmd_race(args: argparse.Namespace) -> int:
    from repro.cca.registry import make_cca
    from repro.netsim.multiflow import fairness_report, simulate_competition

    env = Environment(
        bandwidth_mbps=args.bandwidth_mbps,
        rtt_ms=args.rtt_ms,
        queue_bdp=args.queue_bdp,
    )
    traces = simulate_competition(
        [make_cca(name) for name in args.cca], env, duration=args.duration
    )
    window = (args.duration / 2.0, args.duration)
    report = fairness_report(traces, window=window)
    print(f"racing {', '.join(args.cca)} over {env.label} "
          f"({env.queue_capacity_bytes} B buffer)")
    for key, value in report.items():
        if key.startswith("share_"):
            print(f"  {key}: {value:.1%}")
    print(f"  jain_index: {report['jain_index']:.3f}")
    print(f"  aggregate:  {report['total_rate'] * 8 / 1e6:.2f} Mbps")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.trace.stats import summarize

    for trace in load_traces(args.traces):
        stats = summarize(trace)
        print(f"{trace.cca_name} @ {trace.environment_label}:")
        print(
            f"  goodput {stats.goodput_bps / 1e6:.2f} Mbps over "
            f"{stats.duration:.1f}s ({stats.delivered_bytes} B)"
        )
        print(
            f"  rtt min/p50/p95 {stats.rtt_min * 1e3:.1f}/"
            f"{stats.rtt_p50 * 1e3:.1f}/{stats.rtt_p95 * 1e3:.1f} ms "
            f"(inflation x{stats.rtt_inflation():.2f})"
        )
        print(
            f"  losses {stats.loss_events} "
            f"({stats.loss_rate_per_sec:.2f}/s), window mean "
            f"{stats.cwnd_mean:.0f} B [{stats.cwnd_p10:.0f}"
            f"..{stats.cwnd_p90:.0f}]"
        )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Triage report over trace archives; exit 1 on any refusal.

    Load failures (truncated JSON, schema drift, malformed records)
    are reported as ``unloadable`` entries rather than crashing, so a
    collection campaign can sweep a whole capture directory in one run.
    """
    from repro.errors import TraceError

    policy = TriagePolicy(mode=args.policy)
    failures = 0
    documents = []
    for path in args.traces:
        try:
            traces = load_trace_file(path)
        except (TraceError, OSError) as exc:
            failures += 1
            documents.append(
                {
                    "path": path,
                    "action": "unloadable",
                    "error": str(exc),
                }
            )
            if not args.json:
                print(f"{path}: REFUSED (unloadable)\n  {exc}")
            continue
        for position, trace in enumerate(traces):
            result = triage_trace(trace, policy)
            label = (
                f"{path}[{position}]" if len(traces) > 1 else path
            )
            entry = {
                "path": label,
                "trace": result.report.trace_label,
                "action": result.action,
                "quality": round(result.quality, 4),
                "defects": dict(result.report.counts),
                "repairs": {a.repair: a.touched for a in result.repairs},
            }
            if result.reason:
                entry["reason"] = result.reason
            documents.append(entry)
            if result.action == "rejected":
                failures += 1
            if args.json:
                continue
            if result.action == "clean":
                print(f"{label}: OK ({result.report.trace_label} clean)")
            elif result.action == "repaired":
                repairs = ", ".join(
                    f"{a.repair} x{a.touched}" for a in result.repairs
                )
                print(
                    f"{label}: REPAIRED quality={result.quality:.2f} "
                    f"({repairs})"
                )
                for code in sorted(result.report.counts):
                    print(
                        f"  {code} x{result.report.counts[code]}"
                    )
            else:
                print(f"{label}: REFUSED ({result.reason})")
                for code in sorted(result.report.counts):
                    print(f"  {code} x{result.report.counts[code]}")
    if args.json:
        print(
            json.dumps(
                {
                    "policy": args.policy,
                    "failures": failures,
                    "reports": documents,
                }
            )
        )
    else:
        total = len(documents)
        print(
            f"validated {total} trace document(s) under "
            f"{args.policy!r}: {failures} refused"
        )
    return 1 if failures else 0


def _cmd_zoo(_: argparse.Namespace) -> int:
    for name in cca_names():
        cls = ALL_CCAS[name]
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{name:10s} {doc}")
    return 0


_COMMANDS = {
    "collect": _cmd_collect,
    "classify": _cmd_classify,
    "synthesize": _cmd_synthesize,
    "submit": _cmd_submit,
    "serve": _cmd_serve,
    "fleet-status": _cmd_fleet_status,
    "race": _cmd_race,
    "stats": _cmd_stats,
    "validate": _cmd_validate,
    "zoo": _cmd_zoo,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
