"""Abagnale's refinement loop (Algorithm 1, §4.4).

Each iteration samples ``N`` sketches from every surviving bucket, scores
them over the current trace working set, assigns each bucket the minimum
distance any of its sketches achieved, and keeps only the top-``k``
buckets (including ties at the k-th score).  Between iterations the
schedule deepens the search: ``N ← 8N``, ``k ← k/2``, and the working set
grows by two segments.  The loop ends when a single bucket survives (it
is then enumerated exhaustively, within a cap) or every surviving bucket
has already been exhausted; the lowest-distance handler seen anywhere is
returned, so interrupting early still yields the best-so-far.

Execution rides on :mod:`repro.runtime`: one scoring executor per run
(a persistent process pool when ``workers > 1``) and typed telemetry
through a :class:`~repro.runtime.context.RunContext`.  Neither changes
results: any worker count, with or without sinks, ranks bit-identically.

``time_budget_seconds`` is enforced *inside* scoring waves, not just
between iterations: the deadline is passed down to the executor, which
stops dispatching once it trips (while still scoring at least one
sketch per live bucket so a ranking always exists), so a single large
bucket cannot overshoot the budget unboundedly.

Fault tolerance (``docs/RESILIENCE.md``): the executor quarantines
candidates that hang, raise, or crash their worker (worst-case score
instead of a dead run), supervision rebuilds crashed pools and degrades
to serial when they cannot be kept alive, and ``checkpoint_path`` /
``resume_path`` persist the loop's decision log at iteration boundaries
so a killed run resumed from its last checkpoint converges to the same
final ranking as an uninterrupted one.  Resume *replays* the recorded
draw/prune decisions against a fresh bucket pool — the enumeration
stream is deterministic, so no sketch or score needs to be persisted.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.dsl.families import DslSpec
from repro.dsl.parser import parse
from repro.dsl.printer import to_text
from repro.errors import SynthesisError
from repro.runtime.checkpoint import (
    CheckpointWriter,
    RefinementCheckpoint,
    load_checkpoint,
)
from repro.runtime.context import RunContext
from repro.runtime.events import (
    BucketScored,
    BudgetExceeded,
    CheckpointSaved,
    IterationFinished,
    RunFinished,
    RunResumed,
    RunStarted,
    bucket_label,
)
from repro.runtime.executors import make_executor
from repro.runtime.faults import FaultPlan
from repro.runtime.protocol import ProgressReport, WaveReply, WaveRequest
from repro.runtime.supervise import Quarantined, SupervisionPolicy
from repro.synth.pool import BucketPool
from repro.synth.result import IterationRecord, SynthesisResult
from repro.synth.scoring import ScoredHandler, Scorer
from repro.trace.model import TraceSegment
from repro.trace.selection import select_diverse_segments

__all__ = ["SynthesisConfig", "synthesize", "synthesize_core", "drive"]


@dataclass(frozen=True)
class SynthesisConfig:
    """Tunable parameters of the refinement loop.

    Defaults follow the paper's schedule (N=16, k=5, N×8, k/2, +2
    segments per iteration) with laptop-scale caps on completions and
    the final exhaustive pass.  Every iteration scores all live buckets
    as one fused wave; the execution knobs (``workers``, the watchdog)
    change wall clock, never results, and stay out of
    :func:`_run_fingerprint`.
    """

    metric: str = "dtw"
    initial_samples: int = 16
    initial_keep: int = 5
    sample_growth: int = 8
    initial_segments: int = 2
    segment_growth: int = 2
    completion_cap: int = 32
    max_iterations: int = 5
    exhaustive_cap: int = 1500
    workers: int = 1
    seed: int = 0
    #: Scoring cost knobs, forwarded to :class:`~repro.synth.scoring.Scorer`.
    series_budget: int = 128
    max_replay_rows: int = 384
    #: Wall-clock budget; enforced inside scoring waves (best-so-far wins).
    time_budget_seconds: float | None = None
    #: Per-sketch watchdog: a candidate scoring longer than this is
    #: quarantined (worst-case score) instead of wedging the run.
    #: ``None`` disables the watchdog (the bit-identical default).
    watchdog_seconds: float | None = None
    #: Consecutive pool failures tolerated (each one triggers a rebuild
    #: with backoff) before scoring degrades to serial for the rest of
    #: the run.
    max_pool_rebuilds: int = 3
    #: Persist refinement state to this JSONL file at iteration
    #: boundaries (atomic writes; see ``docs/RESILIENCE.md``).
    checkpoint_path: str | None = None
    #: Restore refinement state from this checkpoint file before looping.
    resume_path: str | None = None
    #: Deterministic fault injection (tests only; ``None`` in production).
    fault_plan: FaultPlan | None = None


@dataclass
class _LoopState:
    best: ScoredHandler | None = None
    handlers_scored: int = 0
    sketches_drawn: int = 0
    records: list[IterationRecord] = field(default_factory=list)

    def observe(self, scored: ScoredHandler, completions: int) -> None:
        self.handlers_scored += completions
        if self.best is None or scored.distance < self.best.distance:
            self.best = scored


def _working_set(
    segments: list[TraceSegment], count: int, seed: int
) -> list[TraceSegment]:
    return select_diverse_segments(
        segments, min(count, len(segments)), rng=random.Random(seed)
    )


def _run_fingerprint(
    dsl: DslSpec, config: SynthesisConfig, segment_count: int
) -> dict[str, Any]:
    """Everything a checkpoint must agree on to be resumable.

    Only inputs that shape the search's *decisions* belong here: the
    DSL, the schedule, the scoring knobs, and the trace corpus size.
    Execution knobs (workers, watchdog, budgets) change wall
    clock, never results, so a run checkpointed with 4 workers can be
    resumed with 1 — or vice versa.
    """
    return {
        "dsl": dsl.name,
        "segments": segment_count,
        "metric": config.metric,
        "initial_samples": config.initial_samples,
        "initial_keep": config.initial_keep,
        "sample_growth": config.sample_growth,
        "initial_segments": config.initial_segments,
        "segment_growth": config.segment_growth,
        "completion_cap": config.completion_cap,
        "max_iterations": config.max_iterations,
        "exhaustive_cap": config.exhaustive_cap,
        "seed": config.seed,
        "series_budget": config.series_budget,
        "max_replay_rows": config.max_replay_rows,
    }


def synthesize_core(
    segments: list[TraceSegment],
    dsl: DslSpec,
    config: SynthesisConfig | None = None,
    *,
    context: RunContext | None = None,
):
    """The refinement loop as a re-entrant generator.

    Yields :mod:`repro.runtime.protocol` requests (``WaveRequest`` and
    ``ProgressReport``) and expects the matching replies via ``send()``;
    the final
    :class:`~repro.synth.result.SynthesisResult` is the generator's
    return value.  Driven by :func:`drive` with a private executor this
    is bit-identical to the classic blocking :func:`synthesize`; driven
    by a :class:`~repro.runtime.scheduler.Scheduler` many cores share
    one executor, with waves sliced at bucket granularity (sound: see
    ``WaveRequest``).  Search decisions — draws, rankings, prunes,
    checkpoints — are made entirely in here, so *who* services the waves
    can never change *what* the search concludes.
    """
    if not segments:
        raise SynthesisError("synthesis requires at least one trace segment")
    config = config or SynthesisConfig()
    ctx = context if context is not None else RunContext()
    scorer = Scorer(
        metric_name=config.metric,
        constant_pool=dsl.constant_pool,
        completion_cap=config.completion_cap,
        seed=config.seed,
        series_budget=config.series_budget,
        max_replay_rows=config.max_replay_rows,
    )
    pool = BucketPool(dsl, context=ctx)
    initial_bucket_count = len(pool.buckets)
    state = _LoopState()
    started = time.perf_counter()
    deadline = (
        started + config.time_budget_seconds
        if config.time_budget_seconds is not None
        else None
    )

    ctx.emit(
        RunStarted(
            run="synthesis",
            dsl_name=dsl.name,
            bucket_count=initial_bucket_count,
            segment_count=len(segments),
            workers=config.workers,
        )
    )

    def out_of_time() -> bool:
        return deadline is not None and time.perf_counter() >= deadline

    def note_budget(phase: str) -> None:
        assert config.time_budget_seconds is not None
        ctx.emit(
            BudgetExceeded(
                phase=phase,
                budget_seconds=config.time_budget_seconds,
                elapsed_seconds=time.perf_counter() - started,
            )
        )

    fingerprint = _run_fingerprint(dsl, config, len(segments))
    prior_quarantine: list[Quarantined] = []
    start_iteration = 0
    loop_done = False
    resume_state: RefinementCheckpoint | None = None
    if config.resume_path is not None:
        resume_state = load_checkpoint(config.resume_path)
        if resume_state is None:
            raise SynthesisError(
                f"no usable checkpoint found at {config.resume_path!r}"
            )
        if resume_state.fingerprint != fingerprint:
            changed = sorted(
                key
                for key in fingerprint
                if resume_state.fingerprint.get(key) != fingerprint[key]
            )
            raise SynthesisError(
                "checkpoint does not match this run's configuration"
                f" (differs on: {', '.join(changed) or 'schema'})"
            )
    writer = (
        CheckpointWriter(config.checkpoint_path)
        if config.checkpoint_path is not None
        else None
    )

    # The latest wave reply: the executor's state as of the last wave.
    # Quarantines, rebuilds and counters only ever change inside a wave,
    # so at a checkpoint boundary and at the end of the run it is
    # current; a run that dispatches no wave keeps this empty one.
    last = WaveReply(grouped=())

    def emit_counters() -> None:
        if last.scoring is not None:
            ctx.emit(last.scoring)

    n_samples = config.initial_samples
    keep = config.initial_keep
    segment_count = config.initial_segments

    if resume_state is not None:
        # Replay the checkpointed decision log against a fresh pool:
        # the enumeration stream is deterministic, so drawing the
        # same targets and pruning to the recorded survivors
        # reconstructs the exact state scoring left behind.
        for record in resume_state.records:
            pool.draw(record.samples_per_bucket)
            pool.prune(set(record.kept))
        state.records = list(resume_state.records)
        state.handlers_scored = resume_state.handlers_scored
        state.sketches_drawn = pool.generated
        if resume_state.best_expression is not None:
            state.best = ScoredHandler(
                parse(resume_state.best_expression),
                resume_state.best_distance,
            )
        prior_quarantine = list(resume_state.quarantined)
        n_samples = resume_state.next_samples
        keep = resume_state.next_keep
        segment_count = resume_state.next_segment_count
        start_iteration = len(resume_state.records)
        loop_done = resume_state.loop_done
        ctx.emit(
            RunResumed(
                path=config.resume_path,
                iterations_restored=start_iteration,
            )
        )

    def write_checkpoint(finished: bool) -> None:
        if writer is None:
            return
        writer.write(
            RefinementCheckpoint(
                fingerprint=fingerprint,
                records=tuple(state.records),
                best_expression=(
                    to_text(state.best.handler)
                    if state.best is not None
                    else None
                ),
                best_distance=(
                    state.best.distance
                    if state.best is not None
                    else float("inf")
                ),
                handlers_scored=state.handlers_scored,
                loop_done=finished,
                next_samples=n_samples,
                next_keep=keep,
                next_segment_count=segment_count,
                quarantined=tuple(prior_quarantine) + last.quarantined,
            )
        )
        ctx.emit(
            CheckpointSaved(
                path=writer.path, iteration=len(state.records)
            )
        )

    with ctx.timer("refinement"):
        for iteration in range(start_iteration, config.max_iterations):
            if loop_done:
                break
            working = _working_set(
                segments, segment_count, config.seed + iteration
            )
            # Draw up to the cumulative sample size (one shared
            # enumeration pass feeds all buckets) and score everything
            # each bucket has drawn so far against the current working
            # set (old samples must be re-scored: the working set
            # changed).
            pool.draw(n_samples)
            state.sketches_drawn = pool.generated
            buckets = [bucket for bucket in pool.live if bucket.drawn]
            if not buckets:
                raise SynthesisError(
                    f"DSL {dsl.name!r} produced no sketches within its"
                    " budgets"
                )
            pool_size = len(dsl.constant_pool)

            def note_bucket(bucket, results, iteration=iteration) -> None:
                bucket.score = min(
                    result.distance for result in results
                )
                for sketch, result in zip(bucket.drawn, results):
                    completions = min(
                        sketch.completion_count(pool_size),
                        config.completion_cap,
                    )
                    state.observe(result, completions)
                ctx.emit(
                    BucketScored(
                        iteration=iteration + 1,
                        bucket=bucket_label(bucket.key),
                        score=bucket.score,
                        sketches=len(results),
                    )
                )

            # One pipelined dispatch for the whole iteration: all
            # buckets' samples interleaved round-robin, scattered back
            # positionally (docs/PERFORMANCE.md).
            last = yield WaveRequest(
                scorer=scorer,
                groups=tuple(tuple(bucket.drawn) for bucket in buckets),
                segments=working,
                deadline=deadline,
                min_results=1,
                phase="refinement",
            )
            for bucket, results in zip(buckets, last.grouped):
                note_bucket(bucket, results)
            ranking = sorted(buckets, key=lambda bucket: bucket.score)
            cutoff_index = min(keep, len(ranking)) - 1
            cutoff = ranking[cutoff_index].score
            survivors = [
                bucket for bucket in ranking if bucket.score <= cutoff
            ]
            state.records.append(
                IterationRecord(
                    index=iteration + 1,
                    samples_per_bucket=n_samples,
                    segment_count=len(working),
                    ranking=tuple(
                        (bucket.key, bucket.score) for bucket in ranking
                    ),
                    kept=tuple(bucket.key for bucket in survivors),
                    handlers_scored=state.handlers_scored,
                )
            )
            pool.prune({bucket.key for bucket in survivors})
            emit_counters()
            ctx.emit(
                IterationFinished(
                    index=iteration + 1,
                    samples_per_bucket=n_samples,
                    segment_count=len(working),
                    bucket_count=len(ranking),
                    kept=len(survivors),
                    best_distance=(
                        state.best.distance
                        if state.best is not None
                        else float("inf")
                    ),
                    handlers_scored=state.handlers_scored,
                    elapsed_seconds=time.perf_counter() - started,
                )
            )
            finished = len(pool.buckets) == 1 or pool.exhausted
            if not finished:
                n_samples *= config.sample_growth
                keep = max(keep // 2, 1)
                segment_count += config.segment_growth
            # Checkpoint at the iteration boundary: the decision log
            # plus the *next* schedule values (unchanged when the
            # loop is done — the exhaustive pass reads them).
            write_checkpoint(finished)
            yield ProgressReport(
                iteration=iteration + 1,
                best_expression=(
                    to_text(state.best.handler)
                    if state.best is not None
                    else None
                ),
                best_distance=(
                    state.best.distance
                    if state.best is not None
                    else float("inf")
                ),
                handlers_scored=state.handlers_scored,
            )
            if out_of_time():
                note_budget("refinement")
                break
            if finished:
                break

    # Final exhaustive pass over the surviving bucket(s), within the cap.
    if not out_of_time():
        with ctx.timer("exhaustive"):
            working = _working_set(
                segments, segment_count, config.seed + config.max_iterations
            )
            already = {
                bucket.key: len(bucket.drawn) for bucket in pool.live
            }
            pool.draw(
                config.exhaustive_cap,
                max_steps=40 * config.exhaustive_cap,
            )
            state.sketches_drawn = pool.generated
            live = list(pool.live)
            fresh_groups = [
                bucket.drawn[already.get(bucket.key, 0) :]
                for bucket in live
            ]
            if any(fresh_groups):
                last = yield WaveRequest(
                    scorer=scorer,
                    groups=tuple(tuple(fresh) for fresh in fresh_groups),
                    segments=working,
                    deadline=deadline,
                    min_results=0,
                    phase="exhaustive",
                )
                for results in last.grouped:
                    for result in results:
                        state.observe(result, 1)
                if out_of_time():
                    note_budget("exhaustive")

    run_quarantine = prior_quarantine + list(last.quarantined)
    if state.best is None:
        raise SynthesisError("no handler was scored")
    emit_counters()
    result = SynthesisResult(
        best=state.best,
        dsl_name=dsl.name,
        iterations=state.records,
        initial_bucket_count=initial_bucket_count,
        total_handlers_scored=state.handlers_scored,
        total_sketches_drawn=state.sketches_drawn,
        elapsed_seconds=time.perf_counter() - started,
        quarantined=tuple(run_quarantine),
        pool_rebuilds=last.pool_rebuilds,
        degraded=last.degraded,
    )
    ctx.emit(
        RunFinished(
            run="synthesis",
            best_distance=result.distance,
            expression=result.expression,
            handlers_scored=result.total_handlers_scored,
            elapsed_seconds=result.elapsed_seconds,
            phase_seconds=dict(ctx.phase_seconds),
        )
    )
    return result


def drive(
    core,
    config: SynthesisConfig | None = None,
    context: RunContext | None = None,
) -> Any:
    """Run a re-entrant core to completion against a private executor.

    The blocking half of the wave protocol: at the first ``WaveRequest``
    it builds the executor that *config*'s execution knobs ask for
    (``workers``, ``max_pool_rebuilds``, ``watchdog_seconds``,
    ``fault_plan``; its events go to *context*), answers every wave with
    one ``score_grouped`` call and the executor's state, and ignores
    ``ProgressReport``.  The executor is closed on every exit path, so
    an exception mid-run can never leak worker processes.
    ``drive(synthesize_core(...), config, context)`` is bit-identical
    — results, events, checkpoints — to the pre-protocol inline loop.
    """
    config = config or SynthesisConfig()
    executor = None
    reply = None
    try:
        while True:
            try:
                request = core.send(reply)
            except StopIteration as stop:
                return stop.value
            reply = None
            if not isinstance(request, WaveRequest):
                continue
            if executor is None:
                executor = make_executor(
                    request.scorer,
                    config.workers,
                    context=context,
                    policy=SupervisionPolicy(
                        max_pool_rebuilds=config.max_pool_rebuilds
                    ),
                    watchdog_seconds=config.watchdog_seconds,
                    fault_plan=config.fault_plan,
                )
            grouped = executor.score_grouped(
                request.groups,
                request.segments,
                deadline=request.deadline,
                min_results=request.min_results,
            )
            reply = WaveReply(
                grouped=tuple(grouped),
                quarantined=tuple(executor.quarantined),
                pool_rebuilds=executor.pool_rebuilds,
                degraded=executor.degraded,
                scoring=executor.stats(),
            )
    finally:
        if executor is not None:
            executor.close()


def synthesize(
    segments: list[TraceSegment],
    dsl: DslSpec,
    config: SynthesisConfig | None = None,
    *,
    context: RunContext | None = None,
) -> SynthesisResult:
    """Run the full refinement loop; return the best handler found.

    *context* receives the run's telemetry; omitting it runs silently
    (a fresh sink-less :class:`RunContext` is used for phase timing).
    The blocking wrapper over :func:`synthesize_core`: one private
    executor, one run, bit-identical to the historical inline loop.
    """
    return drive(
        synthesize_core(segments, dsl, config, context=context),
        config,
        context,
    )
