"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`Workload.setup`
(the seed is the measurement-noise seed of the collected traces; the
program only ever sees the generated traces) and produces one answer
per :meth:`Workload.answer` call.  All four are closed loops: a single
caller waits for each answer before asking for the next; the fleet's
caller submits a batch of four jobs and waits for the batch.

Why each workload exists, and which layer it is meant to expose, is in
``bench/README.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

from repro.dsl.families import family, with_budget
from repro.netsim import Environment
from repro.pipeline import reverse_engineer
from repro.runtime.context import RunContext
from repro.runtime.events import JobCompleted, RunFinished
from repro.service import serve, submit_job
from repro.synth.refinement import SynthesisConfig, synthesize
from repro.trace.collect import CollectionConfig, collect_traces
from repro.trace.io import save_traces
from repro.trace import segmentation
from repro.trace.noise import NoiseModel
from repro.trace.selection import select_diverse_segments

#: The paper benches' laptop-scale environment matrix and search budget
#: (the same values as ``benchmarks/conftest.py``, copied so that the
#: paper benches can change without moving this benchmark).
ENVIRONMENTS = (
    Environment(bandwidth_mbps=5.0, rtt_ms=25.0),
    Environment(bandwidth_mbps=10.0, rtt_ms=50.0),
    Environment(bandwidth_mbps=15.0, rtt_ms=80.0),
)
BENCH_SYNTHESIS = SynthesisConfig(
    initial_samples=8,
    initial_keep=5,
    completion_cap=12,
    max_iterations=2,
    exhaustive_cap=250,
    series_budget=96,
    max_replay_rows=320,
)

#: Vegas rarely loses a packet, so each trace is one segment; six
#: environments give the six segments the working set is drawn from.
VEGAS_ENVIRONMENTS = tuple(
    Environment(bandwidth_mbps=bandwidth, rtt_ms=rtt)
    for bandwidth in (5.0, 10.0, 15.0)
    for rtt in (25.0, 80.0)
)


def collection(seed: int, environments=ENVIRONMENTS) -> CollectionConfig:
    """15 s noisy traces; *seed* seeds the measurement noise."""
    return CollectionConfig(
        duration=15.0,
        environments=environments,
        noise=NoiseModel(
            jitter_std=0.002, dropout=0.02, cwnd_error=0.02, seed=seed
        ),
        max_acks_per_trace=10_000,
    )


def diverse_segments(traces, limit: int = 6):
    # Looked up on the module, so that the traced run's wrapper is used.
    segments = [
        segment for trace in traces for segment in segmentation.segment_trace(trace)
    ]
    if len(segments) > limit:
        segments = select_diverse_segments(segments, limit)
    return segments


@dataclass
class JobAnswer:
    """One job's answer: the handler, its distance and the work done."""

    job: str
    expression: str
    distance: float
    handlers: int
    #: Seconds from the start of the answer (the fleet: of the batch).
    seconds: float


class Workload:
    """Inputs from a seed; answers on demand."""

    name = ""
    #: Job ids of one answer, in order.
    jobs: tuple[str, ...] = ()
    #: Cores the workload needs (its pool size).
    min_cores = 1

    def setup(self, seed: int, workdir: str):
        """Build the inputs; the returned state feeds :meth:`answer`."""
        raise NotImplementedError

    def prepare(self, state, rep: int, workdir: str) -> None:
        """Untimed per-answer preparation (the fleet's fresh spool)."""

    def answer(self, state, rep: int, workdir: str) -> list[JobAnswer]:
        raise NotImplementedError


class PipelineReno(Workload):
    """The Table 2 answer for a fixed CCA, classifier included."""

    name = "pipeline_reno"
    jobs = ("reno",)

    def setup(self, seed, workdir):
        return collect_traces("reno", collection(seed))

    def answer(self, traces, rep, workdir):
        started = time.perf_counter()
        report = reverse_engineer(
            traces,
            classifier="gordon",
            trace_policy="repair",
            max_depth=3,
            max_nodes=4,
            config=BENCH_SYNTHESIS,
        )
        return [
            JobAnswer(
                "reno",
                report.expression,
                report.distance,
                report.result.total_handlers_scored,
                time.perf_counter() - started,
            )
        ]


def _synthesis_answer(job, segments, dsl, config) -> list[JobAnswer]:
    started = time.perf_counter()
    result = synthesize(segments, dsl, config)
    return [
        JobAnswer(
            job,
            result.expression,
            result.distance,
            result.total_handlers_scored,
            time.perf_counter() - started,
        )
    ]


class DelayExhaustive(Workload):
    """Every sketch of a small delay DSL scored: the scoring kernels."""

    name = "delay_exhaustive"
    jobs = ("vegas",)
    dsl = with_budget(family("vegas"), max_depth=3, max_nodes=5)
    #: Keeping all 64 buckets means no bucket is pruned, so every sketch
    #: of the DSL is scored and the work is the same on every seed.
    #: Shorter replay tables than ``BENCH_SYNTHESIS`` keep an answer near
    #: five seconds, so a run holds several; replay still dominates.
    config = replace(BENCH_SYNTHESIS, initial_keep=64, max_replay_rows=48)

    def setup(self, seed, workdir):
        return diverse_segments(
            collect_traces("vegas", collection(seed, VEGAS_ENVIRONMENTS))
        )

    def answer(self, segments, rep, workdir):
        return _synthesis_answer("vegas", segments, self.dsl, self.config)


class CubicWide(Workload):
    """One ranking pass over a wide DSL: sketch enumeration."""

    name = "cubic_wide"
    jobs = ("cubic",)
    dsl = with_budget(family("cubic"), max_depth=5, max_nodes=9)
    #: One refinement iteration and no exhaustive pass: the enumeration
    #: work is then fixed by the DSL alone, so every seed does the same.
    config = replace(
        BENCH_SYNTHESIS,
        initial_samples=2,
        max_iterations=1,
        completion_cap=2,
        series_budget=32,
        max_replay_rows=64,
        exhaustive_cap=0,
    )

    def setup(self, seed, workdir):
        return diverse_segments(collect_traces("cubic", collection(seed)))

    def answer(self, segments, rep, workdir):
        return _synthesis_answer("cubic", segments, self.dsl, self.config)


class _EventTimes:
    """Run-context sink keeping each event with its arrival time."""

    def __init__(self) -> None:
        self.events: list[tuple[float, object]] = []

    def handle(self, event, t) -> None:
        self.events.append((time.perf_counter(), event))

    def close(self) -> None:
        pass


class FleetSpool(Workload):
    """A batch of four spool jobs drained by one pooled ``serve()``."""

    name = "fleet_spool"
    #: Job id -> DSL family searched (explicit, no classifier).
    families = {
        "reno": "reno",
        "scalable": "reno",
        "vegas": "vegas",
        "student4": "vegas",
    }
    jobs = tuple(families)
    min_cores = 2
    workers = 2
    #: ``BENCH_SYNTHESIS`` with a smaller exhaustive cap, so that one
    #: batch drains in about six seconds on two cores.
    overrides = {
        "initial_samples": BENCH_SYNTHESIS.initial_samples,
        "initial_keep": BENCH_SYNTHESIS.initial_keep,
        "completion_cap": BENCH_SYNTHESIS.completion_cap,
        "max_iterations": BENCH_SYNTHESIS.max_iterations,
        "exhaustive_cap": 20,
        "series_budget": BENCH_SYNTHESIS.series_budget,
        "max_replay_rows": BENCH_SYNTHESIS.max_replay_rows,
    }

    def _submit(self, paths: dict[str, str], spool: str) -> None:
        for job, path in paths.items():
            submit_job(
                spool,
                job,
                traces=path,
                dsl=self.families[job],
                max_depth=3,
                max_nodes=5,
                config=self.overrides,
            )

    def setup(self, seed, workdir):
        paths = {}
        for job in self.jobs:
            path = os.path.join(workdir, f"{job}.json")
            save_traces(collect_traces(job, collection(seed)), path)
            paths[job] = path
        self._submit(paths, os.path.join(workdir, "spool-setup"))
        return paths

    def prepare(self, paths, rep, workdir):
        self._submit(paths, os.path.join(workdir, f"spool-{rep}"))

    def answer(self, paths, rep, workdir):
        sink = _EventTimes()
        started = time.perf_counter()
        snapshots = serve(
            os.path.join(workdir, f"spool-{rep}"),
            workers=self.workers,
            context=RunContext([sink]),
        )
        answers = []
        finished: RunFinished | None = None
        # The scheduler services one job at a time, so each job's
        # RunFinished arrives immediately before its JobCompleted.
        for arrived, event in sink.events:
            if isinstance(event, RunFinished):
                finished = event
            elif isinstance(event, JobCompleted) and finished is not None:
                if snapshots.get(event.job_id, {}).get("state") == "completed":
                    answers.append(
                        JobAnswer(
                            event.job_id,
                            finished.expression,
                            finished.best_distance,
                            finished.handlers_scored,
                            arrived - started,
                        )
                    )
                finished = None
        return answers


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (PipelineReno(), DelayExhaustive(), CubicWide(), FleetSpool())
}
