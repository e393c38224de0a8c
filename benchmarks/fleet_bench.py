"""Fleet-throughput benchmark for synthesis-as-a-service.

Runs the same N reverse-engineering jobs three ways at ``workers=4`` —
**sequential** (each job drives its own private pool through the
blocking ``synthesize``, the pre-service workflow), **fleet** (all jobs
multiplexed through ONE :class:`~repro.runtime.scheduler.Scheduler` and
its shared persistent pool at the service's default quantum), and
**fair fleet** (same scheduler with a quantum below the wave size, so
every wave is sliced and jobs preempt each other round-robin) — asserts
the per-job results are bit-identical across all modes, and emits
``BENCH_fleet.json`` at the repo root with jobs/minute and
pool-occupancy telemetry.  ``check_fleet_regression.py`` gates CI on
the headline ``throughput_ratio`` (sequential vs default-quantum fleet)
against the pinned ``benchmarks/BASELINE_fleet.json``.

The ratio is what travels across runners: both modes score the same
waves on the same machine in the same process, so a shared slowdown
cancels and only a relative regression of the scheduler path (slicing
overhead, lost pool reuse, priming churn from scorer adoption) moves
the number.  The fair-fleet numbers are telemetry, not a gate: they
record the fairness tax (extra slice barriers and per-switch scorer
adoption) that the quantum knob trades against job latency.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cca import make_cca  # noqa: E402
from repro.dsl import RENO_DSL, with_budget  # noqa: E402
from repro.netsim import Environment, simulate  # noqa: E402
from repro.runtime.jobs import Job  # noqa: E402
from repro.runtime.scheduler import (  # noqa: E402
    DEFAULT_QUANTUM_TASKS,
    Scheduler,
)
from repro.synth.refinement import (  # noqa: E402
    SynthesisConfig,
    synthesize,
    synthesize_core,
)
from repro.trace import segment_trace  # noqa: E402

WORKERS = 4
REPS = 2
N_JOBS = 4

#: Below the ~41-task refinement wave each job emits (bucket groups of
#: roughly 4..12 sketches), so in fair-fleet mode every wave is cut into
#: multiple slices and jobs genuinely interleave with preemption.
FAIR_QUANTUM = 16

DSL = with_budget(RENO_DSL, max_depth=3, max_nodes=4)

#: Real scoring per job, sized so one job is seconds, not minutes — the
#: fleet effect under test is pool reuse and wave interleaving, not raw
#: kernel speed.
CONFIG = SynthesisConfig(
    initial_samples=12,
    initial_keep=4,
    completion_cap=8,
    max_iterations=1,
    exhaustive_cap=120,
    workers=WORKERS,
    series_budget=512,
    max_replay_rows=1536,
)


def _job_segments():
    trace = simulate(
        make_cca("reno"),
        Environment(bandwidth_mbps=10.0, rtt_ms=50.0),
        duration=20.0,
    )
    segments = segment_trace(trace)
    # Distinct (overlapping) working sets: distinct searches, shared pool.
    return [segments[index : index + 5] for index in range(N_JOBS)]


def _essentials(result):
    return (
        result.best.handler,
        result.best.distance,
        tuple(result.iterations),
        result.total_handlers_scored,
    )


def _measure_sequential(job_segments) -> dict:
    started = time.perf_counter()
    results = [
        synthesize(segments, DSL, CONFIG) for segments in job_segments
    ]
    seconds = time.perf_counter() - started
    return {
        "results": results,
        "seconds": round(seconds, 3),
        "jobs_per_minute": round(N_JOBS * 60.0 / max(seconds, 1e-9), 2),
    }


def _measure_fleet(job_segments, quantum: int) -> dict:
    scheduler = Scheduler(workers=WORKERS, quantum_tasks=quantum)
    for index, segments in enumerate(job_segments):
        scheduler.submit(
            Job(
                job_id=f"job{index}",
                source=(
                    lambda segments=segments: synthesize_core(
                        segments, DSL, CONFIG
                    )
                ),
            )
        )
    started = time.perf_counter()
    completed = scheduler.run()
    seconds = time.perf_counter() - started
    executor = scheduler._executor
    scoring = executor.stats() if executor is not None else None
    scheduler.close()
    return {
        "results": [
            completed[f"job{index}"].result for index in range(N_JOBS)
        ],
        "seconds": round(seconds, 3),
        "jobs_per_minute": round(N_JOBS * 60.0 / max(seconds, 1e-9), 2),
        "preemptions": sum(
            job.preemptions for job in completed.values()
        ),
        "slices": scheduler.slices_dispatched,
        "peak_in_flight": scoring.peak_in_flight if scoring else 0,
        "mean_occupancy": scoring.mean_occupancy if scoring else 0.0,
    }


def _best(runs: list[dict]) -> dict:
    return min(runs, key=lambda run: run["seconds"])


def _strip(run: dict) -> dict:
    return {key: value for key, value in run.items() if key != "results"}


def main() -> int:
    job_segments = _job_segments()
    print(
        f"fleet_bench: jobs={N_JOBS}, workers={WORKERS}, "
        f"quantum={DEFAULT_QUANTUM_TASKS} (fair: {FAIR_QUANTUM}), "
        f"reps={REPS} (min wins)"
    )
    sequential_runs: list[dict] = []
    fleet_runs: list[dict] = []
    fair_runs: list[dict] = []
    for rep in range(REPS):
        sequential_runs.append(_measure_sequential(job_segments))
        fleet_runs.append(
            _measure_fleet(job_segments, DEFAULT_QUANTUM_TASKS)
        )
        fair_runs.append(_measure_fleet(job_segments, FAIR_QUANTUM))
        print(
            f"  rep {rep}: sequential "
            f"{sequential_runs[-1]['seconds']:.2f}s, fleet "
            f"{fleet_runs[-1]['seconds']:.2f}s, fair fleet "
            f"{fair_runs[-1]['seconds']:.2f}s"
        )

    reference = [
        _essentials(result) for result in sequential_runs[0]["results"]
    ]
    for run in sequential_runs[1:] + fleet_runs + fair_runs:
        if [_essentials(result) for result in run["results"]] != reference:
            print(
                "fleet_bench: fleet and sequential runs DISAGREE — "
                "scheduler multiplexing is no longer bit-identical",
                file=sys.stderr,
            )
            return 1
    if any(run["preemptions"] == 0 for run in fair_runs):
        print(
            "fleet_bench: fair-fleet run never preempted — quantum "
            f"{FAIR_QUANTUM} no longer slices the refinement wave, so "
            "the interleaving path went unmeasured",
            file=sys.stderr,
        )
        return 1

    sequential = _best(sequential_runs)
    fleet = _best(fleet_runs)
    fair = _best(fair_runs)
    ratio = sequential["seconds"] / max(fleet["seconds"], 1e-9)
    fairness_tax = fair["seconds"] / max(fleet["seconds"], 1e-9)
    payload = {
        "benchmark": "fleet_service",
        "jobs": N_JOBS,
        "workers": WORKERS,
        "quantum_tasks": DEFAULT_QUANTUM_TASKS,
        "fair_quantum_tasks": FAIR_QUANTUM,
        "reps": REPS,
        "throughput_ratio": round(ratio, 2),
        "fairness_tax": round(fairness_tax, 2),
        "fleet": _strip(fleet),
        "fair_fleet": _strip(fair),
        "sequential": _strip(sequential),
        "note": (
            "throughput_ratio: wall-clock of N sequential synthesize() "
            "runs (one private pool each) over the same N jobs "
            "multiplexed through one Scheduler with a shared persistent "
            "pool at the default quantum; min of REPS runs per mode, "
            "results asserted bit-identical. fairness_tax: fair-fleet "
            "(quantum below the wave size, preemptive round-robin) over "
            "default-quantum fleet. check_fleet_regression.py gates CI "
            "on throughput_ratio against benchmarks/BASELINE_fleet.json."
        ),
    }
    out = REPO_ROOT / "BENCH_fleet.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"fleet_bench: sequential {sequential['seconds']:.2f}s "
        f"({sequential['jobs_per_minute']:.1f} jobs/min) vs fleet "
        f"{fleet['seconds']:.2f}s ({fleet['jobs_per_minute']:.1f} "
        f"jobs/min) -> {ratio:.2f}x, "
        f"{fleet['mean_occupancy']:.0%} mean occupancy"
    )
    print(
        f"fleet_bench: fair fleet {fair['seconds']:.2f}s "
        f"({fair['jobs_per_minute']:.1f} jobs/min), "
        f"{fair['preemptions']} preemptions -> "
        f"fairness tax {fairness_tax:.2f}x"
    )
    print(f"fleet_bench: wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
