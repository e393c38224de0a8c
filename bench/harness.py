"""One workload in one process: set up, answer for a while, check, report.

``python bench/harness.py --workload NAME --seed N --seconds S
[--trace-dir DIR]`` is what ``bench/run.py`` starts once per workload,
so that every workload runs in a fresh interpreter and its peak RSS is
its own.  The last line of standard output is one JSON document with
the raw samples, the correctness verdicts and the summary metrics.

The run sets up once, then starts answers back to back while the
projected finish of the next one stays inside ``--seconds`` of the
run's start, with at least :data:`MIN_ANSWERS` answers.  Between answers
it sets up again, spread over the window, until it has set up
:data:`SETUPS` times (``setup_s`` is the median).  Every setup and
answer runs under the host-speed probe (``bench/speed.py``), and the
end-to-end times are the scaled ones.

With ``--trace-dir`` the answers alternate untraced and traced, and
nothing is probed: the traced answers give the per-layer ledger, the
pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
MIN_ANSWERS = 2
#: Absolute tolerance on a pinned distance.
DISTANCE_TOLERANCE = 1e-9


def host_fingerprint() -> dict:
    """The facts a number from this host must be read with."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "affinity_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def _load_pins() -> dict:
    with open(ROOT / "bench" / "pins.json", encoding="utf-8") as handle:
        return json.load(handle)


def _matches(answer: dict, expected: dict) -> bool:
    return (
        answer["expression"] == expected["expression"]
        and abs(answer["distance"] - expected["distance"])
        <= DISTANCE_TOLERANCE
        and answer["handlers"] == expected["handlers"]
    )


def check(answers: list[dict], jobs: tuple[str, ...], pinned: dict | None):
    """Mark every expected job of every answer ``ok`` or not.

    With *pinned* answers (seeds 0 and 1) each job must match its pin;
    with any other seed it must match the same job's first answer.
    Returns ``(attempted, failed)``.
    """
    reference = dict(pinned or {})
    attempted = failed = 0
    for answer in answers:
        got = {job["job"]: job for job in answer["jobs"]}
        for name in jobs:
            attempted += 1
            job = got.get(name)
            if job is None:
                failed += 1
                continue
            expected = reference.setdefault(name, job)
            job["ok"] = _matches(job, expected)
            failed += not job["ok"]
    return attempted, failed


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _summary(answers: list[dict], setups: list[dict], batch: bool) -> dict:
    """End-to-end metrics of the answered answers, scaled by the probe.

    ``jobs_per_min`` is reported for a batch (the fleet) only; for a
    single-job answer it would just mirror ``answer_s``.
    """
    done = [answer for answer in answers if answer["jobs"]]
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "answer_s": _median([j["scaled"] for a in done for j in a["jobs"]]),
        "answer_samples": sum(len(answer["jobs"]) for answer in done),
        "handlers_per_s": _median(
            [sum(j["handlers"] for j in a["jobs"]) / a["scaled"] for a in done]
        ),
        "setup_s": _median([setup["scaled"] for setup in setups]),
        "peak_rss_mb": usage / 1024.0,
        "answer_wall_s": _median([j["seconds"] for a in done for j in a["jobs"]]),
        "setup_wall_s": _median([setup["wall"] for setup in setups]),
        "probe_s": _median([p["probe_s"] for p in answers + setups if p["probe_s"]]),
    }
    if batch:
        metrics["jobs_per_min"] = _median(
            [60.0 * len(a["jobs"]) / a["scaled"] for a in done]
        )
    return metrics


def _scale(phases: list[dict], timings: list[speed.Timing]) -> None:
    """Add the scaled times to every phase (answer or setup) of a run."""
    pooled = [probe for timing in timings for probe in timing.probes]
    for phase, timing in zip(phases, timings):
        phase["probes"] = len(timing.probes)
        phase["probe_s"] = (
            statistics.mean(timing.probes) if timing.probes else None
        )
        phase["scaled"] = timing.scaled(phase["wall"], pooled)
        for job in phase.get("jobs", ()):
            job["scaled"] = timing.scaled(job["seconds"], pooled)


def _ledger(
    tracer, spans: list[dict], answers, workload: str, seed: int, trace_dir: str
) -> dict:
    import layers
    import ledger

    rolled = ledger.rollup(spans, tracer.main_pid)
    per_answer = [
        layers.answer_metrics(root, group) for root, group in rolled["answers"]
    ]
    per_setup = [
        layers.setup_metrics(root, group) for root, group in rolled["setups"]
    ]
    medians = {}
    for rows in (per_answer, per_setup):
        for name in rows[0] if rows else ():
            medians[name] = statistics.median(row[name] for row in rows)
    traced = [answer["wall"] for answer in answers if answer["traced"]]
    plain = [answer["wall"] for answer in answers if not answer["traced"]]
    medians["trace_overhead"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    stem = os.path.join(trace_dir, f"{workload}-seed{seed}")
    ledger.write_json(f"{stem}.trace.json", ledger.chrome_trace(spans, tracer.main_pid))
    rollup = {
        "workload": workload,
        "seed": seed,
        "metrics": medians,
        "units": {name: layers.unit_of(name) for name in medians},
        "answers": per_answer,
        "setups": per_setup,
        "orphan_worker_spans": rolled["orphans"],
    }
    ledger.write_json(f"{stem}.ledger.json", rollup)
    return rollup


def run(args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    host = host_fingerprint()
    result: dict = {"workload": workload.name, "seed": args.seed, "host": host}
    if host["affinity_cores"] < workload.min_cores:
        result["skipped"] = (
            f"needs {workload.min_cores} cores, affinity allows "
            f"{host['affinity_cores']}"
        )
        return result
    workdir = os.path.join(args.work, f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    if args.trace_dir:
        import layers
        from spans import Tracer

        os.makedirs(args.trace_dir, exist_ok=True)
        tracer = Tracer(os.path.join(workdir, "spans"))
        tracer.labels["workload"] = workload.name
        layers.install(tracer)
    spans: list[dict] = []
    setups: list[dict] = []
    answers: list[dict] = []
    setup_timings: list[speed.Timing] = []
    answer_timings: list[speed.Timing] = []

    def timed(call):
        """``call()`` and its timing, probed unless the run is traced."""
        if tracer is None:
            return speed.measure(call)
        started = time.perf_counter()
        built = call()
        return built, speed.Timing(time.perf_counter() - started)

    def set_up():
        """Build the inputs once more and time it (setups are traced)."""
        if tracer is not None:
            tracer.unpatch()
            layers.install(tracer)
        directory = os.path.join(workdir, f"setup-{len(setups)}")
        os.makedirs(directory)
        root = tracer.begin("bench.setup") if tracer else None
        built, timing = timed(lambda: workload.setup(args.seed, directory))
        if root is not None:
            tracer.end(root)
        setups.append({"wall": timing.wall})
        setup_timings.append(timing)
        return built

    start = time.perf_counter()
    try:
        # Answers use the first setup's inputs; later setups only repeat
        # the measurement.
        state = set_up()
        home = os.path.join(workdir, "setup-0")
        longest = 0.0
        rep = 0
        while True:
            # The other setups run between answers, spread over the window,
            # so that setup_s does not hang on the first seconds of a fresh
            # process or on one moment of the host's load.
            if len(setups) < SETUPS and (
                time.perf_counter() - start >= args.seconds * len(setups) / SETUPS
            ):
                set_up()
            if (
                rep >= MIN_ANSWERS
                and time.perf_counter() + longest > start + args.seconds
            ):
                break
            traced = tracer is not None and rep % 2 == 1
            if tracer is not None:
                tracer.unpatch()
                if traced:
                    layers.install(tracer)
                    tracer.labels["rep"] = rep
            workload.prepare(state, rep, home)
            root = tracer.begin("bench.answer") if traced else None
            started = time.perf_counter()
            try:
                jobs, timing = timed(lambda: workload.answer(state, rep, home))
                error = None
            except Exception:  # noqa: BLE001 - counted as a failed answer
                jobs, error = [], traceback.format_exc()
                timing = speed.Timing(time.perf_counter() - started)
            if root is not None:
                tracer.end(root)
                spans.extend(tracer.collect())
            longest = max(longest, timing.wall)
            answers.append(
                {
                    "rep": rep,
                    "traced": traced,
                    "wall": timing.wall,
                    "error": error,
                    "jobs": [dataclasses.asdict(job) for job in jobs],
                }
            )
            answer_timings.append(timing)
            rep += 1
        while len(setups) < SETUPS:
            set_up()
        if tracer is not None:
            tracer.unpatch()
            spans.extend(tracer.collect())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pins = _load_pins().get(workload.name, {}).get(str(args.seed))
    attempted, failed = check(answers, workload.jobs, pins)
    result.update(
        {
            "pinned": pins is not None,
            "seconds": args.seconds,
            "attempted": attempted,
            "failed": failed,
            "correct": failed == 0,
            "setups": setups,
            "answers": answers,
        }
    )
    if tracer is None:
        _scale(setups + answers, setup_timings + answer_timings)
        result["metrics"] = _summary(answers, setups, len(workload.jobs) > 1)
    else:
        result["ledger"] = _ledger(
            tracer, spans, answers, workload.name, args.seed, args.trace_dir
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True, help="scratch directory")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"harness: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
