"""Abagnale's benchmark: absolute end-to-end numbers, per-layer on request.

    python3 bench/run.py --seed N [--workload NAME] [--trace 0|1]
                         [--seconds S] [--out FILE] [--write-pins]

Runs every workload of ``BENCHMARK.json`` (or just ``--workload``), each
in a fresh subprocess (``bench/harness.py``) that measures for
``run_seconds``, prints every end-to-end metric by name with its unit,
checks every answer against the pinned answers in ``bench/pins.json``
(seeds 0 and 1; with other seeds the answers of a run must agree), and
writes the same data as JSON to ``--out``.  ``--seconds``, when given,
must equal ``run_seconds``: the run length belongs to the benchmark.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace 1`` the per-layer ones.  For one workload the metrics
carry their ``BENCHMARK.json`` names; for all of them each name is
prefixed with its workload (``fleet_spool.answer_s``).  The exit status
is 1 when any answer was wrong or a workload gave no numbers.

``--trace 1`` is the separate traced run: spans around the public calls
of every layer give the per-layer ledger, and each workload's spans are
written to ``bench_out/trace/`` as Chrome trace-event JSON plus the
ledger rollup.

``--write-pins`` records this run's answers as the pinned answers for
its seed, after checking that the run's answers agree with each other.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / "bench_out"
TRACE_DIR = OUT / "trace"
#: A workload subprocess is killed after this long, so that a run of one
#: workload ends within 180 s.
CHILD_TIMEOUT = 170.0
#: Seconds a finished workload's leftover processes get to exit by
#: themselves before they are killed.
SESSION_GRACE = 3.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def end_session(session: int) -> None:
    """Stop what is left of a workload's session and wait until it is gone.

    The workload's pool workers and multiprocessing's resource tracker
    share its session; they normally exit with it.
    """
    if _session_ended(session):
        return
    try:
        os.killpg(session, signal.SIGKILL)
    except ProcessLookupError:
        return
    if not _session_ended(session):
        print(f"run: session {session} outlived SIGKILL", file=sys.stderr)


def _session_ended(session: int) -> bool:
    """Whether every process of *session* exits within the grace period."""
    deadline = time.monotonic() + SESSION_GRACE
    while time.monotonic() < deadline:
        try:
            os.killpg(session, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    """Run one workload in a fresh subprocess; its result dict, or None."""
    command = [
        sys.executable,
        str(BENCH / "harness.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--work", str(OUT / "work"),
    ]
    if traced:
        command += ["--trace-dir", str(TRACE_DIR)]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(OUT / "tmp"))
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        # Pool workers hold the output pipe too: end the whole session.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"run: {name} exceeded {CHILD_TIMEOUT:.0f}s", file=sys.stderr)
        return None
    finally:
        end_session(process.pid)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        print(
            f"run: {name} exited with {process.returncode}", file=sys.stderr
        )
        return None
    return json.loads(lines[-1])


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(result: dict, spec: dict) -> None:
    """Human-readable lines for one workload's result."""
    name = result["workload"]
    if "skipped" in result:
        print(f"== {name}: skipped ({result['skipped']})")
        return
    verdict = "pinned" if result["pinned"] else "reps agree"
    print(
        f"== {name} (seed {result['seed']}, {len(result['answers'])} "
        f"answers, {verdict}: {'ok' if result['correct'] else 'FAILED'})"
    )
    error_rate = result["failed"] / max(result["attempted"], 1)
    print(
        f"  {'error_rate':<16} {_format(error_rate):>12} ratio "
        f" ({result['failed']} of {result['attempted']} answers failed)"
    )
    if "ledger" in result:
        ledger = result["ledger"]
        print("  per-layer ledger (median of traced answers):")
        for key, value in sorted(ledger["metrics"].items()):
            print(f"    {key:<36} {_format(value):>12} {ledger['units'][key]}")
        return
    metrics = result["metrics"]
    print(
        f"  {metrics['answer_samples']} answer samples; times scaled to a "
        f"{speed.REFERENCE_PROBE_S * 1e6:.0f} us probe (here "
        f"{metrics['probe_s'] * 1e6:.0f} us)"
    )
    for metric in spec["end_to_end"]:
        value = metrics[metric["name"]]
        print(
            f"  {metric['name']:<16} {_format(value):>12} {metric['unit']:<6}"
            f" ({metric['better']} is better, bound {metric['bound']:.0%})"
        )
    for key, unit in (
        ("jobs_per_min", "1/min"),
        ("answer_wall_s", "s"),
        ("setup_wall_s", "s"),
    ):
        if key in metrics:
            print(f"  {key:<16} {_format(metrics[key]):>12} {unit:<6} (not gated)")


def result_line(result: dict, spec: dict, traced: bool) -> dict | None:
    """The last-line JSON for one workload, or None when it has no numbers."""
    if traced:
        source = result["ledger"]["metrics"]
        wanted = spec["per_layer"]
    else:
        source = result["metrics"]
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = source.get(metric["name"])
        if value is None:
            return None
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def combined_line(lines: dict[str, dict]) -> dict:
    """One last-line JSON for several workloads: names get a prefix."""
    return {
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, line in lines.items()
            for metric, value in line["metrics"].items()
        },
    }


def write_pins(results: list[dict]) -> None:
    """Record each result's answers as the pins for its seed."""
    import harness

    path = BENCH / "pins.json"
    pins = json.loads(path.read_text(encoding="utf-8"))
    for result in results:
        answers = result["answers"]
        workload = result["workload"]
        jobs = tuple(job["job"] for job in answers[0]["jobs"])
        attempted, failed = harness.check(answers, jobs, None)
        if failed or attempted != len(answers) * len(jobs):
            raise SystemExit(f"run: {workload} answers disagree; no pins")
        pins.setdefault(workload, {})[str(result["seed"])] = {
            job["job"]: {
                "expression": job["expression"],
                "distance": job["distance"],
                "handlers": job["handlers"],
            }
            for job in answers[0]["jobs"]
        }
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument(
        "--trace", choices=("0", "1"), default="0",
        help="1: the traced run, per-layer metrics (default 0)",
    )
    parser.add_argument(
        "--seconds", type=float, help="must equal BENCHMARK.json's run_seconds"
    )
    parser.add_argument("--out", help="write the full results here (JSON)")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds {args.seconds:g}: the run length is {seconds}")
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; known: {names}")
        names = [args.workload]
    traced = args.trace == "1"

    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, traced)
        if result is None:
            return 1
        report(result, spec)
        results.append(result)
    print("host:", json.dumps(results[0]["host"], sort_keys=True))
    if args.out:
        Path(args.out).write_text(
            json.dumps({"seed": args.seed, "results": results}, indent=1)
            + "\n"
        )
    if args.write_pins:
        write_pins(results)

    lines = {}
    for result in results:
        if "skipped" in result:
            continue
        line = result_line(result, spec, traced)
        if line is None:
            print(f"run: {result['workload']} gave no numbers", file=sys.stderr)
            return 1
        lines[result["workload"]] = line
    if not lines:
        print("run: every workload was skipped", file=sys.stderr)
        return 1
    line = lines[names[0]] if args.workload else combined_line(lines)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
