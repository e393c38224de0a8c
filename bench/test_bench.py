"""Tests of the benchmark's own machinery (not part of the tier-1 suite).

Run explicitly: ``python -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402

MAIN, WORKER = 100, 200


def span(span_id, name, start, end, parent=None, pid=MAIN, **extra):
    return {
        "id": span_id,
        "name": name,
        "pid": pid,
        "parent": parent,
        "start": start,
        "end": end,
        "attrs": extra.pop("attrs", {}),
        **extra,
    }


def test_self_time_subtracts_nested_children():
    spans = [
        span("a", "bench.answer", 0.0, 10.0),
        span("b", "synth.pool.draw", 1.0, 4.0, "a"),
        span("c", "dsl.compiled.compile", 2.0, 3.0, "b"),
        span("d", "synth.replay.batch", 5.0, 6.0, "a"),
    ]
    ledger.self_times(spans)
    assert [s["self"] for s in spans] == [6.0, 2.0, 1.0, 1.0]


def test_worker_spans_link_to_their_wave_without_reducing_it():
    spans = [
        span("r", ledger.ANSWER, 0.0, 12.0, workload="w", rep=1),
        span("w1", ledger.WAVE, 1.0, 5.0, "r", job="j1", attrs={"workers": 2}),
        span("w2", ledger.WAVE, 6.0, 11.0, "r", job="j2", attrs={"workers": 2}),
        span("x", "synth.scoring.sketch", 1.5, 4.5, pid=WORKER),
        span("y", "synth.replay.batch", 2.0, 3.0, "x", pid=WORKER,
             attrs={"lanes": 2, "rows": 5}),
        span("z", "synth.scoring.sketch", 7.0, 9.0, pid=WORKER),
        span("lost", "synth.scoring.sketch", 11.5, 11.8, pid=WORKER),
    ]
    rolled = ledger.rollup(spans, MAIN)
    by_id = {s["id"]: s for s in spans}
    assert by_id["x"]["parent"] == "w1" and by_id["x"]["remote"]
    assert by_id["z"]["parent"] == "w2"
    assert by_id["y"]["job"] == "j1" and by_id["z"]["job"] == "j2"
    assert rolled["orphans"] == 1
    # A wave's self time is parent-side: worker spans do not cover it.
    assert by_id["w1"]["self"] == pytest.approx(4.0)
    assert by_id["x"]["self"] == pytest.approx(2.0)
    # The answer's group follows the link across processes.
    (root, group), = rolled["answers"]
    assert {s["id"] for s in group} == {"r", "w1", "w2", "x", "y", "z"}
    metrics = layers.answer_metrics(root, group)
    assert metrics["runtime.executors.worker_busy_s"] == pytest.approx(5.0)
    assert metrics["runtime.executors.wave_s"] == pytest.approx(9.0)
    assert metrics["runtime.executors.occupancy"] == pytest.approx(5.0 / 18.0)


def test_residual_is_the_answer_time_no_layer_covers():
    spans = [
        span("r", ledger.ANSWER, 0.0, 10.0),
        span("p", "synth.replay.batch", 1.0, 8.0, "r",
             attrs={"lanes": 4, "rows": 10}),
        span("d", "distance.dtw.batch", 8.5, 9.0, "r",
             attrs={"lanes": 4, "cells": 400, "abandoned": 1}),
    ]
    (root, group), = ledger.rollup(spans, MAIN)["answers"]
    metrics = layers.answer_metrics(root, group)
    assert metrics["unattributed_s"] == pytest.approx(2.5)
    assert metrics["synth.replay.self_s"] == pytest.approx(7.0)
    assert metrics["synth.replay.share"] == pytest.approx(0.7)
    assert metrics["synth.replay.lane_rows_per_s"] == pytest.approx(40 / 7.0)
    assert metrics["distance.dtw.abandon_ratio"] == pytest.approx(0.25)


def _call_in_child(function, value):
    function(value)


def test_tracer_collects_spans_from_forked_workers(tmp_path):
    import repro.dsl.printer as printer
    import repro.synth.result as result

    original = printer.to_text
    tracer = Tracer(str(tmp_path))
    tracer.patch("repro.dsl.printer", "to_text", "dsl.printer")
    try:
        assert result.to_text is not original  # patched where looked up
        from repro.dsl.parser import parse

        expr = parse("cwnd + 1")
        root = tracer.begin(ledger.ANSWER)
        printer.to_text(expr)
        child = multiprocessing.get_context("fork").Process(
            target=_call_in_child, args=(result.to_text, expr)
        )
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
        tracer.end(root)
    finally:
        tracer.unpatch()
    assert printer.to_text is original and result.to_text is original
    spans = tracer.collect()
    pids = sorted(s["pid"] for s in spans if s["name"] == "dsl.printer")
    assert len(pids) == 2 and pids[0] != pids[1]
    assert not list(tmp_path.glob("spans-*.jsonl"))


def test_chrome_trace_is_complete_events():
    spans = [span("r", ledger.ANSWER, 1.0, 2.0)]
    ledger.self_times(spans)
    trace = ledger.chrome_trace(spans, MAIN)
    (event,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert event["ts"] == 0.0 and event["dur"] == pytest.approx(1e6)


def test_compare_counts_a_clear_win_as_a_gain():
    parent = [10.0 + 0.1 * i for i in range(10)]
    change = [8.0 + 0.1 * i for i in range(10)]
    row = compare.verdict(parent, change, "lower", 0.1)
    assert row["wins"] == 10 and row["decision"] == "gain"


def test_compare_reports_a_tie_within_bound():
    parent = [10.0 + 0.1 * i for i in range(10)]
    change = [10.0 + 0.1 * ((i + 5) % 10) for i in range(10)]
    row = compare.verdict(parent, change, "lower", 0.1)
    assert row["decision"] == "within bound"


def test_compare_reports_spread_beyond_bound_as_unresolved():
    parent = [8.0, 12.0] * 5
    change = [12.0, 8.0] * 5
    row = compare.verdict(parent, change, "higher", 0.1)
    assert row["decision"] == "unresolved"


def test_compare_flags_a_regression_past_the_bound():
    parent = [100.0 + i for i in range(10)]
    change = [80.0 + i for i in range(10)]
    row = compare.verdict(parent, change, "higher", 0.1)
    assert row["decision"] == "REGRESSION"


def test_compare_judges_regressions_on_pair_ratios():
    # The host slows down during the runs; each pair shares the slowdown.
    drift = [1.0 + 0.08 * i for i in range(10)]
    parent = [10.0 * d for d in drift]
    slower = [10.5 * d for d in drift]
    assert compare.verdict(parent, slower, "lower", 0.1)["decision"] == "within bound"
    much_slower = [11.5 * d for d in drift]
    assert compare.verdict(parent, much_slower, "lower", 0.1)["decision"] == "REGRESSION"


def _run(failed, value=1.0):
    return {
        "results": [
            {
                "workload": "w",
                "seconds": 30,
                "attempted": 10,
                "failed": failed,
                "metrics": {"m": value},
            }
        ]
    }


SPEC = {"end_to_end": [{"name": "m", "better": "lower", "bound": 0.1}]}


def test_compare_rejects_any_error_rate_rise(capsys):
    same = [_run(0)] * compare.PAIRS
    assert compare.compare(same, same, SPEC)
    one_failure = [_run(1)] + [_run(0)] * (compare.PAIRS - 1)
    assert not compare.compare(same, one_failure, SPEC)
    assert "error rate rose" in capsys.readouterr().out


def test_compare_rejects_a_side_without_numbers(capsys):
    same = [_run(0)] * compare.PAIRS
    failed = [_run(10, None)] * compare.PAIRS
    assert not compare.compare(same, failed, SPEC)
    assert "gave no number" in capsys.readouterr().out


def test_compare_needs_every_pair_of_every_workload(capsys):
    assert not compare.compare([_run(0)] * 3, [_run(0)] * 3, SPEC)
    assert "not 10 each" in capsys.readouterr().out


def test_compare_refuses_runs_of_different_lengths():
    same = [_run(0)] * compare.PAIRS
    shorter = [_run(0)] * compare.PAIRS
    shorter[3] = {"results": [dict(_run(0)["results"][0], seconds=10)]}
    with pytest.raises(SystemExit):
        compare.compare(same, shorter, SPEC)


def test_scaled_time_removes_the_probes_and_the_host_speed():
    timing = speed.Timing(
        wall=10.0,
        probes=[2 * speed.REFERENCE_PROBE_S] * 4,
        probe_cost=0.5,
    )
    # The host ran at half the reference speed; 5% of the wall was probing.
    assert timing.scaled(10.0) == pytest.approx(4.75)
    assert timing.scaled(4.0) == pytest.approx(1.9)
    bare = speed.Timing(wall=1.0)
    assert bare.scaled(1.0, [speed.REFERENCE_PROBE_S]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bare.scaled(1.0)


def test_probe_samples_a_busy_phase_and_disarms():
    import signal

    def busy():
        deadline = time.thread_time() + 0.3
        while time.thread_time() < deadline:
            pass
        return "done"

    result, timing = speed.measure(busy)
    assert result == "done"
    assert len(timing.probes) >= 5
    assert 0 < timing.probe_cost < timing.wall
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL


def test_leave_hook_time_is_not_the_wrapped_calls(tmp_path):
    tracer = Tracer(str(tmp_path))

    def slow_hook(span, state, args, kwargs, result):
        time.sleep(0.2)

    wrapped = tracer.wrap("layer.call", lambda: None, leave=slow_hook)
    wrapped()
    (recorded,) = tracer.collect()
    assert recorded["end"] - recorded["start"] < 0.1


def test_a_tampered_pin_counts_as_a_failure():
    answer = {"job": "reno", "expression": "cwnd + reno_inc",
              "distance": 0.5, "handlers": 10, "seconds": 1.0}
    pins = {"reno": {"expression": "cwnd + reno_inc",
                     "distance": 0.5, "handlers": 10}}
    answers = [{"jobs": [dict(answer)]}, {"jobs": [dict(answer)]}]
    assert harness.check(answers, ("reno",), pins) == (2, 0)
    tampered = {"reno": dict(pins["reno"], distance=0.5 + 1e-6)}
    assert harness.check(answers, ("reno",), tampered) == (2, 2)
    # Without pins, every answer must match the run's first one.
    answers[1]["jobs"][0]["handlers"] = 11
    assert harness.check(answers, ("reno",), None) == (2, 1)
    # A missing job counts as failed, too.
    assert harness.check([{"jobs": []}], ("reno",), pins) == (1, 1)
