"""CLI tests: argument plumbing and the collect/classify/zoo commands.

Synthesize is exercised with a tiny budget; classify reuses a reduced
scope via the traces file produced by collect.
"""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_zoo_lists_all(capsys):
    assert main(["zoo"]) == 0
    out = capsys.readouterr().out
    for name in ("reno", "cubic", "bbr", "student7"):
        assert name in out


def test_collect_writes_archive(tmp_path, capsys):
    out = tmp_path / "reno.json"
    csv = tmp_path / "reno.csv"
    code = main(
        [
            "collect",
            "--cca",
            "reno",
            "--out",
            str(out),
            "--csv",
            str(csv),
            "--bandwidth",
            "10",
            "--rtt",
            "50",
            "--duration",
            "6",
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["traces"]) == 1
    assert csv.read_text().startswith("time,ack_seq")
    assert "wrote 1 traces" in capsys.readouterr().out


def test_collect_with_noise(tmp_path):
    out = tmp_path / "noisy.json"
    main(
        [
            "collect", "--cca", "reno", "--out", str(out),
            "--bandwidth", "10", "--rtt", "50", "--duration", "6",
            "--dropout", "0.1", "--seed", "3",
        ]
    )
    data = json.loads(out.read_text())
    assert data["traces"][0]["meta"].get("noisy") == 1.0


def test_synthesize_from_archive(tmp_path, capsys):
    out = tmp_path / "reno.json"
    main(
        [
            "collect", "--cca", "reno", "--out", str(out),
            "--bandwidth", "10", "--rtt", "50", "--duration", "10",
        ]
    )
    code = main(
        [
            "synthesize",
            "--traces",
            str(out),
            "--dsl",
            "reno",
            "--max-depth",
            "2",
            "--max-nodes",
            "3",
            "--samples",
            "4",
            "--iterations",
            "1",
            "--time-budget",
            "30",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "handler:" in text
    assert "DSL 'reno-3'" in text


def test_synthesize_run_log_and_json_report(tmp_path, capsys):
    """--run-log writes parseable JSONL covering every iteration, and
    --report json emits a machine-readable result document."""
    archive = tmp_path / "reno.json"
    main(
        [
            "collect", "--cca", "reno", "--out", str(archive),
            "--bandwidth", "10", "--rtt", "50", "--duration", "10",
        ]
    )
    capsys.readouterr()
    run_log = tmp_path / "run.jsonl"
    code = main(
        [
            "synthesize",
            "--traces", str(archive),
            "--dsl", "reno",
            "--max-depth", "2",
            "--max-nodes", "3",
            "--samples", "4",
            "--iterations", "1",
            "--run-log", str(run_log),
            "--report", "json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dsl"] == "reno-3"
    assert report["handler"]
    assert report["iterations"]
    assert report["budget_exceeded"] is False
    assert "cache" not in report
    assert "phase_seconds" in report

    events = [
        json.loads(line) for line in run_log.read_text().splitlines()
    ]
    kinds = [event["event"] for event in events]
    # Input triage (on by default) logs its verdicts before the search.
    assert all(kind == "trace_triaged" for kind in kinds[: kinds.index("run_started")])
    assert "run_started" in kinds
    assert kinds[-1] == "run_finished"
    iteration_events = [e for e in events if e["event"] == "iteration_finished"]
    assert len(iteration_events) == len(report["iterations"])
    assert all("t" in event for event in events)


def test_synthesize_json_report_marks_budget_stop(tmp_path, capsys):
    """An answer the time budget cut short says so in the JSON report."""
    archive = tmp_path / "reno.json"
    main(
        [
            "collect", "--cca", "reno", "--out", str(archive),
            "--bandwidth", "10", "--rtt", "50", "--duration", "10",
        ]
    )
    capsys.readouterr()
    code = main(
        [
            "synthesize",
            "--traces", str(archive),
            "--dsl", "reno",
            "--max-depth", "2",
            "--max-nodes", "3",
            "--samples", "4",
            "--iterations", "1",
            "--time-budget", "0",
            "--report", "json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["budget_exceeded"] is True
    assert report["handler"]
    assert len(report["iterations"]) == 1


def test_synthesize_progress_and_summary_table(tmp_path, capsys):
    archive = tmp_path / "reno.json"
    main(
        [
            "collect", "--cca", "reno", "--out", str(archive),
            "--bandwidth", "10", "--rtt", "50", "--duration", "10",
        ]
    )
    capsys.readouterr()
    code = main(
        [
            "synthesize",
            "--traces", str(archive),
            "--dsl", "reno",
            "--max-depth", "2",
            "--max-nodes", "3",
            "--samples", "4",
            "--iterations", "1",
            "--progress",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "handler:" in captured.out
    assert "run summary" in captured.out  # the telemetry table
    assert "iter 1" in captured.err  # --progress writes to stderr


def test_missing_input_errors():
    with pytest.raises(SystemExit):
        main(["synthesize", "--dsl", "reno"])


def test_synthesize_rejects_removed_cache_flag():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["synthesize", "--cca", "reno", "--no-cache"])


def test_unknown_cca_rejected_by_parser():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["collect", "--cca", "nope", "--out", "x"])


def test_race_reports_shares(capsys):
    code = main(
        [
            "race", "--cca", "reno", "reno",
            "--bandwidth-mbps", "10", "--rtt-ms", "40", "--duration", "10",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "share_0_reno" in out
    assert "jain_index" in out


def test_race_rejects_unknown_cca():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["race", "--cca", "notacca"])


def test_stats_command(tmp_path, capsys):
    out = tmp_path / "t.json"
    main(
        [
            "collect", "--cca", "reno", "--out", str(out),
            "--bandwidth", "10", "--rtt", "50", "--duration", "8",
        ]
    )
    capsys.readouterr()
    assert main(["stats", "--traces", str(out)]) == 0
    text = capsys.readouterr().out
    assert "goodput" in text and "rtt min/p50/p95" in text


def test_synthesize_checkpoint_and_resume_flags(tmp_path, capsys):
    """--checkpoint writes a resumable file and --resume replays it
    through the same CLI invocation."""
    archive = tmp_path / "reno.json"
    main(
        [
            "collect", "--cca", "reno", "--out", str(archive),
            "--bandwidth", "10", "--rtt", "50", "--duration", "10",
        ]
    )
    capsys.readouterr()
    ckpt = tmp_path / "run.ckpt"
    base = [
        "synthesize",
        "--traces", str(archive),
        "--dsl", "reno",
        "--max-depth", "2", "--max-nodes", "3",
        "--samples", "4", "--iterations", "1",
    ]
    assert main(base + ["--checkpoint", str(ckpt)]) == 0
    first = capsys.readouterr().out
    assert ckpt.exists() and ckpt.read_text().strip()
    assert main(base + ["--resume", str(ckpt)]) == 0
    second = capsys.readouterr().out

    def handler_line(text):
        return next(l for l in text.splitlines() if l.startswith("handler:"))

    assert handler_line(second) == handler_line(first)


def test_synthesize_parser_accepts_resilience_flags():
    args = build_parser().parse_args(
        [
            "synthesize", "--traces", "t.json",
            "--checkpoint", "c.jsonl", "--resume", "c.jsonl",
            "--max-pool-rebuilds", "2", "--watchdog", "15",
        ]
    )
    assert args.checkpoint == "c.jsonl"
    assert args.resume == "c.jsonl"
    assert args.max_pool_rebuilds == 2
    assert args.watchdog == 15.0


def test_synthesize_no_batch_and_scoring_report(tmp_path, capsys):
    """--report json carries the batched-scoring counters, the text
    summary names the prune counters, and the removed --no-batch flag
    is refused with exit status 2 (every sketch scores through one
    route)."""
    archive = tmp_path / "reno.json"
    main(
        [
            "collect", "--cca", "reno", "--out", str(archive),
            "--bandwidth", "10", "--rtt", "50", "--duration", "10",
        ]
    )
    capsys.readouterr()
    base = [
        "synthesize", "--traces", str(archive), "--dsl", "reno",
        "--max-depth", "2", "--max-nodes", "3",
        "--samples", "4", "--iterations", "1",
    ]
    assert main(base + ["--report", "json"]) == 0
    batched = json.loads(capsys.readouterr().out)
    assert batched["scoring"]["batched_waves"] > 0
    assert batched["scoring"]["lb_pruned"] > 0

    with pytest.raises(SystemExit) as refused:
        main(base + ["--no-batch", "--report", "json"])
    assert refused.value.code == 2
    assert "--no-batch" in capsys.readouterr().err

    assert main(base) == 0
    text = capsys.readouterr().out
    assert "lb_pruned" in text and "dp_abandoned" in text


# ---------------------------------------------------------------------------
# repro validate


@pytest.fixture()
def trace_archive(tmp_path):
    archive = tmp_path / "reno.json"
    main(
        [
            "collect", "--cca", "reno", "--out", str(archive),
            "--bandwidth", "10", "--rtt", "50", "--duration", "10",
        ]
    )
    return archive


def test_validate_clean_archive(trace_archive, capsys):
    capsys.readouterr()
    assert main(["validate", str(trace_archive)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "0 refused" in out


def test_validate_repairable_corruption(trace_archive, tmp_path, capsys):
    from repro.trace.corrupt import corrupt_trace
    from repro.trace.io import load_traces

    trace = load_traces(trace_archive)[0]
    hostile = tmp_path / "hostile.json"
    hostile.write_text(corrupt_trace(trace, "duplicate_acks", seed=0).text)
    capsys.readouterr()
    assert main(["validate", str(hostile)]) == 0
    out = capsys.readouterr().out
    assert "REPAIRED" in out
    assert "duplicate_ack" in out
    # Strict policy refuses the same document and signals failure.
    assert main(["validate", str(hostile), "--policy", "strict"]) == 1
    assert "REFUSED" in capsys.readouterr().out


def test_validate_unloadable_document(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text('{"version": 1, "acks"')
    capsys.readouterr()
    assert main(["validate", str(garbage)]) == 1
    out = capsys.readouterr().out
    assert "unloadable" in out


def test_validate_json_report(trace_archive, tmp_path, capsys):
    from repro.trace.corrupt import corrupt_trace
    from repro.trace.io import load_traces

    trace = load_traces(trace_archive)[0]
    hostile = tmp_path / "hostile.json"
    hostile.write_text(corrupt_trace(trace, "record_shuffle", seed=0).text)
    capsys.readouterr()
    code = main(["validate", str(trace_archive), str(hostile), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["policy"] == "repair"
    assert report["failures"] == 0
    actions = {entry["action"] for entry in report["reports"]}
    assert "repaired" in actions
    repaired = next(
        e for e in report["reports"] if e["action"] == "repaired"
    )
    assert repaired["defects"]
    assert repaired["repairs"]
    assert 0.0 <= repaired["quality"] <= 1.0


def test_validate_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["validate", "x.json", "--policy", "yolo"])


def test_synthesize_trace_policy_off_matches_default(tmp_path, capsys):
    archive = tmp_path / "reno.json"
    main(
        [
            "collect", "--cca", "reno", "--out", str(archive),
            "--bandwidth", "10", "--rtt", "50", "--duration", "10",
        ]
    )
    capsys.readouterr()
    base = [
        "synthesize", "--traces", str(archive), "--dsl", "reno",
        "--max-depth", "2", "--max-nodes", "3", "--samples", "4",
        "--iterations", "1", "--report", "json",
    ]
    assert main(base + ["--trace-policy", "off"]) == 0
    off = json.loads(capsys.readouterr().out)
    assert main(base) == 0
    on = json.loads(capsys.readouterr().out)
    # Clean traces: triage on/off must not change the outcome...
    assert on["handler"] == off["handler"]
    assert on["distance"] == off["distance"]
    # ...but only the triaged run reports input telemetry.
    assert off["triage"] is None
    assert on["triage"]["accepted"] >= 1
    assert on["triage"]["rejected"] == 0
