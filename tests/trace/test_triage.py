"""Unit tests for the input triage guard (validate → repair → admit)."""

import math

import pytest

from repro.errors import TraceError
from repro.runtime import CollectorSink, RunContext, TraceRepairApplied, TraceTriaged
from repro.trace.model import AckRecord, LossRecord, Trace
from repro.trace.triage import (
    DEFECT_CLASSES,
    FATAL_DEFECTS,
    REPAIRABLE_DEFECTS,
    TriagePolicy,
    repair_trace,
    trace_quality,
    triage_trace,
    triage_traces,
    validate_trace,
)


def ack(time, seq=0, acked=1460, rtt=0.05, cwnd=14600.0, inflight=14600,
        dupack=False):
    return AckRecord(
        time=time,
        ack_seq=seq,
        acked_bytes=acked,
        rtt_sample=rtt,
        cwnd_bytes=cwnd,
        inflight_bytes=inflight,
        dupack=dupack,
    )


def make_trace(acks, losses=(), mss=1460):
    return Trace(
        cca_name="test",
        environment_label="lab",
        mss=mss,
        acks=list(acks),
        losses=list(losses),
    )


def well_formed_rows(n=20):
    return [ack(time=0.05 * i, seq=1460 * (i + 1)) for i in range(n)]


def well_formed(n=20):
    return make_trace(well_formed_rows(n))


# ---------------------------------------------------------------------------
# Stage 1: validation


def test_clean_trace_reports_clean():
    report = validate_trace(well_formed())
    assert report.is_clean
    assert report.total == 0
    assert "clean" in report.render()


def test_detects_non_monotonic_time():
    rows = well_formed_rows()
    rows[3], rows[7] = rows[7], rows[3]
    report = validate_trace(make_trace(rows))
    assert report.has("non_monotonic_time")
    assert report.defects[0].index is not None


def test_detects_nonfinite_fields():
    rows = well_formed_rows()
    rows[4] = ack(0.2, seq=1460 * 5, cwnd=float("nan"))
    rows[5] = ack(0.25, seq=1460 * 6, rtt=float("inf"))
    report = validate_trace(make_trace(rows))
    assert report.counts["nonfinite_field"] == 2


def test_detects_negative_fields():
    rows = well_formed_rows()
    rows[2] = ack(0.1, seq=1460 * 3, cwnd=-10.0)
    report = validate_trace(make_trace(rows))
    assert report.has("negative_field")


def test_detects_duplicate_acks():
    rows = well_formed_rows()
    rows.insert(5, rows[5])
    report = validate_trace(make_trace(rows))
    assert report.counts["duplicate_ack"] == 1


def test_detects_ack_seq_regression():
    rows = well_formed_rows()
    rows[6] = ack(0.3, seq=1)  # cumulative ack goes backwards
    report = validate_trace(make_trace(rows))
    assert report.has("ack_seq_regression")


def test_dupacks_do_not_count_as_regression():
    rows = well_formed_rows()
    rows.insert(6, ack(0.28, seq=1460, acked=0, dupack=True))
    report = validate_trace(make_trace(rows))
    assert not report.has("ack_seq_regression")


def test_detects_clock_jump():
    rows = well_formed_rows()
    rows.append(ack(500.0, seq=1460 * 21))
    report = validate_trace(make_trace(rows))
    assert report.has("clock_jump")


def test_detects_loss_outside_span_and_duplicate_epochs():
    trace = make_trace(
        [ack(time=0.05 * i, seq=1460 * (i + 1)) for i in range(20)],
        losses=[
            LossRecord(time=0.5),
            LossRecord(time=0.5),  # duplicated epoch
            LossRecord(time=1e6),  # far outside the ack span
        ],
    )
    report = validate_trace(trace)
    assert report.has("duplicate_loss")
    assert report.has("loss_outside_span")


def test_empty_and_no_rtt_are_fatal():
    assert validate_trace(make_trace([])).fatal == ("empty_trace",)
    no_rtt = make_trace([ack(0.05 * i, seq=1460 * (i + 1), rtt=None)
                         for i in range(5)])
    assert "no_rtt_samples" in validate_trace(no_rtt).fatal
    assert FATAL_DEFECTS == {"empty_trace", "no_rtt_samples"}


def test_every_defect_class_is_classified():
    for code in DEFECT_CLASSES:
        assert code in REPAIRABLE_DEFECTS or code in FATAL_DEFECTS


def test_defect_records_capped_but_counts_exact():
    trace = make_trace(
        [ack(time=0.05 * i, seq=1460 * (i + 1), cwnd=float("nan"))
         for i in range(100)]
        + [ack(5.1, seq=1460 * 101)]
    )
    report = validate_trace(trace)
    assert report.counts["nonfinite_field"] == 100
    materialized = [d for d in report.defects if d.code == "nonfinite_field"]
    assert len(materialized) == 32


# ---------------------------------------------------------------------------
# Stage 2: repair


def test_repair_is_pure_and_clean_trace_untouched():
    trace = well_formed()
    before = list(trace.acks)
    repaired, actions = repair_trace(trace)
    assert repaired is trace  # no defects → same object
    assert actions == []
    assert trace.acks == before


def test_repair_resorts_shuffled_records():
    rows = well_formed_rows()
    rows[3], rows[7] = rows[7], rows[3]
    repaired, actions = repair_trace(make_trace(rows))
    times = [a.time for a in repaired.acks]
    assert times == sorted(times)
    assert any(a.repair == "resort_time" for a in actions)
    assert validate_trace(repaired).is_clean


def test_repair_dedups_duplicate_acks():
    rows = well_formed_rows()
    rows.insert(5, rows[5])
    repaired, actions = repair_trace(make_trace(rows))
    assert len(repaired.acks) == 20
    assert any(a.repair == "duplicate_acks" for a in actions)


def test_repair_interpolates_nan_cwnd():
    rows = well_formed_rows()
    rows[4] = ack(0.2, seq=1460 * 5, cwnd=float("nan"))
    repaired, _ = repair_trace(make_trace(rows))
    value = repaired.acks[4].cwnd_bytes
    assert math.isfinite(value)
    assert value == pytest.approx(14600.0)


def test_repair_excises_nonfinite_times_and_counters():
    rows = well_formed_rows()
    rows[4] = ack(float("nan"), seq=1460 * 5)
    rows[6] = ack(0.3, seq=1460 * 7, acked=float("inf"))
    repaired, _ = repair_trace(make_trace(rows))
    assert len(repaired.acks) == 18
    assert validate_trace(repaired).is_clean


def test_repair_deskews_large_clock_jump():
    rows = well_formed_rows(40)
    # Inject a +300 s skew over the second half: too long to truncate.
    for index in range(20, 40):
        rows[index] = ack(
            rows[index].time + 300.0, seq=rows[index].ack_seq
        )
    repaired, actions = repair_trace(make_trace(rows))
    assert len(repaired.acks) == 40  # de-skewed, not dropped
    gaps = [
        b.time - a.time
        for a, b in zip(repaired.acks, repaired.acks[1:])
    ]
    assert max(gaps) < 1.0
    assert any(a.repair == "clock_jump" for a in actions)


def test_repair_truncates_trailing_garbage():
    rows = well_formed_rows(40)
    rows.append(ack(1e5, seq=1460 * 41))
    repaired, actions = repair_trace(make_trace(rows))
    assert len(repaired.acks) == 40
    action = next(a for a in actions if a.repair == "clock_jump")
    assert "truncated" in action.detail


def test_repair_cleans_loss_records():
    trace = make_trace(
        [ack(time=0.05 * i, seq=1460 * (i + 1)) for i in range(20)],
        losses=[
            LossRecord(time=0.5),
            LossRecord(time=0.5),
            LossRecord(time=1e6),
        ],
    )
    repaired, actions = repair_trace(trace)
    assert len(repaired.losses) == 1
    assert any(a.repair == "loss_records" for a in actions)


def test_quality_reflects_touched_fraction():
    rows = well_formed_rows(10)
    rows.insert(5, rows[5])
    trace = make_trace(rows)
    repaired, actions = repair_trace(trace)
    quality = trace_quality(trace, actions)
    assert 0.0 < quality < 1.0
    assert quality == pytest.approx(1.0 - 1 / 11)


# ---------------------------------------------------------------------------
# Stage 3: policy + admission


def test_policy_rejects_unknown_mode():
    with pytest.raises(TraceError):
        TriagePolicy(mode="yolo")
    with pytest.raises(TraceError):
        TriagePolicy(min_quality=1.5)


def test_clean_trace_is_same_object():
    trace = well_formed()
    result = triage_trace(trace, TriagePolicy())
    assert result.action == "clean"
    assert result.trace is trace  # bit-identical downstream behavior
    assert result.quality == 1.0
    assert "quality" not in trace.meta


def test_strict_refuses_any_defect():
    rows = well_formed_rows()
    rows.insert(5, rows[5])
    result = triage_trace(make_trace(rows), TriagePolicy(mode="strict"))
    assert result.action == "rejected"
    assert not result.accepted
    assert "strict" in result.reason


def test_repair_mode_admits_repaired_trace_with_meta():
    rows = well_formed_rows()
    rows.insert(5, rows[5])
    trace = make_trace(rows)
    result = triage_trace(trace, TriagePolicy(mode="repair"))
    assert result.action == "repaired"
    assert result.trace is not trace
    assert result.trace.meta["quality"] == pytest.approx(result.quality)
    assert "duplicate_ack" in result.trace.meta["triage_defects"]
    assert "duplicate_acks" in result.trace.meta["triage_repairs"]


def test_fatal_defects_refused_under_every_policy():
    for mode in ("strict", "repair", "permissive"):
        result = triage_trace(make_trace([]), TriagePolicy(mode=mode))
        assert result.action == "rejected"
        assert "fatal" in result.reason


def test_quality_floor_refuses_mangled_trace():
    rows = well_formed_rows(10)
    for index in range(7):
        rows[index] = ack(float("nan"), seq=rows[index].ack_seq)
    result = triage_trace(make_trace(rows), TriagePolicy(min_quality=0.9))
    assert result.action == "rejected"
    assert "below policy floor" in result.reason


def test_triage_traces_emits_telemetry():
    sink = CollectorSink()
    ctx = RunContext(sinks=[sink])
    clean = well_formed()
    rows = well_formed_rows()
    rows.insert(5, rows[5])
    dirty = make_trace(rows)
    summary = triage_traces([clean, dirty], TriagePolicy(), context=ctx)
    assert summary.accepted == 2
    assert summary.repaired == 1
    triaged = [e for e in sink.events if isinstance(e, TraceTriaged)]
    assert [e.action for e in triaged] == ["clean", "repaired"]
    repairs = [e for e in sink.events if isinstance(e, TraceRepairApplied)]
    assert repairs and repairs[0].repair == "duplicate_acks"


def test_triage_traces_raises_when_all_refused():
    with pytest.raises(TraceError, match="refused every trace"):
        triage_traces([make_trace([])], TriagePolicy())


def test_repair_is_deterministic():
    def dirty():
        rows = well_formed_rows(30)
        rows[3], rows[11] = rows[11], rows[3]
        rows.insert(5, rows[5])
        rows[20] = ack(1.0, seq=1460 * 21, cwnd=float("nan"))
        return make_trace(rows)

    first, _ = repair_trace(dirty())
    second, _ = repair_trace(dirty())
    assert first.acks == second.acks
    assert first.losses == second.losses
