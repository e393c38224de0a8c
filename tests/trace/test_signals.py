"""Congestion-signal extraction tests."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.model import AckRecord, Trace, TraceSegment
from repro.trace.segmentation import segment_trace
from repro.trace.signals import SIGNAL_NAMES, extract_signals


@pytest.fixture(scope="module")
def table(reno_trace):
    segments = segment_trace(reno_trace)
    return extract_signals(segments[1])


def test_all_columns_present(table):
    for name in SIGNAL_NAMES:
        assert name in table.columns
        assert len(table.columns[name]) == len(table)


def test_time_monotonic(table):
    assert np.all(np.diff(table["time"]) >= 0)


def test_min_max_rtt_envelope(table):
    assert np.all(table["min_rtt"] <= table["rtt"] + 1e-12)
    assert np.all(table["max_rtt"] >= table["rtt"] - 1e-12)
    # Running min never increases; running max never decreases.
    assert np.all(np.diff(table["min_rtt"]) <= 1e-12)
    assert np.all(np.diff(table["max_rtt"]) >= -1e-12)


def test_rates_positive(table):
    assert np.all(table["ack_rate"] > 0)


def test_time_since_loss_resets_at_losses(reno_trace):
    segments = segment_trace(reno_trace)
    inner = [s for s in segments if s.preceding_loss_time > 0]
    assert inner, "need a post-loss segment"
    table = extract_signals(inner[0])
    # First ACK after a loss: small loss age; grows along the segment.
    assert table["time_since_loss"][0] < table["time_since_loss"][-1]
    assert np.all(table["time_since_loss"] > 0)


def test_environment_at_uses_candidate_cwnd(table):
    env = table.environment_at(0, cwnd=123456.0)
    assert env["cwnd"] == 123456.0
    assert env["mss"] == table.mss
    assert set(env) >= {"rtt", "min_rtt", "max_rtt", "ack_rate", "wmax"}


def test_ewma_smoother_than_raw(table):
    raw_var = np.var(np.diff(table["rtt"]))
    smooth_var = np.var(np.diff(table["ewma_rtt"]))
    assert smooth_var <= raw_var + 1e-15


def test_coalesce_preserves_acked_total(table):
    merged = table.coalesce(max_rows=32)
    assert len(merged) == 32
    assert merged["acked_bytes"].sum() == pytest.approx(
        table["acked_bytes"].sum()
    )


def test_coalesce_noop_when_short(table):
    assert table.coalesce(max_rows=10**6) is table


def test_coalesce_keeps_cwnd_range(table):
    merged = table.coalesce(max_rows=32)
    assert merged["cwnd"].min() >= table["cwnd"].min() - 1e-9
    assert merged["cwnd"].max() <= table["cwnd"].max() + 1e-9


def test_wmax_estimate(table):
    assert table.wmax == pytest.approx(table["cwnd"][0] / 0.7)


# ---------------------------------------------------------------------------
# Hostile-input guards


def _segment(acks):
    trace = Trace(
        cca_name="test", environment_label="lab", mss=1460, acks=list(acks)
    )
    return TraceSegment(
        trace=trace, start=0, stop=len(acks), preceding_loss_time=0.0
    )


def _ack(time, seq, rtt, cwnd=14600.0, acked=1460, inflight=14600):
    return AckRecord(
        time=time,
        ack_seq=seq,
        acked_bytes=acked,
        rtt_sample=rtt,
        cwnd_bytes=cwnd,
        inflight_bytes=inflight,
    )


def test_head_rtt_none_run_backfills_from_first_sample():
    acks = [_ack(0.05 * i, 1460 * (i + 1), None) for i in range(4)]
    acks += [_ack(0.05 * (4 + i), 1460 * (5 + i), 0.08) for i in range(4)]
    table = extract_signals(_segment(acks))
    # The leading missing-sample run carries the first real RTT instead
    # of a fabricated value poisoning min_rtt for the whole flow.
    assert np.all(table["rtt"] == pytest.approx(0.08))
    assert table["min_rtt"][0] == pytest.approx(0.08)


def test_all_rtt_missing_raises():
    acks = [_ack(0.05 * i, 1460 * (i + 1), None) for i in range(6)]
    with pytest.raises(TraceError, match="no usable RTT"):
        extract_signals(_segment(acks))


def test_nonfinite_rtt_treated_as_missing():
    acks = [_ack(0.05 * i, 1460 * (i + 1), 0.05) for i in range(6)]
    acks[3] = _ack(0.15, 1460 * 4, float("inf"))
    table = extract_signals(_segment(acks))
    assert np.all(np.isfinite(table["rtt"]))
    assert np.all(np.isfinite(table["max_rtt"]))
    assert table["max_rtt"][-1] == pytest.approx(0.05)


def test_nonfinite_cwnd_carries_last_finite():
    acks = [_ack(0.05 * i, 1460 * (i + 1), 0.05, cwnd=14600.0 + i)
            for i in range(6)]
    acks[2] = _ack(0.10, 1460 * 3, 0.05, cwnd=float("nan"))
    table = extract_signals(_segment(acks))
    assert np.all(np.isfinite(table["cwnd"]))
    assert table["cwnd"][2] == pytest.approx(14601.0)


def test_leading_nonfinite_cwnd_backfills():
    acks = [_ack(0.05 * i, 1460 * (i + 1), 0.05, cwnd=float("nan"))
            for i in range(3)]
    acks += [_ack(0.05 * (3 + i), 1460 * (4 + i), 0.05, cwnd=20000.0)
             for i in range(3)]
    table = extract_signals(_segment(acks))
    assert np.all(table["cwnd"][:3] == pytest.approx(20000.0))


def test_no_finite_cwnd_raises():
    acks = [_ack(0.05 * i, 1460 * (i + 1), 0.05, cwnd=float("nan"))
            for i in range(6)]
    with pytest.raises(TraceError, match="no finite cwnd"):
        extract_signals(_segment(acks))


def test_nonfinite_time_raises():
    acks = [_ack(0.05 * i, 1460 * (i + 1), 0.05) for i in range(6)]
    acks[3] = _ack(float("nan"), 1460 * 4, 0.05)
    with pytest.raises(TraceError, match="non-finite timestamps"):
        extract_signals(_segment(acks))


def test_time_since_loss_reads_latest_loss_whatever_the_record_order(small_env):
    """Triage sorts loss records before checking them, so a trace that
    lists its losses out of time order is clean; its signal tables must
    not depend on that order."""
    from repro.cca import make_cca
    from repro.netsim import simulate
    from repro.trace.triage import validate_trace

    forward = simulate(make_cca("reno"), small_env, duration=10.0)
    assert len(forward.losses) > 2
    backward = Trace(
        forward.cca_name,
        forward.environment_label,
        forward.mss,
        acks=forward.acks,
        losses=forward.losses[::-1],
    )
    assert validate_trace(backward).is_clean
    segments = segment_trace(forward)
    reordered = segment_trace(backward)
    assert [(s.start, s.stop) for s in reordered] == [
        (s.start, s.stop) for s in segments
    ]
    for mine, theirs in zip(segments, reordered):
        expected = extract_signals(mine).columns
        found = extract_signals(theirs).columns
        for name, column in expected.items():
            assert found[name].tobytes() == column.tobytes(), name
