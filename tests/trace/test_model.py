"""Trace/segment data-model tests."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.model import AckRecord, LossRecord, Trace, TraceSegment


def _trace(n=20, mss=1500):
    acks = [
        AckRecord(
            time=0.05 * index,
            ack_seq=1500 * (index + 1),
            acked_bytes=1500,
            rtt_sample=0.05 + 0.001 * index if index % 3 else None,
            cwnd_bytes=15_000 + 100.0 * index,
            inflight_bytes=15_000,
        )
        for index in range(n)
    ]
    return Trace(
        cca_name="test",
        environment_label="x",
        mss=mss,
        acks=acks,
        losses=[LossRecord(0.31, "dupack")],
    )


def test_invalid_mss():
    with pytest.raises(TraceError):
        Trace(cca_name="x", environment_label="y", mss=0)


def test_len_and_duration():
    trace = _trace(20)
    assert len(trace) == 20
    assert trace.duration == pytest.approx(0.05 * 19)


def test_empty_trace_duration():
    assert Trace("x", "y", 1500).duration == 0.0


def test_cwnd_series():
    series = _trace().cwnd_series()
    assert series[0] == 15_000
    assert np.all(np.diff(series) == 100.0)


def test_rtt_series_forward_fills():
    trace = _trace()
    series = trace.rtt_series()
    assert len(series) == len(trace)
    assert not np.isnan(series).any()
    # Index 3 has a real sample; index 0 had None and is back-filled.
    assert series[0] == series[1]


def test_rtt_series_requires_samples():
    trace = _trace(5)
    rows = list(trace.acks)
    for ack in rows:
        ack.rtt_sample = None
    trace.acks = rows
    with pytest.raises(TraceError):
        trace.rtt_series()


def test_segment_bounds_validation():
    trace = _trace(10)
    with pytest.raises(TraceError):
        TraceSegment(trace, start=5, stop=5, preceding_loss_time=0.0)
    with pytest.raises(TraceError):
        TraceSegment(trace, start=0, stop=99, preceding_loss_time=0.0)


def test_segment_views():
    trace = _trace(10)
    segment = TraceSegment(trace, start=2, stop=8, preceding_loss_time=0.1)
    assert len(segment) == 6
    assert segment.mss == 1500
    assert segment.times()[0] == pytest.approx(0.10)
    assert segment.cwnd_series()[0] == 15_200
    assert list(segment.iter_acks()) == trace.acks[2:8]
    assert "test" in segment.label


def test_columns_are_read_only_and_rows_built_on_access():
    trace = _trace()
    with pytest.raises(ValueError):
        trace.cwnd_bytes[0] = 1.0
    assert len(trace.acks) == 20
    assert trace.acks[-1] == trace.acks[19]
    # Integral counters read back as ints; a missing sample as None.
    assert type(trace.acks[0].ack_seq) is int
    assert trace.acks[0].rtt_sample is None
    assert list(trace.has_rtt[:3]) == [False, True, True]


def test_missing_and_nonfinite_rtt_samples_stay_apart():
    rows = list(_trace(3).acks)
    rows[1].rtt_sample = float("nan")
    trace = Trace("test", "x", 1500, acks=rows)
    assert list(trace.has_rtt) == [False, True, True]
    assert trace.acks[1].rtt_sample != trace.acks[1].rtt_sample
    assert trace.acks[0].rtt_sample is None


def test_equality_and_pickle_round_trip():
    import pickle

    trace = _trace()
    loaded = pickle.loads(pickle.dumps(trace))
    assert loaded == trace
    assert not loaded.time.flags.writeable
    rows = list(trace.acks)
    rows[2].cwnd_bytes = float("nan")
    with_nan = Trace("test", "x", 1500, acks=rows, losses=trace.losses)
    assert with_nan != trace
    assert with_nan == Trace("test", "x", 1500, acks=rows, losses=trace.losses)
