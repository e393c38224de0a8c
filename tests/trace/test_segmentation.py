"""Loss-inference and segmentation tests."""

from repro.trace.model import AckRecord, LossRecord, Trace
from repro.trace.segmentation import (
    DUPACK_THRESHOLD,
    infer_loss_times,
    segment_trace,
)


def _dupack_trace():
    """A hand-built trace: 30 good ACKs, a triple-dupack episode, 30 more."""
    acks = []
    t = 0.0
    seq = 0
    for _ in range(30):
        t += 0.01
        seq += 1500
        acks.append(AckRecord(t, seq, 1500, 0.05, 30_000.0, 30_000))
    for _ in range(DUPACK_THRESHOLD + 1):
        t += 0.01
        acks.append(AckRecord(t, seq, 0, None, 30_000.0, 30_000, dupack=True))
    for _ in range(30):
        t += 0.01
        seq += 1500
        acks.append(AckRecord(t, seq, 1500, 0.05, 15_000.0, 15_000))
    return Trace("hand", "env", 1500, acks=acks)


def test_infer_from_triple_dupacks():
    trace = _dupack_trace()
    losses = infer_loss_times(trace)
    assert len(losses) == 1
    assert 0.30 < losses[0] < 0.36


def test_explicit_records_merged():
    trace = _dupack_trace()
    trace.losses.append(LossRecord(0.33, "dupack"))  # same event, recorded
    assert len(infer_loss_times(trace)) == 1
    trace.losses.append(LossRecord(0.55, "timeout"))  # distinct event
    assert len(infer_loss_times(trace)) == 2


def test_two_dupacks_not_a_loss():
    trace = _dupack_trace()
    # Strip two dupacks so the run is below threshold.
    rows = list(trace.acks)
    dupack_rows = [index for index, a in enumerate(rows) if a.dupack]
    del rows[dupack_rows[1]], rows[dupack_rows[0]]
    trace.acks = rows
    assert infer_loss_times(trace) == []


def test_segments_split_at_loss():
    segments = segment_trace(_dupack_trace(), min_acks=5)
    assert len(segments) == 2
    first, second = segments
    assert first.stop <= second.start
    # Segment ACK ranges do not include dupacks' zero-progress rows.
    assert all(not ack.dupack for ack in first.acks if ack.acked_bytes)


def test_min_acks_filter():
    segments = segment_trace(_dupack_trace(), min_acks=31)
    assert segments == []


def test_real_trace_segments(reno_trace):
    segments = segment_trace(reno_trace)
    assert segments
    losses = infer_loss_times(reno_trace)
    assert len(losses) >= len(reno_trace.losses)
    for segment in segments:
        assert len(segment) >= 12
        assert segment.start < segment.stop


def test_segments_ordered_and_disjoint(reno_trace):
    segments = segment_trace(reno_trace)
    for left, right in zip(segments, segments[1:]):
        assert left.stop <= right.start


def test_non_monotonic_time_raises_with_index():
    import pytest

    from repro.errors import TraceError

    trace = _dupack_trace()
    rows = list(trace.acks)
    rows[5], rows[10] = rows[10], rows[5]
    trace.acks = rows
    with pytest.raises(TraceError, match="triage"):
        segment_trace(trace)


def test_nonfinite_time_raises():
    import pytest

    from repro.errors import TraceError

    trace = _dupack_trace()
    rows = list(trace.acks)
    rows[5] = AckRecord(
        float("nan"), rows[5].ack_seq, 1500, 0.05, 30_000.0, 30_000
    )
    trace.acks = rows
    with pytest.raises(TraceError, match="non-finite"):
        segment_trace(trace)


def _scanned_bounds(trace, min_acks):
    """Segment bounds by a full scan of the trace per loss epoch: the
    oracle for :func:`segment_trace`'s binary search."""
    boundaries = [float("-inf")] + infer_loss_times(trace) + [float("inf")]
    bounds = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        indices = [
            index
            for index, ack in enumerate(trace.acks)
            if lo < ack.time <= hi and not ack.dupack
        ]
        if len(indices) >= min_acks:
            bounds.append(
                (
                    indices[0],
                    indices[-1] + 1,
                    lo if lo != float("-inf") else 0.0,
                )
            )
    return bounds


def _bounds(segments):
    return [
        (segment.start, segment.stop, segment.preceding_loss_time)
        for segment in segments
    ]


def test_segment_bounds_match_full_scan():
    """Every zoo CCA's noisy trace, every corrupted trace that loads and
    passes the time-order precheck, and a loss record with a NaN time
    (which empties the epochs it bounds), at two ``min_acks``."""
    import json

    from repro.cca import cca_names
    from repro.errors import TraceError
    from repro.netsim import Environment
    from repro.trace.collect import CollectionConfig, collect_traces
    from repro.trace.corrupt import corruption_corpus
    from repro.trace.io import trace_from_dict
    from repro.trace.noise import NoiseModel
    from repro.trace.segmentation import MIN_SEGMENT_ACKS

    config = CollectionConfig(
        duration=6.0,
        environments=(Environment(bandwidth_mbps=10.0, rtt_ms=50.0),),
        noise=NoiseModel(jitter_std=0.002, dropout=0.02, seed=1),
    )
    traces = [
        trace for name in cca_names() for trace in collect_traces(name, config)
    ]
    for sample in corruption_corpus(traces[cca_names().index("reno")]):
        try:
            traces.append(trace_from_dict(json.loads(sample.text)))
        except (TraceError, ValueError):
            continue  # refused at load: never segmented
    nan_loss = _dupack_trace()
    nan_loss.acks = [ack for ack in nan_loss.acks if not ack.dupack]
    nan_loss.losses.append(LossRecord(float("nan"), "timeout"))
    traces.append(nan_loss)
    checked = segments = 0
    for trace in traces:
        for min_acks in (1, MIN_SEGMENT_ACKS):
            try:
                found = _bounds(segment_trace(trace, min_acks=min_acks))
            except TraceError:
                continue  # refused by the precheck
            assert found == _scanned_bounds(trace, min_acks)
            checked += 1
            segments += len(found)
    assert checked > 2 * len(cca_names())
    assert segments > 300
