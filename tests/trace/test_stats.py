"""Trace-statistics tests."""

from dataclasses import replace

import pytest

from repro.errors import TraceError
from repro.trace.model import Trace
from repro.trace.stats import summarize


@pytest.fixture(scope="module")
def stats(reno_trace):
    return summarize(reno_trace)


def test_empty_trace_rejected():
    with pytest.raises(TraceError):
        summarize(Trace("x", "y", 1500))


def test_duration_positive(stats, reno_trace):
    assert 0 < stats.duration <= reno_trace.duration + 1e-9


def test_goodput_below_link_rate(stats, small_env):
    assert 0 < stats.goodput_bps <= small_env.bandwidth_mbps * 1e6


def test_utilization(stats, small_env):
    utilization = stats.utilization(small_env.bandwidth_mbps * 1e6)
    assert 0.5 < utilization <= 1.0


def test_utilization_validates_bandwidth(stats):
    with pytest.raises(ValueError):
        stats.utilization(0.0)


def test_rtt_ordering(stats):
    assert stats.rtt_min <= stats.rtt_p50 <= stats.rtt_p95 <= stats.rtt_max


def test_rtt_inflation_at_least_one(stats):
    assert stats.rtt_inflation() >= 1.0


def test_cwnd_percentiles_ordered(stats):
    assert stats.cwnd_p10 <= stats.cwnd_mean <= stats.cwnd_p90 * 1.5


def test_loss_accounting(stats, reno_trace):
    assert stats.loss_events == len(reno_trace.losses)
    assert stats.loss_rate_per_sec == pytest.approx(
        stats.loss_events / stats.duration
    )


def test_dupack_fraction_in_range(stats):
    assert 0.0 <= stats.dupack_fraction < 1.0


def test_vegas_lower_inflation_than_reno(reno_trace, vegas_trace):
    """Delay-based Vegas queues less: smaller median RTT inflation."""
    assert (
        summarize(vegas_trace).rtt_inflation()
        < summarize(reno_trace).rtt_inflation()
    )


def test_delivered_bytes_positive(stats):
    assert stats.delivered_bytes > 0
    assert stats.ack_count > 0


@pytest.mark.parametrize("garbage", [float("nan"), float("inf"), -0.05, 0.0])
def test_garbage_rtt_samples_are_ignored(reno_trace, garbage):
    """A sample signal extraction would not use (non-finite or not
    positive) counts as missing here too."""
    rows = list(reno_trace.acks)
    index = next(i for i, ack in enumerate(rows) if ack.rtt_sample is not None)

    def with_sample(value):
        changed = list(rows)
        changed[index] = replace(rows[index], rtt_sample=value)
        return Trace("x", "y", reno_trace.mss, acks=changed)

    assert summarize(with_sample(garbage)) == summarize(with_sample(None))
