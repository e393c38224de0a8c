"""Shared fixtures for the benchmark harness.

Every benchmark reproduces one of the paper's evaluation tables or
figures at laptop scale: the environment matrix, trace durations, and
search budgets are reduced (the paper used a cluster for up to 48 h per
CCA) while the algorithms are unchanged, so the *shape* of each result —
who wins, by what rough factor, where crossovers fall — is preserved.

Traces are collected once per CCA and cached for the whole session.
"""

from __future__ import annotations

import sys

import pytest

from repro.netsim import Environment
from repro.synth.refinement import SynthesisConfig
from repro.trace.collect import CollectionConfig, collect_traces
from repro.trace.model import Trace, TraceSegment
from repro.trace.noise import NoiseModel
from repro.trace.segmentation import segment_trace
from repro.trace.selection import select_diverse_segments

#: The scaled environment matrix: spans the paper's 5–15 Mbps x 10–100 ms.
BENCH_ENVIRONMENTS = (
    Environment(bandwidth_mbps=5.0, rtt_ms=25.0),
    Environment(bandwidth_mbps=10.0, rtt_ms=50.0),
    Environment(bandwidth_mbps=15.0, rtt_ms=80.0),
)

#: Per-trace simulated duration, seconds.
BENCH_DURATION = 15.0

#: Mild measurement noise applied to every "collected" trace, so the
#: optimization formulation is exercised the way the paper motivates it.
BENCH_NOISE = NoiseModel(
    jitter_std=0.002, dropout=0.02, cwnd_error=0.02, seed=13
)

#: Search budgets shared by the synthesis-driving benchmarks.
BENCH_SYNTHESIS = SynthesisConfig(
    initial_samples=8,
    initial_keep=5,
    completion_cap=12,
    max_iterations=2,
    exhaustive_cap=250,
    series_budget=96,
    max_replay_rows=320,
)


@pytest.fixture
def report(capfd):
    """A print function that bypasses pytest's fd-level capture.

    Benchmarks print the reproduced table/figure rows; this keeps them
    visible in a plain ``pytest benchmarks/ --benchmark-only`` run.
    """

    def _write(text: str = "") -> None:
        with capfd.disabled():
            print(text, file=sys.stdout, flush=True)

    return _write


def bench_collection() -> CollectionConfig:
    return CollectionConfig(
        duration=BENCH_DURATION,
        environments=BENCH_ENVIRONMENTS,
        noise=BENCH_NOISE,
        max_acks_per_trace=10_000,
    )


class TraceStore:
    """Session-wide cache of collected traces and segments per CCA."""

    def __init__(self) -> None:
        self._traces: dict[str, list[Trace]] = {}

    def traces(self, cca_name: str) -> list[Trace]:
        if cca_name not in self._traces:
            self._traces[cca_name] = collect_traces(
                cca_name, bench_collection()
            )
        return self._traces[cca_name]

    def segments(
        self, cca_name: str, *, limit: int = 6
    ) -> list[TraceSegment]:
        all_segments: list[TraceSegment] = []
        for trace in self.traces(cca_name):
            all_segments.extend(segment_trace(trace))
        if len(all_segments) > limit:
            all_segments = select_diverse_segments(all_segments, limit)
        return all_segments


@pytest.fixture(scope="session")
def store() -> TraceStore:
    return TraceStore()
