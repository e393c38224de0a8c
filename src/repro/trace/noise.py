"""Measurement-noise injection for collected traces.

A central premise of the paper (§2.2) is that real packet traces are
*noisy*: the vantage point sees a jittered, incomplete view of the ground
truth, so an exact-match (decision-problem) synthesizer fails where an
optimization-based one succeeds.  This module produces noisy copies of
clean simulator traces so that the robustness claims can be exercised:

* **timestamp jitter** — Gaussian perturbation of ACK arrival times,
* **observation dropout** — a fraction of ACK records never reach the
  vantage point,
* **cwnd observation error** — multiplicative noise on the visible
  window (the vantage point estimates bytes-in-flight imperfectly),
* **unobserved losses** — a fraction of loss records are deleted, so
  ``time_since_loss`` is measured against the wrong epoch.

All perturbations are seeded and pure: the input trace is not mutated.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

import numpy as np

from repro.trace.model import LossRecord, Trace

__all__ = ["NoiseModel", "apply_noise"]


@dataclass(frozen=True)
class NoiseModel:
    """Noise intensities; all default to zero (no-op)."""

    jitter_std: float = 0.0  # seconds
    dropout: float = 0.0  # fraction of ack records dropped
    cwnd_error: float = 0.0  # std of multiplicative cwnd noise
    loss_dropout: float = 0.0  # fraction of loss records hidden
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 <= self.loss_dropout <= 1.0:
            raise ValueError("loss_dropout must be in [0, 1]")
        if self.jitter_std < 0 or self.cwnd_error < 0:
            raise ValueError("noise magnitudes must be non-negative")

    @property
    def is_noop(self) -> bool:
        return (
            self.jitter_std == 0.0
            and self.dropout == 0.0
            and self.cwnd_error == 0.0
            and self.loss_dropout == 0.0
        )


def apply_noise(trace: Trace, model: NoiseModel) -> Trace:
    """Return a noisy copy of *trace* according to *model*."""
    if model.is_noop:
        return trace
    # zlib.crc32, not hash(): string hashing is randomized per process and
    # would make "deterministic" noise differ between runs.
    label_hash = zlib.crc32(trace.environment_label.encode())
    rng = random.Random(model.seed ^ (label_hash & 0xFFFF))

    kept: list[int] = []
    times: list[float] = []
    windows: list[float] = []
    previous_time = float("-inf")
    for row, (time, cwnd) in enumerate(
        zip(trace.time.tolist(), trace.cwnd_bytes.tolist())
    ):
        if model.dropout and rng.random() < model.dropout:
            continue
        if model.jitter_std:
            time += rng.gauss(0.0, model.jitter_std)
        # Jitter must not reorder the trace; clamp to be non-decreasing.
        time = max(time, previous_time)
        previous_time = time
        if model.cwnd_error:
            cwnd *= max(1.0 + rng.gauss(0.0, model.cwnd_error), 0.05)
        kept.append(row)
        times.append(time)
        windows.append(cwnd)

    losses: list[LossRecord] = [
        loss
        for loss in trace.losses
        if not (model.loss_dropout and rng.random() < model.loss_dropout)
    ]

    columns = trace.columns(np.array(kept, dtype=np.intp))
    columns["time"] = times
    columns["cwnd_bytes"] = windows
    return Trace.from_columns(
        trace.cca_name,
        trace.environment_label,
        trace.mss,
        columns,
        losses,
        dict(trace.meta, noisy=1.0),
    )
