"""Candidate-handler replay over trace segments (§3.1).

Given a concrete handler and a trace segment, replay executes the handler
once per observed ACK, feeding it the *recorded* congestion signals but
its **own** evolving window — the statefulness that defeats stateless PBE
synthesizers (§2.2).  The output is the *synthesized trace*: the cwnd
series that handler would have produced under the same inputs, which the
distance metric then compares against the observed series.

This is the synthesis hot loop, so handlers are compiled
(:mod:`repro.dsl.compiled`) and trace columns are bound positionally;
the tree-walking evaluator remains the semantic reference (property
tests assert agreement).  :func:`replay_batch` replays all K
concretizations of a sketch at once: a stateful sketch in one call of
its generated loop (lanes, then rows, on Python floats), a cwnd-free
sketch in one call of its numpy lane program.  :func:`replay_handler`
stays the reference it is tested against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.dsl import ast
from repro.dsl.compiled import (
    CompiledHandler,
    CompiledVectorSketch,
    compile_handler,
)
from repro.errors import EvaluationError
from repro.trace.signals import SignalTable, extract_signals
from repro.trace.model import TraceSegment

__all__ = [
    "replay_handler",
    "replay_batch",
    "replay_on_segment",
    "CWND_CAP_FACTOR",
]

#: Candidate windows are clamped to this multiple of the largest observed
#: window: a handler that diverges numerically should score terribly, not
#: overflow or stall the arithmetic.
CWND_CAP_FACTOR = 16.0


def _bind_columns(
    compiled: CompiledHandler | CompiledVectorSketch, table: SignalTable
) -> tuple[list, int | None]:
    """Bind the handler's signals to per-row value sequences.

    Returns the sequences (positionally matching ``compiled.signals``)
    and the index of the ``cwnd`` parameter (replaced with the
    candidate's own state each step), or ``None`` if the handler ignores
    the window.
    """
    sequences: list = []
    cwnd_index: int | None = None
    for position, name in enumerate(compiled.signals):
        if name == "cwnd":
            cwnd_index = position
            sequences.append(itertools.repeat(0.0))
        elif name == "mss":
            sequences.append(itertools.repeat(float(table.mss)))
        elif name == "wmax":
            sequences.append(itertools.repeat(table.wmax))
        elif name in table.columns:
            sequences.append(table.column_list(name))
        else:
            raise EvaluationError(f"signal {name!r} missing from trace table")
    return sequences, cwnd_index


def replay_handler(
    handler: ast.NumExpr,
    table: SignalTable,
    *,
    initial_cwnd: float | None = None,
    compiled: CompiledHandler | None = None,
) -> np.ndarray:
    """Replay *handler* over *table*; return its cwnd series (bytes).

    The handler expression computes the *next* window from the current
    one plus the recorded signals.  The window is clamped to
    ``[mss, CWND_CAP_FACTOR * max(observed)]``.  Pass *compiled* to reuse
    a compilation across tables.
    """
    observed = table.observed_cwnd()
    count = len(table)
    if count == 0:
        return np.empty(0)
    mss = table.mss
    cap = CWND_CAP_FACTOR * float(observed.max())
    cwnd = float(observed[0]) if initial_cwnd is None else initial_cwnd
    out = np.empty(count)
    try:
        if compiled is None:
            compiled = compile_handler(handler)
        sequences, cwnd_index = _bind_columns(compiled, table)
    except EvaluationError:
        # An uncompilable/unbindable candidate cannot match anything.
        out[:] = cap
        return out

    fn = compiled.fn
    rows = itertools.islice(zip(*sequences), count) if sequences else None
    if rows is None:
        # Signal-free handler (a bare constant): constant series.
        value = fn()
        if not math.isfinite(value):
            # NaN passes both clamp comparisons (every comparison with
            # NaN is false) and min/max propagate it; pin divergence to
            # the cap so it scores terribly instead of poisoning the
            # distance metric.
            value = cap
        else:
            value = min(max(value, mss), cap)
        out[:] = value
        return out
    for index, values in enumerate(rows):
        if cwnd_index is not None:
            values = list(values)
            values[cwnd_index] = cwnd
        cwnd = fn(*values)
        if not math.isfinite(cwnd):
            # A NaN window would sail through both comparisons below
            # (NaN < mss and NaN > cap are both false), feed itself back
            # as next step's cwnd, and reach the distance metric.
            # Non-finite means the candidate diverged: pin it to the cap.
            cwnd = cap
        elif cwnd < mss:
            cwnd = mss
        elif cwnd > cap:
            cwnd = cap
        out[index] = cwnd
    return out


def replay_batch(
    vector: CompiledVectorSketch,
    assignments: list[tuple[float, ...]],
    table: SignalTable,
    *,
    initial_cwnd: float | None = None,
) -> np.ndarray:
    """Replay every concretization of a sketch in one pass over *table*.

    *vector* is the sketch compiled by
    :func:`repro.dsl.compiled.compile_sketch_vector`; *assignments* holds
    one hole-value tuple per candidate (aligned with
    ``ast.holes(sketch.expr)`` pre-order, exactly what
    :func:`repro.synth.concretize.concretization_assignments` yields).
    Returns a ``(K, n)`` matrix whose row ``k`` is bit-identical to
    ``replay_handler(fill_holes(sketch, assignments[k]), table)``
    (property-tested).  A stateful sketch runs its generated loop, which
    evaluates the scalar expression and the clamp chain of
    :func:`replay_handler` row by row; a cwnd-free sketch computes the
    whole matrix in one call of its numpy lane program.
    """
    lanes = len(assignments)
    observed = table.observed_cwnd()
    count = len(table)
    if count == 0:
        return np.empty((lanes, 0))
    mss = float(table.mss)
    cap = CWND_CAP_FACTOR * float(observed.max())

    if vector.stateful:
        try:
            sequences, _ = _bind_columns(vector, table)
        except EvaluationError:
            return np.full((lanes, count), cap)
        if initial_cwnd is None:
            initial_cwnd = observed[0]
        # Python floats only: a numpy scalar would send ``**`` through
        # numpy's power instead of the libm pow the scalar path uses.
        positions = vector.assignment_positions
        windows = vector.fn(
            [[float(values[p]) for p in positions] for values in assignments],
            list(itertools.islice(zip(*sequences), count)),
            float(initial_cwnd),
            mss,
            cap,
        )
        return np.array(windows, dtype=float).reshape(lanes, count)

    out = np.empty((lanes, count))
    hole_values = [
        np.array([values[position] for values in assignments], dtype=float)
        for position in vector.assignment_positions
    ]
    args: list = []
    try:
        for name in vector.signals:
            if name == "mss":
                args.append(table.mss)
            elif name == "wmax":
                args.append(table.wmax)
            elif name in table.columns:
                args.append(table.columns[name])
            else:
                raise EvaluationError(
                    f"signal {name!r} missing from trace table"
                )
    except EvaluationError:
        out[:] = cap
        return out

    fn = vector.fn
    with np.errstate(all="ignore"):
        if not args:
            # Signal-free sketch: one constant series per lane.
            values = np.broadcast_to(
                np.asarray(fn(*hole_values), dtype=float), (lanes,)
            )
            clamped = np.minimum(np.maximum(values, mss), cap)
            out[:] = np.where(np.isfinite(values), clamped, cap)[:, None]
            return out
        # Stateless sketch: no feedback, so every row is independent
        # and the whole (K, n) matrix falls out of one call.
        flat = [
            arg[np.newaxis, :] if isinstance(arg, np.ndarray) else arg
            for arg in args
        ]
        raw = np.broadcast_to(
            np.asarray(
                fn(*flat, *(h[:, None] for h in hole_values)),
                dtype=float,
            ),
            (lanes, count),
        )
        low = np.where(raw < mss, mss, np.where(raw > cap, cap, raw))
        out[:] = np.where(np.isfinite(raw), low, cap)
    return out


def replay_on_segment(
    handler: ast.NumExpr,
    segment: TraceSegment,
    *,
    initial_cwnd: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Convenience: extract signals, replay, and return
    ``(synthesized, observed)`` series for *segment*."""
    table = extract_signals(segment)
    synthesized = replay_handler(handler, table, initial_cwnd=initial_cwnd)
    return synthesized, table.observed_cwnd()
