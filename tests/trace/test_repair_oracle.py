"""The columnar repair against a row-by-row oracle.

``repair_trace`` runs every repair pass over a trace's columns, finding
each defect with the detector validation uses.  The oracle below is the
row-by-row repair it replaced: each pass walks a list of ack records and
the result is packed back into a trace.  On short traces with planted
defects (non-finite, negative and ``-0.0`` cells in every field;
shuffled, duplicated and regressing rows; several clock jumps, one of
them near the tail; all-NaN windows; missing and non-finite RTT samples;
bad loss records) both must return the same column bytes, losses,
actions and quality, and the very same trace when nothing needed repair.

Two habits of the row walk are part of the contract: a count read back
through ``counter`` stores ``-0.0`` as ``0.0``, and when no finite
window is left the touch count still includes the RTT samples that
were dropped.  Both sides carry the de-skew guard: a shifted suffix
never starts before the time it follows.
"""

from __future__ import annotations

import math
from dataclasses import replace as dc_replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trace.model import AckRecord, LossRecord, Trace
from repro.trace.triage import (
    CLOCK_JUMP_SECONDS,
    LOSS_EPOCH_EPSILON,
    LOSS_SPAN_MARGIN,
    REPAIRABLE_DEFECTS,
    TRAILING_GARBAGE_FRACTION,
    RepairAction,
    TriagePolicy,
    repair_trace,
    trace_quality,
    triage_trace,
    validate_trace,
)

NAN = float("nan")

# ---------------------------------------------------------------------------
# The oracle: row repair passes over ack records


def _repair_excise_unusable(acks):
    """Drop records whose time cannot be trusted at all (NaN/inf)."""
    kept = [ack for ack in acks if math.isfinite(ack.time)]
    return kept, len(acks) - len(kept)


def _repair_nonfinite_values(acks):
    """Excise non-finite counters, unset non-finite RTT samples, and
    interpolate non-finite windows between their finite neighbors."""
    touched = 0
    kept = []
    for ack in acks:
        if not (
            math.isfinite(ack.ack_seq)
            and math.isfinite(ack.acked_bytes)
            and math.isfinite(ack.inflight_bytes)
        ):
            touched += 1
            continue
        if ack.rtt_sample is not None and not math.isfinite(ack.rtt_sample):
            ack = dc_replace(ack, rtt_sample=None)
            touched += 1
        kept.append(ack)
    finite_indices = [
        i for i, ack in enumerate(kept) if math.isfinite(ack.cwnd_bytes)
    ]
    if finite_indices and len(finite_indices) < len(kept):
        for i, ack in enumerate(kept):
            if math.isfinite(ack.cwnd_bytes):
                continue
            before = max((j for j in finite_indices if j < i), default=None)
            after = min((j for j in finite_indices if j > i), default=None)
            if before is not None and after is not None:
                lo, hi = kept[before], kept[after]
                frac = (i - before) / (after - before)
                value = lo.cwnd_bytes + frac * (hi.cwnd_bytes - lo.cwnd_bytes)
            elif before is not None:
                value = kept[before].cwnd_bytes
            else:
                value = kept[after].cwnd_bytes
            kept[i] = dc_replace(ack, cwnd_bytes=value)
            touched += 1
    elif not finite_indices:
        touched += len(kept)
        kept = []
    return kept, touched


def _repair_negative_values(acks):
    """Excise records with negative counters, windows or RTT samples."""

    def bad(ack):
        return (
            ack.acked_bytes < 0
            or ack.cwnd_bytes < 0
            or ack.inflight_bytes < 0
            or (ack.rtt_sample is not None and ack.rtt_sample <= 0)
        )

    kept = [ack for ack in acks if not bad(ack)]
    return kept, len(acks) - len(kept)


def _repair_clock_jump(acks):
    """De-skew forward clock jumps, never to before the time the suffix
    follows; truncate short trailing garbage."""
    if len(acks) < 2:
        return acks, 0, ""
    gaps = sorted(
        b.time - a.time
        for a, b in zip(acks, acks[1:])
        if 0 <= b.time - a.time <= CLOCK_JUMP_SECONDS
    )
    median_gap = gaps[len(gaps) // 2] if gaps else 0.0
    out = list(acks)
    touched = 0
    detail = ""
    index = 1
    while index < len(out):
        jump = out[index].time - out[index - 1].time
        if jump > CLOCK_JUMP_SECONDS:
            suffix = len(out) - index
            if suffix <= max(2, int(len(out) * TRAILING_GARBAGE_FRACTION)):
                touched += suffix
                detail = f"truncated {suffix} trailing record(s)"
                out = out[:index]
                break
            shift = jump - median_gap
            before = out[index - 1].time
            out[index:] = [
                dc_replace(ack, time=max(ack.time - shift, before))
                for ack in out[index:]
            ]
            touched += 1
            detail = f"de-skewed {suffix} record(s) by {shift:.1f}s"
        index += 1
    return out, touched, detail


def _repair_resort_time(acks):
    """Stable re-sort by time; touches every record that moved."""
    resorted = sorted(acks, key=lambda ack: ack.time)
    touched = sum(
        1 for before, after in zip(acks, resorted) if before is not after
    )
    return resorted, touched


def _repair_duplicate_acks(acks):
    """Drop exact-duplicate ack records, keeping first occurrences."""
    seen = set()
    kept = []
    for ack in acks:
        key = (
            ack.time,
            ack.ack_seq,
            ack.acked_bytes,
            ack.rtt_sample,
            ack.cwnd_bytes,
            ack.inflight_bytes,
            ack.dupack,
        )
        if key in seen:
            continue
        seen.add(key)
        kept.append(ack)
    return kept, len(acks) - len(kept)


def _repair_ack_seq_regression(acks):
    """Drop new-data records whose cumulative ACK regresses."""
    kept = []
    highest = None
    for ack in acks:
        if not ack.dupack:
            if highest is not None and ack.ack_seq < highest:
                continue
            highest = ack.ack_seq
        kept.append(ack)
    return kept, len(acks) - len(kept)


def _repair_losses(losses, span):
    """Sort losses, drop non-finite/out-of-span times, dedup epochs."""
    finite = sorted(
        (loss for loss in losses if math.isfinite(loss.time)),
        key=lambda loss: loss.time,
    )
    kept = []
    for loss in finite:
        if span is not None and not (
            span[0] - LOSS_SPAN_MARGIN
            <= loss.time
            <= span[1] + LOSS_SPAN_MARGIN
        ):
            continue
        if kept and loss.time - kept[-1].time <= LOSS_EPOCH_EPSILON:
            continue
        kept.append(loss)
    return kept, len(losses) - len(kept)


def oracle_repair(trace):
    """Every row pass in order over ``trace.acks``; the repaired copy
    and the log, or *trace* itself when nothing needed repair."""
    actions = []
    acks = list(trace.acks)

    def log(repair, touched, detail):
        if touched:
            actions.append(RepairAction(repair, touched, detail))

    acks, touched = _repair_excise_unusable(acks)
    log("excise_unusable", touched, "non-finite timestamps")
    acks, touched = _repair_nonfinite_values(acks)
    log("nonfinite_values", touched, "interpolated/excised NaN-inf")
    acks, touched = _repair_negative_values(acks)
    log("negative_values", touched, "excised negatives")
    acks, touched = _repair_resort_time(acks)
    log("resort_time", touched, "stable re-sort by time")
    acks, touched, detail = _repair_clock_jump(acks)
    log("clock_jump", touched, detail)
    acks, touched = _repair_duplicate_acks(acks)
    log("duplicate_acks", touched, "exact-duplicate dedup")
    acks, touched = _repair_ack_seq_regression(acks)
    log("ack_seq_regression", touched, "dropped regressing acks")
    times = [ack.time for ack in acks]
    span = (min(times), max(times)) if times else None
    losses, touched = _repair_losses(list(trace.losses), span)
    log("loss_records", touched, "span/dedup loss hygiene")

    if not actions:
        return trace, []
    repaired = Trace(
        cca_name=trace.cca_name,
        environment_label=trace.environment_label,
        mss=trace.mss,
        acks=acks,
        losses=losses,
        meta=dict(trace.meta),
    )
    return repaired, actions


# ---------------------------------------------------------------------------
# Short traces with planted defects

#: What a planted cell becomes: non-finite, negative, or a signed zero.
BAD_CELLS = st.sampled_from(
    [NAN, math.inf, -math.inf, -1.0, -1460, -0.0, 0.0]
)


@st.composite
def planted_traces(draw):
    rows = []
    time, seq = 0.0, 0
    for index in range(draw(st.integers(min_value=0, max_value=40))):
        dupack = index > 0 and draw(st.integers(0, 4)) == 0
        time += draw(st.sampled_from([0.0, 0.01, 0.05]))
        if not dupack:
            seq += 1460
        rows.append(
            [
                time,
                seq,
                0 if dupack else 1460,
                None if dupack else draw(st.sampled_from([None, 0.05, 0.06])),
                draw(st.sampled_from([14600.0, 16060.0, 17520.0])),
                14600,
                dupack,
            ]
        )

    def pick():
        return draw(st.integers(min_value=0, max_value=len(rows) - 1))

    # Clock jumps: anywhere, or in the last two rows, where the suffix
    # is short enough to be truncated as trailing garbage.
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if rows else 0):
        start = draw(
            st.one_of(
                st.integers(0, len(rows) - 1),
                st.integers(max(0, len(rows) - 2), len(rows) - 1),
            )
        )
        jump = draw(st.sampled_from([60.5, 100.0, 300.0, 1e5]))
        for row in rows[start:]:
            row[0] += jump
    for _ in range(draw(st.integers(min_value=0, max_value=8)) if rows else 0):
        row = rows[pick()]
        kind = draw(st.sampled_from(["cell", "regress", "unsorted"]))
        if kind == "cell":
            row[draw(st.integers(0, 5))] = draw(BAD_CELLS)
        elif kind == "regress":
            row[1] = draw(st.integers(min_value=0, max_value=seq))
        else:
            row[0] = draw(st.sampled_from([0.0, 0.005, 0.2, 500.0]))
    if rows and draw(st.integers(0, 5)) == 0:
        for row in rows:  # no finite window left
            row[4] = draw(st.sampled_from([NAN, math.inf]))
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if rows else 0):
        rows.insert(pick(), list(rows[pick()]))
    if len(rows) > 2 and draw(st.booleans()):
        start = pick()
        window = rows[start : start + 4]
        order = draw(st.permutations(range(len(window))))
        rows[start : start + 4] = [window[k] for k in order]

    end = rows[-1][0] if rows else 0.0
    loss_times = st.one_of(
        st.sampled_from([0.1, 0.3, 0.3 + LOSS_EPOCH_EPSILON / 2]),
        st.sampled_from([-1e6, 1e9, end + LOSS_SPAN_MARGIN * 2]),
        st.sampled_from([NAN, math.inf]),
    )
    losses = [
        LossRecord(value, "dupack")
        for value in draw(st.lists(loss_times, max_size=5))
    ]
    if losses and draw(st.booleans()):
        losses.append(LossRecord(losses[0].time, "timeout"))
    records = [AckRecord(*row[:6], dupack=row[6]) for row in rows]
    return Trace("hyp", "planted", 1460, records, losses, {"source": "hyp"})


def _clean_rows(n):
    return [
        AckRecord(0.05 * i, 1460 * (i + 1), 1460, 0.05, 14600.0, 14600)
        for i in range(n)
    ]


@given(trace=planted_traces())
@example(  # a -0.0 count survives repair as 0.0
    trace=Trace(
        "hyp",
        "planted",
        1460,
        [
            AckRecord(0.0, 1460, 1460, 0.05, 14600.0, 14600),
            AckRecord(0.01, 1460, -0.0, None, 14600.0, -0.0, True),
            AckRecord(0.005, 2920, 1460, 0.05, 14600.0, 14600),
        ],
    )
)
@example(  # no finite window: the dropped RTT sample still counts
    trace=Trace(
        "hyp",
        "planted",
        1460,
        [
            AckRecord(0.0, 1460, 1460, NAN, NAN, 14600),
            AckRecord(0.01, 2920, 1460, 0.05, math.inf, 14600),
        ],
    )
)
@example(  # two interior NaN windows and a NaN tail
    trace=Trace(
        "hyp",
        "planted",
        1460,
        [
            dc_replace(row, cwnd_bytes=NAN) if i in (2, 3, 6, 9) else row
            for i, row in enumerate(_clean_rows(10))
        ],
    )
)
@settings(max_examples=400, deadline=None)
def test_columnar_repair_matches_row_oracle(trace):
    expected, expected_actions = oracle_repair(trace)
    found, actions = repair_trace(trace)
    assert actions == expected_actions
    assert (found is trace) == (expected is trace)
    assert found.losses == expected.losses
    assert found.meta == expected.meta
    for name, column in expected.columns().items():
        assert found.columns()[name].tobytes() == column.tobytes(), name
    assert trace_quality(trace, actions) == trace_quality(
        trace, expected_actions
    )


@given(trace=planted_traces())
@settings(max_examples=300, deadline=None)
def test_repair_leaves_no_repairable_defect(trace):
    repaired, _ = repair_trace(trace)
    assert not set(validate_trace(repaired).counts) & REPAIRABLE_DEFECTS


def test_deskew_never_lands_before_the_time_it_follows():
    """With a zero median gap, shifting a suffix back by its whole jump
    can round it a few ulps below the time it follows (here to
    0.001999999999995339 after 0.002).  The guard holds it there, so a
    trace whose one defect is a clock jump is admitted, clean."""
    rows = [
        AckRecord(time, 1460 * (i + 1), 1460, 0.05, 14600.0, 14600)
        for i, time in enumerate(
            [0.002, 0.002, 100.002, 100.002, 100.002, 100.002]
        )
    ]
    trace = Trace("hyp", "deskew", 1460, rows)
    assert list(validate_trace(trace).counts) == ["clock_jump"]
    result = triage_trace(trace, TriagePolicy("repair"))
    assert result.action == "repaired", result.reason
    assert validate_trace(result.trace).is_clean
    assert result.trace.time.tolist() == [0.002] * 6
    assert [(a.repair, a.touched) for a in result.repairs] == [
        ("clock_jump", 1)
    ]

