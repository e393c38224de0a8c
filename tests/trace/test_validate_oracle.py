"""The masked validator against a row-by-row oracle.

``validate_trace`` computes one mask per defect class over a trace's
columns.  The oracle below is the row-by-row validator it replaced: one
walk over the ack records per defect class.  On short traces with
planted defects (non-finite and negative fields, shuffled, duplicated
and regressing rows, clock jumps, bad loss records) both must report the
same counts, in the same order, and the same defect records (code,
message, index, in order).

The oracle compares duplicate rows as Python tuples, where a NaN equals
only the very same object.  Its rows share one NaN object, the way rows
read by ``json.loads`` do, which is the case the masked validator's
"a NaN cell equals a NaN cell" rule reproduces.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trace.model import AckRecord, LossRecord, Trace
from repro.trace.triage import (
    CLOCK_JUMP_SECONDS,
    LOSS_EPOCH_EPSILON,
    LOSS_SPAN_MARGIN,
    MAX_DEFECTS_PER_CLASS,
    DefectReport,
    TraceDefect,
    validate_trace,
)

NAN = float("nan")

# ---------------------------------------------------------------------------
# The oracle: row validators, one walk per defect class


def _finite(value) -> bool:
    return value is not None and math.isfinite(value)


def _check_nonfinite_fields(trace):
    for index, ack in enumerate(trace.acks):
        bad = [
            name
            for name, value in (
                ("time", ack.time),
                ("acked_bytes", ack.acked_bytes),
                ("cwnd_bytes", ack.cwnd_bytes),
                ("inflight_bytes", ack.inflight_bytes),
            )
            if not _finite(value)
        ]
        if ack.rtt_sample is not None and not math.isfinite(ack.rtt_sample):
            bad.append("rtt_sample")
        if bad:
            yield TraceDefect(
                "nonfinite_field",
                f"ack[{index}] has non-finite {'/'.join(bad)}",
                index,
            )
    for index, loss in enumerate(trace.losses):
        if not _finite(loss.time):
            yield TraceDefect(
                "nonfinite_field", f"loss[{index}] has non-finite time", index
            )


def _check_negative_fields(trace):
    for index, ack in enumerate(trace.acks):
        bad = [
            name
            for name, value in (
                ("acked_bytes", ack.acked_bytes),
                ("cwnd_bytes", ack.cwnd_bytes),
                ("inflight_bytes", ack.inflight_bytes),
            )
            if _finite(value) and value < 0
        ]
        if (
            ack.rtt_sample is not None
            and math.isfinite(ack.rtt_sample)
            and ack.rtt_sample <= 0
        ):
            bad.append("rtt_sample")
        if bad:
            yield TraceDefect(
                "negative_field",
                f"ack[{index}] has negative {'/'.join(bad)}",
                index,
            )


def _check_monotonic_time(trace):
    previous = float("-inf")
    for index, ack in enumerate(trace.acks):
        if not _finite(ack.time):
            continue
        if ack.time < previous:
            yield TraceDefect(
                "non_monotonic_time",
                f"ack[{index}] time {ack.time:.6f} precedes {previous:.6f}",
                index,
            )
        else:
            previous = ack.time


def _check_clock_jump(trace):
    previous = None
    for index, ack in enumerate(trace.acks):
        if not _finite(ack.time):
            continue
        if previous is not None and ack.time - previous > CLOCK_JUMP_SECONDS:
            yield TraceDefect(
                "clock_jump",
                f"ack[{index}] jumps {ack.time - previous:.1f}s forward",
                index,
            )
        previous = ack.time


def _check_duplicate_acks(trace):
    seen = set()
    for index, ack in enumerate(trace.acks):
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
            yield TraceDefect(
                "duplicate_ack",
                f"ack[{index}] duplicates an earlier record "
                f"(seq {ack.ack_seq} at t={ack.time:.6f})",
                index,
            )
        else:
            seen.add(key)


def _check_ack_seq_regression(trace):
    highest = None
    for index, ack in enumerate(trace.acks):
        if ack.dupack:
            continue
        if highest is not None and ack.ack_seq < highest:
            yield TraceDefect(
                "ack_seq_regression",
                f"ack[{index}] cumulative seq {ack.ack_seq} regresses "
                f"below {highest}",
                index,
            )
        else:
            highest = ack.ack_seq


def _check_loss_records(trace):
    times = [ack.time for ack in trace.acks if _finite(ack.time)]
    span = (min(times), max(times)) if times else None
    previous = None
    for index, loss in enumerate(
        sorted((l for l in trace.losses if _finite(l.time)), key=lambda l: l.time)
    ):
        if span is not None and not (
            span[0] - LOSS_SPAN_MARGIN <= loss.time <= span[1] + LOSS_SPAN_MARGIN
        ):
            yield TraceDefect(
                "loss_outside_span",
                f"loss at t={loss.time:.6f} outside ack span "
                f"[{span[0]:.6f}, {span[1]:.6f}]",
                index,
            )
        if previous is not None and loss.time - previous <= LOSS_EPOCH_EPSILON:
            yield TraceDefect(
                "duplicate_loss",
                f"loss epoch at t={loss.time:.6f} duplicated",
                index,
            )
        previous = loss.time


def _check_empty(trace):
    if not trace.acks:
        yield TraceDefect("empty_trace", "trace carries no ack records")


def _check_rtt_samples(trace):
    if trace.acks and not any(
        ack.rtt_sample is not None
        and _finite(ack.rtt_sample)
        and ack.rtt_sample > 0
        for ack in trace.acks
    ):
        yield TraceDefect(
            "no_rtt_samples", "trace carries no finite positive RTT sample"
        )


ORACLE_CHECKS = (
    _check_empty,
    _check_rtt_samples,
    _check_nonfinite_fields,
    _check_negative_fields,
    _check_monotonic_time,
    _check_clock_jump,
    _check_duplicate_acks,
    _check_ack_seq_regression,
    _check_loss_records,
)


def oracle_validate(trace) -> DefectReport:
    report = DefectReport(
        trace_label=f"{trace.cca_name}/{trace.environment_label}"
    )
    for check in ORACLE_CHECKS:
        for defect in check(trace):
            count = report.counts.get(defect.code, 0)
            report.counts[defect.code] = count + 1
            if count < MAX_DEFECTS_PER_CLASS:
                report.defects.append(defect)
    return report


# ---------------------------------------------------------------------------
# Short traces with planted defects

NONFINITE = st.sampled_from([NAN, math.inf, -math.inf])


@st.composite
def planted_traces(draw):
    rows = []
    time, seq = 0.0, 0
    for index in range(draw(st.integers(min_value=0, max_value=24))):
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
                draw(st.sampled_from([14600.0, 16060.0])),
                14600,
                dupack,
            ]
        )

    def pick(low=0):
        return draw(st.integers(min_value=low, max_value=len(rows) - 1))

    # Clock jumps first: their arithmetic would turn a planted NaN into
    # a NaN object of its own.
    if rows and draw(st.booleans()):
        start = pick()
        jump = draw(st.sampled_from([CLOCK_JUMP_SECONDS, 60.5, 300.0]))
        for row in rows[start:]:
            row[0] += jump
    for _ in range(draw(st.integers(min_value=0, max_value=6)) if rows else 0):
        at = pick()
        row = rows[at]
        kind = draw(
            st.sampled_from(
                ["nonfinite", "negative", "regress", "unsorted", "seq_reset"]
            )
        )
        if kind == "nonfinite":
            row[draw(st.sampled_from([0, 1, 2, 3, 4, 5]))] = draw(NONFINITE)
        elif kind == "negative":
            field = draw(st.sampled_from([2, 3, 4, 5]))
            row[field] = draw(st.sampled_from([-1.0, -1460, 0.0, -0.0]))
        elif kind == "regress":
            row[1] = draw(st.integers(min_value=0, max_value=seq))
        elif kind == "unsorted":
            row[0] = draw(st.sampled_from([0.0, 0.005, 0.2]))
        else:
            # A NaN sequence number, then a regression right after it.
            row[1] = NAN
            if at + 1 < len(rows):
                rows[at + 1][1] = draw(st.integers(min_value=0, max_value=1460))
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if rows else 0):
        rows.insert(pick(), list(rows[pick()]))
    # Twins: a later copy of a row with one cell written differently but
    # equal under the duplicate rule (NaN, a signed zero, a float count).
    # Defect messages print ``ack_seq`` as stored, and a stored integral
    # count prints as an int, so ``ack_seq`` gets no float twin.
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if rows else 0):
        source = pick()
        twin = list(rows[source])
        field = draw(st.sampled_from([0, 2, 3, 4, 5]))
        value = twin[field]
        if value is None or value != value:
            twin[field] = NAN
            rows[source][field] = NAN
        elif value == 0:
            twin[field] = -0.0
        else:
            twin[field] = float(value)
        rows.insert(draw(st.integers(source + 1, len(rows))), twin)
    if len(rows) > 2 and draw(st.booleans()):
        start = pick()
        window = rows[start : start + 4]
        order = draw(st.permutations(range(len(window))))
        rows[start : start + 4] = [window[k] for k in order]

    end = rows[-1][0] if rows else 0.0
    loss_times = st.one_of(
        st.sampled_from([0.1, 0.3, 0.3 + LOSS_EPOCH_EPSILON / 2]),
        st.sampled_from([-1e6, 1e9, end + LOSS_SPAN_MARGIN * 2]),
        NONFINITE,
    )
    losses = [
        LossRecord(value, "dupack")
        for value in draw(st.lists(loss_times, max_size=5))
    ]
    if losses and draw(st.booleans()):
        losses.append(LossRecord(losses[0].time, "timeout"))
    records = [AckRecord(*row[:6], dupack=row[6]) for row in rows]
    return records, losses


def _defects(report):
    return [(d.code, d.message, d.index) for d in report.defects]


@given(planted=planted_traces())
@example(  # a signed-zero span: the walk prints the first extreme it meets
    planted=(
        [
            AckRecord(0.0, 1460, 1460, 0.05, 14600.0, 14600),
            AckRecord(-0.0, 2920, 1460, 0.05, 14600.0, 14600),
        ],
        [LossRecord(-1e6)],
    )
)
@settings(max_examples=300, deadline=None)
def test_masked_validator_matches_row_oracle(planted):
    records, losses = planted
    oracle = oracle_validate(
        SimpleNamespace(
            acks=records,
            losses=losses,
            cca_name="hyp",
            environment_label="planted",
        )
    )
    found = validate_trace(Trace("hyp", "planted", 1460, records, losses))
    assert list(found.counts.items()) == list(oracle.counts.items())
    assert _defects(found) == _defects(oracle)
    assert found.render() == oracle.render()


def test_defect_records_capped_in_row_order():
    """Past the cap, counts stay exact and the records are the first
    ones, in row order, for every class at once."""
    records = [
        AckRecord(0.01 * i, 1460 * (i + 1), 1460, NAN, -1.0, 14600)
        for i in range(3 * MAX_DEFECTS_PER_CLASS)
    ]
    records += [records[5]] * (MAX_DEFECTS_PER_CLASS + 3)
    trace = SimpleNamespace(
        acks=records, losses=[], cca_name="hyp", environment_label="capped"
    )
    oracle = oracle_validate(trace)
    found = validate_trace(Trace("hyp", "capped", 1460, records))
    assert found.counts["duplicate_ack"] == MAX_DEFECTS_PER_CLASS + 3
    assert list(found.counts.items()) == list(oracle.counts.items())
    assert _defects(found) == _defects(oracle)
