"""Batched-scoring equivalence suite.

The one scoring route must be *bit-identical* to the scalar reference,
not merely close: refinement rankings compare exact floats.  These
tests pin that equivalence at both levels — ``replay_batch``
row-for-row against ``replay_handler`` (including NaN/inf signal values
and the clamp-to-cap divergence handling), and ``Scorer.score_sketch``
against ``reference_score_sketch`` under every metric — plus the
satellite behaviors (table-cache LRU bound, telemetry counters).
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.base import METRICS
from repro.dsl import ast
from repro.dsl.compiled import compile_sketch_vector
from repro.dsl.parser import parse
from repro.dsl.printer import to_text
from repro.synth.concretize import concretization_assignments
from repro.synth.replay import replay_batch, replay_handler
from repro.synth import scoring
from repro.synth.scoring import Scorer, reference_score_sketch
from repro.synth.sketch import Sketch
from repro.trace.signals import SIGNAL_NAMES, SignalTable

#: Sketch shapes spanning the batched backends' branches: stateful
#: (the generated loop, with and without trace columns) / stateless /
#: signal-free lanes, holes in one or two positions, a repeated hole id
#: (the last occurrence wins, as in ``fill_holes``), conditionals, the
#: modular test, cube/cbrt (of a hole and of a signal), and division.
SKETCH_TEXTS = [
    "cwnd + c0 * mss",
    "c0",
    "c0 * wmax + c1 * mss",
    "c0 * rtt + min_rtt",
    "(rtt > ewma_rtt) ? cwnd - c0 * mss : cwnd + c1 * mss",
    "cwnd + cube(c0) / cwnd",
    "cwnd + acked_bytes / rtt * c0",
    "(time % c0 == 0) ? cwnd + mss : cwnd",
    "cbrt(cwnd * c0)",
    "cwnd * c0 + mss",
    "c0 * cwnd + c0 * mss",
    "cwnd + c0 * cube(rtt)",
]

POOL = (0.5, 0.7, 1.0, 2.0)

#: Eight constants over two hole positions give 64 lanes, the completion
#: cap the scoring throughput benchmark runs at.
WIDE_POOL = (0.25, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0)

_signal_value = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)


@st.composite
def signal_tables(draw):
    """A synthetic SignalTable with adversarial signal values.

    The observed cwnd stays finite and positive (it defines the clamp
    cap), but every other signal may be huge, infinite, or NaN — the
    values that exercise the clamp-to-cap divergence handling.
    """
    count = draw(st.integers(min_value=1, max_value=8))
    mss = draw(st.floats(min_value=100.0, max_value=3000.0))
    observed = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    columns = {"cwnd": np.array(observed)}
    for name in SIGNAL_NAMES:
        if name == "cwnd":
            continue
        columns[name] = np.array(
            draw(
                st.lists(_signal_value, min_size=count, max_size=count)
            )
        )
    columns["wmax"] = np.full(
        count, draw(st.floats(min_value=1.0, max_value=1e9, allow_nan=False))
    )
    return SignalTable(mss=mss, columns=columns)


def _assert_batch_matches_scalar(sketch: Sketch, table: SignalTable) -> None:
    vector = compile_sketch_vector(sketch.expr)
    hole_ids = [hole.hole_id for hole in ast.holes(sketch.expr)]
    lane_sets = [
        list(concretization_assignments(sketch, POOL, cap=16, seed=0))
    ]
    if len(hole_ids) == 2:
        wide = list(
            concretization_assignments(sketch, WIDE_POOL, cap=64, seed=0)
        )
        assert len(wide) == 64
        lane_sets.append(wide)
    for assignments in lane_sets:
        matrix = replay_batch(vector, assignments, table)
        assert matrix.shape == (len(assignments), len(table))
        for lane, values in enumerate(assignments):
            handler = ast.fill_holes(
                sketch.expr, dict(zip(hole_ids, values))
            )
            scalar = replay_handler(handler, table)
            np.testing.assert_array_equal(matrix[lane], scalar)
    assert replay_batch(vector, [], table).shape == (0, len(table))


@pytest.mark.parametrize("text", SKETCH_TEXTS)
@given(table=signal_tables())
@settings(max_examples=25, deadline=None)
def test_replay_batch_bitwise_matches_scalar(text, table):
    _assert_batch_matches_scalar(Sketch.from_expr(parse(text)), table)


@given(table=signal_tables())
@settings(max_examples=25, deadline=None)
def test_replay_batch_single_lane(table):
    """K=1 exercises the degenerate broadcast shapes."""
    sketch = Sketch.from_expr(parse("cwnd + 0.5 * mss"))
    vector = compile_sketch_vector(sketch.expr)
    matrix = replay_batch(vector, [()], table)
    np.testing.assert_array_equal(
        matrix[0], replay_handler(sketch.expr, table)
    )


def test_replay_batch_empty_table():
    sketch = Sketch.from_expr(parse("cwnd + c0 * mss"))
    vector = compile_sketch_vector(sketch.expr)
    table = SignalTable(
        mss=1500.0,
        columns={"time": np.empty(0), "cwnd": np.empty(0)},
    )
    matrix = replay_batch(vector, [(0.5,), (1.0,)], table)
    assert matrix.shape == (2, 0)


def test_replay_batch_missing_signal_pins_to_cap():
    """Both paths score an unbindable candidate at the cap everywhere."""
    sketch = Sketch.from_expr(parse("cwnd + c0 * rtt"))
    vector = compile_sketch_vector(sketch.expr)
    table = SignalTable(
        mss=1500.0,
        columns={
            "time": np.array([0.0, 1.0]),
            "cwnd": np.array([3000.0, 4500.0]),
        },
    )
    matrix = replay_batch(vector, [(0.5,), (1.0,)], table)
    for lane, values in enumerate([(0.5,), (1.0,)]):
        handler = ast.fill_holes(sketch.expr, {0: values[0]})
        np.testing.assert_array_equal(
            matrix[lane], replay_handler(handler, table)
        )


@pytest.mark.parametrize("text", SKETCH_TEXTS)
def test_replay_batch_on_real_trace(text, reno_segments):
    from repro.trace.signals import extract_signals

    table = extract_signals(reno_segments[0]).coalesce(384)
    _assert_batch_matches_scalar(Sketch.from_expr(parse(text)), table)


# ------------------------------------------------------- scorer equivalence


@pytest.fixture(scope="module")
def working(reno_segments):
    return reno_segments[:4]


def _scorer(**overrides):
    defaults = dict(constant_pool=POOL, completion_cap=16, seed=0)
    defaults.update(overrides)
    return Scorer(**defaults)


def _same(scored, reference):
    """Bit-identical distances (NaN payloads included) and handlers."""
    assert struct.pack("<d", scored.distance) == struct.pack(
        "<d", reference.distance
    )
    assert to_text(scored.handler) == to_text(reference.handler)


@pytest.mark.parametrize("text", SKETCH_TEXTS)
def test_score_sketch_batch_matches_scalar(text, working):
    sketch = Sketch.from_expr(parse(text))
    batched = _scorer().score_sketch(sketch, working)
    scalar = reference_score_sketch(_scorer(), sketch, working)
    assert batched.distance == scalar.distance  # bit-identical, not approx
    assert to_text(batched.handler) == to_text(scalar.handler)


@pytest.fixture(scope="module")
def unbounded_working(working):
    """*working* plus a segment whose observed series holds an ``inf``:
    LB_Keogh against it is infinite, so no lane of any sketch has a
    finite lower bound and the DTW route probes lane 0."""
    from repro.distance.preprocess import downsample
    from repro.runtime.shm import PlaneSegment

    entry = _scorer().prepare_segments(working[-1:])[0]
    observed = entry.observed.copy()
    observed[observed.size // 2] = np.inf
    poisoned = PlaneSegment(
        0, entry.table, observed, downsample(observed, 128), None
    )
    return [*working[:-1], poisoned]


@pytest.mark.parametrize("text", SKETCH_TEXTS)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_score_sketch_without_finite_lower_bound_matches_scalar(
    text, unbounded_working
):
    sketch = Sketch.from_expr(parse(text))
    scorer = _scorer()
    batched = scorer.score_sketch(sketch, unbounded_working)
    scalar = reference_score_sketch(_scorer(), sketch, unbounded_working)
    assert scorer.counters.batched_waves == 1  # the batched route ran
    _same(batched, scalar)


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_score_sketch_matches_reference_every_metric(
    metric, working, unbounded_working
):
    """Every metric scores through the one route, bit for bit the
    reference on every sketch shape, on a clean working set and on one
    with an ``inf`` in an observed series (where a metric may return
    ``inf`` or NaN, and a NaN that comes first must win)."""
    for segments in (working, unbounded_working):
        for text in SKETCH_TEXTS:
            sketch = Sketch.from_expr(parse(text))
            scorer = _scorer(metric_name=metric)
            scored = scorer.score_sketch(sketch, segments)
            assert scorer.counters.batched_waves == 1
            _same(
                scored,
                reference_score_sketch(
                    _scorer(metric_name=metric), sketch, segments
                ),
            )


def test_score_sketch_without_segments_or_compilation_matches_reference(
    working, monkeypatch
):
    """No working set, or a sketch the backend cannot compile: every
    concretization scores ``inf`` and the first one is the answer."""
    from repro.errors import EvaluationError

    sketch = Sketch.from_expr(parse("cwnd + c0 * mss"))
    _same(
        _scorer().score_sketch(sketch, []),
        reference_score_sketch(_scorer(), sketch, []),
    )

    def uncompilable(expr):
        raise EvaluationError("no backend")

    monkeypatch.setattr(scoring, "compile_handler", uncompilable)
    monkeypatch.setattr(scoring, "compile_sketch_vector", uncompilable)
    scored = _scorer().score_sketch(sketch, working)
    assert scored.distance == float("inf")
    _same(scored, reference_score_sketch(_scorer(), sketch, working))


def test_batched_counters_advance(working):
    scorer = _scorer()
    sketch = Sketch.from_expr(parse("c0 * cwnd + c1 * mss"))
    scorer.score_sketch(sketch, working)
    counters = scorer.counters
    assert counters.batched_waves == 1
    # 16 candidates over 4 segments: the cascade must have skipped work.
    assert counters.lb_pruned + counters.dp_abandoned > 0
    assert counters.candidates_pruned > 0
    assert counters.as_tuple() == (
        counters.batched_waves,
        counters.lb_pruned,
        counters.dp_abandoned,
        counters.candidates_pruned,
        counters.warm_start_pruned,
        counters.batched_dtw_sweeps,
        counters.envelope_precompute_ms,
    )
    # No incumbent bound was supplied, so warm-start pruning stays idle.
    assert counters.warm_start_pruned == 0


def test_scalar_path_leaves_counters_untouched(working):
    scorer = _scorer()
    reference_score_sketch(
        scorer, Sketch.from_expr(parse("c0 * cwnd + c1 * mss")), working
    )
    assert scorer.counters.as_tuple() == (0, 0, 0, 0, 0, 0, 0.0)


def test_table_cache_is_lru_capped(reno_segments, monkeypatch):
    monkeypatch.setattr(scoring, "DEFAULT_TABLE_CACHE_ENTRIES", 2)
    scorer = _scorer()
    assert len(reno_segments) >= 4
    for segment in reno_segments[:4]:
        scorer.table_for(segment)
    assert len(scorer._tables) == 2
    cached = [entry.segment for entry in scorer._tables.values()]
    assert reno_segments[2] in cached and reno_segments[3] in cached
    # A cached segment returns the identical table object (the memoized
    # column lists ride along with it).
    table = scorer.table_for(reno_segments[3])
    assert scorer.table_for(reno_segments[3]) is table
