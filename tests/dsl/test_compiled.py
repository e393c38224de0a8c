"""Compiled-handler tests: exact agreement with the interpreter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl.compiled import compile_handler, compile_sketch_vector
from repro.dsl.evaluate import evaluate
from repro.dsl.parser import parse
from repro.errors import EvaluationError

ENV = {
    "cwnd": 30000.0,
    "mss": 1500.0,
    "acked_bytes": 1500.0,
    "rtt": 0.06,
    "min_rtt": 0.04,
    "max_rtt": 0.08,
    "ack_rate": 300000.0,
    "time_since_loss": 0.6,
    "ewma_rtt": 0.05,
    "wmax": 60000.0,
    "rtt_gradient": 0.01,
    "delay_gradient": 0.01,
    "inflight": 30000.0,
}


@pytest.mark.parametrize(
    "text",
    [
        "cwnd + 0.7 * reno_inc",
        "2 * mss",
        "(vegas_diff < 1) ? cwnd + mss : cwnd",
        "(cwnd % 2.7 == 0) ? 2.05 * cwnd : mss",
        "wmax + cube(8 * time_since_loss - cbrt(24 * wmax))",
        "cwnd / (rtt - rtt)",  # safe-division saturation
        "min_rtt * ack_rate * ((rtts_since_loss % 8 == 0) ? 2.6 : 2.05)",
    ],
)
def test_agrees_with_interpreter(text):
    expr = parse(text)
    compiled = compile_handler(expr)
    assert compiled.call_env(ENV) == pytest.approx(
        evaluate(expr, ENV), rel=1e-12, abs=1e-12
    )


def test_signals_collected_in_read_order():
    compiled = compile_handler(parse("rtt + min_rtt * cwnd"))
    assert set(compiled.signals) == {"rtt", "min_rtt", "cwnd"}


def test_macros_expand_to_signals():
    compiled = compile_handler(parse("reno_inc"))
    assert set(compiled.signals) == {"acked_bytes", "mss", "cwnd"}


def test_positional_call():
    compiled = compile_handler(parse("cwnd + mss"))
    args = [ENV[name] for name in compiled.signals]
    assert compiled(*args) == ENV["cwnd"] + ENV["mss"]


def test_constant_handler_takes_no_args():
    compiled = compile_handler(parse("42"))
    assert compiled.signals == ()
    assert compiled() == 42.0


def test_sketch_rejected():
    with pytest.raises(EvaluationError):
        compile_handler(parse("c0 * cwnd"))


def test_missing_signal_in_env():
    compiled = compile_handler(parse("wmax + mss"))
    with pytest.raises(EvaluationError):
        compiled.call_env({"mss": 1500.0})


@pytest.mark.parametrize("value", [1e200, -1e200])
def test_cube_overflow_saturates_in_every_backend(value):
    """``cube`` is total: where Python's ``**`` overflows, the
    interpreter, the compiled handler and the vector backend all
    saturate at the value cap."""
    expr = parse("cube(rtt)")
    expected = math.copysign(1e18, value)
    assert evaluate(expr, {"rtt": value}) == expected
    assert compile_handler(expr)(value) == expected
    with np.errstate(over="ignore"):  # as replay_batch calls it
        lanes = compile_sketch_vector(expr).fn(np.array([value]))
    assert lanes.tolist() == [expected]


def test_all_table2_handlers_compile():
    from repro.handlers import FINETUNED_TEXT, SYNTHESIZED_TEXT

    for text in list(SYNTHESIZED_TEXT.values()) + list(FINETUNED_TEXT.values()):
        compiled = compile_handler(parse(text))
        value = compiled.call_env(ENV)
        assert math.isfinite(value)


# Property: interpreter and compiled function agree on random ASTs/envs.
from tests.dsl.test_parser_printer import _ast_strategy  # noqa: E402

_env_values = st.floats(min_value=1e-4, max_value=1e6, allow_nan=False)


@given(
    _ast_strategy,
    st.fixed_dictionaries({name: _env_values for name in sorted(ENV)}),
)
@settings(max_examples=200, deadline=None)
def test_compiled_matches_interpreter_property(expr, overrides):
    from repro.dsl import ast as ast_mod

    env = dict(ENV)
    env.update(overrides)
    if ast_mod.holes(expr):
        # Compilation rejects sketches eagerly; the interpreter is lazy
        # (a hole inside an untaken branch may never be evaluated).
        with pytest.raises(EvaluationError):
            compile_handler(expr)
        return
    expected = evaluate(expr, env)
    compiled = compile_handler(expr)
    actual = compiled.call_env(env)
    if math.isfinite(expected):
        assert actual == pytest.approx(expected, rel=1e-12, abs=1e-12)
