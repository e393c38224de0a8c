"""Compilation of DSL expressions to Python functions.

Handler replay (§3.1) evaluates a candidate expression once per ACK over
thousands of ACKs and thousands of candidates — the synthesis hot loop.
The tree-walking evaluator in :mod:`repro.dsl.evaluate` costs tens of
microseconds per call; this module compiles an expression once into a
plain Python function (via ``compile``/``exec`` of generated source)
with **identical semantics**, including the evaluator's per-operation
saturation, safe division, and the tolerant modular test.

:class:`CompiledHandler` also exposes the ordered tuple of signals the
expression reads, so the replay loop can bind trace columns positionally
and avoid building a dict per ACK.

:func:`compile_sketch_vector` is the batched backend: it compiles a
*sketch* (holes allowed) once for all K pool concretizations, one lane
each.  A sketch that reads ``cwnd`` feeds every row's window into the
next, so it compiles to one generated replay loop: over lanes, then over
rows, the scalar expression above with the holes bound as lane
parameters, then the replay clamp chain.  It runs on Python floats only,
so every operation is the one the scalar path runs.  A cwnd-free sketch
has independent rows and compiles to a numpy function over K-wide lane
vectors, so one call computes the whole (K, n) matrix.  Its helpers
reproduce the scalar saturation semantics elementwise — including
``np.float_power`` for ``Cube``, the one operation where numpy's default
``**`` fast-path (``x*x*x`` for small integer exponents) is *not*
bit-identical to Python's libm ``pow`` — so both backends match scalar
replay bit for bit (enforced by property tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.dsl import ast
from repro.dsl.evaluate import MODEQ_TOLERANCE, _DIV_EPSILON, _VALUE_CAP, _cube
from repro.dsl.macros import macro_definition
from repro.errors import EvaluationError

__all__ = [
    "CompiledHandler",
    "compile_handler",
    "CompiledVectorSketch",
    "compile_sketch_vector",
]


def _clamp(value: float) -> float:
    if value != value:  # NaN
        return _VALUE_CAP
    if value > _VALUE_CAP:
        return _VALUE_CAP
    if value < -_VALUE_CAP:
        return -_VALUE_CAP
    return value


def _div(left: float, right: float) -> float:
    if abs(right) < _DIV_EPSILON:
        return _VALUE_CAP if left >= 0 else -_VALUE_CAP
    return _clamp(left / right)


def _cbrt(value: float) -> float:
    return _clamp(math.copysign(abs(value) ** (1.0 / 3.0), value))


def _modeq(value: float, modulus: float) -> bool:
    if abs(modulus) < _DIV_EPSILON or not math.isfinite(value):
        # Matches the evaluator and the vector backend: a non-finite
        # value is never on a multiple (fmod(inf) is a domain error).
        return False
    remainder = math.fmod(abs(value), abs(modulus))
    tolerance = MODEQ_TOLERANCE * abs(modulus)
    return remainder <= tolerance or abs(modulus) - remainder <= tolerance


_HELPERS = {
    "_clamp": _clamp,
    "_div": _div,
    "_cube": _cube,
    "_cbrt": _cbrt,
    "_modeq": _modeq,
    "_isfinite": math.isfinite,
}


def _emit(
    expr: ast.Expr,
    names: list[str],
    hole_params: Mapping[int, str] | None = None,
) -> str:
    """Emit a Python expression string; collect signal names into *names*.

    With *hole_params*, a hole becomes the named parameter instead of an
    error (the replay loop binds one per lane).
    """
    if isinstance(expr, ast.Const):
        if expr.is_hole:
            if hole_params is not None:
                return hole_params[expr.hole_id]
            raise EvaluationError(
                f"cannot compile a sketch: hole c{expr.hole_id} is unfilled"
            )
        return repr(float(expr.value))
    if isinstance(expr, ast.Signal):
        if expr.name not in names:
            names.append(expr.name)
        return f"_s_{expr.name}"
    if isinstance(expr, ast.Macro):
        return _emit(macro_definition(expr.name).expansion, names, hole_params)
    if isinstance(expr, ast.BinOp):
        left = _emit(expr.left, names, hole_params)
        right = _emit(expr.right, names, hole_params)
        if expr.op == "/":
            return f"_div({left}, {right})"
        return f"_clamp(({left}) {expr.op} ({right}))"
    if isinstance(expr, ast.Cond):
        pred = _emit(expr.pred, names, hole_params)
        then = _emit(expr.then, names, hole_params)
        otherwise = _emit(expr.otherwise, names, hole_params)
        return f"(({then}) if ({pred}) else ({otherwise}))"
    if isinstance(expr, ast.Cube):
        return f"_cube({_emit(expr.arg, names, hole_params)})"
    if isinstance(expr, ast.Cbrt):
        return f"_cbrt({_emit(expr.arg, names, hole_params)})"
    if isinstance(expr, ast.Cmp):
        left = _emit(expr.left, names, hole_params)
        right = _emit(expr.right, names, hole_params)
        return f"(({left}) {expr.op} ({right}))"
    if isinstance(expr, ast.ModEq):
        left = _emit(expr.left, names, hole_params)
        right = _emit(expr.right, names, hole_params)
        return f"_modeq({left}, {right})"
    raise EvaluationError(f"cannot compile node {type(expr).__name__}")


@dataclass(frozen=True)
class CompiledHandler:
    """A handler compiled to a positional Python function.

    ``signals`` is the ordered tuple of signal names the function reads;
    ``fn`` takes exactly those values (floats), in order, and returns the
    next window.  :meth:`call_env` offers the dict-based interface of the
    interpreting evaluator for drop-in use.
    """

    signals: tuple[str, ...]
    fn: Callable[..., float]
    source: str

    def call_env(self, env: Mapping[str, float]) -> float:
        try:
            values = [float(env[name]) for name in self.signals]
        except KeyError as missing:
            raise EvaluationError(
                f"signal {missing.args[0]!r} missing from environment"
            ) from None
        return self.fn(*values)

    def __call__(self, *values: float) -> float:
        return self.fn(*values)


def compile_handler(expr: ast.NumExpr) -> CompiledHandler:
    """Compile *expr* (macros expanded) into a :class:`CompiledHandler`.

    The compiled function agrees with
    :func:`repro.dsl.evaluate.evaluate` on every input (enforced by
    property tests), but runs roughly an order of magnitude faster.
    """
    names: list[str] = []
    body = _emit(expr, names)
    params = ", ".join(f"_s_{name}" for name in names)
    source = f"def _handler({params}):\n    return {body}\n"
    namespace: dict[str, object] = dict(_HELPERS)
    exec(compile(source, "<compiled-handler>", "exec"), namespace)
    return CompiledHandler(
        signals=tuple(names),
        fn=namespace["_handler"],  # type: ignore[arg-type]
        source=source,
    )


# ----------------------------------------------------------------------
# Vectorized sketch backend (batched scoring).
#
# Each helper is the elementwise twin of its scalar counterpart above:
# for every finite/NaN/inf input, applying the vector helper to a 1-lane
# array yields exactly the scalar helper's float (IEEE-754 arithmetic is
# deterministic elementwise; only ``**`` needs ``np.float_power`` to
# route through the same libm ``pow`` the interpreter uses).


def _v_clamp(value):
    value = np.where(np.isnan(value), _VALUE_CAP, value)
    return np.minimum(np.maximum(value, -_VALUE_CAP), _VALUE_CAP)


def _v_div(left, right):
    small = np.abs(right) < _DIV_EPSILON
    safe = np.where(small, 1.0, right)
    saturated = np.where(np.greater_equal(left, 0.0), _VALUE_CAP, -_VALUE_CAP)
    return np.where(small, saturated, _v_clamp(np.divide(left, safe)))


def _v_cbrt(value):
    # float_power (not ``**``) for the same reason as _v_pow3: numpy's
    # array power can diverge from libm pow by an ulp on some inputs.
    return _v_clamp(
        np.copysign(np.float_power(np.abs(value), 1.0 / 3.0), value)
    )


def _v_pow3(value):
    # np.float_power promotes to float64 and calls libm pow, matching
    # Python's ``x ** 3`` bitwise; plain ``array ** 3`` does not (numpy
    # strength-reduces small integer exponents to repeated multiplies).
    return np.float_power(value, 3.0)


def _v_modeq(value, modulus):
    degenerate = np.abs(modulus) < _DIV_EPSILON
    safe = np.where(degenerate, 1.0, np.abs(modulus))
    remainder = np.fmod(np.abs(value), safe)
    tolerance = MODEQ_TOLERANCE * safe
    near = (remainder <= tolerance) | (safe - remainder <= tolerance)
    return near & ~degenerate


_VECTOR_HELPERS = {
    "_v_clamp": _v_clamp,
    "_v_div": _v_div,
    "_v_cbrt": _v_cbrt,
    "_v_pow3": _v_pow3,
    "_v_modeq": _v_modeq,
    "_np_where": np.where,
}


def _emit_vector(
    expr: ast.Expr, names: list[str], hole_params: dict[int, str]
) -> str:
    """Emit a numpy expression string; holes become lane parameters."""
    if isinstance(expr, ast.Const):
        if expr.is_hole:
            return hole_params[expr.hole_id]
        return repr(float(expr.value))
    if isinstance(expr, ast.Signal):
        if expr.name not in names:
            names.append(expr.name)
        return f"_s_{expr.name}"
    if isinstance(expr, ast.Macro):
        expansion = macro_definition(expr.name).expansion
        return _emit_vector(expansion, names, hole_params)
    if isinstance(expr, ast.BinOp):
        left = _emit_vector(expr.left, names, hole_params)
        right = _emit_vector(expr.right, names, hole_params)
        if expr.op == "/":
            return f"_v_div({left}, {right})"
        return f"_v_clamp(({left}) {expr.op} ({right}))"
    if isinstance(expr, ast.Cond):
        pred = _emit_vector(expr.pred, names, hole_params)
        then = _emit_vector(expr.then, names, hole_params)
        otherwise = _emit_vector(expr.otherwise, names, hole_params)
        # Both branches are evaluated (numpy has no lazy select), which
        # is safe because every DSL operation is total and saturating —
        # the unselected lane values are simply discarded elementwise.
        return f"_np_where(({pred}), ({then}), ({otherwise}))"
    if isinstance(expr, ast.Cube):
        arg = _emit_vector(expr.arg, names, hole_params)
        return f"_v_clamp(_v_pow3({arg}))"
    if isinstance(expr, ast.Cbrt):
        return f"_v_cbrt({_emit_vector(expr.arg, names, hole_params)})"
    if isinstance(expr, ast.Cmp):
        left = _emit_vector(expr.left, names, hole_params)
        right = _emit_vector(expr.right, names, hole_params)
        return f"(({left}) {expr.op} ({right}))"
    if isinstance(expr, ast.ModEq):
        left = _emit_vector(expr.left, names, hole_params)
        right = _emit_vector(expr.right, names, hole_params)
        return f"_v_modeq({left}, {right})"
    raise EvaluationError(f"cannot compile node {type(expr).__name__}")


def _replay_loop_source(body: str, names: list[str], hole_count: int) -> str:
    """The stateful replay loop around one row's expression *body*.

    Each row tuple holds one value per entry of *names*.  Its ``cwnd``
    entry is dropped, because each lane feeds its own window back in,
    and every new window goes through the clamp chain of
    :func:`repro.synth.replay.replay_handler`.
    """
    lane = "".join(f"_h_{index}, " for index in range(hole_count)) or "_ "
    row = "".join(
        "_, " if name == "cwnd" else f"_s_{name}, " for name in names
    )
    return (
        "def _replay(_lanes, _rows, _cwnd, _mss, _cap):\n"
        "    _out = []\n"
        f"    for {lane}in _lanes:\n"
        "        _s_cwnd = _cwnd\n"
        f"        for {row}in _rows:\n"
        f"            _s_cwnd = {body}\n"
        "            if not _isfinite(_s_cwnd):\n"
        "                _s_cwnd = _cap\n"
        "            elif _s_cwnd < _mss:\n"
        "                _s_cwnd = _mss\n"
        "            elif _s_cwnd > _cap:\n"
        "                _s_cwnd = _cap\n"
        "            _out.append(_s_cwnd)\n"
        "    return _out\n"
    )


@dataclass(frozen=True)
class CompiledVectorSketch:
    """A sketch compiled to one function over candidate lanes.

    A sketch that reads ``cwnd`` (:attr:`stateful`) compiles to its
    replay loop: ``fn(lanes, rows, cwnd, mss, cap)`` takes one list of
    hole values per lane (one per entry of ``hole_ids``), the row tuples
    (one value per entry of ``signals``), the initial window, and the
    clamp floor and cap, all Python floats.  It returns the windows in
    one flat list, lane after lane.

    Any other sketch compiles to a numpy lane program: ``fn`` takes the
    ``signals`` values (scalars, or arrays broadcast along the lane
    axis) followed by one lane vector per entry of ``hole_ids``, and
    returns the next-window values for every lane at once.

    ``assignment_positions`` maps each hole parameter to its index in an
    assignment tuple aligned with ``ast.holes`` pre-order (the last
    occurrence of a repeated id, matching ``fill_holes``'s dict
    semantics).
    """

    signals: tuple[str, ...]
    hole_ids: tuple[int, ...]
    assignment_positions: tuple[int, ...]
    fn: Callable[..., object]
    source: str

    @property
    def stateful(self) -> bool:
        """Whether the sketch reads its own window (``fn`` is a loop)."""
        return "cwnd" in self.signals


def compile_sketch_vector(expr: ast.NumExpr) -> CompiledVectorSketch:
    """Compile *expr* (holes allowed, macros expanded) into a
    :class:`CompiledVectorSketch`.

    Property tests assert that for every assignment, replaying the
    compiled sketch is bit-identical to replaying the filled handler
    compiled by :func:`compile_handler`.
    """
    # Hole order must match what concretization uses: pre-order on the
    # sketch expression (macro expansions hold no holes).
    all_holes = ast.holes(expr)
    last_position: dict[int, int] = {}
    for position, hole in enumerate(all_holes):
        last_position[hole.hole_id] = position
    hole_ids = tuple(dict.fromkeys(hole.hole_id for hole in all_holes))
    hole_params = {
        hole_id: f"_h_{index}" for index, hole_id in enumerate(hole_ids)
    }
    names: list[str] = []
    body = _emit(expr, names, hole_params)
    if "cwnd" in names:
        # Each row feeds the next its window: compile the row loop only.
        source = _replay_loop_source(body, names, len(hole_ids))
        namespace: dict[str, object] = dict(_HELPERS)
        exec(compile(source, "<compiled-replay-loop>", "exec"), namespace)
        fn = namespace["_replay"]
    else:
        # Independent rows: one numpy call computes every lane and row.
        names = []
        body = _emit_vector(expr, names, hole_params)
        params = ", ".join(
            [f"_s_{name}" for name in names]
            + [hole_params[hole_id] for hole_id in hole_ids]
        )
        source = f"def _sketch({params}):\n    return {body}\n"
        namespace = dict(_VECTOR_HELPERS)
        exec(compile(source, "<compiled-vector-sketch>", "exec"), namespace)
        fn = namespace["_sketch"]
    return CompiledVectorSketch(
        signals=tuple(names),
        hole_ids=hole_ids,
        assignment_positions=tuple(last_position[i] for i in hole_ids),
        fn=fn,  # type: ignore[arg-type]
        source=source,
    )
