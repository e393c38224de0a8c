"""Evaluation of DSL expressions over per-ack signal environments.

A handler is evaluated once per ACK with an environment mapping signal
names to floats (``repro.synth.replay`` builds these from traces).  The
evaluator is total: arithmetic corner cases (division by ~zero, overflow,
cube-root of negatives) produce finite sentinel values rather than
exceptions, because a synthesized candidate that divides by zero should
simply score a terrible distance, not abort the search (§4.3 requires the
distance computation to tolerate bad candidates).
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.dsl import ast
from repro.dsl.macros import macro_definition
from repro.errors import EvaluationError

__all__ = ["evaluate", "evaluate_bool", "Environment", "MODEQ_TOLERANCE"]

#: Signal environment type: signal name -> value in SI units (bytes, seconds).
Environment = Mapping[str, float]

#: Relative tolerance for the float modular test ``a % b = 0``.
MODEQ_TOLERANCE = 0.05

#: Magnitude cap applied to every intermediate value; a candidate handler
#: that explodes numerically saturates here instead of overflowing.
_VALUE_CAP = 1e18

#: Divisors smaller than this (in absolute value) are treated as zero.
_DIV_EPSILON = 1e-12


def _clamp(value: float) -> float:
    if value != value:  # NaN
        return _VALUE_CAP
    if value > _VALUE_CAP:
        return _VALUE_CAP
    if value < -_VALUE_CAP:
        return -_VALUE_CAP
    return value


def _cube(value: float) -> float:
    # Python's float ``**`` raises OverflowError where numpy's power
    # returns an infinity; saturate to the cap the vector backend's
    # clamp gives that infinity.
    try:
        return _clamp(value**3)
    except OverflowError:
        return math.copysign(_VALUE_CAP, value)


def evaluate(expr: ast.NumExpr, env: Environment) -> float:
    """Evaluate a numeric expression over *env*.

    Raises :class:`EvaluationError` for unfilled holes or unknown signals;
    all arithmetic corner cases yield saturated finite values.
    """
    if isinstance(expr, ast.Const):
        if expr.is_hole:
            raise EvaluationError(
                f"cannot evaluate a sketch: hole c{expr.hole_id} is unfilled"
            )
        return float(expr.value)
    if isinstance(expr, ast.Signal):
        try:
            return float(env[expr.name])
        except KeyError:
            raise EvaluationError(
                f"signal {expr.name!r} missing from environment"
            ) from None
    if isinstance(expr, ast.Macro):
        return evaluate(macro_definition(expr.name).expansion, env)
    if isinstance(expr, ast.BinOp):
        left = evaluate(expr.left, env)
        right = evaluate(expr.right, env)
        if expr.op == "+":
            return _clamp(left + right)
        if expr.op == "-":
            return _clamp(left - right)
        if expr.op == "*":
            return _clamp(left * right)
        if abs(right) < _DIV_EPSILON:
            # Saturate rather than raise: a divide-by-zero candidate is a
            # bad candidate, and scoring will discard it.
            return _VALUE_CAP if left >= 0 else -_VALUE_CAP
        return _clamp(left / right)
    if isinstance(expr, ast.Cond):
        if evaluate_bool(expr.pred, env):
            return evaluate(expr.then, env)
        return evaluate(expr.otherwise, env)
    if isinstance(expr, ast.Cube):
        return _cube(evaluate(expr.arg, env))
    if isinstance(expr, ast.Cbrt):
        value = evaluate(expr.arg, env)
        return _clamp(math.copysign(abs(value) ** (1.0 / 3.0), value))
    raise EvaluationError(f"not a numeric expression: {type(expr).__name__}")


def evaluate_bool(expr: ast.BoolExpr, env: Environment) -> bool:
    """Evaluate a boolean expression over *env*."""
    if isinstance(expr, ast.Cmp):
        left = evaluate(expr.left, env)
        right = evaluate(expr.right, env)
        return left < right if expr.op == "<" else left > right
    if isinstance(expr, ast.ModEq):
        value = evaluate(expr.left, env)
        modulus = evaluate(expr.right, env)
        if abs(modulus) < _DIV_EPSILON or not math.isfinite(value):
            # An infinite value is never "on a multiple" (and fmod(inf)
            # is a domain error); a diverged candidate takes the else
            # branch instead of crashing the replay.
            return False
        remainder = math.fmod(abs(value), abs(modulus))
        # Accept remainders close to 0 or close to the modulus: float cwnd
        # values are never exactly on a multiple, and the paper's
        # synthesized BBR handler relies on `cwnd % 2.7 = 0` firing
        # intermittently.
        tolerance = MODEQ_TOLERANCE * abs(modulus)
        return remainder <= tolerance or abs(modulus) - remainder <= tolerance
    raise EvaluationError(f"not a boolean expression: {type(expr).__name__}")
