"""Constraint-driven sketch enumeration (§4.1).

The paper encodes the search space as an SMT formula — sketches must
type-check, have the correct output unit, not be arithmetically
simplifiable, and not monotonically decrease — and asks Z3 for models one
at a time, blocking each previous solution.  Z3 is not available offline,
and the paper's queries are quantifier-free finite-domain (the solver is
a constrained *enumerator*), so this module implements the same semantics
directly: a lazy bottom-up generator over typed ASTs that applies every
constraint during construction and yields sketches in increasing size
order (deterministic, duplicate-free — structural blocking for free).

Constraints applied, mirroring §4.1:

* **grammar** — only the DSL's signals, macros and operators appear;
* **budgets** — AST depth and node count are capped;
* **types** — the grammar is intrinsically typed (bool only under
  conditionals);
* **units** — integer-exponent unit consistency with unit-polymorphic
  constants, and a bytes-valued root (skipped when the DSL disables
  strict units, as for Cubic);
* **non-simplifiability** — the rule system of
  :mod:`repro.dsl.simplify` rejects redundant sketches;
* **growth** — sketches that can never increase the window (the bare
  ``cwnd`` identity, or ``cwnd`` minus an unconditionally positive
  signal-free term) are rejected;
* **canonical commutativity** — for ``+`` and ``*`` only one operand
  order is generated, halving the space without losing any behavior.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.dsl import ast
from repro.dsl.families import DslSpec
from repro.dsl.macros import macro_definition
from repro.dsl.simplify import is_simplifiable
from repro.dsl.typecheck import SIGNAL_UNITS, infer_unit
from repro.errors import EnumerationError, TypeCheckError, UnitError
from repro.synth.sketch import Sketch
from repro.units import BYTES, Unit

__all__ = [
    "enumerate_sketches",
    "count_sketches",
    "leaf_pool",
    "min_feasible_size",
    "bucket_witnesses",
]

_HOLE = ast.Const(None, 0)

# Operator categories.
_ARITH = ("+", "-", "*", "/")
_PRED_OPS = ("cmp", "modeq")


def leaf_pool(dsl: DslSpec) -> list[tuple[ast.NumExpr, Unit | None]]:
    """The leaves available in *dsl*: signals, macros, and one hole."""
    leaves: list[tuple[ast.NumExpr, Unit | None]] = []
    for name in dsl.signals:
        leaves.append((ast.Signal(name), SIGNAL_UNITS[name]))
    for name in dsl.macros:
        leaves.append((ast.Macro(name), macro_definition(name).unit))
    leaves.append((_HOLE, None))
    return leaves


def _canonical_key(expr: ast.Expr) -> tuple[int, str]:
    return (ast.node_count(expr), repr(expr))


def _unify_ok(left: Unit | None, right: Unit | None) -> bool:
    return left is None or right is None or left == right


def _mul_unit(left: Unit | None, right: Unit | None) -> Unit | None:
    return None if left is None or right is None else left * right


def _div_unit(left: Unit | None, right: Unit | None) -> Unit | None:
    return None if left is None or right is None else left / right


class _Generator:
    """Lazy generator of well-formed sketches for one DSL + operator set."""

    def __init__(self, dsl: DslSpec, allowed_ops: frozenset[str]):
        unknown = allowed_ops - set(dsl.operators)
        if unknown:
            raise EnumerationError(
                f"operators {sorted(unknown)} not in DSL {dsl.name!r}"
            )
        self.dsl = dsl
        self.ops = allowed_ops
        self.leaves = leaf_pool(dsl)
        self.arith = [op for op in _ARITH if op in allowed_ops]
        self.has_cond = "cond" in allowed_ops
        self.preds = [op for op in _PRED_OPS if op in allowed_ops]
        self.has_cube = "cube" in allowed_ops
        self.has_cbrt = "cbrt" in allowed_ops
        # Sub-expression pools for small sizes are materialized once: the
        # recursive partitions below re-request them combinatorially.
        self._memo: dict[tuple[int, int], list] = {}
        self._memo_cutoff = 6

    # -- numeric expressions of exactly `size` nodes, depth <= `depth` --

    def nums(
        self, size: int, depth: int
    ) -> Iterator[tuple[ast.NumExpr, Unit | None]]:
        if size < 1 or depth < 1:
            return
        if size <= self._memo_cutoff:
            key = (size, depth)
            if key not in self._memo:
                self._memo[key] = list(self._nums_uncached(size, depth))
            yield from self._memo[key]
            return
        yield from self._nums_uncached(size, depth)

    def _nums_uncached(
        self, size: int, depth: int
    ) -> Iterator[tuple[ast.NumExpr, Unit | None]]:
        if size == 1:
            yield from self.leaves
            return
        if depth < 2:
            return
        # Unary cube / cbrt.
        if self.has_cube:
            for arg, unit in self.nums(size - 1, depth - 1):
                if isinstance(arg, (ast.Const, ast.Cbrt)):
                    continue  # cube(c) folds; cube(cbrt(x)) cancels
                yield ast.Cube(arg), (None if unit is None else unit**3)
        if self.has_cbrt:
            for arg, unit in self.nums(size - 1, depth - 1):
                if isinstance(arg, (ast.Const, ast.Cube)):
                    continue
                if unit is not None:
                    try:
                        out = unit.root(3)
                    except UnitError:
                        if self.dsl.strict_units:
                            continue
                        out = None
                else:
                    out = None
                yield ast.Cbrt(arg), out
        # Binary arithmetic.
        for op in self.arith:
            yield from self._binops(op, size, depth)
        # Conditionals.
        if self.has_cond and self.preds:
            yield from self._conds(size, depth)

    def _binops(
        self, op: str, size: int, depth: int
    ) -> Iterator[tuple[ast.NumExpr, Unit | None]]:
        commutative = op in ("+", "*")
        for left_size in range(1, size - 1):
            right_size = size - 1 - left_size
            if commutative and left_size > right_size:
                continue  # canonical order: smaller operand first
            for left, lu in self.nums(left_size, depth - 1):
                for right, ru in self.nums(right_size, depth - 1):
                    if commutative and left_size == right_size:
                        if _canonical_key(left) > _canonical_key(right):
                            continue
                    if not self._binop_ok(op, left, lu, right, ru):
                        continue
                    unit = self._binop_unit(op, lu, ru)
                    yield ast.BinOp(op, left, right), unit

    def _binop_ok(
        self,
        op: str,
        left: ast.NumExpr,
        lu: Unit | None,
        right: ast.NumExpr,
        ru: Unit | None,
    ) -> bool:
        left_const = isinstance(left, ast.Const)
        right_const = isinstance(right, ast.Const)
        if left_const and right_const:
            return False  # c1 (op) c2 folds to one constant
        if op in ("+", "-"):
            if self.dsl.strict_units and not _unify_ok(lu, ru):
                return False
            if op == "-" and left == right:
                return False  # x - x = 0
            if op == "+" and left == right:
                return False  # x + x = 2x, covered by c * x
        if op == "/" and left == right:
            return False  # x / x = 1
        if op == "-" and right_const:
            return False  # x - c ≡ x + c' (covered by the + bucket or x+c)
        if op == "/" and left_const:
            # c / x is kept (reciprocal shapes are real, e.g. 1/gradient),
            # but c / c was rejected above.
            pass
        # Collapse-of-constants through associativity: (c * x) * c etc.
        if op in ("+", "*"):
            if self._has_const_operand(op, left) and right_const:
                return False
            if self._has_const_operand(op, right) and left_const:
                return False
            if self._has_const_operand(op, left) and self._has_const_operand(
                op, right
            ):
                return False
        return True

    @staticmethod
    def _has_const_operand(op: str, expr: ast.NumExpr) -> bool:
        if isinstance(expr, ast.Const):
            return True
        if isinstance(expr, ast.BinOp) and expr.op == op:
            return _Generator._has_const_operand(
                op, expr.left
            ) or _Generator._has_const_operand(op, expr.right)
        return False

    def _binop_unit(
        self, op: str, lu: Unit | None, ru: Unit | None
    ) -> Unit | None:
        if op == "+":
            return lu if lu is not None else ru
        if op == "-":
            return lu if lu is not None else ru
        if op == "*":
            return _mul_unit(lu, ru)
        return _div_unit(lu, ru)

    def _conds(
        self, size: int, depth: int
    ) -> Iterator[tuple[ast.NumExpr, Unit | None]]:
        # Cond node (1) + predicate (>= 3) + then + else.
        for pred_size in range(3, size - 2):
            remaining = size - 1 - pred_size
            for pred in self._bools(pred_size, depth - 1):
                for then_size in range(1, remaining):
                    else_size = remaining - then_size
                    for then, tu in self.nums(then_size, depth - 1):
                        for other, ou in self.nums(else_size, depth - 1):
                            if then == other:
                                continue  # branches identical
                            if self.dsl.strict_units and not _unify_ok(
                                tu, ou
                            ):
                                continue
                            unit = tu if tu is not None else ou
                            yield ast.Cond(pred, then, other), unit

    def _bools(self, size: int, depth: int) -> Iterator[ast.BoolExpr]:
        if size < 3 or depth < 2:
            return
        for left_size in range(1, size - 1):
            right_size = size - 1 - left_size
            for left, lu in self.nums(left_size, depth - 1):
                for right, ru in self.nums(right_size, depth - 1):
                    both_const = isinstance(left, ast.Const) and isinstance(
                        right, ast.Const
                    )
                    if both_const or left == right:
                        continue
                    if self.dsl.strict_units and not _unify_ok(lu, ru):
                        continue
                    if "cmp" in self.preds:
                        yield ast.Cmp("<", left, right)
                        yield ast.Cmp(">", left, right)
                    if "modeq" in self.preds:
                        yield ast.ModEq(left, right)


def _never_grows(expr: ast.NumExpr) -> bool:
    """Structural test for handlers that can never raise the window.

    The paper's SMT encoding rejects monotonically decreasing handlers;
    we reject the clear-cut structural cases: the bare ``cwnd`` identity
    and ``cwnd - t`` where ``t`` is condition-free.
    """
    if expr == ast.Signal("cwnd"):
        return True
    if (
        isinstance(expr, ast.BinOp)
        and expr.op == "-"
        and expr.left == ast.Signal("cwnd")
    ):
        subtrahend_has_cond = any(
            isinstance(node, ast.Cond) for node in ast.walk(expr.right)
        )
        return not subtrahend_has_cond
    return False


def min_feasible_size(ops: frozenset[str]) -> int:
    """A lower bound on the node count of a sketch using exactly *ops*.

    Every arithmetic operator needs its own internal node plus one extra
    operand; each predicate type needs its own conditional (a Cond holds
    exactly one predicate node), costing ~5 nodes.  The bound may
    under-estimate (safe: only an extra witness probe) but never
    over-estimates, so an operator set whose bound exceeds the node
    budget labels a provably empty bucket.
    """
    arith = len(ops & {"+", "-", "*", "/"})
    unary = len(ops & {"cube", "cbrt"})
    pred_types = len(ops & {"cmp", "modeq"})
    return 1 + 2 * arith + unary + 5 * pred_types


def enumerate_sketches(
    dsl: DslSpec,
    *,
    allowed_ops: frozenset[str] | None = None,
    max_nodes: int | None = None,
    max_depth: int | None = None,
) -> Iterator[Sketch]:
    """Lazily yield well-formed sketches for *dsl*, smallest first.

    ``allowed_ops`` restricts the operator vocabulary (a pruned pool's
    union of surviving bucket keys); each sketch's exact operator set
    (``sketch.operators``) names its bucket (§4.4).
    """
    ops = (
        frozenset(dsl.operators) if allowed_ops is None else frozenset(allowed_ops)
    )
    generator = _Generator(dsl, ops)
    nodes_cap = max_nodes if max_nodes is not None else dsl.max_nodes
    depth_cap = max_depth if max_depth is not None else dsl.max_depth
    for size in range(1, nodes_cap + 1):
        for expr, unit in generator.nums(size, depth_cap):
            if dsl.strict_units and unit is not None and unit != BYTES:
                continue
            if _never_grows(expr):
                continue
            if is_simplifiable(expr):
                continue
            yield Sketch.from_expr(expr)


def count_sketches(
    dsl: DslSpec,
    *,
    allowed_ops: frozenset[str] | None = None,
    cap: int = 1_000_000,
    max_nodes: int | None = None,
    max_depth: int | None = None,
) -> int:
    """Count the sketches :func:`enumerate_sketches` would yield, up to *cap*."""
    total = 0
    for _ in enumerate_sketches(
        dsl,
        allowed_ops=allowed_ops,
        max_nodes=max_nodes,
        max_depth=max_depth,
    ):
        total += 1
        if total >= cap:
            break
    return total


def bucket_witnesses(
    dsl: DslSpec,
    key: frozenset[str],
    *,
    count: int = 4,
    max_attempts: int = 400,
) -> list[Sketch]:
    """Directly construct up to *count* valid sketches using exactly *key*.

    The constructive analogue of asking a per-bucket SMT solver for a few
    models: stack the required operators over varying leaf choices and
    keep the combinations that pass the usual well-formedness filters.
    Construction is unit-aware — additive operands come from bytes-valued
    leaves and multiplicative ones from dimensionless leaves (or a single
    hole) — so most attempts survive the strict-unit check.  Used to seed
    buckets whose smallest members lie too deep in the smallest-first
    enumeration order to reach by streaming (§4.4's guarantee that every
    bucket can be sampled).
    """
    arith = [op for op in _ARITH if op in key]
    preds = [op for op in _PRED_OPS if op in key]
    unary = [op for op in ("cube", "cbrt") if op in key]
    if ("cond" in key) != bool(preds):
        return []  # incoherent: cond without predicate or vice versa

    typed_leaves = leaf_pool(dsl)
    bytes_leaves = [expr for expr, unit in typed_leaves if unit == BYTES]
    dimless_leaves = [
        expr
        for expr, unit in typed_leaves
        if unit is not None and unit.is_dimensionless
    ]
    seconds_leaves = [
        expr
        for expr, unit in typed_leaves
        if unit is not None and unit.bytes == 0 and unit.seconds == 1
    ]
    hole = _HOLE
    # Multiplicative operands: dimensionless signals first, then one hole.
    scale_operands = dimless_leaves + [hole]

    witnesses: list[Sketch] = []
    seen: set[ast.NumExpr] = set()
    attempts = 0
    choice_space = itertools.product(
        bytes_leaves,
        bytes_leaves,
        scale_operands,
        scale_operands,
        bytes_leaves,
    )
    for base, add_operand, scale_a, scale_b, alternate in choice_space:
        if attempts >= max_attempts or len(witnesses) >= count:
            break
        attempts += 1
        expr: ast.NumExpr = base
        hole_used = False
        scales = iter((scale_a, scale_b))
        ok = True
        for op in arith:
            if op in ("+", "-"):
                operand: ast.NumExpr = add_operand
                if operand == expr:
                    ok = False
                    break
                expr = ast.BinOp(op, expr, operand)
            else:
                operand = next(scales, hole)
                if isinstance(operand, ast.Const):
                    if hole_used:
                        ok = False
                        break
                    hole_used = True
                expr = ast.BinOp(op, expr, operand)
        if not ok:
            continue
        for op in unary:
            expr = ast.Cube(expr) if op == "cube" else ast.Cbrt(expr)
        for pred_op in preds:
            if pred_op == "cmp" and len(seconds_leaves) >= 2:
                pred: ast.BoolExpr = ast.Cmp(
                    "<", seconds_leaves[0], seconds_leaves[1]
                )
            elif pred_op == "cmp":
                pred = ast.Cmp("<", bytes_leaves[0], bytes_leaves[1])
            else:
                pred = ast.ModEq(ast.Signal("cwnd"), hole)
            if alternate == expr:
                continue
            expr = ast.Cond(pred, expr, alternate)
        sketch = Sketch.from_expr(expr)
        if sketch.expr in seen:
            continue
        if sketch.operators != key:
            continue
        if sketch.size > dsl.max_nodes:
            continue
        if sketch.depth > dsl.max_depth:
            continue
        if is_simplifiable(sketch.expr):
            continue
        if dsl.strict_units:
            try:
                unit = infer_unit(sketch.expr)
            except (UnitError, TypeCheckError):
                continue
            if unit is not None and unit != BYTES:
                continue
        seen.add(sketch.expr)
        witnesses.append(sketch)
    return witnesses
