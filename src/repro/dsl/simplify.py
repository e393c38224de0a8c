"""Rule-based arithmetic simplification for DSL expressions.

The paper uses sympy to reject enumerated sketches that are
"arithmetically simplifiable" (§4.1): a sketch like ``c1 * (c2 * cwnd)``
is redundant because ``c3 * cwnd`` covers the same behavior space with a
smaller tree.  sympy is unavailable offline, so this module implements the
same predicate with an explicit rewrite system covering the identities
that arise in the DSL:

* identity and annihilator elimination (``x+0``, ``x*1``, ``x*0``, …),
* constant folding, including through ``cube``/``cbrt``,
* self-cancellation (``x-x``, ``x/x``),
* collapse of hole-constant chains (``c1*(c2*x)`` folds to ``c3*x``),
* inverse pairs (``cbrt(cube(x))``),
* trivially decidable predicates and equal-branch conditionals.

Two entry points: :func:`simplify` rewrites to a fixpoint (used for
readability when presenting results, as in Table 2) and
:func:`is_simplifiable` is the enumeration filter.
"""

from __future__ import annotations

from repro.dsl import ast

__all__ = ["simplify", "is_simplifiable"]

_MAX_PASSES = 25


def _const(value: float) -> ast.Const:
    return ast.Const(float(value))


def _is_value(expr: ast.Expr, value: float) -> bool:
    return (
        isinstance(expr, ast.Const)
        and not expr.is_hole
        and expr.value == value
    )


def _is_constlike(expr: ast.Expr) -> bool:
    """True for any constant leaf, concrete or hole."""
    return isinstance(expr, ast.Const)


def _flatten(op: str, expr: ast.Expr) -> list[ast.Expr]:
    """Flatten an associative chain of *op* into its operand list."""
    if isinstance(expr, ast.BinOp) and expr.op == op:
        return _flatten(op, expr.left) + _flatten(op, expr.right)
    return [expr]


def _rewrite_once(expr: ast.Expr) -> ast.Expr:
    """Apply one bottom-up rewriting pass.

    A pass that fires no rule returns *expr* itself (``with_children``
    keeps a node whose children are unchanged), and every rule changes
    the tree, so "same object" means "fixpoint".
    """
    kids = ast.children(expr)
    if kids:
        expr = ast.with_children(expr, tuple(map(_rewrite_once, kids)))

    if isinstance(expr, ast.BinOp):
        left, right = expr.left, expr.right
        concrete = (
            isinstance(left, ast.Const)
            and not left.is_hole
            and isinstance(right, ast.Const)
            and not right.is_hole
        )
        if concrete:
            return _fold_binop(expr.op, left.value, right.value)
        if expr.op == "+":
            if _is_value(left, 0):
                return right
            if _is_value(right, 0):
                return left
            if left == right:
                return ast.BinOp("*", _const(2), left)
        elif expr.op == "-":
            if _is_value(right, 0):
                return left
            if left == right:
                return _const(0)
        elif expr.op == "*":
            if _is_value(left, 0) or _is_value(right, 0):
                return _const(0)
            if _is_value(left, 1):
                return right
            if _is_value(right, 1):
                return left
        elif expr.op == "/":
            if _is_value(left, 0):
                return _const(0)
            if _is_value(right, 1):
                return left
            if left == right:
                return _const(1)
        return expr

    if isinstance(expr, ast.Cond):
        if expr.then == expr.otherwise:
            return expr.then
        decided = _decide(expr.pred)
        if decided is not None:
            return expr.then if decided else expr.otherwise
        return expr

    if isinstance(expr, ast.Cube):
        if isinstance(expr.arg, ast.Cbrt):
            return expr.arg.arg
        if isinstance(expr.arg, ast.Const) and not expr.arg.is_hole:
            return _const(expr.arg.value**3)
        return expr

    if isinstance(expr, ast.Cbrt):
        if isinstance(expr.arg, ast.Cube):
            return expr.arg.arg
        if isinstance(expr.arg, ast.Const) and not expr.arg.is_hole:
            value = expr.arg.value
            return _const(
                abs(value) ** (1.0 / 3.0) * (1 if value >= 0 else -1)
            )
        return expr

    return expr


def _fold_binop(op: str, left: float, right: float) -> ast.Const:
    if op == "+":
        return _const(left + right)
    if op == "-":
        return _const(left - right)
    if op == "*":
        return _const(left * right)
    if right == 0:
        # Leave 1/0 as an (unfoldable) marker constant; evaluation
        # saturates anyway.  Folding to inf would poison later passes.
        return _const(float("inf"))
    return _const(left / right)


def _decide(pred: ast.BoolExpr) -> bool | None:
    """Statically decide a predicate over concrete constants, if possible."""
    if isinstance(pred, ast.Cmp):
        left, right = pred.left, pred.right
        if (
            isinstance(left, ast.Const)
            and not left.is_hole
            and isinstance(right, ast.Const)
            and not right.is_hole
        ):
            return (
                left.value < right.value
                if pred.op == "<"
                else left.value > right.value
            )
        if left == right:
            return False
    if isinstance(pred, ast.ModEq):
        left, right = pred.left, pred.right
        if left == right:
            return True
        if _is_value(left, 0):
            return True
    return None


def simplify(expr: ast.Expr) -> ast.Expr:
    """Rewrite *expr* to a fixpoint of the simplification rules."""
    for _ in range(_MAX_PASSES):
        rewritten = _rewrite_once(expr)
        if rewritten is expr:
            return expr
        expr = rewritten
    return expr


def _has_redundant_constants(expr: ast.Expr) -> bool:
    """Detect hole/constant combinations that fold into one constant.

    A sketch whose holes combine directly (``c1 + c2``, ``c1 * (c2 * x)``,
    ``cube(c1)``, ``c1 < c2``) is covered by a smaller sketch, so the
    enumerator must reject it even though the holes have no values yet.
    """
    for node in ast.walk(expr):
        if isinstance(node, ast.BinOp):
            if node.op in ("+", "*"):
                operands = _flatten(node.op, node)
                if sum(_is_constlike(item) for item in operands) >= 2:
                    return True
            else:
                if _is_constlike(node.left) and _is_constlike(node.right):
                    return True
                # (x - c1) and (x / c1) are fine; (c1 - c2) handled above.
        elif isinstance(node, (ast.Cube, ast.Cbrt)):
            if _is_constlike(node.arg):
                return True
        elif isinstance(node, (ast.Cmp, ast.ModEq)):
            if _is_constlike(node.left) and _is_constlike(node.right):
                return True
        elif isinstance(node, ast.Cond):
            if node.then == node.otherwise:
                return True
    return False


def is_simplifiable(expr: ast.Expr) -> bool:
    """True if the enumerator should discard *expr* as redundant."""
    if _has_redundant_constants(expr):
        return True
    return simplify(expr) is not expr
