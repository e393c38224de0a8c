"""Unit tests for the DSL AST node types and tree utilities."""

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import ast
from repro.dsl.parser import parse


def test_const_hole_detection():
    assert ast.Const(None, 0).is_hole
    assert not ast.Const(1.5).is_hole


def test_binop_rejects_unknown_operator():
    with pytest.raises(ValueError):
        ast.BinOp("^", ast.Const(1.0), ast.Const(2.0))


def test_cmp_rejects_unknown_operator():
    with pytest.raises(ValueError):
        ast.Cmp("<=", ast.Const(1.0), ast.Const(2.0))


def test_children_order_binop():
    expr = ast.BinOp("+", ast.Signal("cwnd"), ast.Const(1.0))
    assert ast.children(expr) == (ast.Signal("cwnd"), ast.Const(1.0))


def test_children_order_cond():
    pred = ast.Cmp("<", ast.Signal("rtt"), ast.Signal("min_rtt"))
    expr = ast.Cond(pred, ast.Const(1.0), ast.Const(2.0))
    assert ast.children(expr) == (pred, ast.Const(1.0), ast.Const(2.0))


def test_with_children_replaces_in_order():
    expr = ast.BinOp("*", ast.Signal("cwnd"), ast.Const(2.0))
    replaced = ast.with_children(expr, (ast.Signal("mss"), ast.Const(3.0)))
    assert replaced == ast.BinOp("*", ast.Signal("mss"), ast.Const(3.0))


def test_with_children_arity_mismatch():
    expr = ast.BinOp("*", ast.Signal("cwnd"), ast.Const(2.0))
    with pytest.raises(ValueError):
        ast.with_children(expr, (ast.Signal("mss"),))


def test_walk_preorder():
    expr = parse("cwnd + mss * acked_bytes")
    names = [
        node.name for node in ast.walk(expr) if isinstance(node, ast.Signal)
    ]
    assert names == ["cwnd", "mss", "acked_bytes"]


def test_depth_counts_leaves_as_one():
    assert ast.depth(ast.Signal("cwnd")) == 1
    assert ast.depth(parse("cwnd + mss")) == 2
    assert ast.depth(parse("cwnd + mss * acked_bytes")) == 3


def test_macro_counts_as_single_leaf():
    expr = parse("cwnd + reno_inc")
    assert ast.depth(expr) == 2
    assert ast.node_count(expr) == 3


def test_node_count():
    assert ast.node_count(parse("cwnd")) == 1
    assert ast.node_count(parse("(rtt < min_rtt) ? cwnd : mss")) == 6


def test_holes_preorder_and_rename():
    expr = parse("c3 * cwnd + c7")
    renamed = ast.rename_holes(expr)
    ids = [hole.hole_id for hole in ast.holes(renamed)]
    assert ids == [0, 1]


def test_fill_holes():
    expr = ast.rename_holes(parse("c0 * cwnd + c1"))
    filled = ast.fill_holes(expr, {0: 0.5, 1: 2.0})
    assert not ast.holes(filled)
    assert filled == parse("0.5 * cwnd + 2")


def test_fill_holes_missing_assignment():
    expr = ast.rename_holes(parse("c0 * cwnd"))
    with pytest.raises(KeyError):
        ast.fill_holes(expr, {})


def test_operators_used_tokens():
    expr = parse("(vegas_diff < 1) ? cwnd + 0.7 * reno_inc : cwnd / 2")
    assert ast.operators_used(expr) == frozenset(
        {"cond", "cmp", "+", "*", "/"}
    )


def test_operators_used_modeq_and_cube():
    expr = parse("(cwnd % 2.7 == 0) ? cube(time_since_loss) : mss")
    assert ast.operators_used(expr) == frozenset({"cond", "modeq", "cube"})


def test_signals_and_macros_used():
    expr = parse("cwnd + reno_inc * rtt")
    assert ast.signals_used(expr) == frozenset({"cwnd", "rtt"})
    assert ast.macros_used(expr) == frozenset({"reno_inc"})


def test_expr_equality_is_structural():
    assert parse("cwnd + mss") == parse("cwnd + mss")
    assert parse("cwnd + mss") != parse("mss + cwnd")


def test_child_slots_cover_every_node_class():
    """Every concrete node class registers its child slots: exactly its
    Expr-typed fields, which come after its other fields."""
    bases = (ast.Expr, ast.NumExpr, ast.BoolExpr)
    concrete = {
        cls
        for cls in vars(ast).values()
        if isinstance(cls, type) and issubclass(cls, ast.Expr)
    } - set(bases)
    assert set(ast._CHILD_SLOTS) == concrete
    base_names = {cls.__name__ for cls in bases}
    for cls, slots in ast._CHILD_SLOTS.items():
        names = [field.name for field in fields(cls)]
        typed = [f.name for f in fields(cls) if f.type in base_names]
        assert list(slots) == typed
        assert names[len(names) - len(slots):] == typed


# ---------------------------------------------------------------------------
# Reflection oracle: the tree utilities built on ``dataclasses.fields``,
# which find a node's children by inspecting every field of every node.
# The slot-table utilities in ``repro.dsl.ast`` must agree with them on
# every tree.


def _ref_children(expr):
    out = []
    for field in fields(expr):
        value = getattr(expr, field.name)
        if isinstance(value, ast.Expr):
            out.append(value)
    return tuple(out)


def _ref_with_children(expr, new_children):
    child_fields = [
        field.name
        for field in fields(expr)
        if isinstance(getattr(expr, field.name), ast.Expr)
    ]
    if len(child_fields) != len(new_children):
        raise ValueError("arity mismatch")
    updates = dict(zip(child_fields, new_children))
    return replace(expr, **updates) if updates else expr


def _ref_walk(expr):
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_ref_children(node)))


def _ref_depth(expr):
    kids = _ref_children(expr)
    if not kids:
        return 1
    return 1 + max(_ref_depth(child) for child in kids)


def _ref_holes(expr):
    return tuple(
        node
        for node in _ref_walk(expr)
        if isinstance(node, ast.Const) and node.is_hole
    )


def _ref_operators_used(expr):
    ops = set()
    for node in _ref_walk(expr):
        if isinstance(node, ast.BinOp):
            ops.add(node.op)
        elif isinstance(node, ast.Cond):
            ops.add("cond")
        elif isinstance(node, ast.Cube):
            ops.add("cube")
        elif isinstance(node, ast.Cbrt):
            ops.add("cbrt")
        elif isinstance(node, ast.Cmp):
            ops.add("cmp")
        elif isinstance(node, ast.ModEq):
            ops.add("modeq")
    return frozenset(ops)


def _ref_rename_holes(expr):
    counter = 0

    def rec(node):
        nonlocal counter
        if isinstance(node, ast.Const) and node.is_hole:
            renamed = ast.Const(None, counter)
            counter += 1
            return renamed
        kids = _ref_children(node)
        if not kids:
            return node
        return _ref_with_children(node, tuple(rec(child) for child in kids))

    return rec(expr)


def _ref_fill_holes(expr, assignment):
    def rec(node):
        if isinstance(node, ast.Const) and node.is_hole:
            return ast.Const(assignment[node.hole_id], None)
        kids = _ref_children(node)
        if not kids:
            return node
        return _ref_with_children(node, tuple(rec(child) for child in kids))

    return rec(expr)


_LEAVES = st.one_of(
    st.sampled_from(
        [ast.Signal("cwnd"), ast.Signal("rtt"), ast.Macro("reno_inc")]
    ),
    st.builds(
        ast.Const,
        st.none() | st.sampled_from([0.0, 0.5, 2.0]),
        st.none() | st.integers(0, 4),
    ),
)


def _bools(nums):
    return st.one_of(
        st.builds(ast.Cmp, st.sampled_from(ast.CMP_OPS), nums, nums),
        st.builds(ast.ModEq, nums, nums),
    )


_NUMS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.builds(ast.BinOp, st.sampled_from(ast.ARITH_OPS), inner, inner),
        st.builds(ast.Cube, inner),
        st.builds(ast.Cbrt, inner),
        st.builds(ast.Cond, _bools(inner), inner, inner),
    ),
    max_leaves=12,
)
_EXPRS = _NUMS | _bools(_NUMS)


@settings(max_examples=300, deadline=None)
@given(_EXPRS)
def test_tree_utilities_agree_with_reflection_oracle(expr):
    kids = ast.children(expr)
    assert kids == _ref_children(expr)
    assert all(a is b for a, b in zip(kids, _ref_children(expr)))
    swapped = tuple(reversed(kids))
    assert ast.with_children(expr, swapped) == _ref_with_children(
        expr, swapped
    )
    nodes = list(ast.walk(expr))
    reference = list(_ref_walk(expr))
    assert len(nodes) == len(reference)
    assert all(a is b for a, b in zip(nodes, reference))
    assert ast.depth(expr) == _ref_depth(expr)
    assert ast.node_count(expr) == len(reference)
    assert ast.holes(expr) == _ref_holes(expr)
    assert ast.operators_used(expr) == _ref_operators_used(expr)
    renamed = ast.rename_holes(expr)
    assert renamed == _ref_rename_holes(expr)
    assignment = {
        hole.hole_id: float(index)
        for index, hole in enumerate(ast.holes(expr))
    }
    assert ast.fill_holes(expr, assignment) == _ref_fill_holes(
        expr, assignment
    )


@settings(max_examples=200, deadline=None)
@given(_EXPRS)
def test_one_walk_canonical_form(expr):
    """``with_children`` keeps a node whose children did not change, so
    renaming a canonical tree returns it; ``canonicalize`` gathers in one
    walk what the oracle's walks compute."""
    assert ast.with_children(expr, ast.children(expr)) is expr
    renamed = _ref_rename_holes(expr)
    assert ast.canonicalize(expr) == (
        renamed,
        _ref_operators_used(expr),
        len(list(_ref_walk(expr))),
        _ref_depth(expr),
        len(_ref_holes(expr)),
    )
    assert ast.rename_holes(renamed) is renamed
