"""Abstract syntax trees for Abagnale's congestion-control DSL.

The DSL (paper Listing 1) has two syntactic categories:

``num``
    congestion signals, the congestion window, constants, the four
    arithmetic operators, conditionals, cube and cube-root.

``bool``
    comparisons between numbers and the modular test ``num % num = 0``.

A *sketch* is an AST whose :class:`Const` leaves are **holes** — constants
with no value yet (``value is None``).  The enumerator produces sketches;
concretization (``repro.synth.concretize``) fills holes with values from a
constant pool, producing a *handler*: a closed expression that maps a
per-ack signal environment to the next congestion window in bytes.

Macros (paper Table 1) are leaf nodes: per §6.1, "we encode reno-inc as a
macro in Abagnale's DSL, so that sub-expression does not increase the
depth".  Their expansions live in :mod:`repro.dsl.macros`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter, is_
from typing import Iterator

__all__ = [
    "Expr",
    "NumExpr",
    "BoolExpr",
    "Const",
    "Signal",
    "Macro",
    "BinOp",
    "Cond",
    "Cube",
    "Cbrt",
    "Cmp",
    "ModEq",
    "ARITH_OPS",
    "CMP_OPS",
    "children",
    "with_children",
    "walk",
    "depth",
    "node_count",
    "holes",
    "operators_used",
    "signals_used",
    "macros_used",
    "fill_holes",
    "rename_holes",
    "canonicalize",
]

#: Binary arithmetic operator tokens accepted by :class:`BinOp`.
ARITH_OPS = ("+", "-", "*", "/")
#: Comparison operator tokens accepted by :class:`Cmp`.
CMP_OPS = ("<", ">")


@dataclass(frozen=True, slots=True)
class Expr:
    """Base class for every DSL AST node."""


@dataclass(frozen=True, slots=True)
class NumExpr(Expr):
    """Base class for nodes of syntactic category ``num``."""


@dataclass(frozen=True, slots=True)
class BoolExpr(Expr):
    """Base class for nodes of syntactic category ``bool``."""


@dataclass(frozen=True, slots=True)
class Const(NumExpr):
    """A numeric constant, or a *hole* when ``value is None``.

    ``hole_id`` distinguishes holes within one sketch so that
    concretization can assign them independently (c1, c2, ... in the
    paper's equation 2).
    """

    value: float | None = None
    hole_id: int | None = None

    @property
    def is_hole(self) -> bool:
        return self.value is None


@dataclass(frozen=True, slots=True)
class Signal(NumExpr):
    """A congestion signal or state variable read from the environment.

    Names follow the paper's Listing 1: ``cwnd``, ``mss``, ``acked_bytes``,
    ``time_since_loss``, ``rtt``, ``min_rtt``, ``max_rtt``, ``ack_rate``,
    ``rtt_gradient``, plus ``wmax`` for the Cubic DSL.
    """

    name: str


@dataclass(frozen=True, slots=True)
class Macro(NumExpr):
    """A named macro leaf (paper Table 1), e.g. ``reno_inc``.

    Macros count as a single node / depth-1 leaf during enumeration; their
    definitions are expanded only at evaluation time.
    """

    name: str


@dataclass(frozen=True, slots=True)
class BinOp(NumExpr):
    """One of the four arithmetic operators applied to two numbers."""

    op: str
    left: NumExpr
    right: NumExpr

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class Cond(NumExpr):
    """The ternary conditional ``bool ? num : num``."""

    pred: BoolExpr
    then: NumExpr
    otherwise: NumExpr


@dataclass(frozen=True, slots=True)
class Cube(NumExpr):
    """``num ** 3`` (Cubic-DSL extension)."""

    arg: NumExpr


@dataclass(frozen=True, slots=True)
class Cbrt(NumExpr):
    """``num ** (1/3)`` (Cubic-DSL extension)."""

    arg: NumExpr


@dataclass(frozen=True, slots=True)
class Cmp(BoolExpr):
    """``num < num`` or ``num > num``."""

    op: str
    left: NumExpr
    right: NumExpr

    def __post_init__(self) -> None:
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class ModEq(BoolExpr):
    """The modular test ``num % num = 0`` (used by pulsing handlers)."""

    left: NumExpr
    right: NumExpr


#: Child slot names of each node class, in syntactic order: the fields
#: that hold sub-expressions.  Every tree utility reads this table instead
#: of reflecting on each node, so a new node class registers here, and
#: its child fields must come after its other fields (``with_children``
#: rebuilds a node as ``cls(*other_fields, *children)``).
_CHILD_SLOTS: dict[type[Expr], tuple[str, ...]] = {
    Const: (),
    Signal: (),
    Macro: (),
    BinOp: ("left", "right"),
    Cond: ("pred", "then", "otherwise"),
    Cube: ("arg",),
    Cbrt: ("arg",),
    Cmp: ("left", "right"),
    ModEq: ("left", "right"),
}


def _slot_reader(names: tuple[str, ...]):
    """A function returning the values of *names* on a node, as a tuple."""
    if not names:
        return lambda expr: ()
    if len(names) == 1:
        read_one = attrgetter(names[0])
        return lambda expr: (read_one(expr),)
    return attrgetter(*names)


#: Per node class: the reader of its children and the names of its other
#: fields, both derived once from ``_CHILD_SLOTS``.
_READ_CHILDREN = {
    cls: _slot_reader(names) for cls, names in _CHILD_SLOTS.items()
}
_OTHER_FIELDS = {
    cls: tuple(f.name for f in fields(cls) if f.name not in names)
    for cls, names in _CHILD_SLOTS.items()
}


def children(expr: Expr) -> tuple[Expr, ...]:
    """Return the direct sub-expressions of *expr* in syntactic order."""
    return _READ_CHILDREN[type(expr)](expr)


def with_children(expr: Expr, new_children: tuple[Expr, ...]) -> Expr:
    """Return *expr* with its sub-expressions replaced in order.

    When every new child is the old child object, *expr* itself is
    returned, so a rewrite that changes nothing allocates nothing.
    """
    cls = type(expr)
    old_children = _READ_CHILDREN[cls](expr)
    if len(old_children) != len(new_children):
        raise ValueError(
            f"{cls.__name__} has {len(old_children)} children, "
            f"got {len(new_children)}"
        )
    if all(map(is_, old_children, new_children)):
        return expr
    return cls(
        *[getattr(expr, name) for name in _OTHER_FIELDS[cls]], *new_children
    )


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield *expr* and every descendant, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def depth(expr: Expr) -> int:
    """AST depth, counting leaves (including macros) as depth 1."""
    kids = children(expr)
    if not kids:
        return 1
    return 1 + max(map(depth, kids))


def node_count(expr: Expr) -> int:
    """Total number of AST nodes, counting macros as one node."""
    return 1 + sum(map(node_count, children(expr)))


def holes(expr: Expr) -> tuple[Const, ...]:
    """All hole constants in *expr*, in pre-order."""
    return tuple(
        node for node in walk(expr) if isinstance(node, Const) and node.is_hole
    )


#: The operator name of each non-arithmetic operator node class.
_OPERATOR_NAMES: dict[type[Expr], str] = {
    Cond: "cond",
    Cube: "cube",
    Cbrt: "cbrt",
    Cmp: "cmp",
    ModEq: "modeq",
}


def _operator_name(node: Expr) -> str | None:
    """The operator name *node* contributes to :func:`operators_used`:
    a :class:`BinOp`'s token, the lower-case class name of any other
    operator (``cond``, ``cube``, ...), ``None`` for a leaf."""
    if type(node) is BinOp:
        return node.op
    return _OPERATOR_NAMES.get(type(node))


def operators_used(expr: Expr) -> frozenset[str]:
    """The set of operator names appearing in *expr*.

    This is Abagnale's bucket discriminator (paper §4.4, option 2):
    arithmetic operators by token, plus ``cond``, ``cube``, ``cbrt``,
    ``cmp`` and ``modeq``.
    """
    names = set(map(_operator_name, walk(expr)))
    names.discard(None)
    return frozenset(names)


def signals_used(expr: Expr) -> frozenset[str]:
    """The set of signal names appearing in *expr*."""
    return frozenset(
        node.name for node in walk(expr) if isinstance(node, Signal)
    )


def macros_used(expr: Expr) -> frozenset[str]:
    """The set of macro names appearing in *expr*."""
    return frozenset(node.name for node in walk(expr) if isinstance(node, Macro))


def canonicalize(
    expr: Expr,
) -> tuple[Expr, frozenset[str], int, int, int]:
    """:func:`rename_holes` of *expr*, with the metadata of a sketch.

    Returns ``(rename_holes(expr), operators_used(expr),
    node_count(expr), depth(expr), len(holes(expr)))``, all from one
    walk of the tree.
    """
    operators: set[str] = set()
    size = 0
    deepest = 0
    hole_count = 0

    def rec(node: Expr, level: int) -> Expr:
        nonlocal size, deepest, hole_count
        size += 1
        if level > deepest:
            deepest = level
        if isinstance(node, Const) and node.is_hole:
            hole_id = hole_count
            hole_count += 1
            return node if node.hole_id == hole_id else Const(None, hole_id)
        name = _operator_name(node)
        if name is not None:
            operators.add(name)
        kids = children(node)
        if not kids:
            return node
        level += 1
        return with_children(node, tuple([rec(kid, level) for kid in kids]))

    renamed = rec(expr, 1)
    return renamed, frozenset(operators), size, deepest, hole_count


def rename_holes(expr: Expr) -> Expr:
    """Return *expr* with holes renumbered 0, 1, 2, ... in pre-order.

    Enumeration may produce holes with arbitrary ids; canonical numbering
    makes structurally identical sketches compare equal.  An already
    canonical *expr* is returned as is.
    """
    return canonicalize(expr)[0]


def fill_holes(expr: Expr, assignment: dict[int, float]) -> Expr:
    """Return *expr* with each hole replaced by ``assignment[hole_id]``.

    Raises :class:`KeyError` if a hole has no assigned value.
    """

    def rec(node: Expr) -> Expr:
        if isinstance(node, Const) and node.is_hole:
            return Const(assignment[node.hole_id], None)
        kids = children(node)
        if not kids:
            return node
        return with_children(node, tuple(map(rec, kids)))

    return rec(expr)
