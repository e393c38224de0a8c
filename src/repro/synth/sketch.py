"""Sketches: enumerated handler shapes with unfilled constants (§4.1).

A :class:`Sketch` wraps an AST whose :class:`~repro.dsl.ast.Const` leaves
are holes, plus the metadata the search uses: the operator set (the
bucket discriminator), size, depth and hole count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dsl import ast
from repro.dsl.printer import to_text

__all__ = ["Sketch"]


@dataclass(frozen=True)
class Sketch:
    """An enumerated sketch and its search metadata."""

    expr: ast.NumExpr
    operators: frozenset[str] = field(default=frozenset())
    size: int = 0
    depth: int = 0
    hole_count: int = 0

    @classmethod
    def from_expr(cls, expr: ast.NumExpr) -> "Sketch":
        """The sketch of *expr*, its holes renumbered in pre-order."""
        expr, operators, size, depth, hole_count = ast.canonicalize(expr)
        return cls(
            expr=expr,
            operators=operators,
            size=size,
            depth=depth,
            hole_count=hole_count,
        )

    def completion_count(self, pool_size: int) -> int:
        """Number of concrete handlers a constant pool of *pool_size*
        values can instantiate from this sketch."""
        return pool_size**self.hole_count

    def __str__(self) -> str:
        return to_text(self.expr)
