"""Physical plan operators and plan-tree nodes.

Plans are binary trees of physical operators, the same shape PostgreSQL
produces for the select-project-join queries in JOB/CEB/Stack/DSB: leaf
nodes are scans over one base relation, internal nodes are joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, List, Optional, Tuple

from ..errors import PlanError


class ScanOperator(str, Enum):
    """Leaf (access-path) operators."""

    SEQ_SCAN = "seq_scan"
    INDEX_SCAN = "index_scan"
    INDEX_ONLY_SCAN = "index_only_scan"


class JoinOperator(str, Enum):
    """Internal (join) operators."""

    HASH_JOIN = "hash_join"
    MERGE_JOIN = "merge_join"
    NESTED_LOOP = "nested_loop"


SCAN_OPERATOR_NAMES = tuple(op.value for op in ScanOperator)
JOIN_OPERATOR_NAMES = tuple(op.value for op in JoinOperator)
ALL_OPERATOR_NAMES = SCAN_OPERATOR_NAMES + JOIN_OPERATOR_NAMES


@dataclass
class PlanNode:
    """One node of a physical query plan.

    Attributes
    ----------
    operator:
        Operator name; one of :data:`ALL_OPERATOR_NAMES`.
    children:
        Empty for scans, exactly two nodes for joins.
    alias / table:
        Set on scan nodes only -- the relation being scanned.
    estimated_rows / estimated_cost:
        What the (mistake-prone) optimizer believed.
    true_rows / true_cost:
        Ground-truth values filled in by the latency model.
    """

    operator: str
    children: List["PlanNode"] = field(default_factory=list)
    alias: Optional[str] = None
    table: Optional[str] = None
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0
    true_rows: float = 0.0
    true_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.operator not in ALL_OPERATOR_NAMES:
            raise PlanError(f"unknown operator {self.operator!r}")
        if self.is_scan:
            if self.children:
                raise PlanError("scan nodes must be leaves")
            if self.alias is None or self.table is None:
                raise PlanError("scan nodes need an alias and a table")
        else:
            if len(self.children) != 2:
                raise PlanError(
                    f"join node {self.operator!r} needs exactly 2 children, "
                    f"got {len(self.children)}"
                )

    # -- classification -------------------------------------------------
    @property
    def is_scan(self) -> bool:
        """True for leaf (scan) nodes."""
        return self.operator in SCAN_OPERATOR_NAMES

    # -- traversal ------------------------------------------------------
    def iter_nodes(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def leaves(self) -> List["PlanNode"]:
        """All scan nodes below (and including) this node."""
        return [node for node in self.iter_nodes() if node.is_scan]

    def aliases(self) -> Tuple[str, ...]:
        """Aliases covered by this subtree, in leaf order."""
        return tuple(leaf.alias for leaf in self.leaves())

    @property
    def depth(self) -> int:
        """Height of the subtree (1 for a single scan)."""
        if not self.children:
            return 1
        return 1 + max(child.depth for child in self.children)

    # -- rendering ------------------------------------------------------
    def to_text(self, indent: int = 0) -> str:
        """EXPLAIN-like indented rendering of the plan."""
        pad = "  " * indent
        if self.is_scan:
            head = (
                f"{pad}{self.operator} on {self.table} {self.alias} "
                f"(rows={self.estimated_rows:.0f} cost={self.estimated_cost:.1f})"
            )
            return head
        head = (
            f"{pad}{self.operator} "
            f"(rows={self.estimated_rows:.0f} cost={self.estimated_cost:.1f})"
        )
        parts = [head] + [child.to_text(indent + 1) for child in self.children]
        return "\n".join(parts)

    def signature(self) -> Tuple:
        """Structural signature (operator + children signatures + alias)."""
        return (
            self.operator,
            self.alias,
            tuple(child.signature() for child in self.children),
        )
