"""Builders for the hand-made plan trees the plan tests use."""

from repro.db.operators import PlanNode


def scan_node(operator, alias, table, estimated_rows=0.0, estimated_cost=0.0):
    """A scan leaf."""
    return PlanNode(
        operator=operator.value,
        alias=alias,
        table=table,
        estimated_rows=estimated_rows,
        estimated_cost=estimated_cost,
    )


def join_node(operator, left, right, estimated_rows=0.0, estimated_cost=0.0):
    """A binary join node over ``left`` and ``right``."""
    return PlanNode(
        operator=operator.value,
        children=[left, right],
        estimated_rows=estimated_rows,
        estimated_cost=estimated_cost,
    )
