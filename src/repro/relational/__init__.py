"""Relational frontend: expressions, logical algebra, DSL, and optimizer."""

from repro.relational.builder import Query, scan
from repro.relational.expressions import (
    Expression,
    col,
    days_from_date,
    infer_atom_type,
    lit,
)
from repro.relational.interpreter import Frame, frames_match, run_logical_plan
from repro.relational.logical import (
    AggregateNode,
    AggregateSpec,
    FilterNode,
    JoinNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
)
from repro.relational.optimizer import ModularisQuery, lower_to_modularis, optimize

__all__ = [
    "Query",
    "scan",
    "Expression",
    "col",
    "days_from_date",
    "infer_atom_type",
    "lit",
    "Frame",
    "frames_match",
    "run_logical_plan",
    "AggregateNode",
    "AggregateSpec",
    "FilterNode",
    "JoinNode",
    "LogicalPlan",
    "ProjectNode",
    "ScanNode",
    "ModularisQuery",
    "lower_to_modularis",
    "optimize",
]
