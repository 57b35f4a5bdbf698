"""Plan explanation: per-operator estimated vs. actual cost and timings.

Every executed :class:`~repro.plan.planner.PhysicalPlan` can render a
:class:`PlanExplanation`: one :class:`OperatorReport` row per physical
operator (name, status, chosen backend where applicable, the optimizer's
estimated cost in seconds, and the measured wall-clock seconds), plus the
plan-level strategy, thresholds and backend choice.  The same structure
feeds two consumers:

* ``repro-cli explain`` prints :meth:`PlanExplanation.format`;
* the bench runner attaches :meth:`PlanExplanation.as_details` to every
  measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class OperatorReport:
    """One physical operator's execution record.

    ``detail`` carries the operator's self-reported metrics, including the
    ``memory_in_bytes`` / ``memory_out_bytes`` block sizes every operator
    records — so ``repro-cli explain`` shows where the memory goes.
    """

    operator: str
    status: str = "pending"  # pending | ran | skipped
    estimated_cost: float = 0.0
    actual_seconds: float = 0.0
    backend: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Flat dictionary form (one entry of :meth:`PlanExplanation.as_details`)."""
        row: Dict[str, Any] = {
            "operator": self.operator,
            "status": self.status,
            "estimated_cost": self.estimated_cost,
            "seconds": self.actual_seconds,
        }
        if self.backend is not None:
            row["backend"] = self.backend
        row.update(self.detail)
        return row


@dataclass
class PlanExplanation:
    """Structured explanation of one plan execution."""

    query_kind: str
    strategy: str
    backend: str
    delta1: int
    delta2: int
    operators: List[OperatorReport] = field(default_factory=list)
    total_seconds: float = 0.0
    estimated_total_cost: float = 0.0
    estimated_output: float = 0.0
    output_size: int = 0
    # Session-serving metadata: per-plan operator cache hit/miss counts and
    # the session artifact-cache counters at explain() time (empty when the
    # plan ran outside a session).
    session_stats: Dict[str, Any] = field(default_factory=dict)
    # Sharded execution: the shard id of a per-shard subplan (None for
    # unsharded plans), and the per-shard breakdown rows of a rolled-up
    # sharded explanation (empty otherwise).
    shard: Optional[int] = None
    shard_reports: List[Dict[str, Any]] = field(default_factory=list)

    def operator_names(self) -> List[str]:
        """Names of the operators that actually ran."""
        return [op.operator for op in self.operators if op.status == "ran"]

    def as_details(self) -> Dict[str, Any]:
        """Flatten into the bench measurement's ``details`` mapping."""
        details: Dict[str, Any] = {
            "query": self.query_kind,
            "strategy": self.strategy,
            "backend": self.backend,
            "delta1": self.delta1,
            "delta2": self.delta2,
            "estimated_cost": self.estimated_total_cost,
            "total_seconds": self.total_seconds,
            "operators": [op.as_dict() for op in self.operators],
        }
        for op in self.operators:
            details[f"op.{op.operator}.seconds"] = op.actual_seconds
        for key, value in self.session_stats.items():
            details[f"session.{key}"] = value
        if self.shard is not None:
            details["shard"] = self.shard
        if self.shard_reports:
            details["shards"] = [dict(row) for row in self.shard_reports]
        return details

    def format(self) -> str:
        """Human-readable multi-line explanation (the CLI output)."""
        lines = [
            f"query:    {self.query_kind}",
        ]
        if self.shard is not None:
            lines.append(f"shard:    {self.shard}")
        lines += [
            f"strategy: {self.strategy}",
            f"backend:  {self.backend}",
            f"delta1:   {self.delta1}",
            f"delta2:   {self.delta2}",
            f"estimated cost: {self.estimated_total_cost:.6g} s"
            f"   actual: {self.total_seconds:.6g} s"
            f"   output: {self.output_size}",
            "",
            f"{'operator':<22} {'status':<8} {'backend':<9} "
            f"{'est cost (s)':>13} {'actual (s)':>11}",
        ]
        for op in self.operators:
            lines.append(
                f"{op.operator:<22} {op.status:<8} {(op.backend or '-'):<9} "
                f"{op.estimated_cost:>13.6g} {op.actual_seconds:>11.6g}"
            )
            for key, value in op.detail.items():
                lines.append(f"    {key} = {value}")
        if self.shard_reports:
            lines.append("")
            lines.append(
                f"{'shard':<6} {'kind':<6} {'tuples':>8} {'strategy':<8} "
                f"{'backend':<9} {'output':>8} {'seconds':>11} {'cache h/m':>10}"
            )
            for row in self.shard_reports:
                cache = f"{row.get('cache_hits', 0)}/{row.get('cache_misses', 0)}"
                lines.append(
                    f"{row['shard']:<6} {row['kind']:<6} {row['input_tuples']:>8} "
                    f"{row['strategy']:<8} {row['backend']:<9} "
                    f"{row['output_size']:>8} {row['seconds']:>11.6g} {cache:>10}"
                )
        if self.session_stats:
            lines.append("")
            lines.append("session:")
            for key, value in self.session_stats.items():
                lines.append(f"    {key} = {value}")
        return "\n".join(lines)
