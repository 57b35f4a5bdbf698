"""Serving layer: long-lived query sessions with cached derived artifacts.

Public surface:

* :class:`~repro.serve.session.QuerySession` — register relations once,
  serve many queries; batched (:meth:`~repro.serve.session.QuerySession.submit_batch`)
  and async (:meth:`~repro.serve.session.QuerySession.asubmit`) entry points.
* :class:`~repro.serve.artifacts.ArtifactCache` — the byte-budgeted LRU
  underlying both the derived-artifact cache and the plan/result memo.
* :class:`~repro.serve.feedback.CostFeedback` — estimated-vs-actual operator
  costs, calibrating the session's matmul cost model.
* Telemetry (:mod:`repro.obs`, re-exported here) — per-query span traces,
  a metrics registry with JSON/Prometheus exporters, and a slow-query log;
  configured via ``QuerySession(telemetry=...)`` and read via
  :meth:`~repro.serve.session.QuerySession.metrics`.

The sharded execution layer (``QuerySession(shards=K)``,
``register(..., sharded=True)``, ``update_shard``) lives in
:mod:`repro.shard` and is surfaced entirely through the session.
"""

from repro.obs import MetricsSnapshot, Telemetry, TelemetryConfig
from repro.serve.artifacts import ArtifactCache
from repro.serve.feedback import CostFeedback, FeedbackRow
from repro.serve.session import (
    QuerySession,
    SessionContext,
    SessionResult,
)

__all__ = [
    "ArtifactCache",
    "CostFeedback",
    "FeedbackRow",
    "MetricsSnapshot",
    "QuerySession",
    "SessionContext",
    "SessionResult",
    "Telemetry",
    "TelemetryConfig",
]
