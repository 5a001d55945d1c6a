"""The routing policy: per-query engine and worker-count selection.

:class:`QueryRouter` is a stateless rule over the query's features — the
same query routes the same way whatever ran before it:

* cyclic queries go to Free Join (the worst-case-optimal guarantee is
  exactly what cycles need);
* small acyclic count-only probes go to the binary hash join (pipelined, no
  trie build, and the COUNT sink skips materialization);
* everything else goes to Free Join, the paper's engine that subsumes both.

Generic Join, the eager tuple-at-a-time baseline, is never picked; it stays
reachable by name.  Worker count comes from input size alone: small inputs
stay serial, because task decomposition costs more than it buys below
:data:`repro.parallel.scheduler.PARALLEL_ROW_THRESHOLD` total input rows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.optimizer.binary_plan import BinaryPlan
from repro.optimizer.statistics import StatisticsCache
from repro.parallel import scheduler
from repro.query.planner import LogicalQuery
from repro.router.features import QueryFeatures, extract_features

#: Largest acyclic count-only query the rule sends to the binary hash join.
BINARY_MAX_ATOMS = 3


@dataclass(frozen=True)
class RoutingDecision:
    """One routing decision, reported under ``RunReport.details["router"]``."""

    engine: str
    parallelism: int
    #: The clause of the rule that fired: ``"cyclic"``, ``"small-count"``
    #: or ``"default"``.
    reason: str
    features: QueryFeatures

    def as_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "parallelism": self.parallelism,
            "reason": self.reason,
            "features": self.features.as_dict(),
        }


@dataclass
class RouterTelemetry:
    """Counters of routing activity (JSON-ready via ``as_dict``)."""

    routed: int = 0
    by_reason: Dict[str, int] = field(default_factory=dict)
    by_engine: Dict[str, int] = field(default_factory=dict)
    observed: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "routed": self.routed,
            "by_reason": dict(self.by_reason),
            "by_engine": dict(self.by_engine),
            "observed": self.observed,
        }


def choose_engine(features: QueryFeatures) -> Tuple[str, str]:
    """The rule: ``(engine, reason)`` for one feature vector."""
    if features.shape == "cyclic":
        return "freejoin", "cyclic"
    if features.atoms <= BINARY_MAX_ATOMS and features.count_only:
        return "binary", "small-count"
    return "freejoin", "default"


class QueryRouter:
    """Chooses engine and worker count per query by a fixed rule.

    Thread-safe and shareable; the only state is the activity counters
    :meth:`telemetry` reports.
    """

    def __init__(self) -> None:
        self._telemetry = RouterTelemetry()
        self._lock = threading.Lock()

    def route(
        self,
        logical: LogicalQuery,
        binary_plan: BinaryPlan,
        statistics_cache: Optional[StatisticsCache] = None,
        max_workers: int = 1,
    ) -> RoutingDecision:
        """Decide engine and worker count for one planned query."""
        features = extract_features(logical, binary_plan, statistics_cache)
        engine, reason = choose_engine(features)
        parallelism = (
            max_workers
            if features.total_rows >= scheduler.PARALLEL_ROW_THRESHOLD
            else 1
        )
        with self._lock:
            telemetry = self._telemetry
            telemetry.routed += 1
            telemetry.by_reason[reason] = telemetry.by_reason.get(reason, 0) + 1
            telemetry.by_engine[engine] = telemetry.by_engine.get(engine, 0) + 1
        return RoutingDecision(engine, parallelism, reason, features)

    def observe(self, decision: RoutingDecision, seconds: float = 0.0) -> None:
        """Count one completed routed query (the rule does not read timings)."""
        with self._lock:
            self._telemetry.observed += 1

    def telemetry(self) -> Dict[str, object]:
        """JSON-ready counters of routing activity."""
        with self._lock:
            return self._telemetry.as_dict()
