"""Per-query feature extraction for the routing policy.

Everything the router decides from is already computed on the hot path: the
planner's :class:`~repro.query.planner.LogicalQuery`, the optimizer's
:class:`~repro.optimizer.binary_plan.BinaryPlan` (whose ``estimated_cost``
the DP search produced anyway), and the session's
:class:`~repro.optimizer.statistics.StatisticsCache` (per-table statistics
memoized across the workload).  Extraction therefore adds no table scans of
its own — a cold statistics cache pays one analysis per *base table*, the
same price ``optimize_query`` already charges.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.optimizer.binary_plan import BinaryPlan
from repro.optimizer.statistics import StatisticsCache, collect_statistics
from repro.query.hypergraph import Hypergraph
from repro.query.planner import LogicalQuery


@dataclass(frozen=True)
class QueryFeatures:
    """The feature vector one routing decision is made from."""

    #: Number of atoms (relations) in the conjunctive join.
    atoms: int
    #: Sum of the atoms' base-table row counts.
    total_rows: int
    #: Largest single atom row count.
    max_rows: int
    #: The join-order optimizer's cost estimate for the chosen binary plan.
    estimated_cost: float
    #: ``"acyclic"`` or ``"cyclic"`` (GYO reduction of the query hypergraph).
    shape: str
    #: Whether the cheapest sink is selective (count-only output).
    count_only: bool

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view."""
        return asdict(self)


def extract_features(
    logical: LogicalQuery,
    binary_plan: BinaryPlan,
    statistics_cache: Optional[StatisticsCache] = None,
) -> QueryFeatures:
    """Build the feature vector for one planned query."""
    query = logical.query
    if statistics_cache is not None:
        statistics = statistics_cache.for_query(query)
    else:
        statistics = collect_statistics(query)
    row_counts = [stats.row_count for stats in statistics.values()]
    count_only = logical.only_count_star() and not logical.residual_predicates
    return QueryFeatures(
        atoms=len(query.atoms),
        total_rows=sum(row_counts),
        max_rows=max(row_counts, default=0),
        estimated_cost=float(binary_plan.estimated_cost),
        shape="acyclic" if Hypergraph.of_query(query).is_acyclic() else "cyclic",
        count_only=count_only,
    )
