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

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.optimizer.binary_plan import BinaryPlan
from repro.optimizer.statistics import StatisticsCache, collect_statistics
from repro.query.hypergraph import Hypergraph
from repro.query.planner import LogicalQuery

#: Atom-count cut between "small" and "large" shape buckets.
SMALL_ATOMS = 3
#: Input-row cut between "small" and "large" shape buckets (total rows).
SMALL_ROWS = 10_000


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
    #: Whether the SELECT list aggregates (COUNT/SUM/... or GROUP BY).
    aggregate: bool
    #: Whether the cheapest sink is selective (count-only output).
    count_only: bool
    #: Content fingerprints of the input tables (cache-warmth signal).
    fingerprints: Tuple[str, ...] = ()

    def shape_bucket(self) -> str:
        """The coarse bucket feedback is keyed on, e.g. ``"cyclic:small:agg"``.

        Buckets trade precision for sample efficiency: a handful of completed
        queries per bucket is enough to rank engines, and queries of the same
        shape/size class genuinely prefer the same engine (the paper's
        cyclic-vs-acyclic split is the dominant axis).
        """
        size = (
            "small"
            if self.atoms <= SMALL_ATOMS and self.total_rows <= SMALL_ROWS
            else "large"
        )
        kind = "agg" if self.aggregate else "rows"
        return f"{self.shape}:{size}:{kind}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (fingerprints summarized, not dumped)."""
        return {
            "atoms": self.atoms,
            "total_rows": self.total_rows,
            "max_rows": self.max_rows,
            "estimated_cost": self.estimated_cost,
            "shape": self.shape,
            "aggregate": self.aggregate,
            "count_only": self.count_only,
            "bucket": self.shape_bucket(),
        }


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
        aggregate=logical.has_aggregates() or bool(logical.group_by),
        count_only=count_only,
        fingerprints=tuple(
            sorted(atom.table.fingerprint() for atom in query.atoms)
        ),
    )
