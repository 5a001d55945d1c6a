"""Free Join: unifying worst-case optimal and traditional joins.

A from-scratch Python reproduction of the SIGMOD 2023 paper by Wang, Willsey
and Suciu.  The package provides:

* a column-oriented in-memory storage layer (:mod:`repro.storage`),
* a small SQL dialect and conjunctive-query layer (:mod:`repro.query`),
* a cost-based join-order optimizer (:mod:`repro.optimizer`),
* three join engines over the same storage: traditional binary hash join
  (:mod:`repro.binaryjoin`), worst-case optimal Generic Join
  (:mod:`repro.genericjoin`) and Free Join (:mod:`repro.core`),
* workload generators reproducing the paper's benchmarks
  (:mod:`repro.workloads`) and an experiment harness regenerating every
  figure of the evaluation (:mod:`repro.experiments`),
* a parallel execution subsystem (:mod:`repro.parallel`: work-stealing
  pools over shared-memory columns, deadlines/cancellation) and an asyncio
  serving layer (:mod:`repro.serve`),
* a front-door query router with admission control (:mod:`repro.router`):
  ``engine="auto"`` picks the engine and worker count per query by a fixed
  rule over its shape and input size, and an :class:`AdmissionGate` sheds
  load with fast typed rejections instead of slow timeouts,
* standing queries with incremental view maintenance (:mod:`repro.views`):
  ``db.subscribe(sql)`` seeds a materialized snapshot and folds each
  append's delta rows through the partial-aggregate plane, streaming group
  deltas to subscribers.

Per-query knobs (engine, timeout, parallelism, streaming batch shape)
travel in one frozen :class:`ExecOptions` accepted as ``options=`` by every
entry point — the only spelling there is.

Quickstart::

    from repro import Database, Table

    db = Database()
    db.register(Table.from_columns("r", {"x": [1, 2, 3], "y": [10, 20, 30]}))
    db.register(Table.from_columns("s", {"y": [10, 10, 30], "z": [7, 8, 9]}))
    outcome = db.execute("SELECT COUNT(*) FROM r, s WHERE r.y = s.y")
    print(outcome.scalar())
"""

from repro.storage import Catalog, Column, Table, load_csv, save_csv
from repro.query import Atom, ConjunctiveQuery, Hypergraph, QueryBuilder, Subatom
from repro.optimizer import (
    AlwaysOneCardinalityEstimator,
    BinaryPlan,
    DefaultCardinalityEstimator,
    JoinOrderOptimizer,
    optimize_query,
)
from repro.core import (
    FreeJoinEngine,
    FreeJoinOptions,
    FreeJoinPlan,
    TrieStrategy,
    binary_to_free_join,
    factor_plan,
)
from repro.binaryjoin import BinaryJoinEngine
from repro.genericjoin import GenericJoinEngine
from repro.engine import (
    JoinResult,
    StreamingAggregateSink,
    StreamingResult,
    StreamingSink,
    collapse_grouped_batches,
)
from repro.engine.session import Database
from repro.engine.options import ExecOptions
from repro.engine.aggregates import AggregateSpec, aggregate_result, aggregate_spec
from repro.views import StandingQuery
from repro.errors import AdmissionRejected, DeadlineExceeded, QueryCancelled
from repro.parallel.cancellation import DeadlineToken
from repro.router import (
    AdmissionGate,
    QueryRouter,
    RoutingDecision,
    classify_sql,
)
from repro.serve import AsyncDatabase

__version__ = "1.0.0"

__all__ = [
    "Catalog",
    "Column",
    "Table",
    "load_csv",
    "save_csv",
    "Atom",
    "Subatom",
    "ConjunctiveQuery",
    "Hypergraph",
    "QueryBuilder",
    "AlwaysOneCardinalityEstimator",
    "DefaultCardinalityEstimator",
    "BinaryPlan",
    "JoinOrderOptimizer",
    "optimize_query",
    "FreeJoinEngine",
    "FreeJoinOptions",
    "FreeJoinPlan",
    "TrieStrategy",
    "binary_to_free_join",
    "factor_plan",
    "BinaryJoinEngine",
    "GenericJoinEngine",
    "Database",
    "ExecOptions",
    "StandingQuery",
    "AsyncDatabase",
    "QueryRouter",
    "RoutingDecision",
    "AdmissionGate",
    "AdmissionRejected",
    "classify_sql",
    "DeadlineToken",
    "DeadlineExceeded",
    "QueryCancelled",
    "JoinResult",
    "StreamingAggregateSink",
    "StreamingResult",
    "StreamingSink",
    "collapse_grouped_batches",
    "AggregateSpec",
    "aggregate_result",
    "aggregate_spec",
    "__version__",
]
