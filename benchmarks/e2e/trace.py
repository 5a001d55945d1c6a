"""Outside-in tracing: spans around the public layer calls of one op.

The benchmark's own driver replays an op as the sequence of public calls
``Database._execute`` makes (``Planner.plan_sql`` -> ``optimize_query`` ->
``QueryRouter.route`` -> ``Database.run_join`` -> ``aggregate_result`` ->
``finalize_output``) and records one in-memory span per call.  Nothing in
``src/`` is instrumented.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

from repro.engine.aggregates import aggregate_result, finalize_output
from repro.engine.options import ExecOptions
from repro.optimizer.join_order import optimize_query
from repro.query.planner import Planner

from benchmarks.e2e.harness import OpResult


@dataclass
class Span:
    index: int  # position in Tracer.spans
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the parent span; None for an op's root
    op_id: int


class Tracer:
    """Spans kept in memory; the run writes them out when it ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self._op_id)
        self._stack.append(record.index)
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, name: str) -> Iterator[Span]:
        """The root span of one op; its children share its op id."""
        self._op_id += 1
        with self.span(f"op:{name}") as root:
            yield root

    def child_durations(self, root: Span) -> Dict[str, float]:
        """Seconds per name of the direct children of ``root``."""
        durations: Dict[str, float] = {}
        for child in self.spans[root.index + 1 :]:
            if child.parent == root.index:
                durations[child.name] = (
                    durations.get(child.name, 0.0) + child.end - child.start
                )
        return durations

    def as_records(self) -> List[Dict[str, object]]:
        return [asdict(span) for span in self.spans]


def replayable(catalog, sql: str) -> bool:
    """Whether every step of ``execute(sql)`` is a public layer call.

    Residual predicates and LEFT JOIN extension are private to
    ``session.py``; such an op is traced as its outer span only.
    """
    logical = Planner(catalog).plan_sql(sql)
    return not logical.residual_predicates and not logical.left_joins


def traced_execute(tracer: Tracer, database, sql: str, options: ExecOptions) -> OpResult:
    """``Database.execute`` as its public layer calls, one span each."""
    with tracer.span("query.plan"):
        logical = Planner(database.catalog).plan_sql(sql)
    with tracer.span("optimizer.optimize"):
        plan = optimize_query(
            logical.query, statistics_cache=database.statistics_cache
        )
    engine = options.engine or database.default_engine
    parallelism = options.parallelism
    decision = None
    if engine == "auto":
        with tracer.span("router.route"):
            decision = database.router.route(
                logical,
                plan,
                statistics_cache=database.statistics_cache,
                max_workers=database.parallelism,
            )
        engine = decision.engine
        if parallelism is None:
            parallelism = decision.parallelism
    with tracer.span("engine.run_join") as join_span:
        report = database.run_join(logical, plan, engine, parallelism=parallelism)
    if decision is not None:
        database.router.observe(decision, join_span.end - join_span.start)
    with tracer.span("engine.aggregate"):
        table = aggregate_result(report.result, logical)
    with tracer.span("engine.finalize"):
        table = finalize_output(table, logical)
    return OpResult(rows=table, ordered=bool(logical.order_by), report=report)
