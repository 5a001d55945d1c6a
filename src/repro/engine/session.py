"""End-to-end database sessions: SQL in, result tables out.

:class:`Database` wires the whole reproduction together: the catalog, the SQL
planner, the cost-based optimizer, and the three join engines.  It is the
entry point example applications use::

    db = Database()
    db.register(my_table)
    outcome = db.execute("SELECT COUNT(*) FROM r, s WHERE r.x = s.x")
    print(outcome.table)
    print(outcome.report.summary())
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.binaryjoin.executor import BinaryJoinEngine
from repro.core.engine import FreeJoinEngine, FreeJoinOptions
from repro.engine.aggregates import (
    PartialAggregateSink,
    PostJoinSink,
    aggregate_result,
    aggregate_spec,
    finalize_output,
    output_mode,
)
from repro.engine.options import AUTO_ENGINE, ENGINES, ExecOptions, check_engine
from repro.engine.output import JoinResult
from repro.engine.pipeline import RunContext, make_sink
from repro.engine.report import RunReport
from repro.errors import QueryError
from repro.genericjoin.executor import GenericJoinEngine
from repro.optimizer.binary_plan import BinaryPlan
from repro.optimizer.join_order import optimize_query
from repro.optimizer.statistics import StatisticsCache
from repro.query.planner import LogicalQuery, Planner
from repro.router.policy import QueryRouter
from repro.storage.catalog import Catalog
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.views.standing import StandingQuery

#: Name → plan policy, one per name in :data:`ENGINES`.  The three are points
#: in one plan space run by one driver (:func:`repro.engine.pipeline.run_plan`):
#: choosing an engine — by name or through the router — chooses a plan, never
#: how the run is configured.
_PLAN_POLICIES = {
    FreeJoinEngine.name: FreeJoinEngine,
    # The baselines have no plan knob a session sets: they ignore its
    # Free Join options.
    BinaryJoinEngine.name: lambda _freejoin_options: BinaryJoinEngine(),
    GenericJoinEngine.name: lambda _freejoin_options: GenericJoinEngine(),
}

#: Prepared queries one session keeps (:meth:`Database._prepare`), oldest
#: evicted first; as many evicted keys are remembered, so that a miss can say
#: it was one.  Entries hold their tables strongly, like ``StatisticsCache``.
PREPARED_CACHE_ENTRIES = 256


@dataclass
class QueryOutcome:
    """The result of executing one SQL query end to end."""

    table: Table
    report: RunReport
    logical: LogicalQuery
    binary_plan: BinaryPlan
    join_result: JoinResult

    def rows(self) -> List[tuple]:
        """Result rows of the final (post-aggregation) table."""
        return self.table.to_rows()

    def scalar(self):
        """The single value of a one-row, one-column result."""
        rows = self.table.to_rows()
        if len(rows) != 1 or len(rows[0]) != 1:
            raise QueryError(
                f"scalar() requires a 1x1 result, got {len(rows)} rows x "
                f"{self.table.arity} columns"
            )
        return rows[0][0]


class Database:
    """A small in-memory database exposing the three join engines."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        default_engine: str = "freejoin",
        freejoin_options: Optional[FreeJoinOptions] = None,
        parallelism: int = 1,
        parallel_mode: str = "auto",
    ) -> None:
        """Create a session.

        ``parallelism`` is the session-wide intra-query worker count: every
        engine splits each join across that many workers unless the query's
        ``ExecOptions.parallelism`` (or, for routed queries, the router)
        says otherwise.  ``parallel_mode`` selects where the tasks run:
        ``"process"`` on the persistent work-stealing pool of forked workers
        over shared-memory columns, ``"thread"`` inline on the calling
        thread, ``"auto"`` either by input size
        (:mod:`repro.parallel.scheduler`).

        ``default_engine="auto"`` (or ``engine="auto"`` per query) routes
        through the session's :class:`~repro.router.policy.QueryRouter`,
        which picks engine and worker count per query by a fixed rule over
        the query's shape and input size.
        """
        check_engine(default_engine)
        if parallelism < 1:
            raise QueryError(f"parallelism must be at least 1, got {parallelism}")
        if parallel_mode not in ("auto", "process", "thread"):
            raise QueryError(
                f"unknown parallel mode {parallel_mode!r}; "
                f"choose 'auto', 'process' or 'thread'"
            )
        self.catalog = catalog or Catalog()
        self.default_engine = default_engine
        self.freejoin_options = freejoin_options or FreeJoinOptions()
        self.parallelism = parallelism
        self.parallel_mode = parallel_mode
        self.statistics_cache = StatisticsCache()
        #: ``(sql, name, bad_estimates)`` -> ``(logical, binary_plan)``; see
        #: :meth:`_prepare`, the only reader and writer.
        self._prepared: OrderedDict = OrderedDict()
        self._evicted: dict = {}  # the last keys evicted, as an ordered set
        self._prepared_lock = threading.Lock()
        self.router = QueryRouter()
        #: Live standing queries (:meth:`subscribe`); closed with the session.
        self._subscriptions: List["StandingQuery"] = []

    def close(self) -> None:
        """Release process-wide parallel resources.

        The work-stealing pools and shared-memory exports are shared by every
        session in the process (that is what makes them persistent), so this
        tears down the *process*'s pools and segments — call it when the last
        session is done, or rely on the interpreter's atexit hook.  Once the
        pools are down and every export is unlinked, the ``multiprocessing``
        resource tracker the process pools started is stopped too; the next
        process pool starts a fresh one.
        """
        from multiprocessing import resource_tracker

        from repro.parallel.scheduler import shutdown_pools
        from repro.storage.shm import shutdown_exports

        for standing in list(self._subscriptions):
            standing.close()
        shutdown_pools()
        shutdown_exports()
        tracker = getattr(resource_tracker, "_resource_tracker", None)
        if tracker is not None and hasattr(tracker, "_stop"):
            tracker._stop()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Catalog management
    # ------------------------------------------------------------------ #

    def register(self, table: Table, replace: bool = False) -> None:
        """Register a table in the catalog.

        A table that replaces one a standing query depends on takes over
        that query's append hook, and the query reseeds from it.
        """
        old = self.catalog.maybe_get(table.name)
        self.catalog.register(table, replace=replace)
        if old is not None and old is not table:
            for standing in list(self._subscriptions):
                standing._replace_table(old, table)

    def register_all(self, tables: Iterable[Table], replace: bool = False) -> None:
        """Register many tables, each as :meth:`register` does."""
        for table in tables:
            self.register(table, replace=replace)

    def table_names(self) -> List[str]:
        """Names of all registered tables."""
        return self.catalog.table_names()

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #

    def execute(
        self, sql: str, *, options: Optional[ExecOptions] = None, name: str = ""
    ) -> QueryOutcome:
        """Parse, plan, optimize and execute a SQL query.

        Per-query knobs travel in ``options``
        (:class:`~repro.engine.options.ExecOptions`); unset fields mean the
        session's defaults.

        ``options.timeout`` gives the query a budget in seconds, enforced
        *cooperatively and mid-execution*: executors (and, on parallel
        sessions, every steal-pool worker) check the deadline at
        trie-expansion boundaries, so an over-budget query raises
        :class:`~repro.errors.DeadlineExceeded` while the join is still
        running instead of after it completes.  ``options.deadline`` accepts
        a pre-built :class:`~repro.parallel.cancellation.DeadlineToken` (the
        async serving layer passes one so it can also *cancel* the query);
        when both are given the token wins.

        ``options.engine="auto"`` routes through the session's
        :class:`~repro.router.policy.QueryRouter`: engine and worker count
        are chosen per query by the router's rule, and the decision lands
        under ``report.details["router"]``.
        ``options.parallelism`` overrides both the session default and the
        router's worker choice, on every engine.
        """
        return self._execute(sql, options or ExecOptions(), name=name)

    def _execute(
        self, sql: str, opts: ExecOptions, name: str = "", max_workers: Optional[int] = None
    ) -> QueryOutcome:
        """:meth:`execute` for internal callers; ``max_workers`` as in :meth:`_prepare`."""
        deadline = opts.resolve_deadline()
        logical, binary_plan, run = self._prepare(sql, opts, name, max_workers)
        return self._finish(logical, binary_plan, run(deadline))

    def _prepare(self, sql: str, opts: ExecOptions, name: str, max_workers: Optional[int]):
        """Plan, optimize and route ``sql``; the one resolution of ``opts``.

        Returns ``(logical, binary_plan, run)``.  ``run(deadline, sink=None)``
        executes the join through :meth:`run_join`, counts a routed query's
        completion in the router's telemetry and stamps the decision under
        ``report.details["router"]``; :meth:`execute` calls it at once,
        :meth:`execute_iter` on its producer thread.

        Planning is cached per session: the same ``(sql, name,
        opts.bad_estimates)`` is parsed, pushed down and join-ordered once,
        and the ``(logical, binary_plan)`` pair is served again for as long
        as :meth:`LogicalQuery.staleness
        <repro.query.planner.LogicalQuery.staleness>` finds every FROM table
        the same object at the same version — ``append_rows``,
        ``register(replace=True)`` and ``drop`` each make the next call an
        ordinary miss that plans afresh and overwrites the entry.  The
        engine is not in the key (all three run the same pair), routing runs
        per call, and what lowering and the kernels cache stays theirs.
        Lookup is lock-free and insertion locked, so two threads missing at
        once may both plan, but neither is ever served the other's key, and
        a key once inserted stays visible until it is evicted.
        ``report.details["prepared"]`` says ``{"hit", "reason"}`` with reason
        ``"hit"``, ``"cold"`` (first sight), ``"version"`` / ``"replaced"``
        (a stale table) or ``"evicted"`` (pushed out by
        :data:`PREPARED_CACHE_ENTRIES` newer keys).

        The precedence rule for the worker count, stated once: an explicit
        ``opts.parallelism`` wins; else a routed query runs with what the
        router decided; else the session's ``parallelism``.  ``max_workers``
        (the serving layer's admission gate) stands in for the session's
        value in both places it is read — as the router's cap and as the
        unrouted default — and never limits an explicit ``opts.parallelism``.
        """
        key = (sql, name, opts.bad_estimates)
        entry = self._prepared.get(key)
        if entry is None:
            reason = "evicted" if key in self._evicted else "cold"
        else:
            reason = entry[0].staleness(self.catalog) or "hit"
        if reason == "hit":
            logical, binary_plan = entry
        else:
            logical = Planner(self.catalog).plan_sql(sql, name=name)
            binary_plan = optimize_query(
                logical.query,
                bad_estimates=opts.bad_estimates,
                statistics_cache=self.statistics_cache,
            )
            with self._prepared_lock:
                self._evicted.pop(key, None)
                if key not in self._prepared and len(self._prepared) >= PREPARED_CACHE_ENTRIES:
                    if len(self._evicted) >= PREPARED_CACHE_ENTRIES:
                        del self._evicted[next(iter(self._evicted))]
                    oldest, _entry = self._prepared.popitem(last=False)
                    self._evicted[oldest] = None
                # A refreshed entry is overwritten in place, then made the
                # newest: a lock-free lookup never finds a cached key absent.
                self._prepared[key] = (logical, binary_plan)
                self._prepared.move_to_end(key)
        prepared = {"hit": reason == "hit", "reason": reason}
        engine_name = opts.engine or self.default_engine
        workers = self.parallelism if max_workers is None else max_workers
        decision = None
        if engine_name == AUTO_ENGINE:
            decision = self.router.route(
                logical,
                binary_plan,
                statistics_cache=self.statistics_cache,
                max_workers=workers,
            )
            engine_name, workers = decision.engine, decision.parallelism
        if opts.parallelism is not None:
            workers = opts.parallelism

        def run(deadline, sink=None) -> RunReport:
            report = self.run_join(
                logical,
                binary_plan,
                engine_name,
                opts.freejoin_options,
                deadline=deadline,
                sink=sink,
                parallelism=workers,
            )
            if decision is not None:
                self.router.observe(decision)
                report.details["router"] = decision.as_dict()
            report.details["prepared"] = prepared
            return report

        return logical, binary_plan, run

    def _finish(
        self, logical: LogicalQuery, binary_plan: BinaryPlan, report: RunReport
    ) -> QueryOutcome:
        """Everything after the join: the SELECT list, then the final pass."""
        return QueryOutcome(
            table=finalize_output(aggregate_result(report.result, logical), logical),
            report=report,
            logical=logical,
            binary_plan=binary_plan,
            join_result=report.result,
        )

    def execute_iter(
        self,
        sql: str,
        *,
        options: Optional[ExecOptions] = None,
        name: str = "",
        executor=None,
    ):
        """Execute a query and stream its result rows in batches.

        Per-query knobs travel in ``options``
        (:class:`~repro.engine.options.ExecOptions`; ``batch_rows`` and
        ``max_batches`` default to 1024 and 8 when unset).

        ``executor`` optionally runs the producer on a caller-owned
        ``concurrent.futures`` executor instead of a dedicated thread (the
        async serving layer passes its bounded pool so streamed queries
        count against ``max_concurrency``).

        Returns a :class:`~repro.engine.streaming.StreamingResult` iterating
        ``batch_rows``-sized lists of result rows.  For non-aggregate queries
        the join runs on a producer thread and pushes batches into a bounded
        queue (``max_batches`` deep) as it produces them, so the first batch
        arrives while the join is still running and a slow consumer
        backpressures the producer instead of buffering the whole result.
        On parallel sessions the steal scheduler forwards each task's rows
        as workers complete them.

        **Aggregate/GROUP BY queries stream too**, through the
        partial-aggregate plane: the join folds rows into per-group-key
        partials (worker-side on parallel sessions, so raw join rows never
        cross the worker boundary) and the stream delivers **group deltas**
        mid-join.  Each delivered row holds a group's *current* aggregate
        values in SELECT order; a row supersedes earlier rows with the same
        group key (last-write-wins — see
        :func:`repro.engine.streaming.collapse_grouped_batches`), and the
        stream ends with one full snapshot in deterministic group-key order,
        identical to :meth:`execute`'s aggregate table.  Delta granularity:
        serially a delta is flushed at the first *batch boundary* after
        ``batch_rows`` folded rows — the kernels report one batch per driver
        chunk (4096 driver rows) and fold it whole, the row path reports a
        row at a time — so a serial join of a single chunk delivers only the
        snapshot; on parallel sessions every merged task partial flushes
        one.  Residual predicates and LEFT JOINs do not change this: they
        run per batch in front of the fold
        (:class:`~repro.engine.aggregates.PostJoinSink`), whose steal tasks
        ship rows that fold — and flush at the same granularity — as each
        task arrives.  Group-bys without aggregates (which :meth:`execute`
        treats as plain projections) and queries whose GROUP BY key is not
        in the SELECT list (delta rows would be indistinguishable without
        it) keep the materialize-then-stream path.

        **ORDER BY ... LIMIT n queries stream too**, through a bounded
        top-k (:class:`~repro.engine.streaming.StreamingTopKSink`): rows
        fold into a candidate set pruned to the ``n`` best mid-join, so
        memory stays ``O(n)`` instead of materializing the result; the
        finalize pass delivers the ordered prefix, identical to
        :meth:`execute`'s final table.

        ``timeout`` covers the *whole* stream — execution and delivery: a
        consumer that stalls past the budget gets ``DeadlineExceeded`` and
        the producer (plus any pool tasks) aborts instead of pinning its
        worker slot.  Closing the iterator early (or ``break`` +
        ``close()``/``with``) cancels the query cooperatively; pools drain
        cleanly and stay warm.  Residual predicates, LEFT JOIN extensions
        and the SELECT projection run per batch in the final pipeline; for
        non-aggregate queries streamed rows are exactly the rows
        :meth:`execute` would return (as a bag — parallel completion order
        may differ).
        """
        return self._execute_iter(sql, options or ExecOptions(), name=name, executor=executor)

    def _execute_iter(
        self,
        sql: str,
        opts: ExecOptions,
        name: str = "",
        executor=None,
        max_workers: Optional[int] = None,
    ):
        """:meth:`execute_iter` for internal callers; ``max_workers`` as in :meth:`_prepare`."""
        from repro.engine.streaming import (
            DEFAULT_BATCH_ROWS,
            DEFAULT_MAX_BATCHES,
            StreamingAggregateSink,
            StreamingResult,
            StreamingSink,
            StreamingTopKSink,
        )

        # Always arm a token (without a deadline when no timeout): early
        # close cancels the producer through it.
        token = opts.resolve_deadline(always=True)
        logical, binary_plan, run = self._prepare(sql, opts, name, max_workers)
        delivery = dict(
            batch_rows=opts.batch_rows or DEFAULT_BATCH_ROWS,
            max_batches=opts.max_batches or DEFAULT_MAX_BATCHES,
            interrupt=token,
        )
        # Delta streaming requires every group key to be *readable from the
        # delivered rows* (last-write-wins is keyed on the selected group
        # columns), so a GROUP BY variable missing from the SELECT list
        # routes through the materialize fallback.
        selected_plain = {
            item.variable
            for item in logical.select_items
            if not item.is_aggregate()
        }
        group_keys_selected = all(
            var in selected_plain for var in logical.group_by
        )
        # What a row stream delivers: the SELECT list (the final pipeline's
        # PostJoinSink projects the join rows onto it).
        projection = (
            logical.result_variables()
            if logical.select_star
            else [item.variable for item in logical.select_items]
        )

        if (
            logical.has_aggregates()
            and group_keys_selected
            and not logical.needs_final_pass()
        ):
            # The partial-aggregate plane: fold join rows into per-group
            # partials at the final pipeline and stream merged group deltas
            # while the join is still running.
            spec = aggregate_spec(logical, logical.result_variables())
            sink = StreamingAggregateSink(spec, **delivery)
        elif (
            not logical.has_aggregates()
            and not logical.group_by
            and logical.having is None
            and not logical.distinct
            and logical.limit is not None
        ):
            # Bounded top-k: rows (and factorized worker batches) fold into
            # a pruned candidate set *mid-join*; the finalize pass sorts the
            # survivors and delivers the ordered prefix — identical to
            # execute()'s final table.
            sink = StreamingTopKSink(
                projection, limit=logical.limit, order_by=logical.order_by, **delivery
            )
        elif logical.has_aggregates() or logical.group_by or logical.needs_final_pass():
            # Aggregate-free group-bys, group keys missing from the SELECT
            # list and HAVING/ORDER BY-without-LIMIT/DISTINCT queries need
            # the complete result: they keep the materialize-then-stream
            # fallback, and only delivery streams.
            sink = StreamingSink(logical.output_labels(), **delivery)

            def run_materialized():
                report = run(token)
                sink.put_rows(self._finish(logical, binary_plan, report).table.to_rows())
                return report

            return StreamingResult(sink, token, run_materialized, executor=executor)
        else:
            sink = StreamingSink(projection, **delivery)

        return StreamingResult(sink, token, lambda: run(token, sink), executor=executor)

    def execute_many(
        self,
        queries: Iterable,
        max_workers: Optional[int] = None,
        collect_rows: bool = True,
        *,
        options: Optional[ExecOptions] = None,
    ):
        """Evaluate a workload of queries concurrently on this session.

        ``queries`` may contain SQL strings, ``(name, sql)`` pairs, or
        objects with ``name``/``sql`` attributes (benchmark queries).  Up to
        ``max_workers`` threads each run one query at a time through the
        same path as :meth:`execute`, so the workload shares this session's
        prepared-query cache, statistics, router and steal pools.  A query
        over its ``timeout`` is aborted cooperatively through its deadline
        token, and errors are captured per query instead of aborting the
        workload.  Returns a :class:`repro.parallel.workload.WorkloadOutcome`
        whose per-query status/seconds/rows serialize to JSON.

        Per-query knobs (engine, timeout, parallelism, bad estimates, Free
        Join options) travel in ``options`` and apply to every query of the
        workload.  ``options.deadline`` is rejected: a token cancels one
        query, and ``options.timeout`` budgets each query of the workload.

        Results are identical to calling :meth:`execute` serially for each
        query; see :mod:`repro.parallel.workload` for the guarantees.
        """
        from repro.parallel.workload import execute_workload

        opts = options or ExecOptions()
        if opts.deadline is not None:
            raise QueryError(
                "execute_many takes no deadline token: a token cancels one query; "
                "use options.timeout to budget each query of the workload"
            )
        return execute_workload(
            self, queries, opts, max_workers=max_workers, collect_rows=collect_rows
        )

    # ------------------------------------------------------------------ #
    # Standing queries
    # ------------------------------------------------------------------ #

    def subscribe(
        self, sql: str, *, options: Optional[ExecOptions] = None, name: str = ""
    ) -> "StandingQuery":
        """Register ``sql`` as a standing query maintained over appends.

        The query runs once to seed a materialized snapshot; from then on
        every :meth:`Table.append_rows <repro.storage.table.Table.append_rows>`
        to a table it depends on refreshes the snapshot from that table's
        append hook — incrementally, by folding only the delta rows through
        the partial-aggregate plane, whenever the query shape allows
        (single-table and star-shaped aggregates, filtered or not);
        everything else falls back to re-execution with a recorded
        ``ivm-fallback`` reason.  Group-delta batches are pushed to the
        returned :class:`~repro.views.StandingQuery`'s bounded queue
        (``options.batch_rows`` / ``options.max_batches``); consume them via
        :meth:`~repro.views.StandingQuery.next_batch` /
        :meth:`~repro.views.StandingQuery.pending_deltas`, or asynchronously
        via :meth:`repro.serve.AsyncDatabase.subscribe_stream`.  Close the
        handle (or the session) to detach the hooks.

        ``options`` is the same :class:`~repro.engine.options.ExecOptions`
        contract as every other entry point; ``timeout``/``deadline`` are
        rejected (a standing query has no natural budget — ``close()`` ends
        it).
        """
        from repro.views.standing import StandingQuery

        standing = StandingQuery(
            self, sql, options=options if options is not None else ExecOptions(),
            name=name,
        )
        self._subscriptions.append(standing)
        return standing

    def standing_queries(self) -> List["StandingQuery"]:
        """The session's live standing queries, in subscription order."""
        return list(self._subscriptions)

    def run_join(
        self,
        logical: LogicalQuery,
        binary_plan: BinaryPlan,
        engine_name: str,
        freejoin_options: Optional[FreeJoinOptions] = None,
        deadline=None,
        sink=None,
        parallelism: Optional[int] = None,
    ) -> RunReport:
        """Run the join into the final sink; the one place that sink is chosen.

        ``engine_name`` selects a plan policy; everything about *how* the
        run executes goes down as one
        :class:`~repro.engine.pipeline.RunContext`: ``parallelism`` workers
        (the session's when ``None`` — :meth:`_prepare` passes what the
        query's options, the router and the session resolve to), the
        session's ``parallel_mode``, and ``deadline``.  ``freejoin_options``
        are plan knobs and reach the Free Join policy only.

        The final pipeline emits only
        :meth:`~repro.query.planner.LogicalQuery.needed_variables` into the
        cheapest sink the SELECT list allows
        (:func:`~repro.engine.aggregates.output_mode`): a count, the
        aggregate sink that folds rows where they are produced, or rows.
        ``sink`` overrides that sink on every policy, serial or parallel;
        :meth:`execute_iter` passes a streaming sink here to deliver rows
        while the join is still running.  Either sink is wrapped in a
        :class:`~repro.engine.aggregates.PostJoinSink` when the query has
        residual predicates or LEFT JOINs, or when the sink's variables are
        not the emitted layout (a stream's SELECT list): the residual mask,
        the LEFT JOIN extensions (summarized in
        ``report.details["post_join"]``) and the projection then run per
        batch, in the final pipeline.  ``report.details["output"]`` records
        which sink ran and what was decoded.
        """
        policy = _PLAN_POLICIES.get(engine_name)
        if policy is None:
            raise QueryError(f"unknown engine {engine_name!r}; choose from {ENGINES}")
        engine = policy(freejoin_options or self.freejoin_options)
        options = engine.options
        variables = logical.needed_variables()
        wrap = bool(logical.residual_predicates or logical.left_joins)
        if sink is None:
            # An ``output`` other than "rows" ("factorized", "count") is the
            # caller asking for that sink.
            mode = output_mode(logical) if options.output == "rows" else options.output
            if mode == "aggregate":
                sink = PartialAggregateSink(aggregate_spec(logical, logical.result_variables()))
            elif wrap:
                sink = make_sink(mode, logical.result_variables())
            else:
                options = replace(options, output=mode)
        post = None
        if sink is not None and (wrap or sink.variables != variables):
            sink = post = PostJoinSink(sink, logical)
        context = RunContext(
            self.parallelism if parallelism is None else parallelism,
            self.parallel_mode,
            deadline,
            variables,
        )
        report = engine.run(logical.query, binary_plan, options, sink, context=context)
        if post is not None and logical.left_joins:
            report.details["post_join"] = post.summary()
        return report
