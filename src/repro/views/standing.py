"""Standing queries: one materialized snapshot maintained per subscription.

A :class:`StandingQuery` is created by :meth:`repro.Database.subscribe`.  It
plans its SQL once, decides a *maintenance mode* from the query shape, runs
the query once to seed a snapshot, and from then on refreshes the snapshot
from an append hook on each table it depends on:

``delta`` mode — aggregate queries whose group key is selected.  The
snapshot lives as a
:class:`~repro.engine.aggregates.GroupedAggregateState` and each append
folds **only the delta rows** through the same
:func:`~repro.engine.aggregates.fold_join_result` fold ``execute()``'s
serial pass uses, which is what makes the maintained snapshot byte-identical
to re-running the query.  Two delta paths exist:

* ``scan`` — single-table queries without a WHERE clause fold the appended
  rows straight into the state; no planning, no join, no scan of the
  existing rows.
* ``delta-join`` — star-shaped joins (one atom carries every join variable)
  and filtered single-table queries plan the *same SQL* over an overlay
  catalog that maps the appended table to just the delta rows, and the
  owner session joins it serially; because inner joins and filters
  (residual predicates included) are linear in each input under appends,
  folding that delta join result is exactly the view delta.

Each subscription records every dependency's ``Table.version`` before its
seed runs; an append whose ``old_version`` is not the recorded one means
rows were missed (appended while the seed ran, say) and reseeds instead of
folding; a reseed or re-execution records them after it ran, so an append
it may have read is a gap too.  Next to each version it records the
dependency's row count the snapshot holds (after each full run, then grown
by each folded append): a delta join reads every other dependency truncated
to that count, so two appends that land together on two dependencies fold
``ΔR ⋈ ΔS`` once, not once per refresh.  :meth:`repro.Database.register`
moves the hooks to a table that replaces a dependency and reseeds.

``reexec`` mode — everything else (non-aggregate queries, LEFT JOINs,
HAVING/ORDER/LIMIT/DISTINCT, self-joins, cyclic join shapes, group keys
missing from the SELECT list).  Each append re-runs the
query on the live session and delivers the change; the reason is recorded as
the ``ivm-fallback`` in :meth:`StandingQuery.stats` and under
``report.details["ivm"]``.

Deliveries ride the bounded streaming queue from
:mod:`repro.engine.streaming`: each refresh pushes one batch of group-delta
rows (or, in ``reexec`` mode without a usable group key, the full new
snapshot), so subscribers get backpressure, blocking :meth:`next_batch`, and
non-blocking :meth:`pending_deltas` for free.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.engine.aggregates import (
    AggregateSpec,
    GroupedAggregateState,
    aggregate_spec,
    fold_join_result,
)
from repro.engine.options import AUTO_ENGINE, ExecOptions
from repro.engine.streaming import (
    DEFAULT_BATCH_ROWS,
    DEFAULT_MAX_BATCHES,
    StreamingSink,
)
from repro.errors import (
    DeadlineExceeded,
    ExecutionError,
    QueryCancelled,
    QueryError,
)
from repro.optimizer.join_order import optimize_query
from repro.parallel.cancellation import DeadlineToken
from repro.query.planner import LogicalQuery, Planner
from repro.query.sql import ParsedQuery, parse_sql
from repro.storage.catalog import Catalog
from repro.storage.table import Row, Table

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.engine.report import RunReport
    from repro.engine.session import Database


#: Maintenance modes.
DELTA, REEXEC = "delta", "reexec"


def _maintenance_mode(
    parsed: ParsedQuery, logical: LogicalQuery
) -> Tuple[str, Optional[str], Optional[str]]:
    """Pick ``(mode, delta_path, fallback_reason)`` for one planned query.

    The checks are ordered from cheapest to most structural, and the first
    failing one names the fallback: incremental maintenance here is
    insert-monotone (appends only ever *grow* groups, no retractions), so
    anything that breaks monotonicity or hides the group key re-executes.
    """
    if not logical.has_aggregates():
        return (REEXEC, None, "non-aggregate")
    if logical.left_joins:
        return (REEXEC, None, "left-join")
    if logical.needs_final_pass():
        return (REEXEC, None, "final-pass")
    try:
        aggregate_spec(logical, tuple(logical.result_variables())).key_positions()
    except QueryError:
        return (REEXEC, None, "group-key-not-selected")
    table_names = [item.table for item in parsed.from_items]
    if len(set(table_names)) != len(table_names):
        # Appending to a self-joined table changes *two* join inputs at
        # once; the linear delta rule below no longer applies.
        return (REEXEC, None, "self-join")
    atoms = logical.query.atoms
    if len(atoms) == 1:
        return (DELTA, "scan" if parsed.where is None else "delta-join", None)
    join_variables = {
        var
        for atom in atoms
        for var in atom.variables
        if sum(var in other.variables for other in atoms) > 1
    }
    if any(join_variables <= set(atom.variables) for atom in atoms):
        return (DELTA, "delta-join", None)
    return (REEXEC, None, "join-shape")


class StandingQuery:
    """A subscribed query: live snapshot plus a stream of group deltas.

    Create through :meth:`repro.Database.subscribe`.  Thread-safety:
    refreshes run on the appender's thread under one lock, so concurrent
    appends to different tables serialize; consumers may call
    :meth:`next_batch` / :meth:`pending_deltas` / :meth:`snapshot` from any
    thread.
    """

    def __init__(
        self,
        owner: "Database",
        sql: str,
        *,
        options: ExecOptions,
        name: str = "",
    ) -> None:
        if options.timeout is not None or options.deadline is not None:
            raise QueryError(
                "standing queries have no deadline; close() ends the "
                "subscription (drop timeout/deadline from options)"
            )
        self.sql = sql
        self.name = name
        self.options = options
        self._owner = owner
        self._refresh_lock = threading.RLock()
        self._close_lock = threading.Lock()
        self._closed = False

        parsed = parse_sql(sql)
        logical = Planner(owner.catalog).plan(parsed, name=name)
        self.mode, self.delta_path, self.fallback_reason = _maintenance_mode(
            parsed, logical
        )
        #: Dependency name -> the hooked table, in FROM order, and the
        #: version each had when last seen; recorded *before* the seed reads
        #: them, so an append the seed may have missed shows up as a gap.
        self._tables: Dict[str, Table] = {
            item.table: owner.catalog.get(item.table)
            for item in parsed.from_items
        }
        self._versions = {name: t.version for name, t in self._tables.items()}

        # Telemetry (exposed via stats() and report.details["ivm"]).
        self._refreshes = 0
        self._deltas_folded = 0
        self._delta_rows = 0
        self._rows_skipped = 0
        self._reexecutions = 0
        self._fallbacks: Dict[str, int] = {}
        self.last_report: Optional["RunReport"] = None

        # Seed: run the query once on the live session.
        outcome = owner._execute(sql, options, name=name)
        self.last_report = outcome.report
        #: Dependency name -> the rows of it the snapshot holds.
        self._counts = {name: t.num_rows for name, t in self._tables.items()}

        self._spec: Optional[AggregateSpec] = None
        self._state: Optional[GroupedAggregateState] = None
        self._scan_positions: Optional[List[int]] = None
        self._snapshot: Optional[Table] = outcome.table
        if self.mode == DELTA:
            self._spec = aggregate_spec(
                outcome.logical, outcome.join_result.variables
            )
            self._state = GroupedAggregateState(self._spec)
            fold_join_result(self._state, outcome.join_result)
            # The folded state IS the snapshot from here on.
            self._snapshot = None
            if self.delta_path == "scan":
                atom = outcome.logical.query.atoms[0]
                self._scan_positions = [
                    atom.variables.index(var) for var in self._spec.variables
                ]
        self._key_positions = (
            self._usable_key_positions(outcome.logical) if self.mode == REEXEC
            else self._spec.key_positions()
        )

        token = DeadlineToken()  # cancellation-only: close() trips it
        self._token = token
        self._sink = StreamingSink(
            self.labels(),
            batch_rows=options.batch_rows or DEFAULT_BATCH_ROWS,
            max_batches=options.max_batches or DEFAULT_MAX_BATCHES,
            interrupt=token,
        )
        outcome.report.details["ivm"] = self._ivm_details(event="seed")
        # The seed snapshot is read via snapshot(), not pushed through the
        # queue: subscribe() must never block on a bounded queue nobody is
        # consuming yet, and delta batches are idempotent upserts, so a
        # consumer that reads the snapshot first misses nothing.
        for table in self._tables.values():
            table.add_append_hook(self._on_append)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def labels(self) -> List[str]:
        """Output column labels, in SELECT order."""
        if self._spec is not None:
            return self._spec.labels()
        return list(self._snapshot.column_names)

    def key_positions(self) -> Optional[List[int]]:
        """Positions of the group key within delivered rows (GROUP BY order).

        ``None`` when deliveries are full snapshots rather than keyed group
        deltas (``reexec`` mode without a usable group key) — then each
        delivered batch *replaces* all earlier ones instead of upserting.
        """
        return list(self._key_positions) if self._key_positions else None

    @property
    def closed(self) -> bool:
        return self._closed

    def snapshot(self) -> Table:
        """The maintained result table, identical to re-running ``execute``."""
        with self._refresh_lock:
            if self._state is not None:
                return Table.from_rows(
                    "result", self._spec.labels(), self._state.finalize_rows()
                )
            return self._snapshot

    def stats(self) -> Dict[str, object]:
        """Maintenance counters (also under ``report.details["ivm"]``)."""
        with self._refresh_lock:
            return self._ivm_details(event=None)

    def _ivm_details(self, event: Optional[str]) -> Dict[str, object]:
        details: Dict[str, object] = {
            "mode": self.mode,
            "path": self.delta_path,
            "fallback_reason": self.fallback_reason,
            "refreshes": self._refreshes,
            "deltas_folded": self._deltas_folded,
            "delta_rows": self._delta_rows,
            "rows_skipped": self._rows_skipped,
            "reexecutions": self._reexecutions,
            "fallbacks": dict(self._fallbacks),
        }
        if event is not None:
            details["event"] = event
        return details

    # ------------------------------------------------------------------ #
    # Maintenance (runs on the appender's thread)
    # ------------------------------------------------------------------ #

    def _on_append(self, table: Table, rows: Sequence[Row], old_version: int) -> None:
        """The append hook: fold the delta, or reseed after a version gap."""
        with self._refresh_lock:
            if self._closed:
                return
            gap = old_version != self._versions[table.name]
            self._versions[table.name] = table.version
            self._counts[table.name] += len(rows)
            self._refresh(table, rows, gap)

    def _replace_table(self, old: Table, new: Table) -> None:
        """Move the hook from ``old`` to ``new``, registered in its place, and reseed."""
        with self._refresh_lock:
            if self._closed or self._tables.get(new.name) is not old:
                return
            old.remove_append_hook(self._on_append)
            new.add_append_hook(self._on_append)
            self._tables[new.name] = new
            self._refresh(new, (), gap=True)

    def _refresh(self, table: Table, rows: Sequence[Row], gap: bool) -> None:
        """Fold one append into the snapshot and push the delta batch."""
        try:
            self._refreshes += 1
            if gap:
                self._record_fallback("version-gap")
                self._reseed()
            elif self.mode == DELTA:
                self._refresh_delta(table, rows)
            else:
                self._record_fallback(self.fallback_reason or "reexec")
                self._refresh_reexec()
        except (QueryCancelled, DeadlineExceeded):
            # close() cancels the token to unblock a backpressured
            # delivery; swallow the unwind only in that case.
            if self._closed:
                return
            raise

    def _record_fallback(self, reason: str) -> None:
        self._fallbacks[reason] = self._fallbacks.get(reason, 0) + 1

    def _refresh_delta(self, table: Table, rows: Sequence[Row]) -> None:
        delta_rows = list(rows)
        live_rows = sum(dep.num_rows for dep in self._tables.values())
        if self.delta_path == "scan":
            columns = list(zip(*delta_rows))
            # Explicit multiplicities: a COUNT(*)-only spec reads no column
            # that could carry the number of rows.
            touched = self._state.fold_columns(
                [columns[p] for p in self._scan_positions] if delta_rows else [],
                [1] * len(delta_rows),
            )
        else:
            touched = self._fold_delta_join(table, delta_rows)
        self._deltas_folded += 1
        self._delta_rows += len(delta_rows)
        self._rows_skipped += max(0, live_rows - len(delta_rows))
        if self.delta_path != "scan" and self.last_report is not None:
            # Stamp the refresh report *after* the counters caught up, so
            # its details["ivm"] describes the refresh it rode in on.
            self.last_report.details["ivm"] = self._ivm_details(event="delta")
        self._deliver_keys(touched)

    def _fold_delta_join(self, table: Table, delta_rows: List[Row]) -> List[Row]:
        """Join the delta against the live dependencies and fold the result.

        The overlay catalog maps the appended name to the delta rows and
        every other dependency to the rows of it the snapshot holds — an
        append that landed but whose refresh still waits on the lock joins
        this delta in its own refresh.  The owner plans with its statistics,
        routes with its router and runs the join serially, but its prepared
        cache never sees the overlay.
        """
        owner, options = self._owner, self.options
        catalog = Catalog()
        for name, dep in self._tables.items():
            if dep is table:
                dep = Table.from_rows(name, table.column_names, delta_rows)
            elif dep.num_rows != self._counts[name]:
                dep = dep.head(self._counts[name])
            catalog.register(dep)
        logical = Planner(catalog).plan_sql(self.sql, name=self.name)
        binary_plan = optimize_query(
            logical.query,
            bad_estimates=options.bad_estimates,
            statistics_cache=owner.statistics_cache,
        )
        engine_name = options.engine or owner.default_engine
        decision = None
        if engine_name == AUTO_ENGINE:
            decision = owner.router.route(
                logical, binary_plan, statistics_cache=owner.statistics_cache
            )
            engine_name = decision.engine
        report = owner.run_join(
            logical, binary_plan, engine_name, options.freejoin_options, parallelism=1
        )
        if decision is not None:
            owner.router.observe(decision)
            report.details["router"] = decision.as_dict()
        self.last_report = report
        # The delta run folded its own partial (or counted, or kept
        # factorized batches); all three merge by group key and variable
        # name, whichever driver and row layout that run picked.
        return fold_join_result(self._state, report.result)

    def _rerun(self, event: str):
        """Re-run the query on the live session: a reexec refresh or a reseed.

        Every dependency's version and row count is recorded *after* the
        run: an append that landed before then — read by the run or not —
        is a gap when its own refresh gets the lock, never a delta.
        """
        outcome = self._owner._execute(self.sql, self._refresh_options(), name=self.name)
        self._versions = {name: t.version for name, t in self._tables.items()}
        self._counts = {name: t.num_rows for name, t in self._tables.items()}
        self._reexecutions += 1
        self.last_report = outcome.report
        outcome.report.details["ivm"] = self._ivm_details(event=event)
        return outcome

    def _refresh_reexec(self) -> None:
        outcome = self._rerun("reexec")
        old_table, self._snapshot = self._snapshot, outcome.table
        if self._key_positions:
            self._deliver_keyed_diff(old_table, outcome.table)
        else:
            # No usable group key: deliver the full new snapshot.
            self._sink.put_rows(outcome.table.to_rows())
            self._sink.flush()

    def _reseed(self) -> None:
        """Rebuild from scratch after a version gap (missed deltas)."""
        outcome = self._rerun("reseed")
        if self._state is not None:
            self._state = GroupedAggregateState(self._spec)
            fold_join_result(self._state, outcome.join_result)
        else:
            self._snapshot = outcome.table
        self._sink.put_rows(self.snapshot().to_rows())
        self._sink.flush()

    def _refresh_options(self) -> ExecOptions:
        # Refreshes run on the appender's thread with no budget of their
        # own; strip the streaming knobs so internal executes stay plain.
        return replace(
            self.options, timeout=None, deadline=None, batch_rows=None,
            max_batches=None,
        )

    def _deliver_keys(self, touched: List[Row]) -> None:
        keys = sorted(set(touched), key=repr)
        if not keys:
            return
        self._sink.put_rows([self._state.finalize_key(key) for key in keys])
        self._sink.flush()

    def _deliver_keyed_diff(self, old_table: Table, new_table: Table) -> None:
        positions = self._key_positions
        old_by_key = {
            tuple(row[p] for p in positions): row for row in old_table.to_rows()
        }
        changed = [
            row
            for row in new_table.to_rows()
            if old_by_key.get(tuple(row[p] for p in positions)) != row
        ]
        if not changed:
            return
        self._sink.put_rows(changed)
        self._sink.flush()

    def _usable_key_positions(self, logical: LogicalQuery) -> Optional[List[int]]:
        """Group-key output positions for re-executed keyed diffs, if sound."""
        if (
            not logical.has_aggregates()
            or logical.left_joins
            or logical.needs_final_pass()
        ):
            return None
        try:
            spec = aggregate_spec(logical, tuple(logical.result_variables()))
            return spec.key_positions()
        except (QueryError, ExecutionError):
            return None

    # ------------------------------------------------------------------ #
    # Consumption
    # ------------------------------------------------------------------ #

    def next_batch(self) -> Optional[List[Row]]:
        """Block for the next delivered batch; ``None`` once closed.

        Batches are lists of result rows in SELECT order.  With a usable
        :meth:`key_positions` each row upserts its group; otherwise a batch
        replaces the previous view.
        """
        try:
            return self._sink.next_batch()
        except QueryCancelled:
            if self._closed:
                return None
            raise

    def pending_deltas(self) -> List[List[Row]]:
        """Drain everything delivered so far, without blocking."""
        return self._sink.pending_batches()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """End the subscription: detach hooks, unblock producer and consumers.

        Idempotent; also called by :meth:`repro.Database.close` for every
        still-open subscription.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        # Cancel BEFORE taking the refresh lock: an in-flight refresh may be
        # blocked on a full delivery queue while *holding* that lock, and the
        # cancelled token is what unwinds it (_refresh swallows the unwind
        # once _closed is set).
        self._token.cancel()
        with self._refresh_lock:  # waits for an in-flight refresh to unwind
            for table in self._tables.values():
                table.remove_append_hook(self._on_append)
        if self in self._owner._subscriptions:
            self._owner._subscriptions.remove(self)
        self._sink.drain()
        self._sink.finish_nowait()

    def __enter__(self) -> "StandingQuery":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        status = "closed" if self._closed else "open"
        return (
            f"StandingQuery({self.sql!r}, mode={self.mode!r}, "
            f"path={self.delta_path!r}, {status})"
        )
