"""Standing queries: materialized views maintained over table appends.

:meth:`repro.Database.subscribe` turns a SQL query into a
:class:`StandingQuery`: the query runs once to seed a materialized snapshot,
then every :meth:`~repro.storage.table.Table.append_rows` on a table it
depends on refreshes the snapshot from that table's append hook, on the
owner session — incrementally, by folding only the delta rows through the
partial-aggregate plane whenever the query shape allows, and by falling back
to re-execution (with a recorded ``ivm-fallback`` reason) when it does not.  Group-delta
batches are pushed to subscribers through the same bounded streaming queue
``execute_iter`` uses; :meth:`repro.serve.AsyncDatabase.subscribe_stream`
wraps them in an async iterator.
"""

from repro.views.standing import StandingQuery

__all__ = ["StandingQuery"]
