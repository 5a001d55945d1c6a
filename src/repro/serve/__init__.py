"""Async serving layer: deadlines, cancellation, bounded concurrency.

Public surface::

    from repro.serve import AsyncDatabase, DeadlineToken

    from repro import ExecOptions

    async with AsyncDatabase(parallelism=4) as db:
        outcome = await db.execute("SELECT COUNT(*) FROM r, s WHERE ...",
                                   options=ExecOptions(timeout=0.5))
        async for batch in db.execute_stream("SELECT * FROM ..."):
            ...
        async for deltas in db.subscribe_stream("SELECT x, SUM(y) ..."):
            ...
        results = await db.gather_many(queries, max_concurrency=4,
                                       options=ExecOptions(timeout=0.5))

Every query runs on the one wrapped session; per-query knobs travel only
in ``options=``.

See :mod:`repro.serve.async_db` for the semantics and
:mod:`repro.parallel.cancellation` for how deadlines reach the executors.
"""

from repro.errors import DeadlineExceeded, QueryCancelled
from repro.parallel.cancellation import DeadlineToken
from repro.serve.async_db import DEFAULT_CONCURRENCY, AsyncDatabase

__all__ = [
    "AsyncDatabase",
    "DeadlineToken",
    "DeadlineExceeded",
    "QueryCancelled",
    "DEFAULT_CONCURRENCY",
]
