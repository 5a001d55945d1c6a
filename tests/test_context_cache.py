"""Tests for table fingerprints and the content-keyed caches behind them.

Pins the guarantees of the serving fast path: fingerprints are stable
across processes and storage representations (list-backed columns vs
shared-memory attachments), in-place table mutation invalidates every
derived cache, and on a parallel session warm runs return byte-identical
results to cold runs while the kernels' index cache reports its hits and
misses in ``RunReport.details["kernels"]`` — in the parent for a thread
session's inline tasks, in each process worker for the process backend.  A process
worker's attachment pins belong to one query, so attachment churn beyond
the worker's LRU capacity never breaks the pool.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.engine.session import Database
from repro.errors import SchemaError
from repro.kernels import kernel_caches_clear
from repro.parallel import scheduler
from repro.storage import shm
from repro.storage.table import Table


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each test starts from cold kernel caches and pools."""
    kernel_caches_clear()
    yield
    scheduler.shutdown_pools()
    shm.shutdown_exports()


def star_catalog(rows: int = 4000, seed: int = 11) -> Database:
    rng = random.Random(seed)
    database = Database()
    database.register(Table.from_columns("fact", {
        "k": [rng.randrange(rows) for _ in range(rows)],
        "v": list(range(rows)),
    }))
    database.register(Table.from_columns("dim", {
        "k": [rng.randrange(rows) for _ in range(rows // 2)],
        "w": list(range(rows // 2)),
    }))
    return database


COUNT_SQL = "SELECT COUNT(*) FROM fact, dim WHERE fact.k = dim.k"
ROWS_SQL = "SELECT fact.v, dim.w FROM fact, dim WHERE fact.k = dim.k"


# --------------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------------- #


def test_fingerprint_depends_on_content_not_identity():
    a = Table.from_columns("t", {"x": [1, 2, 3], "y": ["a", "b", "c"]})
    b = Table.from_columns("t", {"x": [1, 2, 3], "y": ["a", "b", "c"]})
    c = Table.from_columns("t", {"x": [1, 2, 4], "y": ["a", "b", "c"]})
    renamed = Table.from_columns("u", {"x": [1, 2, 3], "y": ["a", "b", "c"]})
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert a.fingerprint() != renamed.fingerprint()


def _child_fingerprints(conn, handle) -> None:
    table, attachment = shm.attach_table(handle)
    conn.send(table.fingerprint())
    conn.close()
    del table
    attachment.close()


def test_fingerprint_stable_across_processes_and_representations():
    """A worker's shm attachment fingerprints identically to the source.

    This is what lets a process worker's kernel caches key on content: the
    key derived from the parent's list-backed columns matches what the
    worker derives from its memoryview-backed attachment.
    """
    table = Table.from_columns("mixed", {
        "i": list(range(512)),
        "f": [float(i) / 2 for i in range(512)],
        "s": [f"name-{i % 37}" for i in range(512)],
    })
    parent = table.fingerprint()
    handle = shm.export_table(table)

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child_fingerprints, args=(sender, handle))
    process.start()
    sender.close()
    child = receiver.recv()
    process.join()
    assert process.exitcode == 0
    assert child == parent

    # Same process, attached representation: also identical.
    attached, attachment = shm.attach_table(handle)
    assert attached.fingerprint() == parent
    del attached
    attachment.close()


def test_append_rows_bumps_version_and_fingerprint():
    table = Table.from_columns("t", {"x": [1, 2], "y": [10, 20]})
    before = table.fingerprint()
    assert table.version == 0
    table.append_rows([(3, 30), (4, 40)])
    assert table.version == 1
    assert table.num_rows == 4
    assert table.row(3) == (4, 40)
    assert table.fingerprint() != before
    with pytest.raises(SchemaError):
        table.append_rows([(1, 2, 3)])  # wrong arity


def test_mutation_forces_a_fresh_shm_export():
    table = Table.from_columns("t", {"x": list(range(100))})
    first = shm.export_table(table)
    assert shm.export_table(table).segment == first.segment  # cached
    table.append_rows([(100,)])
    second = shm.export_table(table)
    assert second.segment != first.segment
    assert second.num_rows == 101
    # The stale segment was unlinked; only the fresh one remains.
    assert shm.active_export_segments() == [second.segment]


# --------------------------------------------------------------------------- #
# End-to-end: cold/warm parity, telemetry, invalidation, eviction
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_cold_warm_parity_and_telemetry(mode):
    database = star_catalog()
    serial = database.execute(ROWS_SQL).rows()
    parallel = Database(database.catalog, parallelism=2, parallel_mode=mode)

    kernel_caches_clear()  # the serial run warmed this process (process workers fork from it)
    cold = parallel.execute(ROWS_SQL)
    warm = parallel.execute(ROWS_SQL)
    assert sorted(cold.rows(), key=repr) == sorted(serial, key=repr)
    assert warm.rows() == cold.rows()  # warm output is byte-identical

    assert cold.report.details["parallel"][0]["mode"] == scheduler.resolve_mode(mode, 2, 0)
    assert cold.report.details["kernels"]["indexes"]["misses"] >= 1
    assert warm.report.details["kernels"]["indexes"]["hits"] >= 1
    parallel.close()


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_mutation_invalidates_cached_contexts(mode):
    database = star_catalog(rows=1200)
    parallel = Database(database.catalog, parallelism=2, parallel_mode=mode)
    warmup = parallel.execute(COUNT_SQL)
    assert parallel.execute(COUNT_SQL).scalar() == warmup.scalar()

    # Append rows that definitely join: reuse a key known to exist in dim.
    fact = database.catalog.get("fact")
    dim_key = database.catalog.get("dim").column("k").values[0]
    fact.append_rows([(dim_key, 10_000 + i) for i in range(50)])
    after = parallel.execute(COUNT_SQL)
    assert after.scalar() == Database(database.catalog).execute(COUNT_SQL).scalar()
    assert after.scalar() != warmup.scalar()
    # The run compiled its programs against the mutated table — there is
    # no program cache to serve a stale one.
    assert after.report.details["kernels"]["programs"]["misses"] >= 1
    parallel.close()


def test_attachment_churn_beyond_lru_capacity_keeps_the_pool():
    """Query-owned pins: more distinct tables than a worker's attachment LRU
    holds evict attachments between queries, never one a query still uses."""
    database = star_catalog(rows=1200)
    tables = shm.AttachmentCache().capacity + 6
    rng = random.Random(5)
    for index in range(tables):
        database.register(Table.from_columns(f"side{index}", {
            "k": [rng.randrange(1200) for _ in range(300)],
            "z": list(range(300)),
        }))
    queries = [
        f"SELECT COUNT(*) FROM fact, side{index} WHERE fact.k = side{index}.k"
        for index in range(tables)
    ]
    parallel = Database(database.catalog, parallelism=2, parallel_mode="process")

    first = parallel.execute(queries[0])
    assert first.report.details["parallel"][0]["mode"] == "process"
    pool = scheduler.active_pools()[2]
    for sql in queries + queries[:1]:
        assert parallel.execute(sql).scalar() == database.execute(sql).scalar(), sql
    assert scheduler.active_pools()[2] is pool
    parallel.close()
    assert shm.active_export_segments() == []


# --------------------------------------------------------------------------- #
# execute_many queries run on the caller's session and see its warm caches
# --------------------------------------------------------------------------- #


def test_execute_many_process_workers_start_with_warm_contexts():
    """Warming the session then running the same query through a workload
    must report a kernel index *hit* for every query of the workload."""
    database = star_catalog()
    parallel = Database(database.catalog, parallelism=2, parallel_mode="thread")
    expected = parallel.execute(ROWS_SQL)
    warm = parallel.execute(ROWS_SQL)
    assert warm.report.details["kernels"]["indexes"]["hits"] >= 1

    workload = parallel.execute_many(
        [("first", ROWS_SQL), ("second", ROWS_SQL)],
        max_workers=2,
    )
    assert workload.all_ok(), [e.error for e in workload.executions]
    for execution in workload.executions:
        assert execution.row_count == len(expected.rows())
        assert execution.parallel is not None, "records must carry telemetry"
        stats = execution.parallel[0]["kernels_stats"]
        assert stats["index_hits"] >= 1 and stats["index_misses"] == 0, (
            f"{execution.name} ran cold: {stats}"
        )
    parallel.close()


def test_workload_records_carry_parallel_telemetry_on_threads():
    """A workload record carries the query's parallel telemetry."""
    database = star_catalog(rows=1200)
    parallel = Database(database.catalog, parallelism=2, parallel_mode="thread")
    workload = parallel.execute_many(
        [("only", COUNT_SQL)], max_workers=1
    )
    assert workload.all_ok()
    record = workload.query("only")
    assert record.parallel is not None
    assert record.parallel[0]["kernels_stats"]["index_misses"] >= 1
    assert "parallel" in record.as_dict()
    parallel.close()
