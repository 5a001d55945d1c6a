"""Tests for table fingerprints and the fingerprint-keyed context cache.

Pins the tentpole guarantees of the serving fast path: fingerprints are
stable across processes and storage representations (list-backed columns vs
shared-memory attachments), in-place table mutation invalidates every
derived cache, the LRU respects its byte budget, and warm runs return
byte-identical results to cold runs while reporting hit/miss/evict
telemetry in ``RunReport.details["parallel"]``.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.engine.session import Database
from repro.errors import SchemaError
from repro.parallel import scheduler
from repro.parallel.context_cache import ContextCache, context_cache_budget
from repro.storage import shm
from repro.storage.table import Table


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each test starts from cold parent-side caches and pools."""
    scheduler.clear_context_caches()
    yield
    scheduler.clear_context_caches()
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

    This is what lets the parent compute context-cache keys and ship them to
    workers: the key derived from the parent's list-backed columns matches
    what the worker would derive from its memoryview-backed attachment.
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
# ContextCache unit behavior
# --------------------------------------------------------------------------- #


class _Resource:
    def __init__(self) -> None:
        self.pins = 1


class _FakeContext:
    def __init__(self) -> None:
        self.attachments = (_Resource(),)


def test_context_cache_lru_eviction_under_byte_budget():
    cache = ContextCache()
    contexts = {name: _FakeContext() for name in "abc"}
    assert cache.put("a", contexts["a"], 40, budget=100)
    assert cache.put("b", contexts["b"], 40, budget=100)
    assert cache.get("a") is contexts["a"]  # refresh: b is now the LRU entry
    assert cache.put("c", contexts["c"], 40, budget=100)
    assert cache.evictions == 1
    assert cache.get("b") is None  # evicted
    assert cache.get("a") is contexts["a"]
    assert cache.get("c") is contexts["c"]
    # Eviction released b's pinned resources; survivors stay pinned.
    assert contexts["b"].attachments[0].pins == 0
    assert contexts["a"].attachments[0].pins == 1
    assert cache.bytes_used == 80
    snapshot = cache.snapshot()
    assert snapshot["entries"] == 2 and snapshot["evictions"] == 1


def test_context_cache_rejects_oversized_and_disabled_entries():
    cache = ContextCache()
    big = _FakeContext()
    assert not cache.put("big", big, 1000, budget=100)
    assert big.attachments[0].pins == 0  # released immediately
    off = _FakeContext()
    assert not cache.put("off", off, 10, budget=0)
    assert not cache.put(None, _FakeContext(), 10, budget=100)
    assert len(cache) == 0


def test_context_cache_budget_reads_environment(monkeypatch):
    monkeypatch.setenv("REPRO_CONTEXT_CACHE_BYTES", "12345")
    assert context_cache_budget() == 12345
    monkeypatch.setenv("REPRO_CONTEXT_CACHE_BYTES", "0")
    assert context_cache_budget() == 0
    monkeypatch.setenv("REPRO_CONTEXT_CACHE_BYTES", "junk")
    assert context_cache_budget() > 0  # falls back to the default
    monkeypatch.delenv("REPRO_CONTEXT_CACHE_BYTES")
    assert context_cache_budget() > 0


# --------------------------------------------------------------------------- #
# End-to-end: cold/warm parity, telemetry, invalidation, eviction
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_cold_warm_parity_and_telemetry(mode):
    database = star_catalog()
    serial = database.execute(ROWS_SQL).rows()
    parallel = Database(database.catalog, parallelism=2, parallel_mode=mode)

    cold = parallel.execute(ROWS_SQL)
    warm = parallel.execute(ROWS_SQL)
    assert sorted(cold.rows(), key=repr) == sorted(serial, key=repr)
    assert warm.rows() == cold.rows()  # warm output is byte-identical

    cold_cache = cold.report.details["parallel"][0]["context_cache"]
    warm_cache = warm.report.details["parallel"][0]["context_cache"]
    assert cold_cache["hits"] == 0 and cold_cache["misses"] >= 1
    assert warm_cache["hits"] >= 1 and warm_cache["misses"] == 0
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
    expected = Database(database.catalog).execute(COUNT_SQL).scalar()
    after = parallel.execute(COUNT_SQL)
    assert after.scalar() == expected
    assert after.scalar() != warmup.scalar()
    # The mutated fingerprint missed the cache — no stale hit.
    cache = after.report.details["parallel"][0]["context_cache"]
    assert cache["misses"] >= 1
    parallel.close()


def test_tiny_budget_forces_evictions_between_queries(monkeypatch):
    """With a budget fitting ~one context, alternating queries evict."""
    database = star_catalog(rows=1500)
    rng = random.Random(3)
    database.register(Table.from_columns("alt", {
        "k": [rng.randrange(1500) for _ in range(1500)],
        "z": list(range(1500)),
    }))
    alt_sql = "SELECT COUNT(*) FROM fact, alt WHERE fact.k = alt.k"
    # Budget sized to one context: fact+dim and fact+alt cannot coexist.
    monkeypatch.setenv("REPRO_CONTEXT_CACHE_BYTES", str(100 * 1024))
    parallel = Database(database.catalog, parallelism=2, parallel_mode="thread")

    parallel.execute(COUNT_SQL)
    second = parallel.execute(alt_sql)
    evicted = second.report.details["parallel"][0]["context_cache"]["evictions"]
    third = parallel.execute(COUNT_SQL)
    cache = third.report.details["parallel"][0]["context_cache"]
    assert evicted + cache["evictions"] >= 1  # the LRU entry was pushed out
    assert cache["misses"] == 1  # and had to be rebuilt
    stats = scheduler.local_context_cache_stats()
    assert stats["evictions"] >= 1
    assert stats["bytes"] <= 100 * 1024
    parallel.close()


def test_disabled_budget_runs_without_caching(monkeypatch):
    monkeypatch.setenv("REPRO_CONTEXT_CACHE_BYTES", "0")
    database = star_catalog(rows=800)
    parallel = Database(database.catalog, parallelism=2, parallel_mode="thread")
    first = parallel.execute(COUNT_SQL)
    second = parallel.execute(COUNT_SQL)
    assert first.scalar() == second.scalar()
    detail = second.report.details["parallel"][0]
    assert "context_cache" not in detail
    parallel.close()


# --------------------------------------------------------------------------- #
# execute_many queries run on the caller's session and see its warm caches
# --------------------------------------------------------------------------- #


def test_execute_many_process_workers_start_with_warm_contexts():
    """The PR 3 regression, now without a fork: warming the session then
    running the same query through a workload must report a context-cache
    *hit* for every query of the workload."""
    database = star_catalog()
    parallel = Database(database.catalog, parallelism=2, parallel_mode="thread")
    expected = parallel.execute(ROWS_SQL)
    warm = parallel.execute(ROWS_SQL)
    assert warm.report.details["parallel"][0]["context_cache"]["hits"] >= 1

    workload = parallel.execute_many(
        [("first", ROWS_SQL), ("second", ROWS_SQL)],
        max_workers=2,
    )
    assert workload.all_ok(), [e.error for e in workload.executions]
    for execution in workload.executions:
        assert execution.row_count == len(expected.rows())
        assert execution.parallel is not None, "records must carry telemetry"
        cache = execution.parallel[0]["context_cache"]
        assert cache["hits"] >= 1 and cache["misses"] == 0, (
            f"{execution.name} ran cold: {cache}"
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
    assert "context_cache" in record.parallel[0]
    assert "parallel" in record.as_dict()
    parallel.close()
