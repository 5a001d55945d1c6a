"""Unit tests for the work-stealing scheduler and the shm column plane.

Covers the scheduler's moving parts in isolation (task decomposition,
range views, task-granular executor entry points, pool persistence, empty
cover short-circuits) and the shared-memory export/attach round trip.
"""

from __future__ import annotations

import os

import pytest

from repro.core.colt import build_tries
from repro.core.executor import ExecutorStats, FreeJoinExecutor, RangeView
from repro.engine.aggregates import aggregate_result, finalize_output
from repro.engine.options import ExecOptions
from repro.engine.output import RowSink
from repro.engine.session import Database
from repro.errors import ExecutionError
from repro.experiments.differential import canonicalize, reference_rows
from repro.optimizer.binary_plan import BinaryPlan, JoinNode, LeafNode
from repro.parallel import scheduler
from repro.parallel.scheduler import (
    StealTask,
    assign_preferred,
    decompose_entries,
)
from repro.query.planner import Planner
from repro.query.sql import parse_sql
from repro.storage import shm
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table
from repro.workloads.synthetic import triangle_instance, triangle_query

from tests.test_parallel import freejoin_plan_and_atoms


# --------------------------------------------------------------------------- #
# Task decomposition
# --------------------------------------------------------------------------- #


def covered_entries(tasks):
    return [i for task in tasks for i in range(task.start, task.stop)]


@pytest.mark.parametrize("entry_total", [0, 1, 3, 5, 16, 17, 100, 1000])
@pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
def test_decompose_partitions_the_entries(entry_total, workers):
    tasks = decompose_entries(entry_total, workers)
    # Non-empty contiguous ranges that cover range(entry_total) exactly, in order.
    assert covered_entries(tasks) == list(range(entry_total))
    assert all(task.start < task.stop for task in tasks)
    assert [task.task_id for task in tasks] == list(range(len(tasks)))
    # Fewer entries than tasks wanted (e.g. 1 or 3 entries over 4 workers):
    # one whole-entry task each, never a split below an entry.
    assert len(tasks) == min(entry_total, workers * scheduler.TASKS_PER_WORKER)
    # Near-even: task sizes differ by at most one entry.
    sizes = {task.stop - task.start for task in tasks}
    assert not sizes or max(sizes) - min(sizes) <= 1


def test_decompose_empty_cover_yields_no_tasks():
    assert decompose_entries(0, 4) == []


BIG = scheduler.PARALLEL_ROW_THRESHOLD


@pytest.mark.parametrize(
    "mode, workers, tuples, fork, cpus, expected",
    [
        ("auto", 2, BIG, True, 4, "process"),
        ("auto", 2, BIG - 1, True, 4, "inline"),  # small input
        ("auto", 1, BIG, True, 4, "inline"),  # one worker
        ("auto", 2, BIG, True, 1, "inline"),  # one core
        ("auto", 2, BIG, False, 4, "inline"),
        ("process", 2, 10, True, 1, "process"),  # explicit wins over size and cores
        ("process", 2, BIG, False, 4, "inline"),  # ... but not over a missing fork
        ("thread", 2, BIG, True, 4, "inline"),
    ],
)
def test_resolve_mode(monkeypatch, mode, workers, tuples, fork, cpus, expected):
    methods = ["fork", "spawn"] if fork else ["spawn"]
    monkeypatch.setattr(scheduler.multiprocessing, "get_all_start_methods", lambda: methods)
    monkeypatch.setattr(scheduler.multiprocessing, "cpu_count", lambda: cpus)
    assert scheduler.resolve_mode(mode, workers, tuples) == expected


def test_resolve_mode_rejects_unknown_modes():
    with pytest.raises(ExecutionError, match="unknown parallel mode"):
        scheduler.resolve_mode("fibers", 2, 10)


def test_assign_preferred_deals_contiguous_blocks():
    tasks = decompose_entries(64, 4)
    assign_preferred(tasks, 4)
    owners = [task.preferred for task in tasks]
    assert owners == sorted(owners)
    assert set(owners) == {0, 1, 2, 3}


def test_decompose_rejects_bad_arguments():
    with pytest.raises(ExecutionError):
        decompose_entries(10, 0)


# --------------------------------------------------------------------------- #
# RangeView + run_task
# --------------------------------------------------------------------------- #


def test_range_view_slices_and_delegates():
    tables = triangle_instance(40, domain=10, skew=0.4, seed=9)
    query = triangle_query(tables)
    _plan, atoms, schemas = freejoin_plan_and_atoms(query)
    tries = build_tries(atoms, schemas)
    base = tries["R"]
    assert len(list(base.iter_entries())) > 3
    view = RangeView(base, 1, 3)
    assert (view.start, view.stop) == (1, 3)
    entries = list(view.iter_entries())
    assert entries == list(base.iter_entries())[1:3]
    # The full count, so cover selection chooses as the serial executor does.
    assert view.key_count() == base.key_count()
    for key, _child in base.iter_entries():
        assert view.get(key) is base.get(key)
    with pytest.raises(ValueError):
        RangeView(base, 3, 1)


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("batch_size", [1, 4])
@pytest.mark.parametrize("dynamic_cover", [False, True])
def test_run_task_partitions_serial_execution(workers, batch_size, dynamic_cover):
    tables = triangle_instance(90, domain=14, skew=0.6, seed=21)
    query = triangle_query(tables)
    plan, atoms, schemas = freejoin_plan_and_atoms(query)

    def fresh_executor():
        sink = RowSink(query.output_variables)
        return (
            FreeJoinExecutor(
                plan,
                query.output_variables,
                sink,
                dynamic_cover=dynamic_cover,
                batch_size=batch_size,
            ),
            sink,
        )

    serial_executor, serial_sink = fresh_executor()
    tries = build_tries(atoms, schemas)
    serial_executor.run(tries)
    serial_rows = serial_sink.result().to_rows()

    # Pin the root cover once over unforced tries, the way the scheduler
    # does: forcing shrinks key_count() estimates, so tasks re-choosing a
    # dynamic cover over shared tries could slice different relations.
    prober, _sink = fresh_executor()
    root = prober._nodes[0]
    fresh_tries = build_tries(atoms, schemas)
    cover = root.cover_plans[prober._choose_cover(root, fresh_tries)].relation
    entry_total = len(list(fresh_tries[cover].iter_entries()))
    tasks = decompose_entries(entry_total, workers)
    assert len(tasks) > 1

    shared_tries = build_tries(atoms, schemas)
    merged_rows = []
    merged_stats = ExecutorStats()
    for task in tasks:
        executor, sink = fresh_executor()
        executor.run_task(shared_tries, task.start, task.stop, cover)
        merged_rows.extend(sink.result().to_rows())
        merged_stats.merge(executor.stats)

    # Tasks partition the serial iteration: they neither repeat nor drop
    # work, so the bags match and the output counter is exact...
    assert sorted(merged_rows, key=repr) == sorted(serial_rows, key=repr)
    assert merged_stats.outputs == serial_executor.stats.outputs
    if not dynamic_cover:
        # ...and with a static cover the enumeration order is deterministic:
        # concatenation in task order is byte-identical and every work
        # counter is exact.
        assert merged_rows == serial_rows
        assert merged_stats.iterations == serial_executor.stats.iterations
        assert merged_stats.probes == serial_executor.stats.probes
        assert merged_stats.failed_probes == serial_executor.stats.failed_probes


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_pinned_cover_survives_forcing_flips(backend):
    """Regression: the cover choice must be pinned once per query.

    The root node here has two cover candidates whose ordering flips once
    COLT forcing replaces the vector-length estimate (R=60 < S=80) with
    exact key counts (S has only 3 distinct pairs).  If any task re-ran
    dynamic cover selection mid-query it would slice S's 3 entries instead
    of R's 60 and silently drop most of the output.
    """
    r_rows = [(i, i) for i in range(60)]
    s_rows = ([(0, 0)] * 30) + ([(30, 30)] * 30) + ([(59, 59)] * 20)
    database = Database()
    database.register(Table.from_rows("R", ["x", "y"], r_rows))
    database.register(Table.from_rows("S", ["x", "y"], s_rows))
    sql = "SELECT COUNT(*) FROM R, S WHERE R.x = S.x AND R.y = S.y"
    expected = database.execute(sql).scalar()
    assert expected == 80
    parallel = Database(database.catalog, parallelism=2, parallel_mode=backend)
    assert parallel.execute(sql).scalar() == expected


ONE_ENTRY_SQL = "SELECT dim.k, fact.v FROM dim, fact WHERE dim.k = fact.k AND dim.tag = 3"


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_one_entry_driver_runs_one_inline_kernel_task(backend):
    """A root cover with fewer entries than workers is never split below an entry.

    ``dim`` filtered to one row drives a hand-built ``dim JOIN fact`` plan
    into 2 000 of ``fact``'s 20 000 rows: the cover has one entry, so the
    query is one task, run inline on the kernels like the serial run.
    """
    catalog = Catalog()
    catalog.register(Table.from_columns("dim", {"k": list(range(10)), "tag": list(range(10))}))
    catalog.register(
        Table.from_columns(
            "fact", {"k": [i % 10 for i in range(20_000)], "v": list(range(20_000))}
        )
    )
    plan = BinaryPlan(JoinNode(LeafNode("dim"), LeafNode("fact")))
    logical = Planner(catalog).plan_sql(ONE_ENTRY_SQL)

    def bag(report):
        table = finalize_output(aggregate_result(report.result, logical), logical)
        return canonicalize(table.to_rows(), ordered=False)

    serial = Database(catalog).run_join(logical, plan, "freejoin")
    session = Database(catalog, parallelism=2, parallel_mode=backend)
    report = session.run_join(logical, plan, "freejoin")

    (run,) = report.details["parallel"]
    assert (run["tasks"], run["mode"]) == (1, "inline")
    assert report.details["kernels"]["mode"] == "vectorized"
    assert "fallbacks" not in report.details["kernels"]
    expected = canonicalize(reference_rows(catalog, parse_sql(ONE_ENTRY_SQL)), ordered=False)
    assert len(expected) == 2_000
    assert bag(report) == bag(serial) == expected


def test_run_task_rejects_a_non_candidate_pinned_cover():
    tables = triangle_instance(20, domain=6, skew=0.3, seed=5)
    query = triangle_query(tables)
    plan, atoms, schemas = freejoin_plan_and_atoms(query)
    executor = FreeJoinExecutor(
        plan, query.output_variables, RowSink(query.output_variables)
    )
    with pytest.raises(ExecutionError):
        executor.run_task(build_tries(atoms, schemas), 0, 1, cover="nope")


# --------------------------------------------------------------------------- #
# Short-circuit: empty / zero-key root covers
# --------------------------------------------------------------------------- #


EMPTY_SQL = "SELECT r.x, s.z FROM r, s WHERE r.y = s.y"


@pytest.fixture
def empty_root_database():
    # Both relations empty: whichever relation any engine picks as its root
    # cover, the cover has zero keys and the scheduler must short-circuit.
    database = Database()
    database.register(Table.from_columns("r", {"x": [], "y": []}))
    database.register(Table.from_columns("s", {"y": [], "z": []}))
    return database


@pytest.mark.parametrize("engine", ["freejoin", "binary", "generic"])
def test_empty_root_cover_is_correct_on_all_engines(empty_root_database, engine):
    parallel = Database(empty_root_database.catalog, parallelism=4,
                        parallel_mode="thread")
    assert parallel.execute(EMPTY_SQL, options=ExecOptions(engine=engine)).rows() == []


@pytest.mark.parametrize("engine", ["freejoin", "binary", "generic"])
def test_empty_table_joined_with_rows_is_correct(engine):
    database = Database()
    database.register(Table.from_columns("r", {"x": [], "y": []}))
    database.register(Table.from_columns("s", {"y": [1, 2], "z": [3, 4]}))
    parallel = Database(database.catalog, parallelism=4, parallel_mode="thread")
    assert parallel.execute(EMPTY_SQL, options=ExecOptions(engine=engine)).rows() == []


def test_empty_root_cover_short_circuits_without_workers(empty_root_database):
    scheduler.shutdown_pools()
    parallel = Database(empty_root_database.catalog, parallelism=4,
                        parallel_mode="thread")
    outcome = parallel.execute(EMPTY_SQL)
    assert outcome.rows() == []
    detail = outcome.report.details["parallel"][0]
    assert detail["short_circuit"] is True
    assert detail["tasks"] == 0
    assert detail["per_shard"] == []
    assert detail["queue"] == {"submitted": 0}
    # No pool was spun up for the empty cover.
    assert scheduler.active_pools() == {}


def test_zero_key_count_output_short_circuits(empty_root_database):
    parallel = Database(empty_root_database.catalog, parallelism=4,
                        parallel_mode="thread")
    outcome = parallel.execute("SELECT COUNT(*) FROM r, s WHERE r.y = s.y")
    assert outcome.scalar() == 0
    detail = outcome.report.details["parallel"][0]
    assert detail["short_circuit"] is True


# --------------------------------------------------------------------------- #
# Pool persistence
# --------------------------------------------------------------------------- #


def test_process_pool_persists_across_queries(star_query_database):
    scheduler.shutdown_pools()
    database = Database(star_query_database.catalog, parallelism=3,
                        parallel_mode="process")
    sql = ("SELECT COUNT(*) FROM fact, dim_one, dim_two "
           "WHERE fact.k = dim_one.k AND fact.a = dim_two.a")
    first = database.execute(sql).scalar()
    pools = scheduler.active_pools()
    assert list(pools) == [3]
    pool = pools[3]
    second = database.execute(sql).scalar()
    assert first == second
    # Same pool object served both queries.
    assert scheduler.active_pools()[3] is pool
    scheduler.shutdown_pools()
    assert scheduler.active_pools() == {}


@pytest.fixture(scope="module")
def star_query_database():
    database = Database()
    database.register(Table.from_columns("fact", {
        "k": [i % 23 for i in range(400)], "a": [i % 9 for i in range(400)],
    }))
    database.register(Table.from_columns("dim_one", {
        "k": [i % 23 for i in range(120)], "b": [i % 5 for i in range(120)],
    }))
    database.register(Table.from_columns("dim_two", {
        "a": [i % 9 for i in range(80)], "c": [i % 4 for i in range(80)],
    }))
    return database


def test_concurrent_forcing_never_leaks_foreign_offsets():
    """Regression canary for the force() snapshot discipline.

    Thread workers share one trie build; LazyTrie.force publishes its map
    before clearing the offsets, and every reader/forcer snapshots the
    offsets *before* checking the map.  Without that ordering, a forcer
    losing a race could rebuild a child node from the whole base table,
    leaking rows from other key groups into the child.  Races are timing
    dependent, so hammer the same children from several threads and verify
    the structural invariant each round.
    """
    import threading

    from repro.core.colt import build_trie
    from repro.query.atoms import Atom

    rows = 1500
    table = Table.from_columns("R", {
        "x": [i % 3 for i in range(rows)],
        "y": [i % 7 for i in range(rows)],
        "z": list(range(rows)),
    })
    atom = Atom("R", table, ["x", "y", "z"])

    for _round in range(5):
        trie = build_trie(atom, [("x",), ("y",), ("z",)])
        trie.force()
        children = [trie.get(x) for x in range(3)]
        barrier = threading.Barrier(6)

        def hammer():
            barrier.wait()
            for child in children:
                for y in range(7):
                    grandchild = child.get(y)
                    if grandchild is not None:
                        grandchild.tuple_count()

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Each child partitions its x-group: grandchild tuple counts must sum
        # to the group's row count, and every stored row must match (x, y).
        for x, child in enumerate(children):
            group_rows = sum(1 for i in range(rows) if i % 3 == x)
            assert child.tuple_count() == group_rows
            total = 0
            for y, grandchild in child._map.items():
                for offset in grandchild._offsets:
                    assert offset % 3 == x and offset % 7 == y
                total += grandchild.tuple_count()
            assert total == group_rows


# --------------------------------------------------------------------------- #
# Shared-memory column plane
# --------------------------------------------------------------------------- #


def test_shm_roundtrip_preserves_values_and_types():
    table = Table("mixed", [
        Column("i", [1, -5, 2**40, 0]),
        Column("f", [1.5, -2.25, 0.0, 3.75]),
        Column("t", ["a", "b", None, "d"]),
        Column("n", [None, None, None, None]),
        Column("b", [True, False, True, False]),
    ])
    handle = shm.export_table(table)
    attached, attachment = shm.attach_table(handle)
    try:
        assert attached.name == "mixed"
        assert attached.column_names == table.column_names
        assert attached.num_rows == 4
        assert attached.to_rows() == table.to_rows()
        # ints/floats come back as zero-copy views; reprs must be preserved.
        assert [repr(v) for v in attached.column("i").values] == \
            [repr(v) for v in table.column("i").values]
        assert [repr(v) for v in attached.column("b").values] == \
            [repr(v) for v in table.column("b").values]
    finally:
        attachment.close()


def test_shm_roundtrip_empty_table():
    table = Table.from_columns("empty", {"x": [], "y": []})
    handle = shm.export_table(table)
    attached, attachment = shm.attach_table(handle)
    try:
        assert attached.num_rows == 0
        assert attached.to_rows() == []
    finally:
        attachment.close()


def test_shm_export_is_cached_per_table_object():
    table = Table.from_columns("cached", {"x": [1, 2, 3]})
    first = shm.export_table(table)
    second = shm.export_table(table)
    assert first is second
    other = Table.from_columns("cached", {"x": [1, 2, 3]})
    assert shm.export_table(other).segment != first.segment


def test_shm_shutdown_unlinks_every_segment():
    table = Table.from_columns("transient", {"x": list(range(100))})
    handle = shm.export_table(table)
    assert handle.segment in shm.active_export_segments()
    assert os.path.exists(f"/dev/shm/{handle.segment}")
    shm.shutdown_exports()
    assert shm.active_export_segments() == []
    assert not os.path.exists(f"/dev/shm/{handle.segment}")


def test_shm_segment_follows_table_lifetime():
    table = Table.from_columns("doomed", {"x": [1, 2, 3]})
    handle = shm.export_table(table)
    assert os.path.exists(f"/dev/shm/{handle.segment}")
    del table
    import gc

    gc.collect()
    assert not os.path.exists(f"/dev/shm/{handle.segment}")
    assert handle.segment not in shm.active_export_segments()


def test_steal_task_is_plain_data():
    task = StealTask(task_id=3, start=10, stop=20, preferred=2)
    import pickle

    clone = pickle.loads(pickle.dumps(task))
    assert (clone.task_id, clone.start, clone.stop, clone.preferred) == (3, 10, 20, 2)
