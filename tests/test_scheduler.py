"""Unit tests for the work-stealing scheduler and the shm column plane.

Covers the scheduler's moving parts in isolation (task decomposition,
range views, task-granular executor entry points, pool persistence, empty
cover short-circuits) and the shared-memory export/attach round trip.
"""

from __future__ import annotations

import os

import pytest

from repro.core.colt import build_tries
from repro.core.executor import ExecutorStats, FreeJoinExecutor
from repro.engine.options import ExecOptions
from repro.engine.output import RowSink
from repro.engine.session import Database
from repro.errors import ExecutionError
from repro.parallel import scheduler
from repro.parallel.scheduler import (
    StealTask,
    assign_preferred,
    decompose_entries,
)
from repro.parallel.sharding import RangeView, entry_count
from repro.storage import shm
from repro.storage.column import Column
from repro.storage.table import Table
from repro.workloads.synthetic import triangle_instance, triangle_query

from tests.test_parallel import freejoin_plan_and_atoms


# --------------------------------------------------------------------------- #
# Task decomposition
# --------------------------------------------------------------------------- #


def covered_entries(tasks):
    return [i for task in tasks for i in range(task.start, task.stop)]


@pytest.mark.parametrize("entry_total", [1, 5, 16, 100, 1000])
@pytest.mark.parametrize("workers", [1, 2, 4, 7])
def test_decompose_partitions_the_entries(entry_total, workers):
    tasks = decompose_entries(entry_total, workers)
    assert covered_entries(tasks) == list(range(entry_total))
    assert [task.task_id for task in tasks] == list(range(len(tasks)))
    assert len(tasks) <= workers * scheduler.TASKS_PER_WORKER


def test_decompose_empty_cover_yields_no_tasks():
    assert decompose_entries(0, 4) == []
    assert decompose_entries(0, 4, allow_sub=True) == []


def test_decompose_sub_root_when_cover_is_tiny():
    tasks = decompose_entries(2, 4, allow_sub=True)
    # Two entries cannot feed four workers: each entry splits one level down.
    assert len(tasks) == 16
    assert all(task.stop == task.start + 1 for task in tasks)
    subs = {(task.start, task.sub) for task in tasks}
    assert subs == {(entry, (j, 8)) for entry in range(2) for j in range(8)}
    # Without sub-root splitting, a tiny cover yields one task per entry.
    assert [t.sub for t in decompose_entries(2, 4, allow_sub=False)] == [None, None]


def test_assign_preferred_deals_contiguous_blocks():
    tasks = decompose_entries(64, 4)
    assign_preferred(tasks, 4)
    owners = [task.preferred for task in tasks]
    assert owners == sorted(owners)
    assert set(owners) == {0, 1, 2, 3}


def test_decompose_rejects_bad_arguments():
    with pytest.raises(ExecutionError):
        decompose_entries(10, 0)
    with pytest.raises(ExecutionError):
        decompose_entries(10, 2, tasks_per_worker=-1)


# --------------------------------------------------------------------------- #
# RangeView + run_task
# --------------------------------------------------------------------------- #


def test_range_view_slices_and_delegates():
    tables = triangle_instance(40, domain=10, skew=0.4, seed=9)
    query = triangle_query(tables)
    _plan, atoms, schemas = freejoin_plan_and_atoms(query)
    tries = build_tries(atoms, schemas)
    base = tries["R"]
    total = entry_count(base)
    assert total > 3
    view = RangeView(base, 1, 3)
    entries = list(view.iter_entries())
    assert entries == list(base.iter_entries())[1:3]
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
    entry_total = entry_count(fresh_tries[cover])
    tasks = decompose_entries(entry_total, workers)
    assert len(tasks) > 1

    shared_tries = build_tries(atoms, schemas)
    merged_rows = []
    merged_stats = ExecutorStats()
    for task in tasks:
        executor, sink = fresh_executor()
        executor.run_task(shared_tries, task.start, task.stop, task.sub, cover)
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


def test_run_task_sub_root_partitions_serial_execution():
    # A root cover with only two keys: tasks must recurse one level down.
    # The plan is written by hand so the root node iterates r's x level
    # (2 distinct values) and the second node holds the real fan-out.
    from repro.core.plan import FreeJoinPlan
    from repro.query.atoms import Subatom
    from repro.query.builder import QueryBuilder

    r = Table.from_columns("r", {"x": [0, 1] * 30, "y": [i % 12 for i in range(60)]})
    s = Table.from_columns("s", {"y": [i % 12 for i in range(48)], "z": list(range(48))})
    builder = QueryBuilder("two_key")
    builder.add_atom("r", r, ["x", "y"])
    builder.add_atom("s", s, ["y", "z"])
    query = builder.build()
    plan = FreeJoinPlan.from_lists([
        [Subatom("r", ["x"])],
        [Subatom("r", ["y"]), Subatom("s", ["y"])],
        [Subatom("s", ["z"])],
    ])
    plan.validate(query)
    atoms = {atom.name: atom for atom in query.atoms}
    schemas = {"r": [("x",), ("y",)], "s": [("y",), ("z",)]}

    sink = RowSink(query.output_variables)
    serial = FreeJoinExecutor(plan, query.output_variables, sink, dynamic_cover=False)
    serial.run(build_tries(atoms, schemas))
    serial_rows = sink.result().to_rows()

    entry_total = entry_count(build_tries(atoms, schemas)["r"])
    assert entry_total == 2
    tasks = decompose_entries(entry_total, 4, allow_sub=len(plan.nodes) >= 2)
    assert all(task.sub is not None for task in tasks)

    shared_tries = build_tries(atoms, schemas)
    merged = []
    for task in tasks:
        task_sink = RowSink(query.output_variables)
        executor = FreeJoinExecutor(
            plan, query.output_variables, task_sink, dynamic_cover=False
        )
        executor.run_task(shared_tries, task.start, task.stop, task.sub)
        merged.extend(task_sink.result().to_rows())
    assert merged == serial_rows


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


def test_sub_root_tasks_slice_one_stable_cover():
    """Sub-root tasks of one root entry must all slice the same depth-1 cover,
    even when forcing by earlier sub-tasks would flip the dynamic choice."""
    from repro.core.plan import FreeJoinPlan
    from repro.query.atoms import Subatom
    from repro.query.builder import QueryBuilder

    # Root cover r.x has 2 keys; node 1 has two cover candidates over y
    # (r's subtrie and s's root) whose key-count ordering changes once the
    # first sub-task forces them.
    r = Table.from_columns("r", {"x": [0, 1] * 40, "y": [i % 20 for i in range(80)]})
    s = Table.from_columns("s", {"y": [i % 4 for i in range(60)], "z": list(range(60))})
    builder = QueryBuilder("flip")
    builder.add_atom("r", r, ["x", "y"])
    builder.add_atom("s", s, ["y", "z"])
    query = builder.build()
    plan = FreeJoinPlan.from_lists([
        [Subatom("r", ["x"])],
        [Subatom("r", ["y"]), Subatom("s", ["y"])],
        [Subatom("s", ["z"])],
    ])
    plan.validate(query)
    atoms = {atom.name: atom for atom in query.atoms}
    schemas = {"r": [("x",), ("y",)], "s": [("y",), ("z",)]}

    sink = RowSink(query.output_variables)
    serial = FreeJoinExecutor(plan, query.output_variables, sink, dynamic_cover=True)
    serial.run(build_tries(atoms, schemas))
    # Compare expanded bags: the (row, multiplicity) *representation* depends
    # on which cover a node iterated, and serial dynamic selection may pick a
    # different (equivalent) cover than the pinned tasks.
    serial_bag = sorted(sink.result().iter_rows(), key=repr)

    tasks = decompose_entries(2, 4, allow_sub=True)
    shared = build_tries(atoms, schemas)
    merged = []
    for task in tasks:
        task_sink = RowSink(query.output_variables)
        executor = FreeJoinExecutor(
            plan, query.output_variables, task_sink, dynamic_cover=True
        )
        executor.run_task(shared, task.start, task.stop, task.sub, cover="r")
        merged.extend(task_sink.result().iter_rows())
    assert sorted(merged, key=repr) == serial_bag


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


def test_thread_pool_persists_across_queries(star_query_database):
    scheduler.shutdown_pools()
    database = Database(star_query_database.catalog, parallelism=3,
                        parallel_mode="thread")
    sql = ("SELECT COUNT(*) FROM fact, dim_one, dim_two "
           "WHERE fact.k = dim_one.k AND fact.a = dim_two.a")
    first = database.execute(sql).scalar()
    pools = scheduler.active_pools()
    assert list(pools) == [("thread", 3)]
    pool = pools[("thread", 3)]
    second = database.execute(sql).scalar()
    assert first == second
    # Same pool object served both queries.
    assert scheduler.active_pools()[("thread", 3)] is pool
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
    task = StealTask(task_id=3, start=10, stop=20, sub=(1, 4), preferred=2)
    import pickle

    clone = pickle.loads(pickle.dumps(task))
    assert (clone.task_id, clone.start, clone.stop, clone.sub, clone.preferred) == (
        3,
        10,
        20,
        (1, 4),
        2,
    )
