"""Skew battery: parallel/serial parity and load balance on skewed inputs.

The paper's workloads live on skewed key distributions (Zipf keys, JOB Q13a's
hub values), which is exactly where static partitioning degenerates: one
contiguous block swallows the hot keys while the rest idle.  This battery
pins down two contracts for the work-stealing parallel subsystem:

* **parity** — for every engine, output mode and worker backend, parallel
  execution of Zipf-distributed and single-hot-key joins returns exactly the
  serial result (bag equality, counts included);
* **balance** — on an adversarial input whose hot keys all land inside one
  contiguous quarter of the root iteration (the block a static
  one-range-per-worker split would serialize), the scheduler spreads the hot
  work across workers: the per-worker output spread stays within an absolute
  bound, and actual steals are recorded.

Work is compared through per-worker *output counts* (from
``RunReport.details["parallel"]``), not wall time: under the GIL a thread's
measured seconds include time spent waiting for its siblings, so output
counts are the honest per-worker work proxy.
"""

from __future__ import annotations

import pytest

from repro.engine.options import ExecOptions
from repro.engine.pipeline import RunContext
from repro.engine.session import Database
from repro.storage.table import Table
from repro.workloads.synthetic import random_tables

ENGINES = ("freejoin", "binary", "generic")
BACKENDS = ("thread", "process")


@pytest.fixture(scope="module", autouse=True)
def _row_at_a_time():
    """Pin the row-at-a-time path for the whole battery.

    The balance gates need tasks with real per-row work: the batch kernels
    finish tasks so fast that per-worker spread collapses into scheduler
    timing noise.  The scheduling behavior under test is path-independent
    (the parent's kernels-off decision rides in each task setup, so process
    workers honor it regardless of when they forked).  Module-scoped so the
    module-scoped serial references are computed on the same path.
    """
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_KERNELS", "off")
    yield
    patcher.undo()

ROWS_SQL = "SELECT R.a, S.b FROM R, S WHERE R.k = S.k"
COUNT_SQL = "SELECT COUNT(*) FROM R, S WHERE R.k = S.k"

#: Hot keys positioned so that, in the root cover's iteration order, all of
#: them fall inside the *first quarter* of the 64 distinct keys (the block a
#: static 4-way range split would hand to one worker) but inside *different*
#: fine-grained steal tasks (16 tasks of 4 entries).
HOT_POSITIONS = (0, 4, 8, 12)
DISTINCT_KEYS = 64


def _hot_block_tables():
    """Adversarial star instance: every hot key inside one contiguous block.

    Each relation enumerates every distinct key once, in order, before
    appending the hot duplicates — pinning the root cover's first-seen key
    iteration order to ``0..63`` so the test controls exactly where the hot
    keys land.
    """
    hot_copies = {"R": 10, "S": 25, "T": 25}
    tables = {}
    for name, payload in (("R", "a"), ("S", "b"), ("T", "c")):
        keys = list(range(DISTINCT_KEYS))
        for key in HOT_POSITIONS:
            keys.extend([key] * hot_copies[name])
        tables[name] = Table.from_columns(
            name, {"k": keys, payload: list(range(len(keys)))}
        )
    return tables


def _hot_block_query_and_plan():
    """The star query with a pinned plan: root node = the three k subatoms.

    The balance tests need the root cover to iterate *distinct keys* in a
    known order; going through SQL would leave the pipeline head (and hence
    the root iteration) to the cost model.  ``run_with_plan`` executes this
    clover-factored plan directly on any engine option set.
    """
    from repro.core.plan import FreeJoinPlan
    from repro.query.atoms import Subatom
    from repro.query.builder import QueryBuilder

    tables = _hot_block_tables()
    builder = QueryBuilder("hot_block")
    builder.add_atom("R", tables["R"], ["k", "a"])
    builder.add_atom("S", tables["S"], ["k", "b"])
    builder.add_atom("T", tables["T"], ["k", "c"])
    query = builder.build()
    plan = FreeJoinPlan.from_lists([
        [Subatom("R", ["k"]), Subatom("S", ["k"]), Subatom("T", ["k"])],
        [Subatom("R", ["a"])],
        [Subatom("S", ["b"])],
        [Subatom("T", ["c"])],
    ])
    plan.validate(query)
    return query, plan


def _single_hot_key_tables():
    """One key carries nearly the whole join (the degenerate extreme)."""
    r_keys = list(range(20)) + [0] * 150
    s_keys = list(range(20)) + [0] * 80
    return {
        "R": Table.from_columns("R", {"k": r_keys, "a": list(range(len(r_keys)))}),
        "S": Table.from_columns("S", {"k": s_keys, "b": list(range(len(s_keys)))}),
    }


@pytest.fixture(scope="module")
def hot_block():
    """(query, plan, serial reference rows) for the balance tests."""
    from repro.core.engine import FreeJoinEngine, FreeJoinOptions

    query, plan = _hot_block_query_and_plan()
    serial = FreeJoinEngine(FreeJoinOptions(dynamic_cover=False)).run_with_plan(
        query, plan
    )
    return query, plan, list(serial.result.iter_rows())


def _zipf_tables():
    return random_tables(
        {"R": ["k", "a"], "S": ["k", "b"]}, num_rows=220, domain=40,
        seed=1234, skew=1.2,
    )


def _database(tables) -> Database:
    database = Database()
    for table in tables.values():
        database.register(table)
    return database


@pytest.fixture(scope="module")
def instances():
    """(serial database, serial reference results) per skew instance."""
    result = {}
    for name, maker in (
        ("zipf", _zipf_tables),
        ("hot_block", _hot_block_tables),
        ("single_hot_key", _single_hot_key_tables),
    ):
        database = _database(maker())
        references = {}
        for engine in ENGINES:
            options = ExecOptions(engine=engine)
            references[engine] = {
                "rows": sorted(database.execute(ROWS_SQL, options=options).rows(), key=repr),
                "count": database.execute(COUNT_SQL, options=options).scalar(),
            }
        result[name] = (database, references)
    return result


# --------------------------------------------------------------------------- #
# Parity: engines x outputs x backends x instances
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("instance", ["zipf", "hot_block", "single_hot_key"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ENGINES)
def test_skewed_parallel_matches_serial(instances, engine, backend, instance):
    serial, references = instances[instance]
    parallel = Database(serial.catalog, parallelism=4, parallel_mode=backend)
    rows = parallel.execute(ROWS_SQL, options=ExecOptions(engine=engine))
    assert sorted(rows.rows(), key=repr) == references[engine]["rows"]
    count = parallel.execute(COUNT_SQL, options=ExecOptions(engine=engine))
    assert count.scalar() == references[engine]["count"]
    assert rows.report.details["parallel"], "parallel path was not taken"


@pytest.mark.parametrize("batch_size", [4, 16])
def test_skewed_vectorized_parallel_matches_serial(instances, batch_size):
    from repro.core.engine import FreeJoinOptions

    serial, references = instances["zipf"]
    parallel = Database(serial.catalog, parallelism=4, parallel_mode="thread")
    options = FreeJoinOptions(batch_size=batch_size)
    serial_rows = sorted(
        serial.execute(ROWS_SQL, options=ExecOptions(freejoin_options=options)).rows(), key=repr
    )
    parallel_rows = sorted(
        parallel.execute(ROWS_SQL, options=ExecOptions(freejoin_options=options)).rows(), key=repr
    )
    assert parallel_rows == serial_rows


# --------------------------------------------------------------------------- #
# Balance: steal-mode worker spread stays bounded on the adversarial block
# --------------------------------------------------------------------------- #


def _work_spread(detail) -> float:
    """max/mean of per-worker (per-shard) output counts; 1.0 is perfect."""
    outputs = [entry["outputs"] for entry in detail["per_shard"]]
    assert outputs, "no per-worker accounting in the parallel detail"
    mean = sum(outputs) / len(outputs)
    assert mean > 0, "the skewed instance produced no output"
    return max(outputs) / mean


def _run_hot_block(hot_block, backend):
    from repro.core.engine import FreeJoinEngine, FreeJoinOptions

    query, plan, reference = hot_block
    report = FreeJoinEngine(FreeJoinOptions(dynamic_cover=False)).run_with_plan(
        query, plan, context=RunContext(workers=4, parallel_mode=backend)
    )
    # Static cover + task-order merging: byte-identical to serial, not just
    # the same bag.
    assert list(report.result.iter_rows()) == reference
    return report.details["parallel"][0]


def test_steal_spreads_hot_keys_across_workers(hot_block):
    """Absolute balance gate on the block a static split would serialize.

    All four hot keys sit in the first quarter of the root iteration: a
    static 4-way range split hands them to one worker, whose output is ~4x
    the mean (spread > 2.5, the ratio the retired range scheduler showed
    here).  Work stealing splits the block into per-key tasks that end up on
    different workers, so the spread must stay near balanced.

    Which worker steals which hot key is a race, and one worker drawing two
    of the four is a legal outcome: its output is then 2/4 of the hot rows
    plus a sliver of cold ones, a spread of 2.0005-2.0011 on this instance.
    The gate therefore sits strictly between that outcome and the 2.5 of a
    scheduler that does not spread the block at all — not on 2.0 itself,
    where it failed about one run in thirty.
    """
    steal_detail = _run_hot_block(hot_block, "process")
    steal_spread = _work_spread(steal_detail)
    assert steal_spread <= 2.25, (steal_detail, steal_spread)


def test_steal_mode_records_steals_and_queue_stats(hot_block):
    detail = _run_hot_block(hot_block, "process")
    assert detail["tasks"] == 16
    # The hot block is dealt to worker 0; its siblings must have stolen work.
    assert detail["steals"] > 0
    assert sum(entry["tasks"] for entry in detail["per_shard"]) == detail["tasks"]
    queue = detail["queue"]
    assert queue["submitted"] == 16
    assert queue["wait_seconds_max"] >= 0.0
