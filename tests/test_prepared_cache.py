"""Stateful parity for the session's prepared-query cache.

``Database._prepare`` serves a cached ``(logical, binary_plan)`` for SQL it
has planned before, as long as every FROM table is the same object at the
same version.  Atoms of unfiltered tables *share* the catalog table's
columns, so a stale entry would not fail loudly: it would see appended rows
through a plan (and a fingerprint memo) made for the old ones.  Every test
here therefore checks two things after every step — the result is bag-equal
to a fresh session over the same catalog and to the naive oracle, and
``details["prepared"]`` says hit or miss exactly as a model of the catalog's
history predicts.
"""

from __future__ import annotations

import asyncio
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.engine.session as session_module
from repro import Database, ExecOptions
from repro.engine.options import ENGINES
from repro.errors import CatalogError
from repro.experiments.differential import canonicalize, reference_rows
from repro.kernels import kernels_enabled
from repro.query.sql import parse_sql
from repro.serve import AsyncDatabase
from repro.storage.table import Table
from repro.workloads.job import generate_job_workload

SEEDS_FILE = Path(__file__).parent / "prepared_cache_seeds.txt"

#: Steps per pinned seed of the random interleaving.
STEPS = 220

SCHEMAS = {
    "fact": ["k", "d", "v"],
    "dim": ["d", "w"],
    "opt": ["k", "note"],
}

QUERIES = {
    # Both atoms wrap the catalog's own Column objects.
    "plain": "SELECT fact.k, dim.w FROM fact, dim WHERE fact.d = dim.d",
    # Pushdown: the fact atom is a Table.filter copy made at plan time.
    "filtered": "SELECT fact.k, dim.w FROM fact, dim WHERE fact.d = dim.d AND fact.v > 4",
    "grouped": (
        "SELECT dim.w, COUNT(*), SUM(fact.v) FROM fact, dim "
        "WHERE fact.d = dim.d GROUP BY dim.w"
    ),
    "left": "SELECT fact.k, opt.note FROM fact LEFT JOIN opt ON opt.k = fact.k",
    "left_filtered": (
        "SELECT fact.k, opt.note FROM fact LEFT JOIN opt ON opt.k = fact.k AND opt.note > 2"
    ),
    "dim_only": "SELECT dim.w, COUNT(*) FROM dim GROUP BY dim.w",
}


def _rows(rng: random.Random, name: str, count: int):
    if name == "fact":
        return [(rng.randrange(8), rng.randrange(5), rng.randrange(10)) for _ in range(count)]
    if name == "dim":
        return [(rng.randrange(5), rng.randrange(3)) for _ in range(count)]
    return [(rng.randrange(8), rng.randrange(6)) for _ in range(count)]


def _table(name: str, rows) -> Table:
    return Table.from_rows(name, SCHEMAS[name], rows)


class Session:
    """One long-lived ``Database`` plus a model of what its cache must say.

    The model never looks inside the cache: it remembers, per key, which
    table object (by a token it hands out itself) and which version each
    FROM table had when the key was last planned.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"prepared/{seed}")
        self.database = Database()
        self.tokens = {}  # table name -> token of the registered object, if any
        self.parked = {}  # dropped name -> (table, token)
        self.planned = {}  # key -> [(name, token, version)] in FROM order
        self.reasons = Counter()
        self._next_token = 0
        for name, count in (("fact", 30), ("dim", 6), ("opt", 7)):
            self.register(_table(name, _rows(self.rng, name, count)))

    @property
    def catalog(self):
        return self.database.catalog

    # -- mutations --------------------------------------------------------- #

    def register(self, table: Table, token=None) -> None:
        self.database.register(table, replace=True)
        if token is None:
            token, self._next_token = self._next_token, self._next_token + 1
        self.tokens[table.name] = token

    def append(self, name: str, count: int = 3) -> None:
        self.catalog.get(name).append_rows(_rows(self.rng, name, count))

    def replace(self, name: str, same_content: bool) -> None:
        rows = self.catalog.get(name).to_rows()
        self.register(_table(name, rows if same_content else rows[1:] + rows[:2]))

    def drop(self, name: str) -> None:
        self.parked[name] = (self.catalog.get(name), self.tokens.pop(name))
        self.catalog.drop(name)

    def restore(self, name: str, same_object: bool) -> None:
        table, token = self.parked.pop(name)
        if same_object:
            self.register(table, token)
        else:
            self.register(_table(name, table.to_rows()))

    # -- the check ---------------------------------------------------------- #

    def predict(self, key) -> str:
        planned = self.planned.get(key)
        if planned is None:
            return "cold"
        for name, token, version in planned:
            if self.tokens.get(name) != token:
                return "replaced"
            if self.catalog.get(name).version != version:
                return "version"
        return "hit"

    def note_planned(self, sql: str, name: str = "", bad: bool = False) -> None:
        """The session just planned (or validly re-served) this key."""
        self.planned[(sql, name, bad)] = [
            (item.table, self.tokens[item.table], self.catalog.get(item.table).version)
            for item in parse_sql(sql).from_items
        ]

    def check(self, query: str, engine: str, kernels: bool, name: str = "", bad: bool = False):
        sql = QUERIES[query]
        options = ExecOptions(engine=engine, bad_estimates=bad)
        sources = [item.table for item in parse_sql(sql).from_items]
        with kernels_enabled(kernels):
            if any(source not in self.tokens for source in sources):
                with pytest.raises(CatalogError):  # never a cached answer
                    self.database.execute(sql, options=options, name=name)
                return None
            key = (sql, name, bad)
            reason = self.predict(key)
            outcome = self.database.execute(sql, options=options, name=name)
            fresh = Database(self.catalog).execute(sql, options=options, name=name)
        self.note_planned(sql, name, bad)
        self.reasons[reason] += 1
        context = f"{query} on {engine}, kernels={kernels}, name={name!r}, bad={bad}"
        assert outcome.report.details["prepared"] == {
            "hit": reason == "hit",
            "reason": reason,
        }, context
        assert fresh.report.details["prepared"]["reason"] == "cold"
        assert outcome.logical.query.name == name
        rows = canonicalize(outcome.rows(), ordered=False)
        assert rows == canonicalize(fresh.rows(), ordered=False), context
        oracle = reference_rows(self.catalog, parse_sql(sql))
        assert rows == canonicalize(oracle, ordered=False), context
        return outcome


# --------------------------------------------------------------------------- #
# The named steps, on every engine with the kernels on and off
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "rowpath"])
@pytest.mark.parametrize("engine", ENGINES)
def test_every_catalog_change_is_a_miss_and_nothing_else_is(engine, kernels):
    session = Session(seed=0)

    def check(query, **kwargs):
        return session.check(query, engine, kernels, **kwargs)

    def reasons(*queries, **kwargs):
        return [check(q, **kwargs).report.details["prepared"]["reason"] for q in queries]

    everything = list(QUERIES)
    assert reasons(*everything) == ["cold"] * len(everything)
    assert reasons(*everything) == ["hit"] * len(everything)

    # An append to an inner table: every query over it misses once.
    session.append("fact")
    assert reasons(*everything) == ["version"] * 5 + ["hit"]
    assert reasons(*everything) == ["hit"] * len(everything)

    # An append to a LEFT JOIN table: only the queries that read it miss.
    session.append("opt")
    assert reasons(*everything) == ["hit"] * 3 + ["version"] * 2 + ["hit"]

    # A replacement is a miss whether or not the content changed.
    session.replace("dim", same_content=False)
    assert reasons("plain", "left", "dim_only") == ["replaced", "hit", "replaced"]
    session.replace("dim", same_content=True)
    assert reasons("plain", "left", "dim_only") == ["replaced", "hit", "replaced"]
    # Replaced *and* appended to: the first stale source in FROM order decides.
    session.append("fact")
    session.replace("dim", same_content=True)
    assert reasons(*everything) == ["version"] * 5 + ["replaced"]

    # A dropped table is an error, not the answer the session remembers.
    session.drop("opt")
    assert check("left") is None
    assert reasons("plain") == ["hit"]
    session.restore("opt", same_object=True)  # same object, same version: still valid
    assert reasons("left") == ["hit"]
    session.drop("opt")
    session.restore("opt", same_object=False)
    assert reasons("left", "left_filtered") == ["replaced", "replaced"]

    # The query name is part of the key (it is stamped on the plan).
    assert reasons("plain", name="alt") == ["cold"]
    assert reasons("plain", "plain") == ["hit", "hit"]
    assert reasons("plain", name="alt") == ["hit"]


def test_the_three_engines_share_one_entry_per_sql():
    session = Session(seed=1)
    configs = [(engine, kernels) for engine in ENGINES for kernels in (True, False)]
    for query in QUERIES:
        outcomes = [session.check(query, engine, kernels) for engine, kernels in configs]
        assert [o.report.details["prepared"]["hit"] for o in outcomes] == [False] + [True] * 5
        assert all(o.logical is outcomes[0].logical for o in outcomes)
        assert all(o.binary_plan is outcomes[0].binary_plan for o in outcomes)
    assert len(session.database._prepared) == len(QUERIES)


# --------------------------------------------------------------------------- #
# A pinned random interleaving of the same steps
# --------------------------------------------------------------------------- #


def _pinned_seeds():
    lines = (line.split("#", 1)[0].strip() for line in SEEDS_FILE.read_text().splitlines())
    return [int(line) for line in lines if line]


def test_three_seeds_are_pinned():
    assert len(_pinned_seeds()) >= 3


@pytest.mark.parametrize("seed", _pinned_seeds())
def test_random_interleaving_of_queries_and_catalog_changes(seed):
    session = Session(seed)
    rng = session.rng
    errors = 0
    for _step in range(STEPS):
        present = sorted(session.tokens)
        # At most one table is missing at a time, and not for long.
        actions = ["query"] * 14 + ["append"] * 3 + ["replace"] * 2
        action = rng.choice(actions + (["restore"] * 5 if session.parked else ["drop"]))
        if action == "query":
            outcome = session.check(
                rng.choice(list(QUERIES)),
                rng.choice(ENGINES),
                kernels=rng.random() < 0.5,
                name=rng.choice(["", "", "alt"]),
                bad=rng.random() < 0.2,
            )
            errors += outcome is None
        elif action == "append":
            session.append(rng.choice(present), count=rng.randrange(0, 4))
        elif action == "replace":
            session.replace(rng.choice(present), same_content=rng.random() < 0.5)
        elif action == "drop":
            session.drop(rng.choice(present))
        else:
            session.restore(*session.parked, same_object=rng.random() < 0.5)
    # The interleaving must reach every verdict, or it pins nothing.
    assert set(session.reasons) == {"hit", "cold", "version", "replaced"}, session.reasons
    assert errors, "no step queried a dropped table"


# --------------------------------------------------------------------------- #
# Eviction
# --------------------------------------------------------------------------- #


def test_eviction_is_bounded_first_in_first_out_and_says_so(monkeypatch):
    monkeypatch.setattr(session_module, "PREPARED_CACHE_ENTRIES", 2)
    session = Session(seed=2)
    database = session.database

    def reason(query):
        sql = QUERIES[query]
        return database.execute(sql).report.details["prepared"]["reason"]

    order = ("plain", "filtered", "plain", "grouped")
    assert [reason(query) for query in order] == ["cold", "cold", "hit", "cold"]
    # "plain" was the oldest *insertion*; the hit did not renew it.
    assert len(database._prepared) == 2
    assert reason("plain") == "evicted"  # ... which evicts "filtered"
    assert reason("grouped") == "hit"
    assert reason("filtered") == "evicted"
    assert len(database._prepared) == 2 and len(database._evicted) <= 2
    # An entry that is refreshed after an append becomes the newest one.
    session.append("fact")
    assert list(database._prepared)[0] == (QUERIES["plain"], "", False)
    assert reason("plain") == "version"
    assert list(database._prepared) == [
        (QUERIES["filtered"], "", False),
        (QUERIES["plain"], "", False),
    ]


# --------------------------------------------------------------------------- #
# The statistics cache stops growing under repeated filtered queries
# --------------------------------------------------------------------------- #


def test_repeating_a_filtered_query_adds_no_statistics_entries():
    """Each re-plan used to build new filtered tables, and each of those was
    a new ``StatisticsCache`` entry pinning a table (3, 5, 7, ... after each
    repeat of JOB-like q01)."""
    workload = generate_job_workload(scale=0.05, seed=42)
    database = Database(workload.catalog)
    query = next(q for q in workload.queries if " AND " in q.sql and "'" in q.sql)
    database.execute(query.sql)
    entries = len(database.statistics_cache._cache)
    assert entries > 0
    for _ in range(50):
        database.execute(query.sql)
        assert len(database.statistics_cache._cache) == entries


# --------------------------------------------------------------------------- #
# Concurrency, streaming, standing queries
# --------------------------------------------------------------------------- #


def _with_short_switch_interval(coroutine):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        return asyncio.run(asyncio.wait_for(coroutine, timeout=120))
    finally:
        sys.setswitchinterval(interval)


def test_sixteen_concurrent_copies_agree_with_a_serial_run():
    workload = generate_job_workload(scale=0.05, seed=42)
    query = max(workload.queries, key=lambda q: q.sql.count(" AND "))
    serial = Database(workload.catalog).execute(query.sql)
    database = Database(workload.catalog)

    async def main():
        async with AsyncDatabase(database, max_concurrency=2) as server:
            # gather_many names its queries q000..q015 and the name is part of
            # the key: sixteen entries, planned concurrently, then all served.
            named = [await server.gather_many([query.sql] * 16) for _ in range(2)]
            # One key from sixteen tasks at once: the two pool threads may
            # both miss and both plan; everyone after them shares one
            # (read-only) LogicalQuery.
            shared = await asyncio.gather(*[server.execute(query.sql) for _ in range(16)])
            return named, shared

    (first, second), shared = _with_short_switch_interval(main())
    for outcomes in (first, second, shared):
        assert len(outcomes) == 16
        for outcome in outcomes:
            assert outcome.rows() == serial.rows()
            assert repr(outcome.binary_plan) == repr(serial.binary_plan)
    assert [o.report.details["prepared"]["reason"] for o in first] == ["cold"] * 16
    assert [o.report.details["prepared"]["reason"] for o in second] == ["hit"] * 16
    assert all(a.logical is b.logical for a, b in zip(first, second))
    misses = [o for o in shared if not o.report.details["prepared"]["hit"]]
    assert 1 <= len(misses) <= 2
    assert len({id(o.logical) for o in shared}) <= 2
    assert len(database._prepared) == 17


def test_a_stream_broken_off_after_one_batch_leaves_a_valid_entry():
    session = Session(seed=3)
    sql = QUERIES["plain"]
    with session.database.execute_iter(sql, options=ExecOptions(batch_rows=2)) as stream:
        first = stream.next_batch()
        assert first and len(first) <= 2
    session.note_planned(sql)
    outcome = session.check("plain", "freejoin", True)
    assert outcome.report.details["prepared"] == {"hit": True, "reason": "hit"}
    # And the other way round: a stream over a prepared entry is a hit.
    with session.database.execute_iter(sql) as stream:
        rows = [row for batch in stream for row in batch]
    assert stream.report.details["prepared"]["hit"] is True
    assert Counter(rows) == Counter(outcome.rows())


def test_appends_beside_routed_reads_miss_on_the_appended_table_only():
    """The ``append_serve`` shape: standing queries live, every read routed.
    Routing is not cached — the router decides and counts on every call."""
    session = Session(seed=5)
    standing = session.database.subscribe(QUERIES["grouped"])
    assert (standing.mode, standing.delta_path) == ("delta", "delta-join")
    session.note_planned(QUERIES["grouped"])  # the seed ran on this session
    everything = list(QUERIES)
    for cycle in range(3):
        session.append("fact")
        outcomes = [session.check(query, "auto", kernels=True) for query in everything]
        reasons = [o.report.details["prepared"]["reason"] for o in outcomes]
        if cycle == 0:
            assert reasons == ["cold", "cold", "version", "cold", "cold", "cold"]
        else:
            assert reasons == ["version"] * 5 + ["hit"]
        assert all(o.report.details["router"]["engine"] in ENGINES for o in outcomes)
        assert Counter(standing.snapshot().to_rows()) == Counter(outcomes[2].rows())
    telemetry = session.database.router.telemetry()
    assert telemetry["routed"] == telemetry["observed"] == 3 * len(everything)
    standing.close()


def test_a_standing_query_re_executes_through_a_miss_after_an_append():
    session = Session(seed=4)
    sql = QUERIES["plain"]  # not an aggregate: maintained by re-execution
    standing = session.database.subscribe(sql)
    assert standing.mode == "reexec"
    assert standing.last_report.details["prepared"]["reason"] == "cold"
    session.append("fact")
    assert standing.last_report.details["ivm"]["event"] == "reexec"
    assert standing.last_report.details["prepared"] == {"hit": False, "reason": "version"}
    assert Counter(standing.snapshot().to_rows()) == Counter(
        Database(session.catalog).execute(sql).rows()
    )
    # The refresh re-planned under the subscription's key, which execute shares.
    session.note_planned(sql)
    assert session.check("plain", "generic", True).report.details["prepared"]["hit"]
    standing.close()
