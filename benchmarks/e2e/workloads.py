"""The six workloads: inputs from a seed, a fixed op list, a reason each.

Every workload is a closed loop with one client in one process.  The only
extra threads or processes are the engine's own workers, capped at
``min(2, nproc)``.  The program only ever receives generated tables and SQL.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.options import ExecOptions
from repro.engine.session import ENGINES, Database
from repro.engine.streaming import collapse_grouped_batches
from repro.router.admission import AdmissionGate, classify_sql
from repro.serve import AsyncDatabase
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.job import generate_job_workload
from repro.workloads.lsqb import generate_lsqb_workload
from repro.workloads.synthetic import FANOUT_GROUP_SQL, FANOUT_SQL, fanout_tables

from benchmarks.e2e.harness import Op, OpResult, best, digest, nproc
from benchmarks.e2e.trace import Tracer, replayable, traced_execute

#: The streamed ORDER BY ... LIMIT op of ``fanout_deliver`` (bounded top-k).
FANOUT_TOPK_SQL = (
    "SELECT fan_r.a, fan_s.b FROM fan_r, fan_s WHERE fan_r.k = fan_s.k "
    "ORDER BY fan_s.b DESC, fan_r.a LIMIT 100"
)

#: JOB-like queries the nested-loop oracle answers in milliseconds at smoke
#: scale; the others take seconds to minutes there and are left to the
#: cross-engine, kernel-switch and golden checks.
JOB_ORACLE = {"q01", "q02", "q03", "q04", "q07", "q10", "q11", "q15", "q16", "q18"}

#: Sizes per ``--scale``.  ``full`` is sized so a timed round takes about a
#: second on a 2-core box (several rounds fit in one run); ``smoke`` only
#: proves the plumbing.  Scale is the knob; the op lists never change.
SCALES: Dict[str, Dict[str, Dict[str, float]]] = {
    "full": {
        "job_warm": {"job": 0.25},
        "lsqb_count": {"lsqb": 1.5},
        "fanout_deliver": {"rows": 1000, "keys": 60},
        "paper_rowpath": {"job": 0.1, "lsqb": 0.3},
        "steal_parallel": {"rows": 1200, "keys": 60, "lsqb": 1.5},
        "append_serve": {"base": 4000, "burst": 200, "cycles": 10, "ref": 1500},
    },
    "smoke": {
        "job_warm": {"job": 0.02},
        "lsqb_count": {"lsqb": 0.05},
        "fanout_deliver": {"rows": 120, "keys": 8},
        "paper_rowpath": {"job": 0.02, "lsqb": 0.05},
        "steal_parallel": {"rows": 120, "keys": 8, "lsqb": 0.05},
        "append_serve": {"base": 200, "burst": 20, "cycles": 3, "ref": 60},
    },
}


@contextmanager
def kernels(enabled: bool) -> Iterator[None]:
    """Force the kernel switch for the enclosed calls.

    ``REPRO_KERNELS`` is the only existing switch and is read per query from
    the process environment.
    """
    before = os.environ.get("REPRO_KERNELS")
    os.environ["REPRO_KERNELS"] = "on" if enabled else "off"
    try:
        yield
    finally:
        if before is None:
            del os.environ["REPRO_KERNELS"]
        else:
            os.environ["REPRO_KERNELS"] = before


@dataclass
class Query:
    """A distinct query of a workload, for the once-per-run cross checks."""

    id: str
    sql: str
    ordered: bool = False
    #: Compare with the naive oracle at smoke scale.
    oracle: bool = True
    #: Re-run with the kernel switch flipped at full scale too (the row path
    #: takes seconds on the large count queries, so those are smoke-only).
    toggle_at_full: bool = True


def execute_op(name: str, query: Query, database: Database, options: ExecOptions) -> Op:
    """``Database.execute`` as an op, with its layer-by-layer replay."""
    can_replay = replayable(database.catalog, query.sql)

    def run() -> OpResult:
        outcome = database.execute(query.sql, options=options)
        return OpResult(rows=outcome.table, ordered=query.ordered, report=outcome.report)

    def trace(tracer: Tracer) -> OpResult:
        if can_replay:
            return traced_execute(tracer, database, query.sql, options)
        return run()

    return Op(name=name, query=query.id, run=run, trace=trace)


def stream_op(
    name: str,
    query: Query,
    database: Database,
    options: ExecOptions,
    group_key: Optional[Sequence[int]] = None,
) -> Op:
    """``Database.execute_iter`` drained batch by batch.

    ``group_key`` marks a grouped stream: its batches are group deltas that
    the consumer upserts (last write wins).
    """

    def drain(tracer: Optional[Tracer]) -> OpResult:
        started = time.perf_counter()
        batches: List[list] = []
        with database.execute_iter(query.sql, options=options) as stream:
            if tracer is None:
                batch = stream.next_batch()
            else:
                with tracer.span("engine.first_batch"):
                    batch = stream.next_batch()
            first_s = time.perf_counter() - started
            while batch is not None:
                batches.append(batch)
                batch = stream.next_batch()
            sink_stats = stream.sink.stats()
            report = stream.report
        if group_key is not None:
            rows = collapse_grouped_batches(batches, group_key)
        else:
            rows = [row for batch in batches for row in batch]
        return OpResult(
            rows=rows,
            ordered=query.ordered,
            first_s=first_s,
            report=report,
            stream=sink_stats,
        )

    return Op(name=name, query=query.id, run=lambda: drain(None), trace=drain)


class Workload:
    """Inputs, sessions and the op list of one workload."""

    name = ""
    why = ""
    #: Whether the result bags are the same for every seed (see
    #: ``load_permuted``); if so the golden digests hold for every seed.
    results_depend_on_seed = False

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.sizes = SCALES[scale][self.name]
        self.generate_s = 0.0
        self.load_s = 0.0
        self.catalog = Catalog()
        #: The sessions ops run on; their routers are read for telemetry.
        self.sessions: List[Database] = []
        self.queries: List[Query] = []
        self.ops: List[Op] = []
        #: Ops run on a serial session each traced round: the speed-up base.
        self.serial_ops: List[Op] = []
        #: Digests the workload itself computed, checked like op results.
        self.extra_digests: Dict[str, str] = {}

    def open(self) -> None:
        """Generate inputs, register tables, open sessions and pools."""
        raise NotImplementedError

    def round(self, index: int) -> Iterator[Op]:
        """The ops of one round, in order."""
        return iter(self.ops)

    def close(self) -> None:
        """Stop pools and workers; also empties the shared caches."""
        Database(self.catalog).close()

    def load(self, inputs: Dict[str, Dict[str, list]]) -> None:
        """Hand the inputs to the program: build its tables and register them."""
        started = time.perf_counter()
        for name, columns in inputs.items():
            self.catalog.register(Table.from_columns(name, columns))
        self.load_s += time.perf_counter() - started

    def load_permuted(self, tables: Sequence[Table]) -> None:
        """Load generated tables with their rows in the seed's order.

        The JOB-like, LSQB-like and fan-out generators draw Zipf-skewed keys
        and random filter columns, so another generator seed is another
        workload: whether the hottest movie passes a query's filter alone
        moves ``job_warm``'s round from 0.8 s to 3.0 s.  The benchmark
        therefore pins the generators to their own default seeds and lets
        ``--seed`` choose the physical row order of every table: each seed is
        a different input with different fingerprints, every seed measures
        the same work, and the result bags do not depend on the seed.
        """
        started = time.perf_counter()
        inputs = {}
        for table in tables:
            order = list(range(table.num_rows))
            random.Random(f"{self.seed}/{table.name}").shuffle(order)
            inputs[table.name] = {
                column.name: [column.values[i] for i in order] for column in table.columns
            }
        self.generate_s += time.perf_counter() - started
        self.load(inputs)

    def generate(self, generator, *args, **kwargs):
        started = time.perf_counter()
        generated = generator(*args, **kwargs)
        self.generate_s += time.perf_counter() - started
        return generated

    def session(self, **options) -> Database:
        database = Database(self.catalog, **options)
        self.sessions.append(database)
        return database

    def probe_ops(self) -> List[Op]:
        """Ops that can run on their own, for the cold-cache probes."""
        return self.ops

    def layer_counters(self) -> Dict[str, float]:
        """Counters the workload's sessions publish (traced runs)."""
        return router_counters([s.router.telemetry() for s in self.sessions])


def router_counters(telemetries: Sequence[dict]) -> Dict[str, float]:
    routed = sum(t["routed"] for t in telemetries)
    explored = sum(t["by_reason"].get("explore", 0) for t in telemetries)
    counters = {
        "router.routed": routed,
        "router.explore_frac": explored / routed if routed else 0.0,
    }
    for engine in ENGINES:
        counters[f"router.by_engine.{engine}"] = sum(
            t["by_engine"].get(engine, 0) for t in telemetries
        )
    return counters


def _benchmark_queries(
    prefix: str, workload, oracle=None, smoke_only_toggle=frozenset()
) -> List[Query]:
    """The generator's suite as queries; ``oracle`` names the queries the
    naive oracle can afford (``None`` = all)."""
    return [
        Query(
            id=f"{prefix}.{q.name}",
            sql=q.sql,
            oracle=oracle is None or q.name in oracle,
            toggle_at_full=q.name not in smoke_only_toggle,
        )
        for q in workload.queries
        if q.name != "q20"
    ]


def _engine_ops(queries: Sequence[Query], database: Database) -> List[Op]:
    """Every query on every engine, each engine named explicitly."""
    return [
        execute_op(f"{query.id}/{engine}", query, database, ExecOptions(engine=engine))
        for engine in ENGINES
        for query in queries
    ]


class JobWarm(Workload):
    name = "job_warm"
    why = (
        "many-join acyclic queries with small outputs on warm caches: most "
        "wall time is parse, optimize, materialize and aggregate, not the join"
    )

    def open(self) -> None:
        job = self.generate(generate_job_workload, scale=self.sizes["job"])
        self.load_permuted(job.catalog.tables())
        # q20 is left out: one op would be longer than the rest of the round
        # and its time does not repeat from run to run.
        self.queries = _benchmark_queries("job", job, oracle=JOB_ORACLE)
        self.ops = _engine_ops(self.queries, self.session())


class LsqbCount(Workload):
    name = "lsqb_count"
    why = (
        "output far larger than input into a count-only sink, cyclic and "
        "acyclic: join time is nearly all of wall time, so only the executor shows"
    )

    def open(self) -> None:
        lsqb = self.generate(generate_lsqb_workload, scale_factor=self.sizes["lsqb"])
        self.load_permuted(lsqb.catalog.tables())
        self.queries = _benchmark_queries("lsqb", lsqb, smoke_only_toggle={"q3", "q4"})
        self.ops = _engine_ops(self.queries, self.session())


def _fanout(workload: Workload) -> None:
    tables = workload.generate(
        fanout_tables,
        int(workload.sizes["rows"]),
        keys=int(workload.sizes["keys"]),
        skew=1.2,
    )
    workload.load_permuted(list(tables.values()))


class FanoutDeliver(Workload):
    name = "fanout_deliver"
    why = (
        "a trivial two-table plan with a large output used three ways "
        "(materialize, fold, stream): the time is delivering rows, not joining"
    )

    def open(self) -> None:
        _fanout(self)
        rows = Query("fanout.rows", FANOUT_SQL)
        groups = Query("fanout.groups", FANOUT_GROUP_SQL)
        topk = Query("fanout.topk", FANOUT_TOPK_SQL, ordered=True)
        self.queries = [rows, groups, topk]
        database = self.session()
        options = ExecOptions(engine="freejoin", batch_rows=1024)
        self.ops = [
            execute_op("execute.rows", rows, database, options),
            execute_op("execute.groups", groups, database, options),
            stream_op("stream.rows", rows, database, options),
            stream_op("stream.groups", groups, database, options, group_key=(0,)),
            stream_op("stream.topk", topk, database, options),
        ]


class PaperRowpath(Workload):
    name = "paper_rowpath"
    why = (
        "kernels off: the paper's own algorithms (COLT tries, hash build, "
        "Generic Join tries), which the default path no longer runs"
    )

    def open(self) -> None:
        job = self.generate(generate_job_workload, scale=self.sizes["job"])
        lsqb = self.generate(generate_lsqb_workload, scale_factor=self.sizes["lsqb"])
        self.load_permuted(job.catalog.tables() + lsqb.catalog.tables())
        self.queries = _benchmark_queries(
            "job", job, oracle=JOB_ORACLE
        ) + _benchmark_queries("lsqb", lsqb)
        self.ops = _engine_ops(self.queries, self.session())


class StealParallel(Workload):
    name = "steal_parallel"
    why = (
        "the same large-output joins split over two workers: the only "
        "workload that runs the steal scheduler, shared memory and merge"
    )

    def open(self) -> None:
        _fanout(self)
        lsqb = self.generate(generate_lsqb_workload, scale_factor=self.sizes["lsqb"])
        self.load_permuted(lsqb.catalog.tables())
        rows = Query("fanout.rows", FANOUT_SQL)
        groups = Query("fanout.groups", FANOUT_GROUP_SQL)
        q3 = Query("lsqb.q3", lsqb.query("q3").sql, toggle_at_full=False)
        q4 = Query("lsqb.q4", lsqb.query("q4").sql, toggle_at_full=False)
        self.queries = [rows, groups, q3, q4]
        workers = min(2, nproc())
        sessions = {
            mode: self.session(parallelism=workers, parallel_mode=mode)
            for mode in ("thread", "process")
        }
        options = ExecOptions(engine="freejoin")
        plan = [("thread", rows), ("process", rows), ("process", groups),
                ("process", q3), ("process", q4)]
        self.ops = [
            execute_op(f"{mode}.{query.id}", query, sessions[mode], options)
            for mode, query in plan
        ]
        serial = self.session()
        self.serial_ops = [
            execute_op(f"serial.{mode}.{query.id}", query, serial, options)
            for mode, query in plan
        ]
        # Once serially in set-up: the digests every parallel run must match.
        for query in self.queries:
            outcome = serial.execute(query.sql, options=options)
            self.extra_digests[query.id] = digest(outcome.table)


# --------------------------------------------------------------------------- #
# append_serve
# --------------------------------------------------------------------------- #

STANDING_SQL = (
    # delta / scan: appended rows fold straight into the group states
    "SELECT fact.k, SUM(fact.v), COUNT(*) FROM fact GROUP BY fact.k",
    # delta / delta-join: the delta joins the live dimension, then folds
    "SELECT dim.region, COUNT(*), SUM(fact.v) FROM fact, dim "
    "WHERE fact.d = dim.d GROUP BY dim.region",
    # re-execution fallback: ORDER BY ... LIMIT needs the final pass
    "SELECT fact.k, COUNT(*) AS n FROM fact GROUP BY fact.k ORDER BY n DESC LIMIT 5",
)
STANDING_ORDERED = (False, False, True)

#: Three reads over the mutated fact table, then two over untouched tables.
READS = (
    ("read.fact_dim_count", "SELECT COUNT(*) FROM fact, dim WHERE fact.d = dim.d"),
    (
        "read.fact_dim_groups",
        "SELECT dim.region, MIN(fact.v), COUNT(*) FROM fact, dim "
        "WHERE fact.d = dim.d AND fact.v > 0 GROUP BY dim.region",
    ),
    (
        "read.fact_dim_ref_count",
        "SELECT COUNT(*) FROM fact, dim, ref_a "
        "WHERE fact.d = dim.d AND fact.k = ref_a.k",
    ),
    (
        "read.ref_groups",
        "SELECT ref_a.k, COUNT(*) FROM ref_a, ref_b WHERE ref_a.k = ref_b.k "
        "GROUP BY ref_a.k",
    ),
    (
        "read.ref_count",
        "SELECT COUNT(*) FROM ref_a, ref_b WHERE ref_a.k = ref_b.k AND ref_b.z > 50",
    ),
)

#: The last two reads touch no table an epoch appends to.
UNTOUCHED_SQL = frozenset(sql for _name, sql in READS[3:])

FACT_COLUMNS = ("k", "d", "v")


def _fact_rows(rng: random.Random, count: int) -> List[Tuple[int, int, int]]:
    return [
        (rng.randrange(64), rng.randrange(40), rng.randrange(-100, 100))
        for _ in range(count)
    ]


class AppendServe(Workload):
    """Writes beside reads through the serving layer.

    A round is one *epoch*: a fresh session over the base tables, then
    ``cycles`` cycles of append burst -> drain deltas -> three reads over the
    mutated table -> two reads over untouched tables.  Every epoch appends
    different rows, so no fingerprint of the mutated table ever repeats and
    the process-wide caches cannot carry it from one epoch to the next,
    while each epoch walks the same sizes.  Each call of an epoch is an op of
    its own (``c07.append``, ``c07.read.ref_count``): the table grows from
    cycle to cycle, so cycle 7 is only comparable with cycle 7 of another
    epoch.
    """

    name = "append_serve"
    why = (
        "appends beside routed reads under standing queries: every cycle "
        "changes a fingerprint, so caches miss on the mutated table and must "
        "hit on the untouched one"
    )
    results_depend_on_seed = True  # tables and bursts are drawn from the seed

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        self.database: Optional[Database] = None
        self.served: Optional[AsyncDatabase] = None
        self.loop = asyncio.new_event_loop()
        self.standing: list = []
        #: Per-epoch counters of the last finished epoch (they repeat exactly).
        self.counters: Dict[str, float] = {}
        #: Per full epoch: seconds appending to / fingerprinting the control.
        self.control_append_s: List[float] = []
        self.fingerprint_s: List[float] = []

    def open(self) -> None:
        started = time.perf_counter()
        rng = random.Random(self.seed)
        base, ref = int(self.sizes["base"]), int(self.sizes["ref"])
        self.base_fact = _fact_rows(rng, base)
        self.inputs = {
            "fact": dict(zip(FACT_COLUMNS, map(list, zip(*self.base_fact)))),
            "dim": {"d": list(range(40)), "region": [d % 5 for d in range(40)]},
            "ref_a": {
                "k": [rng.randrange(64) for _ in range(ref)],
                "w": [rng.randrange(1000) for _ in range(ref)],
            },
            "ref_b": {
                "k": [rng.randrange(64) for _ in range(ref // 4)],
                "z": [rng.randrange(100) for _ in range(ref // 4)],
            },
        }
        self.generate_s += time.perf_counter() - started
        self.queries = [Query(name, sql) for name, sql in READS]

    def _reset(self, epoch: int) -> None:
        """A fresh session over the base tables, subscriptions included."""
        self._close_session()
        self.catalog = Catalog()
        self.load_s = 0.0
        self.load(self.inputs)
        self.fact = self.catalog.get("fact")
        self.untouched_expected: Dict[str, str] = {}
        #: Seconds this epoch spent appending to / fingerprinting the control.
        self.control_epoch = [0.0, 0.0]
        #: Same shape, no subscribers: what an append costs the storage layer.
        self.control = Table.from_rows("fact_control", FACT_COLUMNS, self.base_fact)
        self.database = Database(self.catalog, default_engine="auto")
        #: Its own session, so checking never warms the served one's caches.
        self.checker = Database(self.catalog)
        self.standing = [
            self.database.subscribe(sql, options=ExecOptions(engine="freejoin"))
            for sql in STANDING_SQL
        ]
        # One client at a time: limits of 4 never shed.
        self.gate = AdmissionGate(point_limit=4, analytic_limit=4)
        self.served = AsyncDatabase(
            self.database, max_concurrency=2, admission=self.gate
        )
        rng = random.Random(f"{self.seed}/{epoch}")
        self.bursts = [
            _fact_rows(rng, int(self.sizes["burst"]))
            for _ in range(int(self.sizes["cycles"]))
        ]

    def _close_session(self) -> None:
        if self.served is not None:
            self.loop.run_until_complete(self.served.close())
            self.served = None
        if self.database is not None:
            for standing in self.standing:
                standing.close()
            self.database = None

    def close(self) -> None:
        self._close_session()
        self.loop.close()
        super().close()

    def round(self, index: int) -> Iterator[Op]:
        self._reset(index)
        # The warm-up epoch is half as long: set-up is repeated.
        bursts = self.bursts if index else self.bursts[: len(self.bursts) // 2 or 1]
        for cycle, burst in enumerate(bursts):
            self.cycle_checks = []
            yield self._append_op(cycle, burst)
            for name, sql in READS[:-1]:
                yield self._read_op(cycle, name, sql)
            # Once per epoch the cycle is checked on the row path instead.
            yield self._read_op(
                cycle, *READS[-1], settles=True, rowpath=cycle == len(bursts) - 1
            )
        self._collect_counters()
        if index:
            self.control_append_s.append(self.control_epoch[0])
            self.fingerprint_s.append(self.control_epoch[1])
        if index == 0:
            # Epoch 0 is the same for a given seed: its final snapshots are
            # the golden values of this workload.
            for position, standing in enumerate(self.standing):
                self.extra_digests[f"standing.{position}"] = digest(
                    standing.snapshot(), STANDING_ORDERED[position]
                )

    def _settle(self, rowpath: bool) -> bool:
        """Compare everything the cycle returned with a re-execution.

        Deferred to the end of the cycle: re-executing warms the kernel
        caches for the table's current fingerprint, which must not happen
        before the cycle's own reads have run; the next append changes the
        fingerprint again.
        """
        options = ExecOptions(engine="freejoin" if rowpath else "generic")
        agreed = True
        for got, sql, ordered in self.cycle_checks:
            # A read over untouched tables has one right answer per epoch.
            want = None if rowpath else self.untouched_expected.get(sql)
            if want is None:
                with kernels(not rowpath):
                    outcome = self.checker.execute(sql, options=options)
                want = digest(outcome.table, ordered)
                if sql in UNTOUCHED_SQL:
                    self.untouched_expected[sql] = want
            agreed &= got == want
        return agreed

    def _append_op(self, cycle: int, burst) -> Op:
        def append(tracer: Optional[Tracer]) -> OpResult:
            started = time.perf_counter()
            if tracer is None:
                self.fact.append_rows(burst)
            else:
                with tracer.span("storage.append"):
                    self.fact.append_rows(burst)
            delivered = self.standing[0].pending_deltas()
            first_s = time.perf_counter() - started
            for standing in self.standing[1:]:
                delivered.extend(standing.pending_deltas())
            return OpResult(rows=delivered, first_s=first_s)

        def verify(result: OpResult) -> bool:
            started = time.perf_counter()
            self.control.append_rows(burst)
            appended = time.perf_counter()
            self.control.fingerprint()
            self.control_epoch[0] += appended - started
            self.control_epoch[1] += time.perf_counter() - appended
            self.cycle_checks.extend(
                (digest(standing.snapshot(), ordered), standing.sql, ordered)
                for standing, ordered in zip(self.standing, STANDING_ORDERED)
            )
            return bool(result.rows)

        return Op(
            name=f"c{cycle:02d}.append",
            query="append",
            run=lambda: append(None),
            trace=append,
            verify=verify,
        )

    def _read_op(
        self, cycle: int, name: str, sql: str, settles: bool = False, rowpath: bool = False
    ) -> Op:
        options = ExecOptions(engine="auto")

        def run() -> OpResult:
            outcome = self.loop.run_until_complete(
                self.served.execute(sql, options=options)
            )
            return OpResult(rows=outcome.table, report=outcome.report)

        def trace(tracer: Tracer) -> OpResult:
            # The thread hop has no public seam to span; replay admission and
            # execution on the served session with its gate and router
            # (serve.overhead_ms covers the hop).
            with tracer.span("serve.admit"):
                ticket = self.gate.admit(classify_sql(sql))
            try:
                return traced_execute(tracer, self.database, sql, options)
            finally:
                self.gate.release(ticket)

        def verify(result: OpResult) -> bool:
            self.cycle_checks.append((digest(result.rows), sql, False))
            return self._settle(rowpath) if settles else True

        return Op(
            name=f"c{cycle:02d}.{name}", query=name, run=run, trace=trace, verify=verify
        )

    def _collect_counters(self) -> None:
        views = [standing.stats() for standing in self.standing]
        refreshes = sum(stats["refreshes"] for stats in views)
        folded = sum(stats["deltas_folded"] for stats in views)
        admission = self.served.admission_stats()
        self.counters = {
            "views.delta_frac": folded / refreshes if refreshes else 0.0,
            "views.deltas_folded": folded,
            "views.reexecutions": sum(stats["reexecutions"] for stats in views),
            "views.reseeds": sum(
                stats["fallbacks"].get("version-gap", 0) for stats in views
            ),
            "serve.admitted": sum(admission["admitted"].values()),
            "serve.rejected": sum(admission["rejected"].values()),
            **router_counters([self.database.router.telemetry()]),
        }

    def probe_ops(self) -> List[Op]:
        self._reset(0)
        return [self._read_op(0, name, sql) for name, sql in READS]

    def serve_overhead_ms(self, repeats: int = 15) -> Tuple[float, float]:
        """Best of ``AsyncDatabase.execute`` and of ``Database.execute`` (ms).

        Same query, same explicit engine, alternating, on the session of the
        last reset; the difference is what the serving hop costs.
        """
        sql, options = READS[3][1], ExecOptions(engine="freejoin")
        served, direct = [], []
        for _ in range(repeats):
            started = time.perf_counter()
            self.loop.run_until_complete(self.served.execute(sql, options=options))
            served.append(time.perf_counter() - started)
            started = time.perf_counter()
            self.database.execute(sql, options=options)
            direct.append(time.perf_counter() - started)
        return best(served) * 1e3, best(direct) * 1e3

    def layer_counters(self) -> Dict[str, float]:
        counters = dict(self.counters)
        if self.control_append_s:
            counters["storage.append_ms"] = best(self.control_append_s) * 1e3
            counters["storage.fingerprint_ms"] = best(self.fingerprint_s) * 1e3
        return counters


WORKLOADS = {
    cls.name: cls
    for cls in (JobWarm, LsqbCount, FanoutDeliver, PaperRowpath, StealParallel, AppendServe)
}
