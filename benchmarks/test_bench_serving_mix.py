"""Serving-mix benchmark: the admission-gated front door under burst.

The acceptance gate from the router tentpole, on a multi-tenant burst of
interleaved point lookups and analytic group-bys served through
``engine="auto"`` routing plus an
:class:`~repro.router.admission.AdmissionGate`:

* **rejections, not timeouts** — the burst intentionally exceeds the gate's
  limits; every over-capacity request must be shed *immediately* as a typed
  ``AdmissionRejected`` (reject p95 gated at a small fraction of one
  unloaded query), and **zero** requests may burn their deadline into a
  ``DeadlineExceeded``.
* **bounded p95 for admitted queries** — served p95 stays within
  :data:`SERVED_P95_GATE` times the unloaded single-query median, because
  the gate bounds queue depth instead of letting every request pile up.
"""

from __future__ import annotations

import asyncio
import statistics
import time

from benchmarks.conftest import BENCH_SMOKE, JOB_SEED
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.errors import AdmissionRejected, DeadlineExceeded
from repro.router.admission import ANALYTIC, POINT, AdmissionGate
from repro.serve import AsyncDatabase
from repro.workloads.synthetic import FANOUT_GROUP_SQL, fanout_tables

#: Served p95 vs the unloaded single-query median.  The gate admits at most
#: 6 outstanding queries onto a 4-thread pool, so queueing is bounded by
#: construction; 10x is loose enough for GIL-serialized smoke runners.
SERVED_P95_GATE = 10.0
#: Rejection latency vs the unloaded median: shedding must not cost a query.
REJECT_FAST_GATE = 0.05
#: Workload scale (sizes the fan-out tables).
MIX_SCALE = 0.05 if BENCH_SMOKE else 0.15

POINT_SQL = "SELECT COUNT(*) FROM fan_r, fan_s WHERE fan_r.k = fan_s.k"


def _timed_seconds(database: Database, sql: str) -> float:
    started = time.perf_counter()
    database.execute(sql)
    return time.perf_counter() - started


def _percentile(values, fraction):
    return values[min(len(values) - 1, int(fraction * len(values)))]


def serve_burst(scale: float, seed: int):
    """Run two waves of a burst through a routed, admission-gated server.

    Returns the summary the gates read: request counts by outcome, the
    unloaded analytic median, served / rejected p95s, and router telemetry.
    """
    rows = max(500, int(12_000 * scale))
    database = Database(default_engine="auto")
    database.register_all(fanout_tables(rows, seed=seed, skew=1.2).values())

    # One unloaded reference query: the burst's latency bound is expressed
    # relative to this, so the gates are machine-speed independent.
    unloaded = statistics.median(
        _timed_seconds(database, FANOUT_GROUP_SQL) for _ in range(3)
    )
    budget = max(5.0, 50.0 * unloaded)

    gate = AdmissionGate(point_limit=4, analytic_limit=2)
    # 12 point + 6 analytic per wave, interleaved 2:1 — more than the gate
    # admits at once, so every wave sheds load.
    wave = [(POINT_SQL, POINT), (POINT_SQL, POINT), (FANOUT_GROUP_SQL, ANALYTIC)] * 6

    async def one(server, index, sql, query_class):
        started = time.perf_counter()
        try:
            await server.execute(
                sql, name=f"mix-{index}", query_class=query_class,
                options=ExecOptions(timeout=budget),
            )
            return "served", time.perf_counter() - started
        except AdmissionRejected:
            return "rejected", time.perf_counter() - started
        except DeadlineExceeded:
            return "timeout", time.perf_counter() - started

    async def burst():
        results = []
        async with AsyncDatabase(database, max_concurrency=4, admission=gate) as server:
            for _ in range(2):
                results.extend(await asyncio.gather(*(
                    one(server, index, sql, query_class)
                    for index, (sql, query_class) in enumerate(wave)
                )))
        return results

    results = asyncio.run(burst())
    by_status = {"served": [], "rejected": [], "timeout": []}
    for status, seconds in results:
        by_status[status].append(seconds)
    served = sorted(by_status["served"])
    rejected = sorted(by_status["rejected"])
    if not served:
        raise RuntimeError("serving mix admitted no queries at all")
    return {
        "requests": len(results),
        "served": len(served),
        "rejected": len(rejected),
        "deadline_timeouts": len(by_status["timeout"]),
        "unloaded_seconds": unloaded,
        "served_p95_seconds": _percentile(served, 0.95),
        "reject_p95_seconds": _percentile(rejected, 0.95) if rejected else 0.0,
        "router": database.router.telemetry(),
    }


def test_serving_mix_sheds_load_with_bounded_p95(benchmark):
    """Burst through the gate: fast typed rejections, bounded served p95."""
    summary = benchmark.pedantic(
        lambda: serve_burst(scale=MIX_SCALE, seed=JOB_SEED),
        rounds=1, iterations=1,
    )
    unloaded = summary["unloaded_seconds"]
    served_ratio = summary["served_p95_seconds"] / unloaded
    reject_ratio = summary["reject_p95_seconds"] / unloaded
    print(
        f"\nserving mix: {summary['requests']} requests -> "
        f"{summary['served']} served, {summary['rejected']} rejected, "
        f"{summary['deadline_timeouts']} deadline timeouts; "
        f"served p95 {summary['served_p95_seconds'] * 1000:.1f} ms "
        f"({served_ratio:.2f}x unloaded, gate <= {SERVED_P95_GATE}), "
        f"reject p95 {summary['reject_p95_seconds'] * 1000:.3f} ms "
        f"({reject_ratio:.4f}x unloaded, gate <= {REJECT_FAST_GATE})"
    )
    assert summary["deadline_timeouts"] == 0, (
        "over-capacity requests must be rejected by the gate, not queued "
        "into deadline timeouts"
    )
    assert summary["rejected"] > 0, (
        "the burst is sized past the gate's limits; something must be shed"
    )
    assert summary["served"] > 0
    assert served_ratio <= SERVED_P95_GATE, (
        f"admitted queries lost their latency bound under burst: p95 "
        f"{served_ratio:.2f}x unloaded (gate <= {SERVED_P95_GATE})"
    )
    assert reject_ratio <= REJECT_FAST_GATE, (
        f"rejections must be near-instant, got {reject_ratio:.4f}x an "
        f"unloaded query (gate <= {REJECT_FAST_GATE})"
    )
    # Routing ran: every request that executed went through the router.
    assert summary["router"]["routed"] >= summary["served"]
