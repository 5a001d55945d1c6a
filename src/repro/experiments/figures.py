"""Per-figure experiment drivers (Section 5 of the paper).

Every figure and headline table of the evaluation has a ``run_figXX``
function here.  Each driver returns a dictionary with the raw measurement
records plus the derived series/summary the paper plots, and
``format_figure`` renders it as text.  The drivers accept a ``scale``
parameter so the same code can run as a quick smoke test (tiny scale, used by
the unit tests), as a pytest benchmark (small scale), or as a fuller
reproduction from the command line::

    python -m repro.experiments.figures fig14 --scale 0.3
    python -m repro.experiments.figures all --scale 0.2 --repeats 1
"""

from __future__ import annotations

import argparse
import os
from typing import Dict, List, Optional, Sequence

from repro.core.colt import TrieStrategy
from repro.core.engine import FreeJoinOptions
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.experiments.harness import Measurement, run_suite
from repro.experiments.report import (
    format_headline,
    format_records,
    format_scatter,
    speedup_summary,
    summarize_headline,
)
from repro.workloads.job import generate_job_workload
from repro.workloads.lsqb import generate_lsqb_workload

#: All engines compared in the paper.
ENGINES = ("freejoin", "binary", "generic")

#: Default LSQB scale factors (the paper's 0.1/0.3/1/3, scaled to Python).
LSQB_SCALE_FACTORS = (0.1, 0.3, 1.0, 3.0)


# --------------------------------------------------------------------------- #
# Figure 14 — JOB run time: Free Join and Generic Join vs. binary join
# --------------------------------------------------------------------------- #


def run_fig14(
    scale: float = 0.3,
    repeats: int = 1,
    query_names: Optional[Sequence[str]] = None,
    seed: int = 42,
) -> Dict[str, object]:
    """JOB run-time comparison of the three engines (Figure 14)."""
    workload = generate_job_workload(scale=scale, seed=seed)
    measurements = run_suite(
        workload.catalog,
        workload.queries,
        ENGINES,
        workload="job",
        repeats=repeats,
        scale=scale,
        query_names=query_names,
    )
    return {
        "figure": "fig14",
        "measurements": measurements,
        "scatter": format_scatter(measurements, "binary", ["freejoin", "generic"]),
        "summary": summarize_headline(measurements),
    }


# --------------------------------------------------------------------------- #
# Figure 15 / Figure 20 — robustness to bad cardinality estimates
# --------------------------------------------------------------------------- #


def run_fig15(
    scale: float = 0.3,
    repeats: int = 1,
    query_names: Optional[Sequence[str]] = None,
    seed: int = 42,
) -> Dict[str, object]:
    """JOB run time with the Always-1 (bad) cardinality estimator (Figure 15)."""
    workload = generate_job_workload(scale=scale, seed=seed)
    measurements = run_suite(
        workload.catalog,
        workload.queries,
        ENGINES,
        workload="job-badplan",
        variant="bad-estimates",
        bad_estimates=True,
        repeats=repeats,
        scale=scale,
        query_names=query_names,
    )
    return {
        "figure": "fig15",
        "measurements": measurements,
        "scatter": format_scatter(measurements, "binary", ["freejoin", "generic"]),
        "summary": summarize_headline(measurements),
    }


def run_fig20(
    scale: float = 0.3,
    repeats: int = 1,
    query_names: Optional[Sequence[str]] = None,
    seed: int = 42,
) -> Dict[str, object]:
    """Per-engine sensitivity to plan quality (Figure 20).

    For each engine, pairs the run time with the default estimator against
    the run time with the Always-1 estimator; the per-engine slowdown factors
    are the series of the figure's three panels.
    """
    workload = generate_job_workload(scale=scale, seed=seed)
    good = run_suite(
        workload.catalog, workload.queries, ENGINES,
        workload="job", variant="good", repeats=repeats, scale=scale,
        query_names=query_names,
    )
    bad = run_suite(
        workload.catalog, workload.queries, ENGINES,
        workload="job", variant="bad", bad_estimates=True, repeats=repeats,
        scale=scale, query_names=query_names,
    )
    panels: Dict[str, List[Dict[str, object]]] = {}
    slowdowns: Dict[str, List[float]] = {}
    good_index = {(m.engine, m.query): m for m in good}
    for measurement in bad:
        match = good_index.get((measurement.engine, measurement.query))
        if match is None:
            continue
        slowdown = measurement.seconds / match.seconds if match.seconds > 0 else 0.0
        panels.setdefault(measurement.engine, []).append({
            "query": measurement.query,
            "good_s": match.seconds,
            "bad_s": measurement.seconds,
            "slowdown": slowdown,
        })
        slowdowns.setdefault(measurement.engine, []).append(slowdown)
    from repro.experiments.report import geometric_mean

    return {
        "figure": "fig20",
        "measurements": good + bad,
        "panels": panels,
        "geomean_slowdown": {
            engine: geometric_mean(values) for engine, values in slowdowns.items()
        },
    }


# --------------------------------------------------------------------------- #
# Figure 16 / Figure 19 — LSQB across scale factors
# --------------------------------------------------------------------------- #


def run_fig16(
    scale_factors: Sequence[float] = LSQB_SCALE_FACTORS,
    repeats: int = 1,
    query_names: Optional[Sequence[str]] = None,
    seed: int = 7,
) -> Dict[str, object]:
    """LSQB run time across scale factors (Figure 16).

    The paper's third series (Kùzu, an external Generic Join system) is
    played by a deliberately slower Generic Join configuration: eager tries
    and a join-variables-last variable order, labelled ``generic-unoptimized``.
    """
    measurements: List[Measurement] = []
    for scale_factor in scale_factors:
        workload = generate_lsqb_workload(scale_factor=scale_factor, seed=seed)
        measurements.extend(
            run_suite(
                workload.catalog,
                workload.queries,
                ENGINES,
                workload="lsqb",
                repeats=repeats,
                scale=scale_factor,
                query_names=query_names,
            )
        )
        measurements.extend(
            _run_kuzu_role(workload, repeats, scale_factor, query_names)
        )
    series = _lsqb_series(measurements)
    return {"figure": "fig16", "measurements": measurements, "series": series}


def _run_kuzu_role(
    workload, repeats: int, scale_factor: float, query_names: Optional[Sequence[str]]
) -> List[Measurement]:
    """The Kùzu-role series: Generic Join with a deliberately poor variable order."""
    from repro.genericjoin.executor import GenericJoinEngine, GenericJoinOptions
    from repro.query.planner import Planner
    from repro.optimizer.join_order import optimize_query

    measurements = []
    database = Database(workload.catalog)
    wanted = set(query_names) if query_names is not None else None
    for query in workload.queries:
        if wanted is not None and query.name not in wanted:
            continue
        logical = Planner(workload.catalog).plan_sql(query.sql, name=query.name)
        plan = optimize_query(logical.query, statistics_cache=database.statistics_cache)
        # Reverse the variable order: joins on shared variables happen late,
        # mimicking a system without a plan-aware variable order.
        from repro.genericjoin.variable_order import variable_order_from_binary_plan

        order = list(reversed(variable_order_from_binary_plan(logical.query, plan)))
        best = None
        for _ in range(max(1, repeats)):
            engine = GenericJoinEngine(
                GenericJoinOptions(output="count", variable_order=order)
            )
            report = engine.run(logical.query, plan)
            if best is None or report.total_seconds < best.total_seconds:
                best = report
        measurements.append(
            Measurement(
                workload="lsqb",
                query=query.name,
                engine="generic-unoptimized",
                variant="kuzu-role",
                seconds=best.total_seconds,
                build_seconds=best.build_seconds,
                join_seconds=best.join_seconds,
                output_rows=best.result.count(),
                category=query.category,
                scale=scale_factor,
            )
        )
    return measurements


def _lsqb_series(measurements: Sequence[Measurement]) -> List[Dict[str, object]]:
    records = []
    for measurement in measurements:
        records.append({
            "query": measurement.query,
            "engine": f"{measurement.engine}",
            "scale_factor": measurement.scale,
            "seconds": measurement.seconds,
            "output_rows": measurement.output_rows,
            "category": measurement.category,
        })
    records.sort(key=lambda r: (r["query"], r["engine"], r["scale_factor"]))
    return records


def run_fig19(
    scale_factors: Sequence[float] = (0.3, 1.0),
    repeats: int = 1,
    query_names: Optional[Sequence[str]] = None,
    seed: int = 7,
) -> Dict[str, object]:
    """LSQB with factorized output (Figure 19): flat vs. factorized Free Join."""
    measurements: List[Measurement] = []
    for scale_factor in scale_factors:
        workload = generate_lsqb_workload(scale_factor=scale_factor, seed=seed)
        for variant, options in (
            ("flat", FreeJoinOptions(output="rows")),
            ("factorized", FreeJoinOptions(output="factorized")),
        ):
            measurements.extend(
                run_suite(
                    workload.catalog,
                    workload.queries,
                    ["freejoin"],
                    workload="lsqb",
                    variant=variant,
                    freejoin_options=options,
                    repeats=repeats,
                    scale=scale_factor,
                    query_names=query_names,
                )
            )
    series = [
        {
            "query": m.query,
            "variant": m.variant,
            "scale_factor": m.scale,
            "seconds": m.seconds,
            "output_rows": m.output_rows,
        }
        for m in measurements
    ]
    series.sort(key=lambda r: (r["query"], r["variant"], r["scale_factor"]))
    return {"figure": "fig19", "measurements": measurements, "series": series}


# --------------------------------------------------------------------------- #
# Figure 17 — impact of COLT (trie strategy ablation)
# --------------------------------------------------------------------------- #


def run_fig17(
    scale: float = 0.3,
    repeats: int = 1,
    query_names: Optional[Sequence[str]] = None,
    seed: int = 42,
) -> Dict[str, object]:
    """Free Join with simple trie vs. SLT vs. COLT (Figure 17)."""
    workload = generate_job_workload(scale=scale, seed=seed)
    measurements: List[Measurement] = []
    for strategy in (TrieStrategy.SIMPLE, TrieStrategy.SLT, TrieStrategy.COLT):
        options = FreeJoinOptions(trie_strategy=strategy)
        measurements.extend(
            run_suite(
                workload.catalog,
                workload.queries,
                ["freejoin"],
                workload="job",
                variant=str(strategy),
                freejoin_options=options,
                repeats=repeats,
                scale=scale,
                query_names=query_names,
            )
        )
    summary = {
        "colt_vs_simple": speedup_summary(measurements, "freejoin/simple", "freejoin/colt"),
        "colt_vs_slt": speedup_summary(measurements, "freejoin/slt", "freejoin/colt"),
    }
    return {"figure": "fig17", "measurements": measurements, "summary": summary}


# --------------------------------------------------------------------------- #
# Figure 18 — impact of vectorization (batch size ablation)
# --------------------------------------------------------------------------- #


def run_fig18(
    scale: float = 0.3,
    repeats: int = 1,
    batch_sizes: Sequence[int] = (1, 10, 100, 1000),
    query_names: Optional[Sequence[str]] = None,
    seed: int = 42,
) -> Dict[str, object]:
    """Free Join with different vectorization batch sizes (Figure 18)."""
    workload = generate_job_workload(scale=scale, seed=seed)
    measurements: List[Measurement] = []
    for batch_size in batch_sizes:
        options = FreeJoinOptions(batch_size=batch_size)
        measurements.extend(
            run_suite(
                workload.catalog,
                workload.queries,
                ["freejoin"],
                workload="job",
                variant=f"batch{batch_size}",
                freejoin_options=options,
                repeats=repeats,
                scale=scale,
                query_names=query_names,
            )
        )
    summary = {
        f"batch{batch}_vs_batch1": speedup_summary(
            measurements, "freejoin/batch1", f"freejoin/batch{batch}"
        )
        for batch in batch_sizes
        if batch != 1
    }
    return {"figure": "fig18", "measurements": measurements, "summary": summary}


# --------------------------------------------------------------------------- #
# Ablations called out in DESIGN.md (not separate figures in the paper)
# --------------------------------------------------------------------------- #


def run_ablation_factoring(
    scale: float = 0.3,
    repeats: int = 1,
    query_names: Optional[Sequence[str]] = None,
    seed: int = 42,
) -> Dict[str, object]:
    """Free Join with and without plan factoring (Section 4.1)."""
    workload = generate_job_workload(scale=scale, seed=seed)
    measurements: List[Measurement] = []
    for variant, factor in (("factored", True), ("unfactored", False)):
        options = FreeJoinOptions(factor=factor)
        measurements.extend(
            run_suite(
                workload.catalog, workload.queries, ["freejoin"],
                workload="job", variant=variant, freejoin_options=options,
                repeats=repeats, scale=scale, query_names=query_names,
            )
        )
    summary = speedup_summary(measurements, "freejoin/unfactored", "freejoin/factored")
    return {"figure": "ablation-factoring", "measurements": measurements, "summary": summary}


def run_ablation_cover(
    scale: float = 0.3,
    repeats: int = 1,
    query_names: Optional[Sequence[str]] = None,
    seed: int = 42,
) -> Dict[str, object]:
    """Free Join with dynamic vs. static cover selection (Section 4.4)."""
    workload = generate_job_workload(scale=scale, seed=seed)
    measurements: List[Measurement] = []
    for variant, dynamic in (("dynamic", True), ("static", False)):
        options = FreeJoinOptions(dynamic_cover=dynamic)
        measurements.extend(
            run_suite(
                workload.catalog, workload.queries, ["freejoin"],
                workload="job", variant=variant, freejoin_options=options,
                repeats=repeats, scale=scale, query_names=query_names,
            )
        )
    summary = speedup_summary(measurements, "freejoin/static", "freejoin/dynamic")
    return {"figure": "ablation-cover", "measurements": measurements, "summary": summary}


# --------------------------------------------------------------------------- #
# Streaming execution: time-to-first-batch vs full materialization
# --------------------------------------------------------------------------- #


def run_streaming(
    scale: float = 0.3,
    repeats: int = 1,
    seed: int = 42,
) -> Dict[str, object]:
    """Time-to-first-batch of the streaming pipeline on a large-output join.

    The synthetic workload is the shared fan-out equi-join
    (:func:`repro.workloads.synthetic.fanout_tables`) whose output is ~50x
    its input: exactly the shape where materialize-then-return pays
    worst-case time-to-first-byte.  Two series are measured: the full
    materialized execution (``Database.execute`` + row access) and the wall
    time until ``Database.execute_iter`` delivers its first batch.  The CI
    gate (``benchmarks/test_bench_streaming.py``) requires first-batch
    <= 0.5x the materialized wall clock over the same workload builder;
    this driver feeds the numbers into ``BENCH_<label>.json`` so the
    benchmark-history trend gate tracks them PR over PR.
    """
    import time as time_module

    from repro.workloads.synthetic import FANOUT_SQL, fanout_tables

    rows = max(1000, int(25_000 * scale))
    database = Database()
    database.register_all(fanout_tables(rows, seed=seed).values())
    sql = FANOUT_SQL

    measurements: List[Measurement] = []
    summary: Dict[str, object] = {}
    for _ in range(max(1, repeats)):
        started = time_module.perf_counter()
        outcome = database.execute(sql, name="fanout")
        output_rows = len(outcome.rows())
        full_seconds = time_module.perf_counter() - started

        started = time_module.perf_counter()
        stream = database.execute_iter(
            sql, name="fanout", options=ExecOptions(batch_rows=1024)
        )
        first = stream.next_batch()
        first_seconds = time_module.perf_counter() - started
        streamed = len(first or [])
        for batch in stream:
            streamed += len(batch)
        if streamed != output_rows:
            raise RuntimeError(
                f"streamed {streamed} rows but materialized {output_rows}"
            )

        measurements.append(Measurement(
            workload="stream-fanout", query="fanout", engine="freejoin",
            variant="materialized", seconds=full_seconds,
            build_seconds=0.0, join_seconds=full_seconds,
            output_rows=output_rows, scale=scale,
        ))
        measurements.append(Measurement(
            workload="stream-fanout", query="fanout", engine="freejoin",
            variant="first-batch", seconds=first_seconds,
            build_seconds=0.0, join_seconds=first_seconds,
            output_rows=streamed, scale=scale,
        ))
        summary = {
            "output_rows": output_rows,
            "materialized_seconds": full_seconds,
            "first_batch_seconds": first_seconds,
            "first_batch_ratio": (
                first_seconds / full_seconds if full_seconds > 0 else 0.0
            ),
        }
    return {
        "figure": "streaming",
        "measurements": measurements,
        "summary": summary,
    }


# --------------------------------------------------------------------------- #
# Grouped aggregation: fold in the sink vs materialize the join; stream vs execute
# --------------------------------------------------------------------------- #


def run_aggregation(
    scale: float = 0.3,
    repeats: int = 1,
    seed: int = 42,
) -> Dict[str, object]:
    """Grouped aggregation on the Zipf-skewed fan-out join.

    Measures the partial-aggregate plane the paper-figure workloads (joins +
    ``COUNT``/``MIN`` + group-by) run through, three ways over one join:
    ``Database.execute`` returning the join's rows (the one variant that
    materializes), grouped ``Database.execute`` (folds the factorized output
    in its sink) and the drained grouped ``Database.execute_iter`` stream
    (the same fold plus delta delivery), collapsed (last-write-wins per
    group key) to assert exact parity with the executed result.  The CI
    gate (``benchmarks/test_bench_aggregation.py``) bounds the two ratios at
    0.6 and 1.25; this driver feeds the numbers into ``BENCH_<label>.json``
    so the benchmark-history trend gate tracks them PR over PR.
    """
    import time as time_module

    from repro.engine.streaming import collapse_grouped_batches
    from repro.workloads.synthetic import FANOUT_GROUP_SQL, FANOUT_SQL, fanout_tables

    rows = max(1000, int(25_000 * scale))
    database = Database()
    database.register_all(fanout_tables(rows, seed=seed, skew=1.2).values())

    measurements: List[Measurement] = []
    summary: Dict[str, object] = {}
    for _ in range(max(1, repeats)):
        started = time_module.perf_counter()
        join_rows = len(database.execute(FANOUT_SQL, name="fanout-rows").rows())
        rows_seconds = time_module.perf_counter() - started

        started = time_module.perf_counter()
        expected = database.execute(FANOUT_GROUP_SQL, name="fanout-group").rows()
        grouped_seconds = time_module.perf_counter() - started

        started = time_module.perf_counter()
        stream = database.execute_iter(
            FANOUT_GROUP_SQL, name="fanout-group", options=ExecOptions(batch_rows=256)
        )
        collapsed = collapse_grouped_batches(list(stream), [0])
        stream_seconds = time_module.perf_counter() - started
        if collapsed != expected:
            raise RuntimeError(
                f"collapsed stream produced {len(collapsed)} groups that do "
                f"not match the executed aggregate ({len(expected)})"
            )

        for variant, seconds, output_rows in (
            ("join-rows", rows_seconds, join_rows),
            ("grouped-execute", grouped_seconds, len(expected)),
            ("grouped-stream", stream_seconds, len(expected)),
        ):
            measurements.append(Measurement(
                workload="aggregate-fanout", query="fanout-group", engine="freejoin",
                variant=variant, seconds=seconds,
                build_seconds=0.0, join_seconds=seconds,
                output_rows=output_rows, scale=scale,
            ))
        summary = {
            "groups": len(expected),
            "join_rows": join_rows,
            "rows_seconds": rows_seconds,
            "grouped_seconds": grouped_seconds,
            "grouped_vs_rows_ratio": (
                grouped_seconds / rows_seconds if rows_seconds > 0 else 0.0
            ),
            "stream_seconds": stream_seconds,
            "stream_vs_execute_ratio": (
                stream_seconds / grouped_seconds if grouped_seconds > 0 else 0.0
            ),
        }
    return {
        "figure": "aggregation",
        "measurements": measurements,
        "summary": summary,
    }


# --------------------------------------------------------------------------- #
# Serving mix: routed engines + admission control under a multi-tenant burst
# --------------------------------------------------------------------------- #


def run_serving_mix(
    scale: float = 0.3,
    repeats: int = 1,
    seed: int = 42,
) -> Dict[str, object]:
    """Multi-tenant burst through the routed, admission-gated front door.

    A burst of interleaved point lookups and analytic group-bys hits an
    :class:`~repro.serve.AsyncDatabase` configured with ``engine="auto"``
    routing and an :class:`~repro.router.admission.AdmissionGate`.  The
    burst intentionally exceeds the gate's limits, so the run shows the
    serving layer's two promises at once: requests past capacity are shed
    *fast* (typed :class:`~repro.errors.AdmissionRejected`, not slow
    deadline timeouts) and admitted queries keep a bounded p95.  The CI
    gate (``benchmarks/test_bench_serving_mix.py``) asserts exactly that:
    zero deadline timeouts, at least one rejection, served p95 within a
    fixed multiple of the unloaded median — and this driver feeds the same
    numbers into ``BENCH_<label>.json`` for the history trend gate.
    """
    import asyncio
    import statistics as statistics_module
    import time as time_module

    from repro.errors import AdmissionRejected, DeadlineExceeded
    from repro.router.admission import ANALYTIC, POINT, AdmissionGate
    from repro.serve import AsyncDatabase
    from repro.workloads.synthetic import FANOUT_GROUP_SQL, fanout_tables

    rows = max(500, int(12_000 * scale))
    database = Database(default_engine="auto")
    database.register_all(fanout_tables(rows, seed=seed, skew=1.2).values())
    point_sql = "SELECT COUNT(*) FROM fan_r, fan_s WHERE fan_r.k = fan_s.k"
    analytic_sql = FANOUT_GROUP_SQL

    # One unloaded reference query per class: the burst's latency bound is
    # expressed relative to this, so the figure is machine-speed independent.
    unloaded = statistics_module.median(
        _timed_seconds(database, analytic_sql) for _ in range(3)
    )
    budget = max(5.0, 50.0 * unloaded)

    gate = AdmissionGate(point_limit=4, analytic_limit=2)
    # 12 point + 6 analytic per wave, interleaved 2:1 — more than the gate
    # admits at once, so every wave sheds load.
    wave = []
    for _ in range(6):
        wave.append((point_sql, POINT))
        wave.append((point_sql, POINT))
        wave.append((analytic_sql, ANALYTIC))

    async def serve_wave(server):
        async def one(index, sql, query_class):
            started = time_module.perf_counter()
            try:
                await server.execute(
                    sql, name=f"mix-{index}", query_class=query_class,
                    options=ExecOptions(timeout=budget),
                )
                return (query_class, "served", time_module.perf_counter() - started)
            except AdmissionRejected:
                return (query_class, "rejected", time_module.perf_counter() - started)
            except DeadlineExceeded:
                return (query_class, "timeout", time_module.perf_counter() - started)

        tasks = [
            asyncio.create_task(one(index, sql, query_class))
            for index, (sql, query_class) in enumerate(wave)
        ]
        return await asyncio.gather(*tasks)

    async def serve_burst():
        results = []
        async with AsyncDatabase(
            database, max_concurrency=4, admission=gate
        ) as server:
            for _ in range(max(1, repeats) * 2):
                results.extend(await serve_wave(server))
        return results

    results = asyncio.run(serve_burst())
    served = sorted(s for _, status, s in results if status == "served")
    rejected = sorted(s for _, status, s in results if status == "rejected")
    timeouts = [s for _, status, s in results if status == "timeout"]
    if not served:
        raise RuntimeError("serving mix admitted no queries at all")

    def percentile(values, fraction):
        return values[min(len(values) - 1, int(fraction * len(values)))]

    measurements = [
        Measurement(
            workload="serving-mix", query="burst", engine="auto",
            variant="served-p50", seconds=percentile(served, 0.50),
            build_seconds=0.0, join_seconds=percentile(served, 0.50),
            output_rows=len(served), scale=scale,
        ),
        Measurement(
            workload="serving-mix", query="burst", engine="auto",
            variant="served-p95", seconds=percentile(served, 0.95),
            build_seconds=0.0, join_seconds=percentile(served, 0.95),
            output_rows=len(served), scale=scale,
        ),
        Measurement(
            workload="serving-mix", query="burst", engine="auto",
            variant="reject-p95",
            seconds=percentile(rejected, 0.95) if rejected else 0.0,
            build_seconds=0.0,
            join_seconds=percentile(rejected, 0.95) if rejected else 0.0,
            output_rows=len(rejected), scale=scale,
        ),
    ]
    summary = {
        "requests": len(results),
        "served": len(served),
        "rejected": len(rejected),
        "deadline_timeouts": len(timeouts),
        "unloaded_seconds": unloaded,
        "served_p50_seconds": percentile(served, 0.50),
        "served_p95_seconds": percentile(served, 0.95),
        "reject_p95_seconds": percentile(rejected, 0.95) if rejected else 0.0,
        "admission": gate.snapshot(),
        "router": database.router.telemetry(),
    }
    return {
        "figure": "serving-mix",
        "measurements": measurements,
        "summary": summary,
    }


def _timed_seconds(database: Database, sql: str) -> float:
    import time as time_module

    started = time_module.perf_counter()
    database.execute(sql)
    return time_module.perf_counter() - started


# --------------------------------------------------------------------------- #
# Headline numbers (Section 1 / Section 5.2)
# --------------------------------------------------------------------------- #


def run_headline(
    job_scale: float = 0.3,
    lsqb_scale: float = 1.0,
    repeats: int = 1,
    seed: int = 42,
) -> Dict[str, object]:
    """Headline speedups of Free Join vs. binary join and Generic Join."""
    job = run_fig14(scale=job_scale, repeats=repeats, seed=seed)
    lsqb_workload = generate_lsqb_workload(scale_factor=lsqb_scale)
    lsqb_measurements = run_suite(
        lsqb_workload.catalog, lsqb_workload.queries, ENGINES,
        workload="lsqb", repeats=repeats, scale=lsqb_scale,
    )
    measurements = list(job["measurements"]) + lsqb_measurements
    return {
        "figure": "headline",
        "measurements": measurements,
        "summary": summarize_headline(measurements),
    }


# --------------------------------------------------------------------------- #
# Kernel plane: vectorized batch kernels vs the row-at-a-time reference
# --------------------------------------------------------------------------- #


def _time_factorized_star(
    drivers: int, fan: int, repeats: int
) -> Dict[str, Measurement]:
    """Time factorized delivery of a Fig. 19-style star, kernels on vs off.

    The workload is shaped for factorization to matter: few driver groups
    (``drivers`` distinct join keys) each carrying two large independent
    factors (``fan`` matches per probe table), so the factorized
    representation is ``drivers * 2 * fan`` values standing for
    ``drivers * fan**2`` logical rows.  Both variants deliver into a
    ``FactorizedSink`` — the vectorized path emits factorized batches
    straight from the kernel executor (``on_factorized_batch``), the
    ``REPRO_KERNELS=off`` variant is the row-at-a-time reference.
    """
    import time as time_module

    from repro.core.engine import FreeJoinEngine
    from repro.engine.output import FactorizedSink
    from repro.optimizer.join_order import optimize_query
    from repro.query.builder import QueryBuilder
    from repro.storage.table import Table

    builder = QueryBuilder("factorized-star")
    builder.add_atom(
        "r",
        Table.from_rows("r", ["x", "a"], [(x, x) for x in range(drivers)]),
        ["x", "a"],
    )
    builder.add_atom(
        "s",
        Table.from_rows(
            "s", ["x", "b"], [(x, b) for x in range(drivers) for b in range(fan)]
        ),
        ["x", "b"],
    )
    builder.add_atom(
        "t",
        Table.from_rows(
            "t", ["x", "c"], [(x, c) for x in range(drivers) for c in range(fan)]
        ),
        ["x", "c"],
    )
    query = builder.build()
    plan = optimize_query(query)
    timings: Dict[str, Measurement] = {}
    for variant, setting in (("factorized", None), ("factorized-row-path", "off")):
        if setting is None:
            os.environ.pop("REPRO_KERNELS", None)
        else:
            os.environ["REPRO_KERNELS"] = setting
        best = None
        # One untimed warmup run per variant: the ratio gate compares
        # steady-state delivery, not first-run program compilation and
        # index builds (both are LRU-cached across runs).
        for attempt in range(max(1, repeats) + 1):
            sink = FactorizedSink(query.output_variables)
            started = time_module.perf_counter()
            FreeJoinEngine().run(query, plan, sink=sink)
            elapsed = time_module.perf_counter() - started
            if attempt and (best is None or elapsed < best):
                best = elapsed
        timings[variant] = Measurement(
            workload="factorized-star",
            query=f"star-{drivers}x{fan}",
            engine="freejoin",
            variant=variant,
            seconds=best,
            build_seconds=0.0,
            join_seconds=best,
            output_rows=drivers * fan * fan,
        )
    return timings


#: Fallback reasons that must never appear on the headline workloads: the
#: vectorized path serves factorized sinks directly.
FALLBACK_BUDGET_REASONS = ("factorized-output",)


def _fallback_sweep(job, lsqb) -> Dict[str, object]:
    """Run the headline queries and count kernel fallbacks.

    Returns a JSON-ready record with one count per budgeted reason plus the
    full observed reason histogram, for the ``--kernels-gate`` fallback
    budget in ``scripts/check_bench_regression.py``.
    """
    observed: Dict[str, int] = {}
    queries = 0

    def record(outcome) -> None:
        nonlocal queries
        queries += 1
        kernels = outcome.report.details.get("kernels", {})
        for reason in kernels.get("fallbacks", []):
            observed[reason] = observed.get(reason, 0) + 1

    for workload in (job, lsqb):
        database = Database(workload.catalog)
        for query in workload.queries:
            record(
                database.execute(
                    query.sql, name=query.name, options=ExecOptions(engine="freejoin")
                )
            )
    return {
        "queries": queries,
        "observed": observed,
        "budget": {
            reason: observed.get(reason, 0) for reason in FALLBACK_BUDGET_REASONS
        },
    }


def run_kernels(
    job_scale: float = 0.3,
    lsqb_scale: float = 1.0,
    repeats: int = 1,
    seed: int = 42,
) -> Dict[str, object]:
    """Batch kernel plane speedup over the row-at-a-time reference path.

    Runs the headline workload twice in the same process — once on the
    default vectorized kernels, once with ``REPRO_KERNELS=off`` — so the
    measured ratio is machine-independent by construction.  Two more
    same-process phases feed the CI gate: a Fig. 19-style factorized star
    delivered into a ``FactorizedSink`` (vectorized factorized batches vs
    the row-at-a-time reference), and a fallback sweep counting kernel
    fallback reasons across the headline queries.  The ``bench-kernels`` gate
    (``scripts/check_bench_regression.py --kernels-gate``) fails when the
    vectorized wall exceeds half the row-path wall, when factorized
    delivery exceeds 0.6x its row path, or when a budgeted fallback
    (``factorized-output``) fires at all.
    """
    job = generate_job_workload(scale=job_scale, seed=seed)
    lsqb = generate_lsqb_workload(scale_factor=lsqb_scale)
    measurements: List[Measurement] = []
    walls: Dict[str, float] = {}
    prior = os.environ.get("REPRO_KERNELS")
    try:
        for variant, setting in (("vectorized", None), ("row-path", "off")):
            if setting is None:
                os.environ.pop("REPRO_KERNELS", None)
            else:
                os.environ["REPRO_KERNELS"] = setting
            batch = run_suite(
                job.catalog, job.queries, ENGINES,
                workload="job", variant=variant, repeats=repeats,
                scale=job_scale,
            )
            batch += run_suite(
                lsqb.catalog, lsqb.queries, ENGINES,
                workload="lsqb", variant=variant, repeats=repeats,
                scale=lsqb_scale,
            )
            walls[variant] = sum(m.seconds for m in batch)
            measurements.extend(batch)
        factorized = _time_factorized_star(drivers=50, fan=40, repeats=repeats)
        measurements.extend(factorized.values())
        os.environ.pop("REPRO_KERNELS", None)
        fallbacks = _fallback_sweep(job, lsqb)
    finally:
        if prior is None:
            os.environ.pop("REPRO_KERNELS", None)
        else:
            os.environ["REPRO_KERNELS"] = prior
    vectorized = walls["vectorized"]
    row_path = walls["row-path"]
    fact = factorized["factorized"].seconds
    fact_rows = factorized["factorized-row-path"].seconds
    return {
        "figure": "kernels",
        "measurements": measurements,
        "summary": {
            "vectorized_seconds": round(vectorized, 4),
            "row_path_seconds": round(row_path, 4),
            "speedup": round(row_path / vectorized, 2) if vectorized > 0 else 0.0,
            "factorized_seconds": round(fact, 4),
            "factorized_row_path_seconds": round(fact_rows, 4),
            "factorized_speedup": round(fact_rows / fact, 2) if fact > 0 else 0.0,
            "fallbacks": fallbacks,
        },
    }


# --------------------------------------------------------------------------- #
# Incremental view maintenance: delta folding vs re-execution per burst
# --------------------------------------------------------------------------- #


def run_ivm(
    scale: float = 0.3,
    repeats: int = 1,
    seed: int = 42,
) -> Dict[str, object]:
    """Standing-query maintenance cost: delta fold vs full re-execution.

    A grouped aggregate over one growing fact table is maintained two ways
    across identical append bursts: a :meth:`Database.subscribe` standing
    query that folds only the delta rows through the partial-aggregate
    states (the table-append hook runs synchronously, so the timed
    ``append_rows`` call *is* the maintenance cost), and a plain database
    that re-runs ``execute`` after every burst.  Both see the same data;
    after every burst the maintained snapshot is asserted byte-identical to
    the re-executed result, so a fast-but-wrong fold cannot score.  The CI
    gate (``benchmarks/test_bench_ivm.py`` and
    ``scripts/check_bench_regression.py --ivm-gate``) bounds
    ``delta-fold / reexecute`` at 0.3; this driver feeds the same numbers
    into ``BENCH_<label>.json`` for the history trend gate.
    """
    import random
    import time as time_module

    from repro.storage.table import Table

    base_rows = max(500, int(8_000 * scale))
    burst_rows = max(100, int(1_000 * scale))
    bursts = 8
    rng = random.Random(seed)

    def make_rows(count: int) -> List[tuple]:
        return [
            (rng.randrange(64), rng.randrange(1, 40), rng.randrange(-100, 100))
            for _ in range(count)
        ]

    columns = ["k", "d", "v"]
    seed_rows = make_rows(base_rows)
    burst_data = [make_rows(burst_rows) for _ in range(bursts)]
    sql = (
        "SELECT ivm_fact.k, SUM(ivm_fact.v), COUNT(*) "
        "FROM ivm_fact GROUP BY ivm_fact.k"
    )

    measurements: List[Measurement] = []
    summary: Dict[str, object] = {}
    for _ in range(max(1, repeats)):
        delta_db = Database()
        delta_db.register(Table.from_rows("ivm_fact", columns, seed_rows))
        reexec_db = Database()
        reexec_db.register(Table.from_rows("ivm_fact", columns, seed_rows))
        standing = delta_db.subscribe(
            sql, options=ExecOptions(batch_rows=4096, max_batches=64), name="ivm"
        )
        if standing.mode != "delta":
            raise RuntimeError(
                f"ivm figure expects the delta path, got mode={standing.mode!r} "
                f"(fallback {standing.fallback_reason!r})"
            )
        delta_seconds = 0.0
        reexec_seconds = 0.0
        for index, burst in enumerate(burst_data):
            started = time_module.perf_counter()
            delta_db.catalog.get("ivm_fact").append_rows(burst)
            burst_delta = time_module.perf_counter() - started
            delta_seconds += burst_delta
            # Drain the group-delta batches so the bounded queue never
            # backpressures the next fold into the timing.
            standing.pending_deltas()

            started = time_module.perf_counter()
            reexec_db.catalog.get("ivm_fact").append_rows(burst)
            expected = reexec_db.execute(sql, name="ivm").rows()
            burst_reexec = time_module.perf_counter() - started
            reexec_seconds += burst_reexec

            if standing.snapshot().to_rows() != expected:
                raise RuntimeError(
                    f"maintained snapshot diverged from re-execution after "
                    f"burst {index}"
                )
            measurements.append(Measurement(
                workload="ivm-scan", query=f"burst{index}", engine="freejoin",
                variant="delta-fold", seconds=burst_delta,
                build_seconds=0.0, join_seconds=burst_delta,
                output_rows=len(burst), scale=scale,
            ))
            measurements.append(Measurement(
                workload="ivm-scan", query=f"burst{index}", engine="freejoin",
                variant="reexecute", seconds=burst_reexec,
                build_seconds=0.0, join_seconds=burst_reexec,
                output_rows=len(expected), scale=scale,
            ))
        stats = standing.stats()
        standing.close()
        delta_db.close()
        reexec_db.close()
        summary = {
            "bursts": bursts,
            "base_rows": base_rows,
            "burst_rows": burst_rows,
            "mode": stats["mode"],
            "path": stats["path"],
            "deltas_folded": stats["deltas_folded"],
            "rows_skipped": stats["rows_skipped"],
            "delta_fold_seconds": round(delta_seconds, 4),
            "reexecute_seconds": round(reexec_seconds, 4),
            "delta_ratio": (
                round(delta_seconds / reexec_seconds, 4)
                if reexec_seconds > 0 else 0.0
            ),
        }
    return {
        "figure": "ivm",
        "measurements": measurements,
        "summary": summary,
    }


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #

FIGURES = {
    "fig14": run_fig14,
    "fig15": run_fig15,
    "fig16": run_fig16,
    "fig17": run_fig17,
    "fig18": run_fig18,
    "fig19": run_fig19,
    "fig20": run_fig20,
    "ablation-factoring": run_ablation_factoring,
    "ablation-cover": run_ablation_cover,
    "headline": run_headline,
    "ivm": run_ivm,
    "kernels": run_kernels,
    "streaming": run_streaming,
    "aggregation": run_aggregation,
    "serving-mix": run_serving_mix,
}


def format_figure(result: Dict[str, object]) -> str:
    """Render a driver's result dictionary as text."""
    lines = [f"== {result['figure']} =="]
    if "scatter" in result:
        lines.append(str(result["scatter"]))
    if "series" in result:
        lines.append(format_records(result["series"], list(result["series"][0].keys())))
    if "panels" in result:
        for engine, records in result["panels"].items():
            lines.append(f"-- {engine} --")
            lines.append(format_records(records, list(records[0].keys())))
    if "geomean_slowdown" in result:
        lines.append(f"geomean slowdown with bad plans: {result['geomean_slowdown']}")
    if "summary" in result:
        summary = result["summary"]
        if isinstance(summary, dict) and summary and isinstance(
            next(iter(summary.values())), dict
        ):
            first = next(iter(summary.values()))
            if "vs_binary_geomean" in first:
                lines.append(format_headline(summary))
            else:
                for key, value in summary.items():
                    lines.append(f"{key}: {value}")
        else:
            lines.append(str(summary))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point: run one figure (or all) and print it."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("figure", choices=sorted(FIGURES) + ["all"])
    parser.add_argument("--scale", type=float, default=0.3,
                        help="JOB scale factor (default 0.3)")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--queries", nargs="*", default=None,
                        help="restrict to these query names")
    arguments = parser.parse_args(argv)

    names = sorted(FIGURES) if arguments.figure == "all" else [arguments.figure]
    for name in names:
        driver = FIGURES[name]
        kwargs = {"repeats": arguments.repeats}
        if "scale" in driver.__code__.co_varnames:
            kwargs["scale"] = arguments.scale
        if arguments.queries:
            kwargs["query_names"] = arguments.queries
        result = driver(**kwargs)
        print(format_figure(result))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
