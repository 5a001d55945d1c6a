"""Per-figure experiment drivers (Section 5 of the paper).

Every figure of the evaluation (Figures 14-20) and the two ablations has a
``run_*`` function here.  Each driver returns a dictionary with the raw
measurement records plus the derived series/summary the paper plots, and
``format_figure`` renders it as text, naming the execution path of every
series.  All of them run on the ``"paper"`` path (kernels off: COLT,
batching and the hash build are live, see :mod:`repro.experiments.harness`);
Figure 14 adds the production ``"kernels"`` path as a labelled extra series.
The drivers accept a ``scale`` parameter so the same code can run as a quick
smoke test (tiny scale, used by the unit tests), as a pytest benchmark
(small scale), or as a fuller reproduction from the command line::

    python -m repro.experiments.figures fig14 --scale 0.3
    python -m repro.experiments.figures all --scale 0.2 --repeats 1
"""

from __future__ import annotations

import argparse
import gc
from typing import Dict, List, Optional, Sequence

from repro.core.colt import TrieStrategy
from repro.core.engine import FreeJoinOptions
from repro.engine.session import Database
from repro.experiments.harness import PATHS, Measurement, frozen_heap, run_suite
from repro.experiments.report import (
    format_headline,
    format_records,
    format_scatter,
    geometric_mean,
    speedup_summary,
    summarize_headline,
)
from repro.kernels import kernels_enabled
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
    """JOB run-time comparison of the three engines (Figure 14).

    The scatter and the headline summary are the paper path's; the same
    queries also run on the kernel path, and ``path_seconds`` sums each
    path's engine time.
    """
    workload = generate_job_workload(scale=scale, seed=seed)
    by_path = {
        path: run_suite(
            workload.catalog,
            workload.queries,
            ENGINES,
            workload="job",
            repeats=repeats,
            scale=scale,
            query_names=query_names,
            path=path,
        )
        for path in PATHS
    }
    paper = by_path["paper"]
    return {
        "figure": "fig14",
        "measurements": [m for series in by_path.values() for m in series],
        "scatter": format_scatter(paper, "binary", ["freejoin", "generic"]),
        "path_seconds": {
            path: sum(m.seconds for m in series) for path, series in by_path.items()
        },
        "summary": summarize_headline(paper),
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
    """The Kùzu-role series: Generic Join with a deliberately poor variable order.

    It calls the engine directly rather than through ``run_suite``, so it
    switches to the paper path itself.
    """
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
        with kernels_enabled(False), frozen_heap():
            for _ in range(max(1, repeats)):
                gc.collect()
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
                path="paper",
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
    """Free Join with simple trie vs. SLT vs. COLT (Figure 17).

    ``summary["build_seconds"]`` sums each strategy's trie-build time: COLT
    builds only the levels a probe reaches, so it should build least.
    """
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
        "build_seconds": {
            variant: sum(m.build_seconds for m in measurements if m.variant == variant)
            for variant in sorted({m.variant for m in measurements})
        },
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
}


def format_figure(result: Dict[str, object]) -> str:
    """Render a driver's result dictionary as text."""
    lines = [f"== {result['figure']} =="]
    series = sorted({(m.engine, m.variant, m.path) for m in result["measurements"]})
    lines.append(format_records(
        [dict(zip(("engine", "variant", "path"), key)) for key in series],
        ["engine", "variant", "path"],
    ))
    if "scatter" in result:
        lines.append(str(result["scatter"]))
    if "series" in result:
        lines.append(format_records(result["series"], list(result["series"][0].keys())))
    if "panels" in result:
        for engine, records in result["panels"].items():
            lines.append(f"-- {engine} --")
            lines.append(format_records(records, list(records[0].keys())))
    if "path_seconds" in result:
        lines.append(f"summed seconds by path: {result['path_seconds']}")
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
