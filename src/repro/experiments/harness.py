"""Timing harness shared by all experiment drivers and benchmarks.

Measured time is the engine-reported join time (build + join + intermediate
materialization), not the end-to-end wall clock: exactly as in the paper,
time spent in selection pushdown, SQL planning and the final aggregation is
excluded (Section 5.1, "we exclude the time spent in selection and
aggregation").

Every measurement names the execution path it ran on:

* ``"paper"`` — the vectorized kernels switched off, so the engines run the
  paper's own algorithms: COLT / SLT / simple tries, batched probing, the
  binary hash build and Generic Join's tries.  The trie-strategy, batch-size
  and output-mode knobs only act here, and only here does ``build_seconds``
  measure a build.
* ``"kernels"`` — the production default, the vectorized batch kernels over
  content-cached sorted indexes.

Each round starts with a ``gc.collect()`` outside the timed region, and the
best of ``repeats`` rounds is kept.  A suite runs inside :func:`frozen_heap`,
so those collections scan only what the runs allocate.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.engine import FreeJoinOptions
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.kernels import kernels_enabled
from repro.query.hypergraph import classify_query
from repro.storage.catalog import Catalog
from repro.workloads.job import BenchmarkQuery

#: The execution paths a measurement can run on (see the module docstring).
PATHS = ("paper", "kernels")


@dataclass
class Measurement:
    """One timed execution of one query on one engine configuration."""

    workload: str
    query: str
    engine: str
    variant: str
    seconds: float
    build_seconds: float
    join_seconds: float
    output_rows: int
    path: str
    category: str = ""
    scale: float = 1.0

    def as_record(self) -> Dict[str, object]:
        """Plain-dict view, convenient for report formatting."""
        return {
            "workload": self.workload,
            "query": self.query,
            "engine": self.engine,
            "variant": self.variant,
            "path": self.path,
            "seconds": self.seconds,
            "build_seconds": self.build_seconds,
            "join_seconds": self.join_seconds,
            "output_rows": self.output_rows,
            "category": self.category,
            "scale": self.scale,
        }


@contextmanager
def frozen_heap() -> Iterator[None]:
    """Collect once, then exempt every surviving object from collection.

    Inside, a full ``gc.collect()`` costs what the enclosed runs allocated,
    not what the caller holds (a long test session's heap takes tens of
    milliseconds per pass).  Unfrozen on exit.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_query(
    database: Database,
    query: BenchmarkQuery,
    engine: str,
    workload: str = "",
    variant: str = "default",
    bad_estimates: bool = False,
    freejoin_options: Optional[FreeJoinOptions] = None,
    repeats: int = 1,
    scale: float = 1.0,
    path: str = "paper",
) -> Measurement:
    """Execute a benchmark query on ``path`` and return the best-of-``repeats`` timing."""
    if path not in PATHS:
        raise ValueError(f"path must be one of {PATHS}, got {path!r}")
    options = ExecOptions(
        engine=engine, bad_estimates=bad_estimates, freejoin_options=freejoin_options
    )
    best = None
    with kernels_enabled(path == "kernels"):
        for _ in range(max(1, repeats)):
            gc.collect()
            outcome = database.execute(query.sql, name=query.name, options=options)
            report = outcome.report
            if best is None or report.total_seconds < best[0].total_seconds:
                best = (report, outcome)
    assert best is not None
    report, outcome = best
    return Measurement(
        workload=workload,
        query=query.name,
        engine=engine,
        variant=variant,
        seconds=report.total_seconds,
        build_seconds=report.build_seconds,
        join_seconds=report.join_seconds,
        output_rows=outcome.join_result.count(),
        path=path,
        category=query.category or classify_query(outcome.logical.query),
        scale=scale,
    )


def run_suite(
    catalog: Catalog,
    queries: Sequence[BenchmarkQuery],
    engines: Sequence[str],
    workload: str = "",
    variant: str = "default",
    bad_estimates: bool = False,
    freejoin_options: Optional[FreeJoinOptions] = None,
    repeats: int = 1,
    scale: float = 1.0,
    query_names: Optional[Iterable[str]] = None,
    path: str = "paper",
) -> List[Measurement]:
    """Run every query of a suite on every engine and collect measurements."""
    database = Database(catalog)
    wanted = set(query_names) if query_names is not None else None
    measurements: List[Measurement] = []
    with frozen_heap():
        for query in queries:
            if wanted is not None and query.name not in wanted:
                continue
            for engine in engines:
                measurements.append(
                    run_query(
                        database,
                        query,
                        engine,
                        workload=workload,
                        variant=variant,
                        bad_estimates=bad_estimates,
                        freejoin_options=freejoin_options,
                        repeats=repeats,
                        scale=scale,
                        path=path,
                    )
                )
    return measurements


def pivot_by_engine(measurements: Sequence[Measurement]) -> Dict[str, Dict[str, Measurement]]:
    """Group measurements as ``{query: {series: measurement}}``.

    The series key within a query is ``engine``, extended with
    ``/variant`` when the variants differ and with ``/path`` when the paths
    differ, so ablation runs of one engine and the two paths' runs of one
    configuration do not collide.
    """
    use_variant = len({m.variant for m in measurements}) > 1
    use_path = len({m.path for m in measurements}) > 1
    table: Dict[str, Dict[str, Measurement]] = {}
    for measurement in measurements:
        key = measurement.engine
        if use_variant:
            key += f"/{measurement.variant}"
        if use_path:
            key += f"/{measurement.path}"
        table.setdefault(measurement.query, {})[key] = measurement
    return table
