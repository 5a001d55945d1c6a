"""Figure 14: JOB run time — Free Join and Generic Join vs. binary join.

The pytest-benchmark table compares the three engines over the same JOB-like
query subset; the printed scatter and headline summary reproduce the series
and the geomean/max speedups the paper reports in Section 5.2, on the
paper's row path.  The figure also runs the production kernel path as a
labelled series, and this module asserts two things about it: the kernels
take at most :data:`KERNELS_GATE` of the paper path's summed engine time,
and on the default path no bench query falls back to the row path.
"""

import pytest

from benchmarks.conftest import ENGINES, JOB_QUERIES, JOB_SCALE, LSQB_SCALE_FACTORS, run_queries
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.experiments.figures import format_figure, run_fig14
from repro.kernels import kernels_enabled

#: Summed kernel-path seconds vs summed paper-path seconds over the same runs
#: (measured 0.16 at JOB-like 0.1 and 0.15-0.17 at smoke scale).
KERNELS_GATE = 0.5


@pytest.mark.parametrize("engine", ENGINES)
def test_fig14_engine_comparison(benchmark, job_workload, job_database, engine):
    """One benchmark row per engine over the shared JOB query subset."""
    total = benchmark.pedantic(
        run_queries,
        args=(job_database, job_workload, engine, JOB_QUERIES),
        rounds=1, iterations=1,
    )
    assert total >= 0.0


def test_fig14_report(benchmark):
    """Regenerate the Figure 14 series and headline summary; gate the kernels."""
    result = benchmark.pedantic(
        run_fig14, kwargs=dict(scale=JOB_SCALE, query_names=JOB_QUERIES, repeats=3),
        rounds=1, iterations=1,
    )
    print()
    print(format_figure(result))
    measurements = result["measurements"]
    assert len(measurements) == 2 * len(JOB_QUERIES) * len(ENGINES)
    paper = [m for m in measurements if m.path == "paper"]
    assert paper and all(m.build_seconds > 0 for m in paper), (
        "the paper path builds its tries and hash tables on every run"
    )
    seconds = result["path_seconds"]
    assert seconds["kernels"] <= KERNELS_GATE * seconds["paper"], (
        f"kernel path {seconds['kernels'] * 1000:.1f} ms vs paper path "
        f"{seconds['paper'] * 1000:.1f} ms (gate <= {KERNELS_GATE}x)"
    )


def test_default_path_never_falls_back(job_workload, lsqb_workloads):
    """Every bench query on every engine stays on the kernels by default."""
    lsqb = lsqb_workloads[min(LSQB_SCALE_FACTORS)]
    fallbacks = []
    with kernels_enabled(True):
        for workload in (job_workload, lsqb):
            database = Database(workload.catalog)
            for query in workload.queries:
                for engine in ENGINES:
                    outcome = database.execute(
                        query.sql, name=query.name, options=ExecOptions(engine=engine)
                    )
                    kernels = outcome.report.details["kernels"]
                    if "fallbacks" in kernels:
                        fallbacks.append((query.name, engine, kernels["fallbacks"]))
    assert not fallbacks, f"row-path fallbacks on the default path: {fallbacks}"
