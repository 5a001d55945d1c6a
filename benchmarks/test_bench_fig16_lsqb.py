"""Figure 16: LSQB run time across scale factors (q1-q5, three engines + Kùzu role)."""

import pytest

from benchmarks.conftest import ENGINES, LSQB_SCALE_FACTORS
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.experiments.figures import run_fig16, format_figure

LSQB_QUERIES = ["q1", "q2", "q3", "q4", "q5"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scale_factor", LSQB_SCALE_FACTORS)
def test_fig16_engine_by_scale_factor(benchmark, lsqb_workloads, engine, scale_factor):
    """One benchmark row per (engine, scale factor) over all five queries."""
    workload = lsqb_workloads[scale_factor]
    database = Database(workload.catalog)

    def run():
        total = 0.0
        for name in LSQB_QUERIES:
            outcome = database.execute(
                workload.query(name).sql, options=ExecOptions(engine=engine), name=name
            )
            total += outcome.report.total_seconds
        return total

    total = benchmark.pedantic(run, rounds=1, iterations=1)
    assert total >= 0.0


def test_fig16_report(benchmark):
    result = benchmark.pedantic(
        run_fig16, kwargs=dict(scale_factors=LSQB_SCALE_FACTORS), rounds=1, iterations=1
    )
    print()
    print(format_figure(result))
    engines = {m.engine for m in result["measurements"]}
    assert "generic-unoptimized" in engines
