"""Figure 19: LSQB with factorized output vs. flat output (Free Join only)."""

import pytest

from benchmarks.conftest import LSQB_SCALE_FACTORS
from repro.core.engine import FreeJoinOptions
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.experiments.figures import run_fig19, format_figure

#: q1 and q4 are the queries whose output most exceeds their input.
FACTORIZED_QUERIES = ["q1", "q4", "q5"]


@pytest.mark.parametrize("variant", ["flat", "factorized"])
def test_fig19_output_mode(benchmark, lsqb_workloads, variant):
    workload = lsqb_workloads[max(LSQB_SCALE_FACTORS)]
    database = Database(workload.catalog)
    options = FreeJoinOptions(output="rows" if variant == "flat" else "factorized")

    def run():
        total = 0.0
        for name in FACTORIZED_QUERIES:
            outcome = database.execute(
                workload.query(name).sql,
                options=ExecOptions(engine="freejoin", freejoin_options=options),
                name=name,
            )
            total += outcome.report.total_seconds
        return total

    total = benchmark.pedantic(run, rounds=1, iterations=1)
    assert total >= 0.0


def test_fig19_report(benchmark):
    result = benchmark.pedantic(
        run_fig19,
        kwargs=dict(scale_factors=LSQB_SCALE_FACTORS, query_names=FACTORIZED_QUERIES),
        rounds=1, iterations=1,
    )
    print()
    print(format_figure(result))
    assert {m.variant for m in result["measurements"]} == {"flat", "factorized"}
