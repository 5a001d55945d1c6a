"""The clover micro-workload of Figure 3 (Sections 1, 5.2).

The factored Free Join plan is asymptotically better than the binary plan
here (O(n) vs O(n^2)).  The headline speedup table itself is Figure 14's
summary, printed by ``test_bench_fig14_job.py``.
"""

import pytest

from repro.binaryjoin.executor import BinaryJoinEngine, BinaryJoinOptions
from repro.core.engine import FreeJoinEngine, FreeJoinOptions
from repro.genericjoin.executor import GenericJoinEngine, GenericJoinOptions
from repro.optimizer.binary_plan import BinaryPlan
from repro.workloads.synthetic import clover_instance, clover_query


@pytest.mark.parametrize("engine", ["freejoin", "binary", "generic"])
def test_clover_skew_microbenchmark(benchmark, engine):
    """The Figure 3 instance: Free Join's factoring pays off under skew."""
    tables = clover_instance(300)
    query = clover_query(tables)
    plan = BinaryPlan.left_deep(["R", "S", "T"])
    engines = {
        "freejoin": lambda: FreeJoinEngine(FreeJoinOptions(output="count")).run(query, plan),
        "binary": lambda: BinaryJoinEngine(BinaryJoinOptions(output="count")).run(query, plan),
        "generic": lambda: GenericJoinEngine(GenericJoinOptions(output="count")).run(query, plan),
    }
    report = benchmark.pedantic(engines[engine], rounds=1, iterations=1)
    assert report.result.count() == 1
