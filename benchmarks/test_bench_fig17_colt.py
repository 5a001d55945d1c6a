"""Figure 17: impact of COLT — simple trie vs. simple lazy trie vs. COLT.

The figure runs on the paper's row path, where the trie strategy decides
what gets built.  COLT builds a trie level only when a probe first reaches
it, so its summed build time must stay within :data:`COLT_BUILD_GATE` of the
smaller of the simple-trie and SLT sums.  The total run time shows no such
margin at this scale (COLT ~0.8-0.9x of the others), so it is printed, not
asserted.
"""

import pytest

from benchmarks.conftest import JOB_QUERIES, JOB_SCALE, run_queries
from repro.core.colt import TrieStrategy
from repro.core.engine import FreeJoinOptions
from repro.experiments.figures import run_fig17, format_figure

#: Summed COLT build seconds vs min(simple, SLT) summed build seconds
#: (measured 0.009 at JOB-like 0.1 and ~0.01 at smoke scale).
COLT_BUILD_GATE = 0.1


@pytest.mark.parametrize("strategy", [TrieStrategy.SIMPLE, TrieStrategy.SLT, TrieStrategy.COLT])
def test_fig17_trie_strategy(benchmark, job_workload, job_database, strategy):
    options = FreeJoinOptions(trie_strategy=strategy)
    total = benchmark.pedantic(
        run_queries,
        args=(job_database, job_workload, "freejoin", JOB_QUERIES),
        kwargs=dict(freejoin_options=options),
        rounds=1, iterations=1,
    )
    assert total >= 0.0


def test_fig17_report(benchmark):
    result = benchmark.pedantic(
        run_fig17, kwargs=dict(scale=JOB_SCALE, query_names=JOB_QUERIES, repeats=3),
        rounds=1, iterations=1,
    )
    print()
    print(format_figure(result))
    assert result["summary"]["colt_vs_simple"]["count"] == len(JOB_QUERIES)
    build = result["summary"]["build_seconds"]
    assert build["colt"] <= COLT_BUILD_GATE * min(build["simple"], build["slt"]), (
        f"COLT built {build['colt'] * 1000:.2f} ms vs simple "
        f"{build['simple'] * 1000:.2f} ms / SLT {build['slt'] * 1000:.2f} ms "
        f"(gate <= {COLT_BUILD_GATE}x the smaller)"
    )
