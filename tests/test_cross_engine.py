"""Integration tests: the three engines must agree on every query shape."""

import pytest

from repro.core.engine import FreeJoinOptions
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.optimizer.binary_plan import BinaryPlan
from repro.workloads.synthetic import (
    chain_workload,
    clover_instance,
    clover_query,
    cycle_workload,
    star_workload,
    triangle_instance,
    triangle_query,
)

from tests.conftest import assert_engines_agree, nested_loop_join


class TestSyntheticShapes:
    def test_clover_skewed_instance(self):
        tables = clover_instance(8)
        query = clover_query(tables)
        rows = assert_engines_agree(query, reference=nested_loop_join(query))
        assert len(rows) == 1  # only the hub tuple joins across all three

    def test_triangle_uniform(self):
        tables = triangle_instance(50, domain=10, seed=1)
        query = triangle_query(tables)
        assert_engines_agree(query, reference=nested_loop_join(query))

    def test_triangle_skewed(self):
        tables = triangle_instance(50, domain=10, skew=1.2, seed=2)
        query = triangle_query(tables)
        assert_engines_agree(query, reference=nested_loop_join(query))

    @pytest.mark.parametrize("length", [2, 3, 5])
    def test_chains(self, length):
        workload = chain_workload(length, rows_per_relation=25, domain=6, seed=length)
        assert_engines_agree(workload.query, reference=nested_loop_join(workload.query))

    @pytest.mark.parametrize("arms", [2, 3, 4])
    def test_stars(self, arms):
        workload = star_workload(arms, rows_per_relation=20, domain=6, skew=0.8, seed=arms)
        assert_engines_agree(workload.query, reference=nested_loop_join(workload.query))

    @pytest.mark.parametrize("length", [3, 4])
    def test_cycles(self, length):
        workload = cycle_workload(length, rows_per_relation=20, domain=5, seed=length)
        assert_engines_agree(workload.query, reference=nested_loop_join(workload.query))

    def test_explicit_poor_left_deep_plan(self):
        # Even a deliberately bad plan order must keep all engines correct.
        tables = clover_instance(6)
        query = clover_query(tables)
        plan = BinaryPlan.left_deep(["T", "S", "R"])
        assert_engines_agree(query, binary_plan=plan, reference=nested_loop_join(query))

    def test_freejoin_variants_agree(self):
        from repro.core.colt import TrieStrategy

        tables = triangle_instance(40, domain=8, skew=0.5, seed=9)
        query = triangle_query(tables)
        reference = nested_loop_join(query)
        for options in (
            FreeJoinOptions(trie_strategy=TrieStrategy.SIMPLE),
            FreeJoinOptions(trie_strategy=TrieStrategy.SLT),
            FreeJoinOptions(batch_size=16),
            FreeJoinOptions(dynamic_cover=False),
            FreeJoinOptions(factor=False),
        ):
            assert_engines_agree(query, freejoin_options=options, reference=reference)


class TestBenchmarkWorkloadsEndToEnd:
    def test_job_queries_agree_at_tiny_scale(self):
        from repro.workloads.job import generate_job_workload

        workload = generate_job_workload(scale=0.03, seed=13)
        db = Database(workload.catalog)
        for bench_query in workload.queries[:10]:
            results = {
                engine: sorted(
                    db.execute(bench_query.sql, options=ExecOptions(engine=engine)).rows()
                )
                for engine in ("freejoin", "binary", "generic")
            }
            assert results["freejoin"] == results["binary"] == results["generic"], (
                f"{bench_query.name} disagrees across engines"
            )

    def test_lsqb_queries_agree_at_tiny_scale(self):
        from repro.workloads.lsqb import generate_lsqb_workload

        workload = generate_lsqb_workload(scale_factor=0.05, seed=17)
        db = Database(workload.catalog)
        for bench_query in workload.queries:
            counts = {
                engine: db.execute(bench_query.sql, options=ExecOptions(engine=engine)).scalar()
                for engine in ("freejoin", "binary", "generic")
            }
            assert len(set(counts.values())) == 1, (
                f"{bench_query.name} disagrees across engines: {counts}"
            )
