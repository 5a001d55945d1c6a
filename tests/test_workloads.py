"""Tests for the workload generators (synthetic, JOB-like, LSQB-like)."""

import time

import pytest

from repro.engine.options import ExecOptions
from repro.errors import WorkloadError
from repro.query.hypergraph import classify_query
from repro.query.planner import Planner
from repro.workloads.job import generate_job_workload
from repro.workloads.lsqb import generate_lsqb_workload
from repro.workloads.synthetic import (
    chain_workload,
    clover_instance,
    clover_query,
    cycle_workload,
    star_workload,
    triangle_instance,
    zipf_sample,
)


class TestSynthetic:
    def test_clover_instance_matches_figure3(self):
        tables = clover_instance(4)
        # Each relation has 2n + 1 tuples.
        assert all(t.num_rows == 9 for t in tables.values())
        # Only x0 (=0) appears in all three relations.
        shared = (
            set(tables["R"].column("x").values)
            & set(tables["S"].column("x").values)
            & set(tables["T"].column("x").values)
        )
        assert shared == {0}
        query = clover_query(tables)
        assert classify_query(query) == "acyclic"

    def test_clover_requires_positive_n(self):
        with pytest.raises(WorkloadError):
            clover_instance(0)

    def test_triangle_instance_shapes(self):
        tables = triangle_instance(30, domain=7, skew=0.5, seed=1)
        assert set(tables) == {"R", "S", "T"}
        assert all(t.num_rows == 30 for t in tables.values())

    def test_chain_star_cycle_workloads(self):
        chain = chain_workload(4, rows_per_relation=10, domain=4, seed=1)
        assert classify_query(chain.query) == "acyclic"
        star = star_workload(3, rows_per_relation=10, domain=4, seed=1)
        assert classify_query(star.query) == "acyclic"
        cycle = cycle_workload(4, rows_per_relation=10, domain=4, seed=1)
        assert classify_query(cycle.query) == "cyclic"

    def test_workload_parameter_validation(self):
        with pytest.raises(WorkloadError):
            chain_workload(0)
        with pytest.raises(WorkloadError):
            star_workload(0)
        with pytest.raises(WorkloadError):
            cycle_workload(1)

    def test_zipf_sample_bounds_and_skew(self):
        import random

        rng = random.Random(0)
        uniform = [zipf_sample(rng, 100, 0.0) for _ in range(2000)]
        skewed = [zipf_sample(rng, 100, 1.0) for _ in range(2000)]
        assert all(0 <= v < 100 for v in uniform + skewed)
        # Skewed sampling concentrates on small values.
        assert sum(1 for v in skewed if v < 10) > sum(1 for v in uniform if v < 10)
        with pytest.raises(WorkloadError):
            zipf_sample(rng, 0, 1.0)

    def test_determinism(self):
        first = triangle_instance(20, domain=5, seed=42)
        second = triangle_instance(20, domain=5, seed=42)
        assert first["R"].to_rows() == second["R"].to_rows()


class TestJobWorkload:
    def test_generation_and_schema(self):
        workload = generate_job_workload(scale=0.05, seed=3)
        names = set(workload.catalog.table_names())
        assert {"title", "cast_info", "movie_info", "movie_keyword",
                "movie_companies", "company_name", "keyword", "info_type",
                "name", "kind_type", "company_type", "role_type"} <= names
        assert len(workload.queries) == 20
        assert workload.query("q13").name == "q13"
        with pytest.raises(KeyError):
            workload.query("q99")

    def test_scale_controls_row_counts(self):
        small = generate_job_workload(scale=0.05, seed=3)
        large = generate_job_workload(scale=0.1, seed=3)
        assert (
            large.catalog.get("cast_info").num_rows
            > small.catalog.get("cast_info").num_rows
        )

    def test_all_queries_plan_and_are_acyclic(self):
        workload = generate_job_workload(scale=0.03, seed=3)
        planner = Planner(workload.catalog)
        for query in workload.queries:
            logical = planner.plan_sql(query.sql, name=query.name)
            assert classify_query(logical.query) == "acyclic", query.name

    def test_queries_are_nonempty_at_default_scale(self):
        from repro.engine.session import Database

        workload = generate_job_workload(scale=0.15, seed=42)
        db = Database(workload.catalog)
        for query in workload.queries[:6]:
            outcome = db.execute(query.sql, options=ExecOptions(engine="generic"), name=query.name)
            assert outcome.join_result.count() > 0, query.name


class TestLsqbWorkload:
    def test_generation_and_queries(self):
        workload = generate_lsqb_workload(scale_factor=0.1, seed=5)
        assert set(workload.query_names()) == {"q1", "q2", "q3", "q4", "q5"}
        assert workload.catalog.get("knows").num_rows > 0
        categories = {q.name: q.category for q in workload.queries}
        assert categories["q2"] == "cyclic"
        assert categories["q4"] == "acyclic"

    def test_cyclicity_classification_matches_category(self):
        workload = generate_lsqb_workload(scale_factor=0.1, seed=5)
        planner = Planner(workload.catalog)
        for query in workload.queries:
            logical = planner.plan_sql(query.sql, name=query.name)
            assert classify_query(logical.query) == query.category, query.name

    def test_scale_factor_scales_edges(self):
        small = generate_lsqb_workload(scale_factor=0.1)
        large = generate_lsqb_workload(scale_factor=0.3)
        assert large.catalog.get("knows").num_rows > small.catalog.get("knows").num_rows

    def test_knows_has_no_self_or_duplicate_edges(self):
        workload = generate_lsqb_workload(scale_factor=0.2, seed=5)
        knows = workload.catalog.get("knows")
        pairs = list(zip(knows.column("person1_id").values,
                         knows.column("person2_id").values))
        assert all(a != b for a, b in pairs)
        assert len(set(pairs)) == len(pairs)

    @pytest.mark.parametrize("scale_factor", [0.01, 0.02])
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_tiny_scales_return_with_every_reachable_pair(self, scale_factor, seed):
        """The last person is never drawn, so fewer ``knows`` pairs exist
        than the scale asks for: generation stops instead of spinning."""
        started = time.monotonic()
        workload = generate_lsqb_workload(scale_factor=scale_factor, seed=seed)
        assert time.monotonic() - started < 5
        n_person = workload.catalog.get("person").num_rows
        knows = workload.catalog.get("knows")
        pairs = set(zip(knows.column("person1_id").values, knows.column("person2_id").values))
        assert len(pairs) == knows.num_rows == (n_person - 1) * (n_person - 2)


class TestGeneratorDeterminism:
    """The JOB/LSQB generators must be pure functions of (scale, seed).

    CI smoke benchmarks pin ``REPRO_SEED`` (see ``benchmarks/conftest.py``)
    and compare numbers across runs; that is only meaningful if a fixed seed
    reproduces the data bit for bit.
    """

    def test_job_generator_is_deterministic(self):
        first = generate_job_workload(scale=0.05, seed=42)
        second = generate_job_workload(scale=0.05, seed=42)
        assert first.catalog.table_names() == second.catalog.table_names()
        for name in first.catalog.table_names():
            assert (
                first.catalog.get(name).to_rows()
                == second.catalog.get(name).to_rows()
            ), name
        assert [q.sql for q in first.queries] == [q.sql for q in second.queries]

    def test_job_generator_seed_changes_data(self):
        first = generate_job_workload(scale=0.05, seed=42)
        second = generate_job_workload(scale=0.05, seed=43)
        assert (
            first.catalog.get("cast_info").to_rows()
            != second.catalog.get("cast_info").to_rows()
        )

    def test_lsqb_generator_is_deterministic(self):
        first = generate_lsqb_workload(scale_factor=0.1, seed=7)
        second = generate_lsqb_workload(scale_factor=0.1, seed=7)
        assert first.catalog.table_names() == second.catalog.table_names()
        for name in first.catalog.table_names():
            assert (
                first.catalog.get(name).to_rows()
                == second.catalog.get(name).to_rows()
            ), name

    def test_lsqb_generator_seed_changes_data(self):
        first = generate_lsqb_workload(scale_factor=0.1, seed=7)
        second = generate_lsqb_workload(scale_factor=0.1, seed=8)
        assert (
            first.catalog.get("knows").to_rows()
            != second.catalog.get("knows").to_rows()
        )
