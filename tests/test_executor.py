"""Tests for the Free Join executor: correctness, bag semantics, work counters."""

import pytest

from repro.core.colt import TrieStrategy, build_tries
from repro.core.convert import binary_to_free_join
from repro.core.engine import FreeJoinEngine, FreeJoinOptions
from repro.core.executor import FreeJoinExecutor
from repro.core.factor import factor_plan
from repro.core.plan import FreeJoinPlan
from repro.engine.output import CountSink, RowSink
from repro.engine.pipeline import RunContext
from repro.errors import PlanError
from repro.optimizer.binary_plan import BinaryPlan
from repro.query.atoms import Subatom
from repro.query.builder import QueryBuilder
from repro.storage.table import Table
from repro.workloads.synthetic import clover_instance, clover_query

from tests.conftest import nested_loop_join


def run_plan(query, plan, strategy=TrieStrategy.COLT, batch_size=1,
             dynamic_cover=True, sink_cls=RowSink):
    atoms = {atom.name: atom for atom in query.atoms}
    schemas = {
        name: [tuple(s.variables) for s in plan.subatoms_of(name)] for name in atoms
    }
    tries = build_tries(atoms, schemas, strategy)
    sink = sink_cls(query.output_variables)
    executor = FreeJoinExecutor(
        plan, query.output_variables, sink,
        dynamic_cover=dynamic_cover, batch_size=batch_size,
    )
    executor.run(tries)
    return sink.result(), executor


def sub(rel, *vars_):
    return Subatom(rel, vars_)


@pytest.fixture
def clover3():
    tables = clover_instance(3)
    return clover_query(tables)


class TestExecutorCorrectness:
    def test_binary_style_plan_matches_reference(self, clover3):
        atoms = {a.name: a for a in clover3.atoms}
        plan = binary_to_free_join(["R", "S", "T"], atoms)
        result, _ = run_plan(clover3, plan)
        assert sorted(result.iter_rows(), key=repr) == nested_loop_join(clover3)

    def test_factored_plan_matches_reference(self, clover3):
        atoms = {a.name: a for a in clover3.atoms}
        plan = factor_plan(binary_to_free_join(["R", "S", "T"], atoms))
        result, _ = run_plan(clover3, plan)
        assert sorted(result.iter_rows(), key=repr) == nested_loop_join(clover3)

    def test_generic_join_style_plan_matches_reference(self, clover3):
        plan = FreeJoinPlan.from_lists([
            [sub("R", "x"), sub("S", "x"), sub("T", "x")],
            [sub("R", "a")],
            [sub("S", "b")],
            [sub("T", "c")],
        ])
        result, _ = run_plan(clover3, plan)
        assert sorted(result.iter_rows(), key=repr) == nested_loop_join(clover3)

    @pytest.mark.parametrize("strategy", list(TrieStrategy))
    def test_all_trie_strategies_agree(self, clover3, strategy):
        atoms = {a.name: a for a in clover3.atoms}
        plan = factor_plan(binary_to_free_join(["R", "S", "T"], atoms))
        result, _ = run_plan(clover3, plan, strategy=strategy)
        assert sorted(result.iter_rows(), key=repr) == nested_loop_join(clover3)

    @pytest.mark.parametrize("batch_size", [1, 2, 7, 1000])
    def test_vectorization_batch_sizes_agree(self, clover3, batch_size):
        atoms = {a.name: a for a in clover3.atoms}
        plan = factor_plan(binary_to_free_join(["R", "S", "T"], atoms))
        result, _ = run_plan(clover3, plan, batch_size=batch_size)
        assert sorted(result.iter_rows(), key=repr) == nested_loop_join(clover3)

    def test_static_cover_agrees_with_dynamic(self, clover3):
        plan = FreeJoinPlan.from_lists([
            [sub("R", "x"), sub("S", "x"), sub("T", "x")],
            [sub("R", "a")],
            [sub("S", "b")],
            [sub("T", "c")],
        ])
        dynamic, _ = run_plan(clover3, plan, dynamic_cover=True)
        static, _ = run_plan(clover3, plan, dynamic_cover=False)
        assert sorted(dynamic.iter_rows(), key=repr) == sorted(static.iter_rows(), key=repr)

    def test_bag_semantics_duplicates_multiply(self):
        r = Table.from_rows("r", ["x"], [(1,), (1,)])
        s = Table.from_rows("s", ["x", "y"], [(1, 7), (1, 7), (1, 8)])
        query = (
            QueryBuilder().add_atom("r", r, ["x"]).add_atom("s", s, ["x", "y"]).build()
        )
        atoms = {a.name: a for a in query.atoms}
        plan = binary_to_free_join(["r", "s"], atoms)
        result, _ = run_plan(query, plan)
        # 2 copies of r(1) times 3 s-rows = 6 output rows over (x, y),
        # 4 of them equal to (1, 7).
        rows = sorted(result.iter_rows())
        assert len(rows) == 6
        assert rows.count((1, 7)) == 4

    def test_count_sink_counts_without_materializing(self, clover3):
        atoms = {a.name: a for a in clover3.atoms}
        plan = binary_to_free_join(["R", "S", "T"], atoms)
        result, _ = run_plan(clover3, plan, sink_cls=CountSink)
        assert result.count() == len(nested_loop_join(clover3))
        assert result.batches == []

    def test_empty_probe_result_yields_empty_output(self):
        r = Table.from_rows("r", ["x"], [(1,)])
        s = Table.from_rows("s", ["x", "y"], [(2, 7)])
        query = (
            QueryBuilder().add_atom("r", r, ["x"]).add_atom("s", s, ["x", "y"]).build()
        )
        atoms = {a.name: a for a in query.atoms}
        result, executor = run_plan(query, binary_to_free_join(["r", "s"], atoms))
        assert result.count() == 0
        assert executor.stats.failed_probes >= 1

    def test_missing_trie_rejected(self, clover3):
        atoms = {a.name: a for a in clover3.atoms}
        plan = binary_to_free_join(["R", "S", "T"], atoms)
        schemas = {n: [tuple(s.variables) for s in plan.subatoms_of(n)] for n in atoms}
        tries = build_tries(atoms, schemas)
        del tries["T"]
        sink = RowSink(clover3.output_variables)
        executor = FreeJoinExecutor(plan, clover3.output_variables, sink)
        with pytest.raises(Exception):
            executor.run(tries)

    def test_unbound_output_variable_rejected(self, clover3):
        atoms = {a.name: a for a in clover3.atoms}
        plan = binary_to_free_join(["R", "S", "T"], atoms)
        with pytest.raises(PlanError):
            FreeJoinExecutor(plan, ["x", "nonexistent"], RowSink(["x", "nonexistent"]))


class TestFactoringEffect:
    def test_factoring_reduces_work_on_skewed_clover(self):
        """The paper's O(n^2) vs O(n) argument, observed via probe counters."""
        tables = clover_instance(60)
        query = clover_query(tables)
        atoms = {a.name: a for a in query.atoms}
        naive = binary_to_free_join(["R", "S", "T"], atoms)
        factored = factor_plan(naive)
        _, naive_exec = run_plan(query, naive)
        _, factored_exec = run_plan(query, factored)
        naive_work = naive_exec.stats.iterations + naive_exec.stats.probes
        factored_work = factored_exec.stats.iterations + factored_exec.stats.probes
        assert factored_work * 5 < naive_work

    def test_factoring_preserves_output(self):
        tables = clover_instance(10)
        query = clover_query(tables)
        atoms = {a.name: a for a in query.atoms}
        naive = binary_to_free_join(["R", "S", "T"], atoms)
        factored = factor_plan(naive)
        naive_result, _ = run_plan(query, naive)
        factored_result, _ = run_plan(query, factored)
        assert naive_result.same_bag(factored_result)


class TestEngineEndToEnd:
    def test_engine_runs_bushy_plans(self, clover3):
        from repro.optimizer.binary_plan import JoinNode, LeafNode

        bushy = BinaryPlan(JoinNode(
            JoinNode(LeafNode("R"), LeafNode("S")),
            LeafNode("T"),
        ))
        report = FreeJoinEngine(FreeJoinOptions()).run(clover3, bushy)
        assert sorted(report.result.iter_rows(), key=repr) == nested_loop_join(clover3)
        assert report.details["num_pipelines"] == 1

        really_bushy = BinaryPlan(JoinNode(
            JoinNode(LeafNode("R"), LeafNode("S")),
            JoinNode(LeafNode("T"), LeafNode("R")),
        ))
        # T JOIN R is a separate pipeline materialized first; the reused
        # relation name R is fine because pipelines resolve atoms by name.
        report = FreeJoinEngine(FreeJoinOptions()).run(clover3, really_bushy)
        assert report.details["num_pipelines"] == 2

    def test_engine_run_with_hand_written_plan(self, clover3):
        plan = FreeJoinPlan.from_lists([
            [sub("R", "x"), sub("S", "x"), sub("T", "x")],
            [sub("R", "a")],
            [sub("S", "b")],
            [sub("T", "c")],
        ])
        report = FreeJoinEngine().run_with_plan(clover3, plan)
        assert sorted(report.result.iter_rows(), key=repr) == nested_loop_join(clover3)
        assert report.details["stats"].outputs >= 1
        # The contract is "exercises the trie executor directly": the kernels
        # never claim a hand-written plan, serially or in any steal task.
        parallel = FreeJoinEngine().run_with_plan(
            clover3, plan, context=RunContext(workers=2, parallel_mode="thread")
        )
        assert list(parallel.result.iter_rows()) == list(report.result.iter_rows())
        assert parallel.details["parallel"][0]["tasks"] > 1
        for run in (report, parallel):
            assert run.details["kernels"]["mode"] == "fallback"
            assert set(run.details["kernels"]["fallbacks"]) == {"hand-written-plan"}

    def test_factorized_output_counts_match_flat(self, clover3):
        plan = BinaryPlan.left_deep(["R", "S", "T"])
        flat = FreeJoinEngine(FreeJoinOptions(output="rows")).run(clover3, plan)
        factorized = FreeJoinEngine(FreeJoinOptions(output="factorized")).run(clover3, plan)
        assert factorized.result.is_factorized()
        assert factorized.result.count() == flat.result.count()
        assert sorted(factorized.result.iter_rows(), key=repr) == sorted(
            flat.result.iter_rows(), key=repr
        )

    def test_unfactored_option_behaves_like_binary_join(self, clover3):
        from repro.binaryjoin.executor import BinaryJoinEngine

        plan = BinaryPlan.left_deep(["R", "S", "T"])
        unfactored = FreeJoinEngine(FreeJoinOptions(factor=False)).run(clover3, plan)
        binary = BinaryJoinEngine().run(clover3, plan)
        assert unfactored.result.same_bag(binary.result)
