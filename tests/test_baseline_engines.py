"""Tests for the binary hash join and Generic Join baseline engines."""

import pytest

from repro.binaryjoin.executor import BinaryJoinEngine, BinaryJoinOptions
from repro.binaryjoin.hash_table import JoinHashTable
from repro.errors import PlanError
from repro.genericjoin.executor import GenericJoinEngine, GenericJoinOptions
from repro.genericjoin.trie import build_hash_trie
from repro.genericjoin.variable_order import (
    default_variable_order,
    variable_order_from_binary_plan,
    variable_order_from_free_join_plan,
)
from repro.optimizer.binary_plan import BinaryPlan, JoinNode, LeafNode
from repro.query.atoms import Atom
from repro.query.builder import QueryBuilder
from repro.storage.table import Table
from repro.workloads.synthetic import (
    clover_instance,
    clover_query,
    triangle_instance,
    triangle_query,
)

from tests.conftest import nested_loop_join


@pytest.fixture
def clover5():
    tables = clover_instance(5)
    return clover_query(tables)


class TestJoinHashTable:
    def test_single_key_uses_bare_values(self):
        table = Table.from_rows("s", ["y", "z"], [(1, 5), (1, 6), (2, 7)])
        atom = Atom("s", table, ["y", "z"])
        hash_table = JoinHashTable(atom, ["y"])
        assert len(hash_table) == 2
        assert hash_table.probe(1) == [0, 1]
        assert hash_table.probe(99) == []
        assert hash_table.row_values(2) == (2, 7)
        assert hash_table.make_key({"y": 2}) == 2

    def test_multi_key_uses_tuples(self):
        table = Table.from_rows("t", ["a", "b", "c"], [(1, 2, 3), (1, 2, 4)])
        atom = Atom("t", table, ["a", "b", "c"])
        hash_table = JoinHashTable(atom, ["a", "b"])
        assert hash_table.probe((1, 2)) == [0, 1]
        assert hash_table.make_key({"a": 1, "b": 2}) == (1, 2)


class TestBinaryJoinEngine:
    def test_left_deep_matches_reference(self, clover5):
        plan = BinaryPlan.left_deep(["R", "S", "T"])
        report = BinaryJoinEngine().run(clover5, plan)
        assert sorted(report.result.iter_rows(), key=repr) == nested_loop_join(clover5)

    def test_bushy_plan_materializes_intermediate(self, clover5):
        bushy = BinaryPlan(JoinNode(
            LeafNode("R"), JoinNode(LeafNode("S"), LeafNode("T")),
        ))
        report = BinaryJoinEngine().run(clover5, bushy)
        assert report.details["num_pipelines"] == 2
        assert sorted(report.result.iter_rows(), key=repr) == nested_loop_join(clover5)

    def test_count_output(self, clover5):
        plan = BinaryPlan.left_deep(["R", "S", "T"])
        report = BinaryJoinEngine(BinaryJoinOptions(output="count")).run(clover5, plan)
        assert report.result.count() == len(nested_loop_join(clover5))

    def test_single_atom_query(self):
        table = Table.from_rows("r", ["x", "y"], [(1, 2), (3, 4)])
        query = QueryBuilder().add_atom("r", table, ["x", "y"]).build()
        report = BinaryJoinEngine().run(query, BinaryPlan.left_deep(["r"]))
        assert sorted(report.result.iter_rows()) == [(1, 2), (3, 4)]

    def test_cartesian_product(self):
        r = Table.from_rows("r", ["x"], [(1,), (2,)])
        s = Table.from_rows("s", ["y"], [(7,), (8,)])
        query = (
            QueryBuilder().add_atom("r", r, ["x"]).add_atom("s", s, ["y"]).build()
        )
        report = BinaryJoinEngine().run(query, BinaryPlan.left_deep(["r", "s"]))
        assert report.result.count() == 4

    def test_unknown_output_mode_rejected(self):
        r = Table.from_rows("r", ["x"], [(1,), (2,)])
        query = QueryBuilder().add_atom("r", r, ["x"]).build()
        plan = BinaryPlan.left_deep(["r"])
        with pytest.raises(PlanError, match="unknown output mode 'nope'"):
            BinaryJoinEngine(BinaryJoinOptions(output="nope")).run(query, plan)
        with pytest.raises(PlanError, match="unknown output mode 'nope'"):
            GenericJoinEngine(GenericJoinOptions(output="nope")).run(query, plan)


class TestHashTrie:
    def test_trie_structure_and_multiplicity(self):
        table = Table.from_rows("r", ["x", "y"], [(1, 2), (1, 2), (1, 3)])
        atom = Atom("r", table, ["x", "y"])
        trie = build_hash_trie(atom, ["x", "y"])
        assert trie.level_count() == 2
        assert trie.key_count() == 1
        assert trie.root[1][2] == 2
        assert trie.root[1][3] == 1

    def test_variable_order_restricted_to_atom(self):
        table = Table.from_rows("r", ["x", "y"], [(1, 2)])
        atom = Atom("r", table, ["x", "y"])
        trie = build_hash_trie(atom, ["z", "y", "x"])
        assert trie.variable_order == ("y", "x")

    def test_missing_variable_rejected(self):
        table = Table.from_rows("r", ["x", "y"], [(1, 2)])
        atom = Atom("r", table, ["x", "y"])
        with pytest.raises(PlanError):
            build_hash_trie(atom, ["x"])


class TestVariableOrders:
    def test_order_from_binary_plan_follows_leaves(self, clover5):
        plan = BinaryPlan.left_deep(["S", "T", "R"])
        order = variable_order_from_binary_plan(clover5, plan)
        assert order[0] == "x"
        assert set(order) == {"x", "a", "b", "c"}
        assert order.index("b") < order.index("a")

    def test_order_from_free_join_plan(self, clover5):
        from repro.core.convert import binary_to_free_join
        from repro.core.factor import factor_plan

        atoms = {a.name: a for a in clover5.atoms}
        fj = factor_plan(binary_to_free_join(["R", "S", "T"], atoms))
        order = variable_order_from_free_join_plan(clover5, fj)
        assert set(order) == {"x", "a", "b", "c"}
        assert order[0] == "x"

    def test_default_order_puts_join_variables_first(self, clover5):
        order = default_variable_order(clover5)
        assert order[0] == "x"


class TestGenericJoinEngine:
    def test_matches_reference_on_clover(self, clover5):
        report = GenericJoinEngine().run(clover5, BinaryPlan.left_deep(["R", "S", "T"]))
        assert sorted(report.result.iter_rows(), key=repr) == nested_loop_join(clover5)

    def test_matches_reference_on_triangle(self):
        tables = triangle_instance(40, domain=8, skew=0.3, seed=11)
        query = triangle_query(tables)
        report = GenericJoinEngine().run(query)
        assert sorted(report.result.iter_rows(), key=repr) == nested_loop_join(query)

    def test_explicit_variable_order(self, clover5):
        options = GenericJoinOptions(variable_order=["c", "b", "a", "x"])
        # A poor order (join variable last) must still be correct.
        report = GenericJoinEngine(options).run(clover5)
        assert sorted(report.result.iter_rows(), key=repr) == nested_loop_join(clover5)

    def test_invalid_variable_order_rejected(self, clover5):
        with pytest.raises(PlanError):
            GenericJoinEngine(GenericJoinOptions(variable_order=["x"])).run(clover5)
        with pytest.raises(PlanError):
            GenericJoinEngine(
                GenericJoinOptions(variable_order=["x", "a", "b", "c", "x"])
            ).run(clover5)

    def test_bag_semantics(self):
        r = Table.from_rows("r", ["x"], [(1,), (1,)])
        s = Table.from_rows("s", ["x", "y"], [(1, 7), (1, 7)])
        query = (
            QueryBuilder().add_atom("r", r, ["x"]).add_atom("s", s, ["x", "y"]).build()
        )
        report = GenericJoinEngine().run(query)
        assert report.result.count() == 4

    def test_count_output(self, clover5):
        report = GenericJoinEngine(GenericJoinOptions(output="count")).run(clover5)
        assert report.result.count() == len(nested_loop_join(clover5))
        assert report.build_seconds >= 0.0
