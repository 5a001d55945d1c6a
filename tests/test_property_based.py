"""Property-based tests (hypothesis) for core invariants.

These tests generate small random relations and check that:

* all three engines agree with a brute-force nested-loop reference join,
* COLT lookups agree with a dictionary built eagerly from the same data,
* plan conversion + factoring always yields valid plans with unchanged
  semantics,
* the GYO acyclicity test agrees with a brute-force join-tree search on small
  hypergraphs,
* parallel execution (both schedulers) of randomly generated acyclic and
  cyclic conjunctive queries matches serial execution on every engine.
"""

from __future__ import annotations


from hypothesis import HealthCheck, given, settings, strategies as st

from repro.binaryjoin.executor import BinaryJoinEngine
from repro.core.colt import TrieStrategy, build_trie
from repro.core.convert import binary_to_free_join
from repro.core.engine import FreeJoinEngine
from repro.core.factor import factor_plan
from repro.genericjoin.executor import GenericJoinEngine
from repro.engine.pipeline import RunContext
from repro.optimizer.binary_plan import BinaryPlan
from repro.optimizer.join_order import optimize_query
from repro.query.atoms import Atom
from repro.query.builder import QueryBuilder
from repro.query.hypergraph import Hypergraph
from repro.storage.table import Table
from repro.workloads.synthetic import chain_workload, cycle_workload, star_workload

from tests.conftest import assert_engines_agree, nested_loop_join

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

values = st.integers(min_value=0, max_value=4)


def rows_strategy(arity: int, max_rows: int = 8):
    return st.lists(st.tuples(*([values] * arity)), min_size=0, max_size=max_rows)


# --------------------------------------------------------------------------- #
# Engines agree with the brute-force reference on random instances
# --------------------------------------------------------------------------- #


@SETTINGS
@given(r=rows_strategy(2), s=rows_strategy(2), t=rows_strategy(2))
def test_triangle_engines_agree_with_reference(r, s, t):
    query = (
        QueryBuilder("triangle")
        .add_atom("R", Table.from_rows("R", ["a", "b"], r), ["x", "y"])
        .add_atom("S", Table.from_rows("S", ["a", "b"], s), ["y", "z"])
        .add_atom("T", Table.from_rows("T", ["a", "b"], t), ["z", "x"])
        .build()
    )
    assert_engines_agree(query, reference=nested_loop_join(query))


@SETTINGS
@given(r=rows_strategy(2), s=rows_strategy(2), t=rows_strategy(2))
def test_star_engines_agree_with_reference(r, s, t):
    query = (
        QueryBuilder("star")
        .add_atom("R", Table.from_rows("R", ["a", "b"], r), ["h", "a"])
        .add_atom("S", Table.from_rows("S", ["a", "b"], s), ["h", "b"])
        .add_atom("T", Table.from_rows("T", ["a", "b"], t), ["h", "c"])
        .build()
    )
    assert_engines_agree(query, reference=nested_loop_join(query))


@SETTINGS
@given(r=rows_strategy(2), s=rows_strategy(3))
def test_mixed_arity_engines_agree_with_reference(r, s):
    query = (
        QueryBuilder("mixed")
        .add_atom("R", Table.from_rows("R", ["a", "b"], r), ["x", "y"])
        .add_atom("S", Table.from_rows("S", ["a", "b", "c"], s), ["y", "z", "w"])
        .build()
    )
    assert_engines_agree(query, reference=nested_loop_join(query))


# --------------------------------------------------------------------------- #
# COLT agrees with an eagerly built dictionary
# --------------------------------------------------------------------------- #


@SETTINGS
@given(rows=rows_strategy(2, max_rows=15), probes=st.lists(values, max_size=6))
def test_colt_get_matches_eager_index(rows, probes):
    table = Table.from_rows("R", ["a", "b"], rows)
    atom = Atom("R", table, ["x", "y"])
    trie = build_trie(atom, [("x",), ("y",)], TrieStrategy.COLT)

    expected_index = {}
    for a, b in rows:
        expected_index.setdefault(a, []).append(b)

    for probe in probes:
        child = trie.get(probe)
        if probe not in expected_index:
            assert child is None
        else:
            found = sorted(
                key for key, grandchild in child.iter_entries()
                for _ in range(grandchild.tuple_count() if grandchild else 1)
            )
            assert found == sorted(expected_index[probe])


@SETTINGS
@given(rows=rows_strategy(2, max_rows=15))
def test_colt_strategies_expose_identical_contents(rows):
    table = Table.from_rows("R", ["a", "b"], rows)
    atom = Atom("R", table, ["x", "y"])

    def materialize(strategy):
        trie = build_trie(atom, [("x",), ("y",)], strategy)
        contents = []
        for key, child in trie.iter_entries():
            for inner_key, leaf in child.iter_entries():
                count = leaf.tuple_count() if leaf is not None else 1
                contents.extend([(key, inner_key)] * count)
        return sorted(contents)

    eager = materialize(TrieStrategy.SIMPLE)
    slt = materialize(TrieStrategy.SLT)
    colt = materialize(TrieStrategy.COLT)
    assert eager == slt == colt == sorted((a, b) for a, b in rows)


# --------------------------------------------------------------------------- #
# Plan conversion and factoring
# --------------------------------------------------------------------------- #


@SETTINGS
@given(
    r=rows_strategy(2), s=rows_strategy(2), t=rows_strategy(2),
    order=st.permutations(["R", "S", "T"]),
)
def test_conversion_and_factoring_preserve_semantics(r, s, t, order):
    query = (
        QueryBuilder("chainlike")
        .add_atom("R", Table.from_rows("R", ["a", "b"], r), ["x", "y"])
        .add_atom("S", Table.from_rows("S", ["a", "b"], s), ["y", "z"])
        .add_atom("T", Table.from_rows("T", ["a", "b"], t), ["z", "w"])
        .build()
    )
    atoms = {a.name: a for a in query.atoms}
    naive = binary_to_free_join(list(order), atoms)
    factored = factor_plan(naive)
    naive.validate(query)
    factored.validate(query)

    reference = nested_loop_join(query)
    plan = BinaryPlan.left_deep(list(order))
    assert_engines_agree(query, binary_plan=plan, reference=reference)


# --------------------------------------------------------------------------- #
# Random acyclic/cyclic queries: parallel matches serial on every engine
# --------------------------------------------------------------------------- #


_SHAPES = {
    # chain/star are acyclic; cycle is cyclic for length >= 3.
    "chain": chain_workload,
    "star": star_workload,
    "cycle": cycle_workload,
}


@SETTINGS
@given(
    shape=st.sampled_from(sorted(_SHAPES)),
    length=st.integers(min_value=2, max_value=4),
    rows=st.integers(min_value=0, max_value=24),
    skew=st.sampled_from([0.0, 1.2]),
    seed=st.integers(min_value=0, max_value=9999),
)
def test_random_queries_parallel_matches_serial(shape, length, rows, skew, seed):
    """Fuzz the parallel subsystem with generated conjunctive queries.

    Covers acyclic (chain, star) and cyclic (cycle, length >= 3) shapes,
    empty relations (``rows == 0`` short-circuits through the scheduler) and
    Zipf-skewed value distributions.
    """
    workload = _SHAPES[shape](
        length, rows_per_relation=rows, domain=5, skew=skew, seed=seed
    )
    query = workload.query
    plan = optimize_query(query)
    parallel = RunContext(workers=3, parallel_mode="thread")
    for engine_cls in (FreeJoinEngine, BinaryJoinEngine, GenericJoinEngine):
        serial = engine_cls().run(query, plan)
        sharded = engine_cls().run(query, plan, context=parallel)
        assert sharded.result.same_bag(serial.result), (
            f"{engine_cls.name} parallel/steal output diverged on "
            f"{shape}(length={length}, rows={rows}, skew={skew}, seed={seed})"
        )


# --------------------------------------------------------------------------- #
# GYO acyclicity agrees with a brute-force join-tree check
# --------------------------------------------------------------------------- #


def _brute_force_acyclic(edges):
    """Check alpha-acyclicity by trying every ear-removal order."""
    edges = {name: frozenset(vs) for name, vs in edges.items()}

    def reducible(remaining):
        if len(remaining) <= 1:
            return True
        for name, vertices in remaining.items():
            others = {k: v for k, v in remaining.items() if k != name}
            occurrence = {}
            for vs in others.values():
                for v in vs:
                    occurrence[v] = occurrence.get(v, 0) + 1
            shared = {v for v in vertices if occurrence.get(v, 0) > 0}
            # name is an ear if its shared vertices are covered by one other edge
            if any(shared <= other for other in others.values()):
                if reducible(others):
                    return True
        return False

    return reducible(edges)


@SETTINGS
@given(
    edge_sets=st.lists(
        st.frozensets(st.sampled_from("abcde"), min_size=1, max_size=3),
        min_size=1, max_size=4,
    )
)
def test_gyo_matches_brute_force(edge_sets):
    edges = {f"R{i}": vs for i, vs in enumerate(edge_sets)}
    assert Hypergraph(edges).is_acyclic() == _brute_force_acyclic(edges)
