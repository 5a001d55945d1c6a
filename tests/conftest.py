"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools

import pytest

from repro.binaryjoin.executor import BinaryJoinEngine, BinaryJoinOptions
from repro.core.engine import FreeJoinEngine, FreeJoinOptions
from repro.engine.session import Database
from repro.genericjoin.executor import GenericJoinEngine, GenericJoinOptions
from repro.optimizer.join_order import optimize_query
from repro.query.builder import QueryBuilder
from repro.storage.table import Table
from repro.workloads.synthetic import (
    clover_instance,
    clover_query,
    triangle_instance,
    triangle_query,
)


# --------------------------------------------------------------------------- #
# Small hand-written tables
# --------------------------------------------------------------------------- #


@pytest.fixture
def tiny_tables():
    """Three tiny relations forming a chain r(x,y) - s(y,z) - t(z,w)."""
    r = Table.from_columns("r", {"x": [1, 2, 3, 2], "y": [10, 20, 30, 20]})
    s = Table.from_columns("s", {"y": [10, 10, 30, 20], "z": [7, 8, 9, 5]})
    t = Table.from_columns("t", {"z": [7, 9, 5, 5], "w": [1, 2, 3, 4]})
    return {"r": r, "s": s, "t": t}


@pytest.fixture
def chain_query(tiny_tables):
    """The conjunctive query r(x,y), s(y,z), t(z,w)."""
    builder = QueryBuilder("chain")
    builder.add_atom("r", tiny_tables["r"], ["x", "y"])
    builder.add_atom("s", tiny_tables["s"], ["y", "z"])
    builder.add_atom("t", tiny_tables["t"], ["z", "w"])
    return builder.build()


@pytest.fixture
def tiny_database(tiny_tables):
    """A Database with the tiny chain tables registered."""
    db = Database()
    for table in tiny_tables.values():
        db.register(table)
    return db


@pytest.fixture
def clover():
    """The paper's clover instance (n=20) and its query."""
    tables = clover_instance(20)
    return clover_query(tables), tables


@pytest.fixture
def triangle():
    """A random triangle query instance."""
    tables = triangle_instance(60, domain=12, skew=0.4, seed=3)
    return triangle_query(tables), tables


# --------------------------------------------------------------------------- #
# Reference implementations and cross-engine helpers
# --------------------------------------------------------------------------- #


def nested_loop_join(query):
    """A brute-force reference join: enumerate all combinations of rows.

    Returns a sorted list of output tuples ordered by the query's output
    variables.  Exponential, so only use it on tiny inputs.
    """
    atoms = query.atoms
    results = []
    for combination in itertools.product(*(atom.table.iter_rows() for atom in atoms)):
        bindings = {}
        consistent = True
        for atom, row in zip(atoms, combination):
            for variable, value in zip(atom.variables, row):
                if variable in bindings and bindings[variable] != value:
                    consistent = False
                    break
                bindings[variable] = value
            if not consistent:
                break
        if consistent:
            results.append(tuple(bindings[v] for v in query.output_variables))
    return sorted(results, key=repr)


def run_all_engines(query, binary_plan=None, freejoin_options=None):
    """Run a conjunctive query on all three engines and return their rows."""
    plan = binary_plan or optimize_query(query)
    free = FreeJoinEngine(freejoin_options or FreeJoinOptions()).run(query, plan)
    binary = BinaryJoinEngine(BinaryJoinOptions()).run(query, plan)
    generic = GenericJoinEngine(GenericJoinOptions()).run(query, plan)
    return {
        "freejoin": sorted(free.result.iter_rows(), key=repr),
        "binary": sorted(binary.result.iter_rows(), key=repr),
        "generic": sorted(generic.result.iter_rows(), key=repr),
    }


def assert_engines_agree(query, binary_plan=None, reference=None, freejoin_options=None):
    """Assert that all engines (and optionally a reference) return the same bag."""
    rows = run_all_engines(query, binary_plan, freejoin_options)
    assert rows["freejoin"] == rows["binary"], "Free Join disagrees with binary join"
    assert rows["freejoin"] == rows["generic"], "Free Join disagrees with Generic Join"
    if reference is not None:
        assert rows["freejoin"] == reference, "engines disagree with the reference join"
    return rows["freejoin"]


@pytest.fixture
def intermediates(monkeypatch):
    """The tables ``run_plan`` materializes for non-final pipelines, in order.

    ``run_plan`` wraps each one in an ``Atom`` for the later pipelines; the
    wrapper records the table on its way in (a plain function, so nothing
    here is pickled to a process worker).
    """
    from repro.engine import pipeline

    tables = []
    pipeline_atom = pipeline.Atom

    def recording_atom(name, table, variables):
        tables.append(table)
        return pipeline_atom(name, table, variables)

    monkeypatch.setattr(pipeline, "Atom", recording_atom)
    return tables
