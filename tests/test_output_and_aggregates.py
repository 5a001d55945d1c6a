"""Tests for output sinks, join results, aggregation, and sessions."""

import dataclasses

import pytest

from repro.engine.options import ExecOptions
from repro.engine.output import CountSink, JoinResult, RowSink
from repro.engine.session import Database
from repro.errors import ExecutionError, QueryError
from repro.storage.table import Table


class TestSinks:
    def test_row_sink_collects_multiplicities(self):
        sink = RowSink(["x", "y"])
        # (1, 2) twice, (3, 4) once; a zero multiplicity is dropped.
        sink.on_batch([[1, 3, 5], [2, 4, 6]], [2, 1, 0])
        result = sink.result()
        assert result.count() == 3
        assert sorted(result.iter_rows()) == [(1, 2), (1, 2), (3, 4)]

    def test_count_sink(self):
        sink = CountSink(["x"])
        sink.on_batch([[1]], [3])
        sink.on_batch([[7, 8]])
        result = sink.result()
        assert result.count() == 5
        with pytest.raises(ExecutionError):
            list(result.iter_rows())

    def test_same_bag_across_variable_orders(self):
        first = JoinResult.from_rows(("x", "y"), [(1, 2)], [1])
        second = JoinResult.from_rows(("y", "x"), [(2, 1)], [1])
        assert first.same_bag(second)
        third = JoinResult.from_rows(("y", "z"), [(2, 1)], [1])
        assert not first.same_bag(third)

    def test_one_stored_shape(self):
        """Column batches are the store; rows are views of them."""
        names = [field.name for field in dataclasses.fields(JoinResult)]
        assert names == ["variables", "batches", "count_only", "partial"]

        x, y = [1, 2, 3], ["a", None, "c"]
        sink = RowSink(("x", "y"))
        sink.on_batch([x, y])
        result = sink.result()
        # One flat batch is adopted by reference: no copy, no transpose.
        assert result.columns()[0] is x and result.columns()[1] is y
        assert result.to_rows() == list(result.iter_rows()) == [(1, "a"), (2, None), (3, "c")]

        sink.on_batch([[4], ["d"]], [2])
        # Non-positive multiplicities are not in the bag: dropped when stored.
        sink.on_batch([[5, 6, 7], ["e", "f", "g"]], [0, 3, -1])
        result = sink.result()
        assert len(result.batches) == 3 and result.count() == 8 == len(result.to_rows())
        assert result.columns() == [
            [1, 2, 3, 4, 4, 6, 6, 6],
            ["a", None, "c", "d", "d", "f", "f", "f"],
        ]
        assert result.to_rows() == list(result.iter_rows())
        assert list(result.flat_batches()) == [
            ([[1, 2, 3], ["a", None, "c"]], None),
            ([[4], ["d"]], [2]),
            ([[6], ["f"]], [3]),
        ]

    def test_from_rows_round_trips_rows_and_multiplicities(self):
        rows, multiplicities = [(1, "a"), (2, "b")], [2, 1]
        result = JoinResult.from_rows(("x", "y"), rows, multiplicities)
        assert list(result.flat_batches()) == [([[1, 2], ["a", "b"]], multiplicities)]
        assert result.to_rows() == [(1, "a"), (1, "a"), (2, "b")]
        assert JoinResult.from_rows(("x", "y"), rows).to_rows() == rows
        empty = JoinResult.from_rows(("x", "y"), [])
        assert empty.columns() == [[], []] and empty.to_rows() == [] and empty.count() == 0
        # Zero-width rows: only the multiplicities carry them.
        bare = JoinResult.from_rows((), [(), ()], [2, 1])
        assert bare.count() == 3 and bare.to_rows() == [(), (), ()] and bare.columns() == []

    def test_count_only_results_have_no_row_view(self):
        result = JoinResult(("x",), count_only=4)
        for view in (result.columns, result.to_rows, result.sorted_rows):
            with pytest.raises(ExecutionError):
                view()


@pytest.fixture
def movie_db():
    db = Database()
    db.register(Table.from_columns("movies", {
        "id": [1, 2, 3], "year": [1999, 2005, 2005], "kind": ["m", "tv", "m"],
    }))
    db.register(Table.from_columns("ratings", {
        "movie_id": [1, 1, 2, 3, 3], "stars": [5, 4, 3, 5, None],
    }))
    return db


class TestAggregation:
    def test_count_star(self, movie_db):
        outcome = movie_db.execute(
            "SELECT COUNT(*) FROM movies AS m, ratings AS r WHERE r.movie_id = m.id"
        )
        assert outcome.scalar() == 5

    def test_count_column_skips_nulls(self, movie_db):
        outcome = movie_db.execute(
            "SELECT COUNT(r.stars) AS n FROM movies AS m, ratings AS r WHERE r.movie_id = m.id"
        )
        assert outcome.scalar() == 4

    def test_min_max_sum_avg(self, movie_db):
        outcome = movie_db.execute(
            "SELECT MIN(r.stars) AS lo, MAX(r.stars) AS hi, SUM(r.stars) AS s, AVG(r.stars) AS a "
            "FROM movies AS m, ratings AS r WHERE r.movie_id = m.id"
        )
        assert outcome.rows() == [(3, 5, 17.0, 17.0 / 4)]

    def test_group_by(self, movie_db):
        outcome = movie_db.execute(
            "SELECT m.year, COUNT(*) AS n FROM movies AS m, ratings AS r "
            "WHERE r.movie_id = m.id GROUP BY m.year"
        )
        assert sorted(outcome.rows()) == [(1999, 2), (2005, 3)]

    def test_plain_projection(self, movie_db):
        outcome = movie_db.execute(
            "SELECT m.kind FROM movies AS m, ratings AS r WHERE r.movie_id = m.id"
        )
        assert sorted(outcome.rows()) == [("m",)] * 4 + [("tv",)]

    def test_select_star(self, movie_db):
        outcome = movie_db.execute("SELECT * FROM movies AS m")
        assert len(outcome.rows()) == 3
        assert outcome.table.arity == 3

    def test_aggregate_over_empty_result(self, movie_db):
        outcome = movie_db.execute(
            "SELECT MIN(m.year) AS y, COUNT(*) AS n FROM movies AS m WHERE m.year > 3000"
        )
        assert outcome.rows() == [(None, 0)]

    def test_non_aggregate_without_group_by_rejected(self, movie_db):
        with pytest.raises(QueryError):
            movie_db.execute("SELECT m.kind, COUNT(*) FROM movies AS m")

    def test_scalar_requires_1x1(self, movie_db):
        outcome = movie_db.execute("SELECT * FROM movies AS m")
        with pytest.raises(QueryError):
            outcome.scalar()


class TestDatabaseSession:
    def test_engines_agree_end_to_end(self, movie_db):
        sql = (
            "SELECT m.year, COUNT(*) AS n FROM movies AS m, ratings AS r "
            "WHERE r.movie_id = m.id AND r.stars > 3 GROUP BY m.year"
        )
        results = {
            engine: sorted(movie_db.execute(sql, options=ExecOptions(engine=engine)).rows())
            for engine in ("freejoin", "binary", "generic")
        }
        assert results["freejoin"] == results["binary"] == results["generic"]

    def test_residual_predicate_across_tables(self, movie_db):
        outcome = movie_db.execute(
            "SELECT COUNT(*) FROM movies AS m, ratings AS r "
            "WHERE r.movie_id = m.id AND r.stars < m.year"
        )
        assert outcome.scalar() == 4

    def test_bad_estimates_flag_changes_only_the_plan(self, movie_db):
        sql = "SELECT COUNT(*) FROM movies AS m, ratings AS r WHERE r.movie_id = m.id"
        good = movie_db.execute(sql, options=ExecOptions(bad_estimates=False))
        bad = movie_db.execute(sql, options=ExecOptions(bad_estimates=True))
        assert good.scalar() == bad.scalar() == 5

    def test_unknown_engine_rejected(self, movie_db):
        with pytest.raises(QueryError):
            movie_db.execute(
                "SELECT COUNT(*) FROM movies AS m", options=ExecOptions(engine="spark")
            )
        with pytest.raises(QueryError):
            Database(default_engine="spark")

    def test_register_all_and_table_names(self):
        db = Database()
        db.register_all([
            Table.from_columns("a", {"x": [1]}),
            Table.from_columns("b", {"y": [2]}),
        ])
        assert db.table_names() == ["a", "b"]

    def test_freejoin_options_respected(self, movie_db):
        from repro.core.engine import FreeJoinOptions
        from repro.core.colt import TrieStrategy

        outcome = movie_db.execute(
            "SELECT COUNT(*) FROM movies AS m, ratings AS r WHERE r.movie_id = m.id",
            options=ExecOptions(
                engine="freejoin",
                freejoin_options=FreeJoinOptions(trie_strategy=TrieStrategy.SIMPLE, batch_size=4),
            ),
        )
        assert outcome.scalar() == 5
