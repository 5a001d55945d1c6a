"""Packed aggregate folds: MIN / MAX / COUNT over the kernels' numeric gathers.

The aggregate sinks ``packs_columns``: the kernels hand them ``int64`` /
``float64`` prefix and factor columns (and factor offsets, multiplicities)
as arrays, and a batch whose group keys are prefix arrays and whose items
are group columns, ``COUNT(*)`` or ``COUNT`` / ``MIN`` / ``MAX`` over arrays
folds in numpy, once per distinct group key
(:meth:`~repro.engine.aggregates.GroupedAggregateState.fold_packed`).
Every other batch — and one below ``PACKED_FOLD_VALUES`` groups and factor
values — is listed and folds as before; these tables are tiny, so the
module sets that threshold to 0.  Whichever path a batch takes, the result
must be the row-at-a-time reference
(:meth:`~repro.engine.aggregates.GroupedAggregateState.fold_row`) and the
kernels-off result, ``repr`` for ``repr`` — on the three plan policies x
serial / thread / process x ``execute`` / ``execute_iter``.
"""

from __future__ import annotations

import pytest

from repro import ExecOptions
from repro.engine import aggregates
from repro.engine.aggregates import AggregateSpec, GroupedAggregateState, fold_factorized_batch
from repro.engine.output import expand_factorized_batch, listed_batch
from repro.engine.session import Database
from repro.kernels import kernels_enabled
from repro.kernels.encoding import np
from repro.storage.catalog import Catalog
from repro.storage.table import Table

ENGINES = ("freejoin", "binary", "generic")

THRESHOLD = aggregates.PACKED_FOLD_VALUES

BACKENDS = {
    "serial": {},
    "thread": {"parallelism": 2, "parallel_mode": "thread"},
    "process": {"parallelism": 2, "parallel_mode": "process"},
}

BIG = 2**63 - 1
INF = float("inf")
NAN = float("nan")

#: Four join keys; every ``r`` row of a key meets every ``t`` row of it.
R = {
    "k": [1, 1, 2, 2, 3, 3, 4, 4],
    "a": [BIG, -BIG, 5, 7, -3, 0, 2, 2],
    "f": [0.0, -0.0, -0.0, 0.0, 1.5, INF, -INF, 2.5],
    "s": ["b", "a", "c", "c", "a", "d", "b", "b"],
    "n": [1, None, None, None, 3, 4, None, 2],
    "b": [True, False, True, True, False, False, True, False],
    "nan": [NAN, 1.0, 2.0, NAN, 0.5, 0.5, NAN, NAN],
}
T = {
    "k": [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4],
    "g": [10, 11, 10, 20, -BIG, 21, 30, 31, BIG, 40, 40, 41],
    # ±0.0 in both orders within one key, as each key's MIN or MAX.
    "h": [0.0, -0.0, 5.0, -0.0, 0.0, INF, -1.0, -0.0, 0.0, -INF, 0.0, -0.0],
    # ±0.0 inside a key, but not its extreme.
    "u": [3.5, -2.0, 7.25, 1.0, -0.0, -0.5, 2.0, 9.0, 4.0, -0.25, 0.0, 6.0],
}

JOIN = "FROM r, t WHERE r.k = t.k"

#: case -> (SELECT list, GROUP BY list)
CASES = {
    "count-min-max": (
        "r.k AS k, COUNT(*) AS n, COUNT(t.g) AS ng, MIN(t.g) AS lo, MAX(r.a) AS hi, "
        "MIN(t.u) AS ulo",
        "r.k",
    ),
    "int64-and-inf-extremes": (
        "r.k AS k, MIN(r.a) AS alo, MAX(r.a) AS ahi, MIN(t.g) AS glo, MAX(t.g) AS ghi, "
        "MIN(r.f) AS flo, MAX(r.f) AS fhi",
        "r.k",
    ),
    "signed-zero-extremes": (
        "t.k AS k, MIN(t.h) AS lo, MAX(t.h) AS hi, MIN(r.f) AS flo, MAX(r.f) AS fhi",
        "t.k",
    ),
    "listed-inputs": (
        "r.k AS k, MIN(r.s) AS s, MAX(r.n) AS n, MIN(r.b) AS b, MAX(r.nan) AS x, "
        "COUNT(r.n) AS cn",
        "r.k",
    ),
    "text-key": ("r.s AS s, COUNT(*) AS n, MIN(t.g) AS lo", "r.s"),
    "null-key": ("r.n AS n, MAX(t.u) AS hi", "r.n"),
    "bool-key": ("r.b AS b, COUNT(*) AS n, MIN(t.h) AS lo", "r.b"),
    "nan-key": ("r.nan AS x, COUNT(*) AS n", "r.nan"),
    "float-key": ("r.f AS f, COUNT(*) AS n, MAX(t.g) AS hi", "r.f"),
    "multi-key": ("r.k AS k, r.a AS a, COUNT(*) AS n, MIN(t.u) AS lo", "r.k, r.a"),
    "key-in-either-side": ("r.k AS k, t.g AS g, COUNT(*) AS n, MAX(r.f) AS hi", "r.k, t.g"),
    "grouping-free": (
        "COUNT(*) AS n, MIN(t.g) AS lo, MAX(r.a) AS hi, COUNT(r.f) AS nf, MAX(t.u) AS uhi",
        "",
    ),
    "min-with-sum-avg": (
        "r.k AS k, MIN(t.u) AS lo, SUM(t.u) AS su, AVG(r.f) AS af, MAX(t.g) AS hi",
        "r.k",
    ),
}


def _items(select: str):
    """``(function, column, label)`` per SELECT item, as ``AggregateSpec`` takes them."""
    items = []
    for item in select.split(", "):
        expression, label = item.split(" AS ")
        function, _, column = expression.rstrip(")").rpartition("(")
        items.append((function or None, None if column == "*" else column, label))
    return tuple(items)


def _spec(select: str, group_by: str, variables) -> AggregateSpec:
    group = tuple(group_by.split(", ")) if group_by else ()
    return AggregateSpec(items=_items(select), group_by=group, variables=tuple(variables))


def _sql(case: str) -> str:
    select, group_by = CASES[case]
    return f"SELECT {select} {JOIN}" + (f" GROUP BY {group_by}" if group_by else "")


def _row_fold(case: str):
    """The reference: ``fold_row`` over the join rows, ``r`` outer, in table order."""
    names = [f"r.{c}" for c in R] + [f"t.{c}" for c in T]
    state = GroupedAggregateState(_spec(*CASES[case], names))
    for r_row in zip(*R.values()):
        for t_row in zip(*T.values()):
            if r_row[0] == t_row[0]:
                state.fold_row(r_row + t_row)
    return state.finalize_rows()


@pytest.fixture(scope="module", autouse=True)
def fold_every_packed_batch_in_numpy():
    """Set before any session forks its process workers, which inherit it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(aggregates, "PACKED_FOLD_VALUES", 0)
        yield


@pytest.fixture(scope="module")
def databases():
    catalog = Catalog()
    catalog.register(Table.from_columns("r", R))
    catalog.register(Table.from_columns("t", T))
    sessions = {name: Database(catalog, **configure) for name, configure in BACKENDS.items()}
    yield sessions
    for session in sessions.values():
        session.close()


@pytest.fixture(scope="module")
def kernels_off(databases):
    """Each case's result on the row paths (kernels off), serially."""
    serial, options = databases["serial"], ExecOptions(engine="binary")
    with kernels_enabled(False):
        return {case: serial.execute(_sql(case), options=options).rows() for case in CASES}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_row_paths_match_the_row_fold(kernels_off, case):
    assert repr(kernels_off[case]) == repr(_row_fold(case))


@pytest.mark.parametrize("mode", ["execute", "execute_iter"])
@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_packed_folds_match_the_row_fold_and_kernels_off(
    request, databases, kernels_off, case, engine, backend, mode
):
    if case == "nan-key" and backend == "process":
        # A known defect of the process backend, whichever path folds: its
        # workers read NaN keys from shared memory and ship them pickled, so
        # the one NaN group (one float object) comes back split.
        reason = "NaN group keys split across processes"
        request.applymarker(pytest.mark.xfail(strict=True, reason=reason))
    database, options = databases[backend], ExecOptions(engine=engine, batch_rows=4)
    expected = kernels_off[case]
    if mode == "execute":
        rows = database.execute(_sql(case), options=options).rows()
    else:  # the stream ends with the full snapshot, in batches of 4 rows
        batches = list(database.execute_iter(_sql(case), options=options))
        rows = [row for batch in batches[-len(expected) // 4 :] for row in batch]
    if backend == "process" and any(type(v) is float and v == 0 for row in expected for v in row):
        # A known defect of the process backend, whichever path folds: the
        # sign of a ±0.0 extreme or group key split over two tasks is the
        # first merged partial's, and partials merge in completion order.
        # A thread session's inline tasks merge in task order.
        assert sorted(rows) == sorted(expected)
    else:
        assert repr(rows) == repr(expected)
    assert all(type(v) in (int, float, str, bool, type(None)) for row in rows for v in row)


# --------------------------------------------------------------------------- #
# The numpy path itself: taken, counted, and exact on hand-built batches
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("enabled", [True, False])
def test_packed_folds_telemetry_counts_the_numpy_path(monkeypatch, enabled):
    monkeypatch.setattr(aggregates, "PACKED_FOLD_VALUES", THRESHOLD)
    database = Database()  # 600 x 200 rows on 20 keys: 6 000 join rows
    for name, size in (("r", 600), ("t", 200)):
        columns = {"k": [i % 20 for i in range(size)], "v": list(range(size))}
        database.register(Table.from_columns(name, columns))
    sql = (
        "SELECT r.k, COUNT(*) AS n, MIN(t.v) AS lo, MAX(r.v) AS hi "
        f"{JOIN} GROUP BY r.k"
    )
    with kernels_enabled(enabled):
        with database.execute_iter(sql) as stream:
            batches = list(stream)
        stats = stream.sink.stats()["aggregate"]
        outcome = database.execute(sql)
    assert batches[-1] == outcome.rows()
    assert outcome.rows()[0] == (0, 300, 0, 580)
    folds = (stats["packed_folds"], outcome.join_result.partial.packed_folds)
    if enabled:
        assert min(folds) > 0
    else:
        assert folds == (0, 0)


def test_small_packed_batches_are_listed(monkeypatch, databases, kernels_off):
    monkeypatch.setattr(aggregates, "PACKED_FOLD_VALUES", THRESHOLD)
    outcome = databases["serial"].execute(_sql("count-min-max"))
    assert outcome.join_result.partial.packed_folds == 0
    assert repr(outcome.rows()) == repr(kernels_off["count-min-max"])


#: Keys and ``y`` in the prefix, ``z`` in a factor.
SELECT = "x AS x, COUNT(*) AS n, MIN(z) AS lo, MAX(z) AS hi, COUNT(y) AS ny, MAX(y) AS yhi"
UNGROUPED = SELECT.partition(", ")[2]


def _packed_batch(z_values, z_offsets, multiplicities=None):
    """A factorized batch of ``len(z_offsets) - 1`` groups, every part an array."""
    groups = len(z_offsets) - 1
    x = np.array([1, 2, 1, 3, 2, 1][:groups], dtype=np.int64)
    y = np.array([BIG, -BIG, 4, 5, 6, 7][:groups], dtype=np.int64)
    factor = (("z",), [np.array(z_values)], np.array(z_offsets, dtype=np.int64))
    return ("x", "y"), [x, y], [factor], multiplicities


def _fold_expanded(spec, batch):
    """``fold_row`` over the batch's rows, in expansion order."""
    state = GroupedAggregateState(spec)
    for columns, weights in expand_factorized_batch(spec.variables, *listed_batch(batch)):
        for index, row in enumerate(zip(*columns)):
            state.fold_row(row, 1 if weights is None else weights[index])
    return state


@pytest.mark.parametrize("multiplicities", [None, [2, 1, 3, 1, 1, 4]])
@pytest.mark.parametrize(
    "z_values",
    [
        [3.0, 1.0, INF, -INF, 2.5, 8.0, 0.5, -2.0, 9.0, 1.0],
        [5, BIG, -BIG, 7, 0, 1, 2, 3, 4, 5],
        # ±0.0 as an extreme, in both orders: the list fold keeps the first.
        [0.0, -0.0, 0.0, 1.0, -0.0, 0.0, 2.0, 0.0, -0.0, 3.0],
        [-0.0, 0.0, -1.0, 2.0, 0.0, -0.0, 5.0, -0.0, 0.0, 4.0],
    ],
)
@pytest.mark.parametrize("select, group_by", [(SELECT, "x"), (UNGROUPED, "")])
def test_packed_factorized_fold_is_the_row_fold(select, group_by, z_values, multiplicities):
    weights = None if multiplicities is None else np.array(multiplicities, dtype=np.int64)
    batch = _packed_batch(z_values, [0, 2, 3, 5, 7, 8, 10], weights)
    spec = _spec(select, group_by, "xyz")
    state = GroupedAggregateState(spec)
    touched = fold_factorized_batch(state, *batch)
    expected = _fold_expanded(spec, batch)
    assert state.packed_folds == 1
    assert repr(state.payload()) == repr(expected.payload())
    assert repr(state.finalize_rows()) == repr(expected.finalize_rows())
    # One touched key per batch group under a GROUP BY: a stream's delta
    # cadence counts them.
    assert len(touched) == (6 if group_by else 1)


def test_dropped_groups_do_not_leak_into_a_neighbouring_segment():
    # Group 1's multiplicity is 0 and group 3's factor segment is empty: the
    # neighbours' extremes must not see their values.
    batch = _packed_batch(
        [5.0, 6.0, -100.0, 7.0, 8.0, 9.0, 10.0],
        [0, 2, 3, 5, 5, 6, 7],
        np.array([1, 0, 1, 1, 1, 1], dtype=np.int64),
    )
    spec = _spec(SELECT, "x", "xyz")
    state = GroupedAggregateState(spec)
    touched = fold_factorized_batch(state, *batch)
    assert state.packed_folds == 1
    assert len(touched) == 4  # groups 0, 2, 4, 5
    assert repr(state.finalize_rows()) == repr(_fold_expanded(spec, batch).finalize_rows())
    assert state.finalize_rows()[0] == (1, 5, 5.0, 10.0, 5, BIG)


def test_flat_packed_batches_fold_like_lists():
    x = np.array([1, 2, 1, 2], dtype=np.int64)
    y = np.array([3, BIG, -BIG, 0], dtype=np.int64)
    z = np.array([0.5, INF, -2.0, 1.0])
    weights = np.array([2, 1, 3, 1], dtype=np.int64)
    packed = GroupedAggregateState(_spec(SELECT, "x", "xyz"))
    assert sorted(packed.fold_columns([x, y, z], weights)) == [(1,), (2,)]
    listed = GroupedAggregateState(_spec(SELECT, "x", "xyz"))
    listed.fold_columns([x.tolist(), y.tolist(), z.tolist()], weights.tolist())
    assert packed.packed_folds == 1 and listed.packed_folds == 0
    assert repr(packed.payload()) == repr(listed.payload())
    # A SUM item sends the batch down the list path, listed once.
    summing = GroupedAggregateState(_spec(SELECT + ", SUM(z) AS sz", "x", "xyz"))
    summing.fold_columns([x, y, z], weights)
    assert summing.packed_folds == 0
    assert summing.finalize_rows()[0][-1] == 0.5 * 2 + -2.0 * 3
