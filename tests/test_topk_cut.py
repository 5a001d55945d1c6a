"""The packed top-k cut: ``ORDER BY ... LIMIT`` rows before and after it.

:class:`~repro.engine.streaming.StreamingTopKSink` cuts every batch on its
first ORDER BY key — a prefix column or one factor's column, packed or
listed — before a row is expanded or listed, and
:func:`~repro.engine.aggregates.finalize_output` cuts a packed result table
before it builds row tuples.  Both only drop rows that cannot be in the
answer, so:

* every query below returns, through ``execute()`` and through
  ``execute_iter()``, on every engine and session backend, exactly the
  naive reference's rows (compared by ``repr``, so ``-0.0`` against ``0.0``
  and ``2**53 + 1`` against ``2**53`` count);
* hand-built packed batches (the kernels' ``int64`` / ``float64`` arrays)
  leave the same rows as their expansion through ``order_and_limit``, and
  the cut keeps NaN, ties and the rows of every group that stands for any;
* the fan-out join's stream is cut before expansion: the candidate set
  holds a few times ``LIMIT`` rows, not the join output;
* a flat batch is cut once, and a prune cuts the candidates on the first
  key before it sorts them and leaves the cutoff later batches are cut by.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.engine.aggregates import order_and_limit
from repro.engine.options import ExecOptions
from repro.engine.output import batch_to_rows, expand_factorized_batch, listed_batch
from repro.engine.session import Database
from repro.engine.streaming import StreamingTopKSink
from repro.experiments.differential import reference_rows
from repro.kernels import kernels_enabled
from repro.query.planner import ResolvedOrderItem
from repro.query.sql import parse_sql
from repro.storage.table import Table
from repro.workloads.synthetic import FANOUT_SQL, fanout_tables

ENGINES = ("freejoin", "binary", "generic")
SESSIONS = {
    "serial": {},
    "thread": {"parallelism": 2, "parallel_mode": "thread"},
    "process": {"parallelism": 2, "parallel_mode": "process"},
}
BIG = 2**53

SIGNED = [0.0, -0.0, 1.5, -2.5, 3.0]

#: ``r`` x ``s`` on ``k`` is 300 rows; ``t`` adds a second factor (1500
#: rows); ``u`` binds nothing read later, so the kernels fold it into
#: multiplicity 2.  ``s.b`` has 10 values over 30 rows (heavy ties),
#: ``s.big`` straddles 2**53, ``r.f`` holds ``-0.0`` beside ``0.0`` and
#: ``n.x`` three NaNs.
TABLES = {
    "r": (["k", "a", "f"], [(i % 4, i // 2, SIGNED[i % 5]) for i in range(40)]),
    "s": (["k", "b", "big"], [(i % 4, i * 7 % 10, BIG + i % 5 - 2) for i in range(30)]),
    "t": (["k", "c"], [(i % 4, i % 6) for i in range(20)]),
    "u": (["k"], [(k,) for k in range(4)] * 2),
    "n": (["k", "x"], [(i % 4, [float("nan"), 4.0, 1.0, 2.5][i % 4] + i // 4) for i in range(12)]),
}

RS = "FROM r, s WHERE r.k = s.k"
QUERIES = {
    "prefix-key-desc": f"SELECT r.a, s.b {RS} ORDER BY r.a DESC LIMIT 7",
    "factor-key-asc": f"SELECT r.a, s.b {RS} ORDER BY s.b LIMIT 7",
    "factor-key-two-keys": f"SELECT r.a, s.b {RS} ORDER BY s.b DESC, r.a LIMIT 9",
    "second-key-first": f"SELECT s.b, r.a {RS} ORDER BY r.a, s.b DESC LIMIT 9",
    "two-factors": (
        "SELECT r.a, s.b, t.c FROM r, s, t WHERE r.k = s.k AND s.k = t.k "
        "ORDER BY t.c DESC, s.b LIMIT 11"
    ),
    "folded-probe": (
        "SELECT r.a, s.b FROM r, s, u WHERE r.k = s.k AND s.k = u.k "
        "ORDER BY s.b, r.a DESC LIMIT 10"
    ),
    "ties-at-the-bound": f"SELECT r.a, s.b {RS} ORDER BY s.b LIMIT 1",
    "signed-zero-asc": f"SELECT r.f, s.b {RS} ORDER BY r.f LIMIT 8",
    "signed-zero-desc": f"SELECT r.f, r.a {RS} ORDER BY r.f DESC, r.a LIMIT 8",
    "around-2**53": f"SELECT s.big, r.a {RS} ORDER BY s.big DESC, r.a LIMIT 6",
    "around-2**53-asc": f"SELECT s.big, r.a {RS} ORDER BY s.big LIMIT 70",
    "nan-asc": "SELECT n.x, r.a FROM n, r WHERE n.k = r.k ORDER BY n.x LIMIT 5",
    "nan-desc": "SELECT r.a, n.x FROM n, r WHERE n.k = r.k ORDER BY n.x DESC, r.a LIMIT 35",
    "limit-0": f"SELECT r.a, s.b {RS} ORDER BY s.b LIMIT 0",
    "limit-past-the-rows": f"SELECT r.a, s.b {RS} ORDER BY s.b DESC LIMIT 100000",
}


@pytest.fixture(scope="module")
def databases():
    sessions = {name: Database(**kwargs) for name, kwargs in SESSIONS.items()}
    for db in sessions.values():
        for name, (columns, rows) in TABLES.items():
            db.register(Table.from_rows(name, columns, rows))
    yield sessions
    for db in sessions.values():
        db.close()


@pytest.mark.parametrize("case", sorted(QUERIES))
def test_topk_matches_the_reference_everywhere(databases, case):
    sql = QUERIES[case]
    reference = repr(reference_rows(databases["serial"].catalog, parse_sql(sql)))
    for (session, db), engine in itertools.product(databases.items(), ENGINES):
        options = ExecOptions(engine=engine, batch_rows=16)
        where = (case, session, engine)
        assert repr(db.execute(sql, options=options).rows()) == reference, where
        with db.execute_iter(sql, options=options) as stream:
            assert isinstance(stream.sink, StreamingTopKSink), where
            assert repr(list(itertools.chain.from_iterable(stream))) == reference, where


@pytest.mark.parametrize(
    "case", ["factor-key-two-keys", "two-factors", "folded-probe", "around-2**53"]
)
def test_row_paths_match_the_reference(databases, case):
    """Kernels off, every engine binds one tuple at a time: the sink cuts
    each listed ``on_batch`` the same way."""
    sql = QUERIES[case]
    db = databases["serial"]
    reference = repr(reference_rows(db.catalog, parse_sql(sql)))
    with kernels_enabled(False):
        for engine in ENGINES:
            options = ExecOptions(engine=engine, batch_rows=16)
            assert repr(db.execute(sql, options=options).rows()) == reference, engine
            with db.execute_iter(sql, options=options) as stream:
                assert repr(list(itertools.chain.from_iterable(stream))) == reference, engine


def test_serial_streams_are_cut_before_expansion(databases):
    """The serial kernels hand the sink packed batches: the cut keeps the
    rows tied with or better than the bound, a fraction of the join."""
    db = databases["serial"]
    for case in ("prefix-key-desc", "factor-key-asc", "two-factors", "folded-probe"):
        with db.execute_iter(QUERIES[case]) as stream:
            list(stream)
        stats = stream.sink.stats()
        assert stats["factorized_batches"] >= 1, case
        topk = stats["topk"]
        assert topk["candidate_rows"] * 2 < topk["skipped_rows"], case


def test_nan_keys_are_never_cut(databases):
    """NaN sorts after every number, but the cut compares floats: it keeps
    every NaN row and bounds itself by the finite keys alone."""
    db = databases["serial"]
    sql = "SELECT n.x, r.a FROM n, r WHERE n.k = r.k ORDER BY n.x DESC LIMIT 3"
    joined = db.execute("SELECT n.x FROM n, r WHERE n.k = r.k").rows()
    nans = sum(1 for (x,) in joined if x != x)
    with db.execute_iter(sql) as stream:
        streamed = list(itertools.chain.from_iterable(stream))
    assert len(streamed) == 3
    topk = stream.sink.stats()["topk"]
    assert topk["skipped_rows"] > 0
    assert topk["candidate_rows"] >= nans + 3


def test_fanout_stream_is_cut_before_expansion():
    db = Database()
    db.register_all(fanout_tables(1000, keys=60, skew=1.2).values())
    sql = FANOUT_SQL + " ORDER BY fan_s.b DESC, fan_r.a LIMIT 100"
    with db.execute_iter(sql) as stream:
        streamed = list(itertools.chain.from_iterable(stream))
    assert streamed == db.execute(sql).rows()
    stats = stream.sink.stats()
    assert stats["factorized_batches"] >= 1
    assert stats["topk"]["candidate_rows"] <= 3 * 100
    assert stats["topk"]["skipped_rows"] + stats["topk"]["candidate_rows"] == len(
        db.execute(FANOUT_SQL).rows()
    )


# --------------------------------------------------------------------------- #
# Hand-built packed batches against expand-then-order_and_limit
# --------------------------------------------------------------------------- #


def _expanded_rows(variables, batch):
    rows = []
    for columns, multiplicities in expand_factorized_batch(variables, *listed_batch(batch)):
        rows += batch_to_rows(columns, multiplicities)
    return rows


def _topk(variables, batches, order_by, limit):
    sink = StreamingTopKSink(
        variables, limit=limit, order_by=order_by, batch_rows=4, max_batches=64
    )
    for batch in batches:
        sink.on_factorized_batch(*batch)
    sink.finish()
    rows = list(itertools.chain.from_iterable(iter(sink.next_batch, None)))
    return rows, sink.stats()["topk"]


def _random_batch(rng):
    """A packed batch: an ``x`` prefix, ``y`` / ``z`` in one or two factors
    (segments may be empty), multiplicities from -1 to 3 or none; float
    columns may hold NaN."""
    groups = rng.randint(1, 12)
    floats = rng.random() < 0.5
    pool = [0, 1, 2, 2, 3, BIG, BIG + 1, -BIG, 0.0, -0.0, 1.5] + [float("nan")] * floats

    def column(size):
        values = [(float if floats else int)(rng.choice(pool)) for _ in range(size)]
        return np.array(values, dtype=np.float64 if floats else np.int64)

    def factor(names):
        sizes = [rng.randint(0, 4) for _ in range(groups)]
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        return names, [column(int(offsets[-1])) for _ in names], offsets

    factors = [factor(("y", "z"))] if rng.random() < 0.4 else [factor(("y",)), factor(("z",))]
    multiplicities = None
    if rng.random() < 0.6:
        multiplicities = np.array([rng.randint(-1, 3) for _ in range(groups)], dtype=np.int64)
    return ("x",), [column(groups)], factors, multiplicities


@pytest.mark.parametrize("seed", range(60))
def test_packed_batches_cut_to_the_expanded_answer(seed):
    rng = random.Random(seed)
    variables = tuple(rng.sample(["x", "y", "z"], 3))
    batches = [_random_batch(rng) for _ in range(rng.randint(1, 3))]
    order_by = [
        ResolvedOrderItem(position, rng.random() < 0.5)
        for position in rng.sample(range(3), rng.randint(1, 2))
    ]
    limit = rng.choice([0, 1, 2, 5, 20, 1000])
    expanded = [row for batch in batches for row in _expanded_rows(variables, batch)]
    rows, topk = _topk(variables, batches, order_by, limit)
    assert repr(rows) == repr(order_and_limit(expanded, order_by, limit))
    assert topk["skipped_rows"] + topk["candidate_rows"] == len(expanded)


def test_packed_cut_keeps_nan_ties_and_live_groups_only():
    """Key ``y`` in a factor: a group of multiplicity 0 and a group whose
    other factor is empty count for nothing, a NaN and the tie stay."""
    y = np.array([5, 1, 9, np.nan, 2, 2, 7, 0, 0], dtype=np.float64)
    batch = (
        ("x",),
        [np.array([10, 20, 30, 40], dtype=np.int64)],
        [
            (("y",), [y], np.array([0, 3, 6, 7, 9], dtype=np.int64)),
            (
                ("z",),
                [np.array([1, 2, 3, 4], dtype=np.int64)],
                np.array([0, 1, 3, 3, 4], dtype=np.int64),
            ),
        ],
        np.array([1, 1, 5, 0], dtype=np.int64),
    )
    variables = ("x", "y", "z")
    order_by = [ResolvedOrderItem(1, False)]
    # Counted: 5, 1, 9 (group 10) and NaN, 2, 2 (group 20, two z each); 7
    # has no z, 0 and 0 have multiplicity 0.  The 2nd-best finite: 2.
    rows, topk = _topk(variables, [batch], order_by, 2)
    assert rows == [(10, 1.0, 1), (20, 2.0, 2)]
    # Left: 1 (x1) and NaN, 2, 2 (x2 each): 7 rows; 5 and 9 are cut.
    assert topk == dict(topk, candidate_rows=7, skipped_rows=2)


def test_a_flat_batch_is_cut_once(monkeypatch):
    """A flat packed batch in the sink's layout reaches ``_cut`` once, through
    ``on_batch``, and leaves Python values."""
    calls = []
    cut = StreamingTopKSink._cut
    monkeypatch.setattr(StreamingTopKSink, "_cut", lambda s, *b: calls.append(b) or cut(s, *b))
    batch = ("v",), [np.arange(10, dtype=np.int64)[::-1]], [], None
    rows, topk = _topk(("v",), [batch], [ResolvedOrderItem(0, False)], 2)
    assert len(calls) == 1
    assert repr(rows) == repr([(0,), (1,)])
    assert topk == dict(topk, candidate_rows=2, skipped_rows=8)


@pytest.mark.parametrize("descending", [False, True])
def test_a_prune_cuts_the_candidates_and_leaves_a_cutoff(descending):
    """``LIMIT 3000`` over listed batches, every 97th key NaN: 500-row
    batches are too short to bound themselves and 3000-row ones hold too
    few finite keys, so nothing is cut until the candidates outgrow the
    prune bound (6000).  The prune cuts them on the first key (NaN and ties
    at the bound stay), sorts the rest, and leaves the 3000th-best finite
    key as the cutoff the next batch is cut by."""
    rng = random.Random(11)
    start = itertools.count()

    def batch(size):
        values = [rng.randrange(20000) for _ in range(size)]  # ties too
        values[::97] = [float("nan")] * len(values[::97])
        return [values, [next(start) for _ in range(size)]]

    order_by = [ResolvedOrderItem(0, descending), ResolvedOrderItem(1, False)]
    sink = StreamingTopKSink(("v", "i"), limit=3000, order_by=order_by, max_batches=64)
    batches = [batch(500) for _ in range(4)] + [batch(3000) for _ in range(2)]
    for columns in batches:
        sink.on_batch(columns)
    topk = sink.stats()["topk"]
    assert (topk["prunes"], topk["skipped_rows"], topk["candidate_rows"]) == (1, 0, 8000)
    finite = sorted((v for columns in batches for v in columns[0] if v == v), reverse=descending)
    cutoff = finite[2999]
    late = batch(3000)
    late[0][1:4] = finite[2998:3001]  # the 2999th to 3001st best: only the last is cut
    sink.on_batch(late)
    worse = sum(1 for v in late[0] if (v < cutoff if descending else v > cutoff))
    assert 0 < worse == sink.stats()["topk"]["skipped_rows"]
    sink.finish()
    rows = list(itertools.chain.from_iterable(iter(sink.next_batch, None)))
    expected = order_and_limit(
        [row for columns in batches + [late] for row in zip(*columns)], order_by, 3000
    )
    assert repr(rows) == repr(expected)
