"""Direct-address probe levels must answer exactly as bisection does.

``ProbeIndex`` gives an integer dictionary (``uniques[j]`` of the ``"i"`` /
``"c"`` kinds, every ``pairs[j - 1]`` level) direct-address slots when its
value span is small, and bisects the rest.  Every probe here runs twice —
on the built index and on a twin with its slots dropped, which bisects
every level — and the two ``(lo, hi)`` answers must be identical, also for
keys outside a dictionary's range and where ``key - table[0]`` would wrap
in int64.  A bisected lookup searches its keys in sorted order; that too
must answer as one plain ``searchsorted``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kernels.encoding import key_array
from repro.kernels.indexes import (
    SLOT_SPAN_FACTOR,
    SLOT_SPAN_FLOOR,
    ProbeIndex,
    _lookup,
    build_probe_index,
)
from repro.query.atoms import Atom
from repro.storage.table import Table
from repro.workloads.lsqb import generate_lsqb_workload

np = pytest.importorskip("numpy")

INT_MAX = 2**63 - 1


def _build(columns, kind: str) -> ProbeIndex:
    names = [f"k{j}" for j in range(len(columns))]
    table = Table.from_columns("r", dict(zip(names, columns)))
    return build_probe_index(Atom("r", table, names), names, {name: kind for name in names})


def _no_slots(index: ProbeIndex) -> ProbeIndex:
    """A twin of ``index`` that bisects every level."""
    twin = ProbeIndex(index.perm, index.uniques, index.pairs, index.starts, index.size)
    twin.unique_slots = [None] * len(twin.uniques)
    twin.pair_slots = [None] * len(twin.pairs)
    return twin


def _frontier(tuples, key_count: int, kind: str):
    """Key arrays of another table's columns, in the index's key space."""
    names = [f"k{j}" for j in range(key_count)]
    table = Table.from_columns("f", {name: [t[j] for t in tuples] for j, name in enumerate(names)})
    return [key_array(table.column(name), kind) for name in names]


def _assert_same_answers(columns, kind: str, tuples) -> ProbeIndex:
    index = _build(columns, kind)
    frontier = _frontier(tuples, len(columns), kind)
    lo, hi = index.probe(frontier, len(tuples))
    bisect_lo, bisect_hi = _no_slots(index).probe(frontier, len(tuples))
    assert lo.tolist() == bisect_lo.tolist()
    assert hi.tolist() == bisect_hi.tolist()
    return index


def _rotations(values, key_count: int):
    return [values[j:] + values[:j] for j in range(key_count)]


EDGES = [-INT_MAX, INT_MAX, -INT_MAX - 1, -1, 0, 1]


@pytest.mark.parametrize("key_count", [1, 2, 3])
@pytest.mark.parametrize(
    "values",
    [
        [5, 7, 9, 12],
        [-40, -3, -17, -3, -40],  # negative values
        [4],  # a single-value dictionary
        [-2, 2**17, 2**18 - 3],  # sparse, still under the span floor
    ],
)
def test_direct_levels_answer_as_bisection(values, key_count):
    columns = _rotations(values, key_count)
    probes = sorted(set(values) | {min(values) - 1, max(values) + 1, *EDGES})
    tuples = [tuple(columns[j][row] for j in range(key_count)) for row in range(len(values))]
    tuples += [(p,) * key_count for p in probes]
    tuples += [(values[0],) * (key_count - 1) + (p,) for p in probes]
    index = _assert_same_answers(columns, "i", tuples)
    assert all(slots is not None for slots in index.unique_slots + index.pair_slots)


def test_keys_that_would_wrap_are_absent_not_aliased():
    # ``INT_MAX - (-5)`` wraps to a negative int64: clamping the keys into
    # the dictionary's range first keeps it absent.
    index = _assert_same_answers([[-5, 0, 3]], "i", [(INT_MAX,), (-INT_MAX,), (0,), (3,)])
    assert index.unique_slots[0] is not None
    lo, hi = index.probe([np.asarray([INT_MAX, -INT_MAX - 1, 3])], 3)
    assert (hi - lo).tolist() == [0, 0, 1]


def test_dictionaries_just_over_the_span_bound_bisect():
    at_floor = _build([[0, SLOT_SPAN_FLOOR - 1]], "i")
    over_floor = _build([[0, SLOT_SPAN_FLOOR]], "i")
    assert at_floor.unique_slots[0] is not None
    assert over_floor.unique_slots[0] is None
    size = SLOT_SPAN_FLOOR // SLOT_SPAN_FACTOR + 1  # the factor bound passes the floor
    dense = list(range(size - 1))
    at_factor = _build([dense + [SLOT_SPAN_FACTOR * size - 1]], "i")
    over_factor = _build([dense + [SLOT_SPAN_FACTOR * size]], "i")
    assert at_factor.unique_slots[0] is not None
    assert over_factor.unique_slots[0] is None
    _assert_same_answers([[0, SLOT_SPAN_FLOOR, -7]], "i", [(0,), (1,), (SLOT_SPAN_FLOOR,), (-7,)])


@pytest.mark.parametrize("size", [2**16 - 1, 2**16])
def test_slot_width_holds_every_position(size):
    # Two-byte slots below 2**16 entries, four bytes from there on.
    values = list(range(-3, 2 * size - 3, 2))
    probes = [(v,) for v in (-4, -3, -2, values[-2], values[-1], values[-1] + 1)]
    index = _assert_same_answers([values], "i", probes)
    assert index.unique_slots[0].dtype == (np.uint16 if size < 2**16 else np.int32)


@pytest.mark.parametrize("key_count", [1, 2, 3])
def test_float_dictionaries_bisect_and_coded_ones_are_direct(key_count):
    floats = _rotations([-2.5, 0.0, 1.5, 1e300], key_count)
    probes = [(-3.0,) * key_count, (0.0,) * key_count, (1e301,) * key_count]
    index = _assert_same_answers(floats, "f", probes + [tuple(c[0] for c in floats)])
    assert all(slots is None for slots in index.unique_slots)
    mixed = _rotations(["a", None, 7, "b"], key_count)
    probes = [("zz",) * key_count, (None,) * key_count, (7,) * key_count]
    _assert_same_answers(mixed, "c", probes + [tuple(c[1] for c in mixed)])
    # Values first interned together get neighbouring codes: a small span.
    fresh = _rotations([f"probe-lookup-{key_count}-{i}" for i in range(4)], key_count)
    index = _assert_same_answers(fresh, "c", probes + [tuple(c[2] for c in fresh)])
    assert all(slots is not None for slots in index.unique_slots + index.pair_slots)


@pytest.mark.parametrize("kind", ["i", "f"])
@pytest.mark.parametrize("count", [1, 300, 3000])
def test_sorted_order_bisection_answers_in_frontier_order(kind, count):
    # A bisected lookup argsorts the keys and scatters the positions back;
    # it answers as one plain searchsorted in frontier order, repeated and
    # out-of-range keys included.
    rng = np.random.default_rng(count)
    dtype = np.int64 if kind == "i" else np.float64
    table = np.unique(rng.integers(-(2**40), 2**40, 500)).astype(dtype)
    keys = np.concatenate(
        [
            rng.choice(table, count // 2),
            rng.integers(-(2**41), 2**41, count - count // 2).astype(dtype),
        ]
    )
    rng.shuffle(keys)
    pos, found = _lookup(table, None, keys)
    expected = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    assert pos.tolist() == expected.tolist()
    assert found.tolist() == (table[expected] == keys).tolist()
    assert found.sum() >= count // 2


def test_knows_pair_level_is_direct_address():
    # LSQB's knows(person1_id, person2_id) at scale 1.5: the costliest
    # bisection before direct-address levels was its pair level.
    knows = generate_lsqb_workload(scale_factor=1.5).catalog.get("knows")
    assert knows.num_rows == 2100
    index = build_probe_index(Atom("knows", knows, ["a", "b"]), ["a", "b"], {"a": "i", "b": "i"})
    assert len(index.pairs) == 1
    assert index.unique_slots[0] is not None and index.unique_slots[1] is not None
    assert index.pair_slots[0] is not None


_VALUES = st.one_of(
    st.integers(-50, 50),
    st.integers(-(2**20), 2**20),
    st.sampled_from(EDGES),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=1, max_size=30),
    probes=st.lists(st.tuples(_VALUES, _VALUES, _VALUES), max_size=30),
    key_count=st.integers(1, 3),
)
def test_drawn_indexes_answer_as_bisection(rows, probes, key_count):
    columns = [[row[j] for row in rows] for j in range(key_count)]
    tuples = [row[:key_count] for row in rows + probes]
    _assert_same_answers(columns, "i", tuples)
