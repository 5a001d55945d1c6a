"""Oracle tests for the kernels' sorted indexes.

``ProbeIndex.probe`` must return, for every frontier tuple, the half-open
range of ``perm`` that lists exactly the relation's matching rows in
ascending original row order; ``DriverIndex`` must group rows by key in
first-occurrence order.  Both are checked against brute-force scans under
Python dict-key equality, the semantics the row-at-a-time engines join by.
"""

from __future__ import annotations

import random

import pytest

from repro.kernels.encoding import key_array
from repro.kernels.indexes import build_driver_index, build_probe_index
from repro.query.atoms import Atom
from repro.storage.table import Table

np = pytest.importorskip("numpy")

INT_MAX = 2**63 - 1
NAN = float("nan")

#: Per kind: values stored in the relation, and extra probe values that
#: fall below, between and above them (or are simply absent).
DOMAINS = {
    "i": ([-INT_MAX, -3, 0, 5, INT_MAX], [-INT_MAX + 1, -4, 1, 4, INT_MAX - 1]),
    "f": ([-0.0, 0.0, -2.5, 1.5, 1e300], [-1e301, -1.0, 0.5, 2.0, 1e301]),
    "c": (["a", "c", None, NAN, 7], ["b", "d", float("nan"), 8, ""]),
}


def _same_key(a, b) -> bool:
    return a is b or a == b


def _atom(columns) -> Atom:
    table = Table.from_columns("r", {f"k{j}": col for j, col in enumerate(columns)})
    return Atom("r", table, [f"k{j}" for j in range(len(columns))])


def _frontier(tuples, key_count: int, kind: str):
    """Encode frontier tuples the way the executor holds them: key arrays
    of another column in the same key space."""
    if not key_count:
        return []
    table = Table.from_columns("f", {f"k{j}": [t[j] for t in tuples] for j in range(key_count)})
    return [key_array(table.column(f"k{j}"), kind) for j in range(key_count)]


def _check_probe(columns, key_count: int, kind: str, tuples) -> None:
    size = len(columns[0])
    atom = _atom(columns)
    key_vars = [f"k{j}" for j in range(key_count)]
    index = build_probe_index(atom, key_vars, {var: kind for var in key_vars})
    lo, hi = index.probe(_frontier(tuples, key_count, kind), len(tuples))
    assert len(lo) == len(hi) == len(tuples)
    for t, start, stop in zip(tuples, lo.tolist(), hi.tolist()):
        expected = [
            row
            for row in range(size)
            if all(_same_key(columns[j][row], t[j]) for j in range(key_count))
        ]
        assert index.perm[start:stop].tolist() == expected, t


def _relation(rng: random.Random, kind: str, size: int, width: int = 3):
    stored = DOMAINS[kind][0]
    return [[rng.choice(stored) for _ in range(size)] for _ in range(width)]


def _probes(rng: random.Random, kind: str, columns, key_count: int, count: int = 40):
    stored, absent = DOMAINS[kind]
    size = len(columns[0])
    tuples = [tuple(rng.choice(stored + absent) for _ in range(key_count)) for _ in range(count)]
    # Stored tuples too, so most probes of a multi-key index hit.
    for _ in range(count if size else 0):
        row = rng.randrange(size)
        tuples.append(tuple(columns[j][row] for j in range(key_count)))
    return tuples


@pytest.mark.parametrize("kind", sorted(DOMAINS))
@pytest.mark.parametrize("key_count", [0, 1, 2, 3])
@pytest.mark.parametrize("size", [0, 1, 7, 60])
def test_probe_matches_brute_force_scan(kind, key_count, size):
    rng = random.Random(f"{kind}-{key_count}-{size}")
    columns = _relation(rng, kind, size)
    _check_probe(columns, key_count, kind, _probes(rng, kind, columns, key_count))


@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_probe_on_duplicate_tuples_lists_rows_in_original_order(kind):
    stored = DOMAINS[kind][0]
    columns = [[stored[i % 2] for i in range(12)], [stored[-1]] * 12]
    tuples = [(stored[0], stored[-1]), (stored[1], stored[-1]), (stored[0], stored[0])]
    _check_probe(columns, 2, kind, tuples)
    _check_probe(columns, 1, kind, [t[:1] for t in tuples])


def test_float_zeros_share_one_key():
    columns = [[0.0, -0.0, 1.0, -0.0], [2.0, 2.0, 2.0, 2.0]]
    _check_probe(columns, 2, "f", [(0.0, 2.0), (-0.0, 2.0), (0.0, -0.0)])
    index = build_probe_index(_atom(columns), ["k0"], {"k0": "f"})
    lo, hi = index.probe([np.asarray([-0.0, 0.0])], 2)
    assert (hi - lo).tolist() == [3, 3]


def test_keyless_probe_is_a_cross_product():
    atom = _atom([[5, 3, 5]])
    index = build_probe_index(atom, [], {})
    lo, hi = index.probe([], 4)
    assert lo.tolist() == [0] * 4 and hi.tolist() == [3] * 4
    assert index.perm.tolist() == [0, 1, 2]


def test_empty_relation_probes_empty_ranges():
    atom = _atom([[], []])
    for key_vars in ([], ["k0"], ["k0", "k1"]):
        index = build_probe_index(atom, key_vars, {var: "c" for var in key_vars})
        frontier = [np.asarray([0, 1, 2], dtype=np.int64) for _ in key_vars]
        lo, hi = index.probe(frontier, 3)
        assert (hi - lo).tolist() == [0, 0, 0]


@pytest.mark.parametrize("kind", sorted(DOMAINS))
@pytest.mark.parametrize("key_count", [0, 1, 2, 3])
def test_driver_index_groups_in_first_occurrence_order(kind, key_count):
    rng = random.Random(f"driver-{kind}-{key_count}")
    columns = _relation(rng, kind, 50)
    key_vars = [f"k{j}" for j in range(key_count)]
    index = build_driver_index(_atom(columns), key_vars, {var: kind for var in key_vars})
    groups: list = []
    for row in range(50):
        key = tuple(columns[j][row] for j in range(key_count))
        for group_key, rows in groups:
            if all(_same_key(a, b) for a, b in zip(group_key, key)):
                rows.append(row)
                break
        else:
            groups.append((key, [row]))
    assert index.group_count == len(groups)
    for g, (_key, rows) in enumerate(groups):
        assert index.rows_for_groups(g, g + 1).tolist() == rows
