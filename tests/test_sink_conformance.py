"""One conformance matrix for the output plane's sink contract.

A sink's producer surface is ``on_batch <- on_factorized_batch``; a sink
implements ``on_batch`` and overrides ``on_factorized_batch`` only to be
cheaper.  So for **every sink class x every entry point x every input
shape** the observable result — row bag, count, or aggregate rows — must
equal what the same sink class produces when the *reference expansion* of
that input is fed through the row paths' :class:`RowBatcher` one tuple at a
time, flushing every :data:`FLUSH_ROWS` rows — mid-input.  The entry points
are that batcher, the flat rows as single-row ``on_batch`` calls, the flat
rows as one ``on_batch``, and the batch itself through
``on_factorized_batch``.

The reference expansion (:func:`reference_pairs`) is an independent naive
enumerator over variable environments; it shares no code with
:func:`repro.engine.output.expand_factorized_batch`.

The **transport axis** holds the same matrix across a steal-task boundary:
the input split ``k`` ways, each part fed to a task sink built from the
sink's *pickled* ``task_sink()`` recipe, the pickled ``payload()``\\ s
absorbed by the parent — in task order, or shuffled and from ``k`` threads
for a sink that declares ``absorb_on_arrival`` — must leave the parent
observably equal to the one-sink reference.

The **order cells** hold the sinks that promise more than a bag — the two
materializing sinks and the row stream — to the reference expansion's row
*order*, through every entry point and across the transport in task order.
"""

from __future__ import annotations

import itertools
import pickle
import random
import threading

import pytest

from repro.engine.aggregates import (
    AggregateSpec,
    GroupedAggregateState,
    PartialAggregateSink,
)
from repro.engine.output import (
    CountSink,
    FactorizedSink,
    RowBatcher,
    RowSink,
    expand_factorized_batch,
)
from repro.engine.streaming import (
    StreamingAggregateSink,
    StreamingSink,
    StreamingTopKSink,
    collapse_grouped_batches,
)
from repro.errors import ExecutionError
from repro.query.planner import ResolvedOrderItem

BATCH_ROWS = 3  # small, so every streamed case splits across deliveries
FLUSH_ROWS = 2  # the batcher's flush size: every case of 3+ rows flushes mid-input

# --------------------------------------------------------------------------- #
# Input shapes: one factorized batch each (the one factorized shape)
# --------------------------------------------------------------------------- #

#: name -> (variables, prefix_variables, prefix_columns, factors, multiplicities)
CASES = {
    # Flat rows in factorized clothing, every multiplicity 1.
    "flat-multiplicities-none": (
        ("x", "y", "z"),
        ("x", "y", "z"),
        [[1, 1, 2, 3], [10, 11, 10, None], [5, 6, 7, 8]],
        [],
        None,
    ),
    # Bag multiplicities, including a 0 (not in the bag) and repeats.
    "flat-multiplicities-mixed": (
        ("x", "y", "z"),
        ("x", "y", "z"),
        [[1, 1, 2, 3], [10, 11, 10, 12], [5, 6, 7, 8]],
        [],
        [2, 0, 1, 3],
    ),
    # A negative multiplicity is not in the bag either.
    "flat-multiplicities-negative": (
        ("x", "y", "z"),
        ("x", "y", "z"),
        [[1, 1, 2, 3], [10, 11, 10, 12], [5, 6, 7, 8]],
        [],
        [2, -1, 1, 0],
    ),
    # Two independent factors, multiplicities, output order != batch layout.
    "two-factors-permuted": (
        ("z", "x", "y"),
        ("x",),
        [[1, 2]],
        [
            (("y",), [[10, 11, None, 12]], [0, 3, 4]),
            (("z",), [[5, 6, 7]], [0, 2, 3]),
        ],
        [3, 1],
    ),
    # The second group's only factor is empty: it contributes no rows (and,
    # for grouped aggregates, no phantom group for x = 2).
    "empty-factor": (
        ("x", "y", "z"),
        ("x", "z"),
        [[1, 2], [5, 6]],
        [(("y",), [[10, 11]], [0, 2, 2])],
        None,
    ),
    # A zero-multiplicity group with non-empty factors.
    "factor-multiplicity-zero": (
        ("x", "y", "z"),
        ("x", "z"),
        [[1, 2], [5, 6]],
        [(("y",), [[10, 11, 12]], [0, 2, 3])],
        [0, 2],
    ),
    # The aggregate sinks group by ``x`` — here ``x`` lives inside a factor,
    # so the fold cannot use the prefix as the group key.
    "group-key-inside-factor": (
        ("x", "y", "z"),
        ("z",),
        [[5, 6]],
        [(("x", "y"), [[1, 2, 1], [10, 11, 12]], [0, 2, 3])],
        [2, 1],
    ),
    # Mixed int/float aggregate inputs (exact binary fractions) with NULLs,
    # the group key in the prefix and the SUM/AVG input inside a factor.
    "mixed-int-float": (
        ("x", "y", "z"),
        ("x", "z"),
        [[1, 2, 1], [5, 2.5, None]],
        [(("y",), [[10, 0.5, None, 2.25, 7]], [0, 2, 4, 5])],
        [1, 3, 2],
    ),
    # No output columns at all: only the multiplicities carry the rows.
    "zero-columns": ((), (), [], [], [2, 0, 1]),
}


def group_count(case) -> int:
    """Groups in one case's batch (any plane determines it)."""
    _variables, _prefix_variables, prefix_columns, factors, multiplicities = case
    if prefix_columns:
        return len(prefix_columns[0])
    if factors:
        return len(factors[0][2]) - 1
    return len(multiplicities or ())


def reference_pairs(case):
    """Naive ``(row, multiplicity)`` expansion of one case, zeros included."""
    variables, prefix_variables, prefix_columns, factors, multiplicities = case
    pairs = []
    for group in range(group_count(case)):
        env = {var: column[group] for var, column in zip(prefix_variables, prefix_columns)}
        segments = []
        for factor_variables, columns, offsets in factors:
            segments.append(
                [
                    {var: column[j] for var, column in zip(factor_variables, columns)}
                    for j in range(offsets[group], offsets[group + 1])
                ]
            )
        multiplicity = 1 if multiplicities is None else multiplicities[group]
        for choice in itertools.product(*segments):
            bound = dict(env)
            for part in choice:
                bound.update(part)
            pairs.append((tuple(bound[var] for var in variables), multiplicity))
    return pairs


# --------------------------------------------------------------------------- #
# Sinks: how to build one for a case, and what to observe afterwards
# --------------------------------------------------------------------------- #


def _spec(variables) -> AggregateSpec:
    if not variables:
        return AggregateSpec(items=(("COUNT", None, "n"),), group_by=(), variables=())
    return AggregateSpec(
        items=(
            (None, "x", "x"),
            ("COUNT", None, "n"),
            ("COUNT", "y", "ny"),
            ("SUM", "y", "sy"),
            ("MIN", "z", "lo"),
            ("MAX", "z", "hi"),
        ),
        group_by=("x",),
        variables=tuple(variables),
    )


def _delivered(sink) -> list:
    """Finish a streaming sink and drain it, checking the batch bound."""
    sink.finish()
    batches = []
    while (batch := sink.next_batch()) is not None:
        assert 0 < len(batch) <= BATCH_ROWS
        batches.append(batch)
    return batches


def _stream_kwargs():
    # Nobody consumes while the test produces: the queue must hold it all.
    return dict(batch_rows=BATCH_ROWS, max_batches=10_000)


SINKS = {
    "RowSink": (
        lambda variables: RowSink(variables),
        lambda sink: (
            sink.result().count(),
            sorted(sink.result().iter_rows(), key=repr),
        ),
    ),
    "CountSink": (
        lambda variables: CountSink(variables),
        lambda sink: sink.result().count(),
    ),
    "FactorizedSink": (
        lambda variables: FactorizedSink(variables),
        lambda sink: (
            sink.result().count(),
            sorted(sink.result().iter_rows(), key=repr),
        ),
    ),
    "PartialAggregateSink": (
        lambda variables: PartialAggregateSink(_spec(variables)),
        # The aggregate rows and the join cardinality they stand for.
        lambda sink: (sink.state.finalize_rows(), sink.result().count()),
    ),
    "StreamingSink": (
        lambda variables: StreamingSink(variables, **_stream_kwargs()),
        lambda sink: sorted(
            itertools.chain.from_iterable(_delivered(sink)), key=repr
        ),
    ),
    "StreamingAggregateSink": (
        lambda variables: StreamingAggregateSink(
            _spec(variables), **dict(_stream_kwargs(), batch_rows=2)
        ),
        lambda sink: collapse_grouped_batches(
            _delivered(sink), [0] if sink.spec.group_by else []
        ),
    ),
    "StreamingTopKSink": (
        lambda variables: StreamingTopKSink(
            variables,
            limit=4,
            order_by=[ResolvedOrderItem(0, True)] if variables else [],
            **_stream_kwargs(),
        ),
        lambda sink: list(itertools.chain.from_iterable(_delivered(sink))),
    ),
}


def _feed(sink, entry, case) -> None:
    pairs = reference_pairs(case)
    rows = [row for row, _multiplicity in pairs]
    multiplicities = None if case[4] is None else [m for _row, m in pairs]
    if entry == "batcher":
        batcher = RowBatcher(sink)
        batcher.size = FLUSH_ROWS
        for row, multiplicity in pairs:
            batcher.emit(row, multiplicity)
        batcher.flush()
    elif entry == "single-row on_batch":
        for row, multiplicity in pairs:
            sink.on_batch(
                [[value] for value in row], None if multiplicities is None else [multiplicity]
            )
    elif entry == "on_batch":
        sink.on_batch([list(column) for column in zip(*rows)], multiplicities)
    else:
        sink.on_factorized_batch(*case[1:])


ENTRIES = ["batcher", "single-row on_batch", "on_batch", "on_factorized_batch"]


@pytest.mark.parametrize("case_name", sorted(CASES))
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("sink_name", sorted(SINKS))
def test_every_entry_point_matches_the_reference_through_the_batcher(
    sink_name, entry, case_name
):
    make, observe = SINKS[sink_name]
    case = CASES[case_name]
    reference = make(case[0])
    _feed(reference, "batcher", case)
    sink = make(case[0])
    _feed(sink, entry, case)
    assert observe(sink) == observe(reference)


#: Sinks whose rows come back in the order they went in: sink -> its rows.
ORDERED = {
    "RowSink": lambda sink: sink.result().to_rows(),
    "FactorizedSink": lambda sink: sink.result().to_rows(),
    "StreamingSink": lambda sink: list(itertools.chain.from_iterable(_delivered(sink))),
}


def reference_rows_in_order(case) -> list:
    """The reference expansion as a flat row list, multiplicities applied."""
    return [row for row, multiplicity in reference_pairs(case) for _ in range(multiplicity)]


@pytest.mark.parametrize("case_name", sorted(CASES))
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("sink_name", sorted(ORDERED))
def test_ordered_sinks_keep_the_reference_row_order(sink_name, entry, case_name):
    case = CASES[case_name]
    sink = SINKS[sink_name][0](case[0])
    _feed(sink, entry, case)
    if sink_name != "StreamingSink":
        assert list(sink.result().iter_rows()) == reference_rows_in_order(case)
    assert ORDERED[sink_name](sink) == reference_rows_in_order(case)


# --------------------------------------------------------------------------- #
# The transport axis: task_sink() -> payload() -> absorb()
# --------------------------------------------------------------------------- #

#: sink -> (what one steal task of it folds into, absorb_on_arrival)
TRANSPORT = {
    "RowSink": (RowSink, False),
    "CountSink": (CountSink, False),
    "FactorizedSink": (FactorizedSink, False),
    "PartialAggregateSink": (PartialAggregateSink, True),
    "StreamingSink": (FactorizedSink, True),
    "StreamingAggregateSink": (PartialAggregateSink, True),
    "StreamingTopKSink": (FactorizedSink, True),
}


def split_case(case, k):
    """``case`` cut into ``k`` contiguous runs of groups (empty runs included)."""
    variables, prefix_variables, prefix_columns, factors, multiplicities = case
    bounds = [group_count(case) * i // k for i in range(k + 1)]
    return [
        (
            variables,
            prefix_variables,
            [column[lo:hi] for column in prefix_columns],
            [
                (
                    factor_variables,
                    [column[offsets[lo] : offsets[hi]] for column in columns],
                    [offset - offsets[lo] for offset in offsets[lo : hi + 1]],
                )
                for factor_variables, columns, offsets in factors
            ],
            None if multiplicities is None else multiplicities[lo:hi],
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]


def test_every_sink_names_its_task_sink_and_its_ordering():
    assert sorted(TRANSPORT) == sorted(SINKS)
    for sink_name, (task_class, on_arrival) in TRANSPORT.items():
        sink = SINKS[sink_name][0](("x", "y", "z"))
        assert type(sink.task_sink()()) is task_class, sink_name
        assert sink.absorb_on_arrival is on_arrival, sink_name


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("case_name", sorted(CASES))
@pytest.mark.parametrize("sink_name", sorted(SINKS))
def test_split_pickled_and_absorbed_matches_the_one_sink_reference(sink_name, case_name, k):
    make, observe = SINKS[sink_name]
    case = CASES[case_name]
    reference = make(case[0])
    _feed(reference, "batcher", case)
    expected = observe(reference)
    parts = split_case(case, k)
    assert sum(len(reference_pairs(part)) for part in parts) == len(reference_pairs(case))
    shuffle = random.Random(f"{sink_name}/{case_name}/{k}").shuffle

    for entry in ENTRIES:
        parent = make(case[0])
        recipe = pickle.loads(pickle.dumps(parent.task_sink()))
        payloads = []
        for part in parts:
            task = recipe()
            _feed(task, entry, part)
            payloads.append(pickle.loads(pickle.dumps(task.payload())))
        if parent.absorb_on_arrival:
            # Any completion order, from as many threads as there are tasks.
            shuffle(payloads)
            threads = [
                threading.Thread(target=parent.absorb, args=(payload,)) for payload in payloads
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
        else:
            for payload in payloads:  # task order, this thread
                parent.absorb(payload)
        if sink_name in ORDERED and not parent.absorb_on_arrival:
            # Ordered absorb is concatenation: serial order, not just the bag.
            assert parent.result().to_rows() == reference.result().to_rows()
            assert parent.result().to_rows() == reference_rows_in_order(case)
        assert observe(parent) == expected, entry


def _tuples_in(payload):
    """Every tuple nested anywhere inside the lists and tuples of ``payload``."""
    if isinstance(payload, (list, tuple)):
        if isinstance(payload, tuple):
            yield payload
        for item in payload:
            yield from _tuples_in(item)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case_name", sorted(name for name in CASES if CASES[name][0]))
def test_row_sink_task_payload_ships_columns_not_row_tuples(case_name, entry):
    """What crosses a process boundary for a row result is column lists."""
    case = CASES[case_name]
    task = RowSink(case[0]).task_sink()()
    _feed(task, entry, case)
    payload = pickle.loads(pickle.dumps(task.payload()))
    rows = reference_rows_in_order(case)
    assert rows and not [item for item in _tuples_in(payload) if item in rows]


def random_case(rng: random.Random):
    """One random batch in the factorized shape, output layout permuted.

    0-3 factors (some zero-width), segments of 0-7 rows (the product of one
    group can reach 343), offsets that need not start at 0, multiplicities
    absent or in -1..3, and output variables a shuffled subset of the bound
    ones.
    """
    fresh = iter("abcdefghij")
    groups = rng.randint(0, 4)
    prefix_variables = tuple(next(fresh) for _ in range(rng.randint(0, 2)))
    prefix_columns = [[rng.randint(0, 9) for _ in range(groups)] for _ in prefix_variables]
    factors = []
    for _ in range(rng.randint(0, 3)):
        factor_variables = tuple(next(fresh) for _ in range(rng.randint(0, 2)))
        offsets = [rng.choice([0, 2])]
        for _ in range(groups):
            offsets.append(offsets[-1] + rng.choice([0, 1, 2, 3, 7]))
        columns = [[rng.randint(0, 99) for _ in range(offsets[-1])] for _ in factor_variables]
        factors.append((factor_variables, columns, offsets))
    multiplicities = None
    if rng.random() < 0.6:
        multiplicities = [rng.randint(-1, 3) for _ in range(groups)]
    layout = list(prefix_variables) + [var for names, *_ in factors for var in names]
    rng.shuffle(layout)
    variables = tuple(layout[: rng.randint(0, len(layout))])
    return variables, prefix_variables, prefix_columns, factors, multiplicities


@pytest.mark.parametrize("max_rows", [None, 1, 2, 5, 1024])
def test_expander_slices_match_the_product_reference(max_rows):
    rng = random.Random(f"expander/{max_rows}")
    for _ in range(300):
        case = random_case(rng)
        expected = [(row, m) for row, m in reference_pairs(case) if m > 0]
        slices = list(expand_factorized_batch(*case, max_rows))
        got = []
        for columns, multiplicities in slices:
            width = len(columns[0]) if columns else len(multiplicities)
            assert len(columns) == len(case[0])
            assert all(len(column) == width for column in columns)
            if multiplicities is None:
                assert case[4] is None and columns
                multiplicities = [1] * width
            rows = list(zip(*columns)) if columns else [()] * width
            got.extend(zip(rows, multiplicities))
        assert got == expected, case
        # Full slices of max_rows, then the rest: a large group is cut too.
        widths = [len(columns[0]) if columns else len(m) for columns, m in slices]
        assert 0 not in widths and sum(widths) == len(expected)
        if max_rows is None:
            assert len(slices) <= 1
        else:
            assert all(width == max_rows for width in widths[:-1])
            assert max(widths, default=0) <= max_rows


def test_reference_expansion_is_what_the_cases_say():
    """Pin the oracle itself on the one case worth reading by hand."""
    assert reference_pairs(CASES["two-factors-permuted"]) == [
        ((5, 1, 10), 3), ((6, 1, 10), 3),
        ((5, 1, 11), 3), ((6, 1, 11), 3),
        ((5, 1, None), 3), ((6, 1, None), 3),
        ((7, 2, 12), 1),
    ]


# --------------------------------------------------------------------------- #
# What the matrix cannot see: *how* a sink got there
# --------------------------------------------------------------------------- #


def test_prefix_keyed_groups_fold_without_expansion():
    """A group whose key is in the prefix is one fold, not 100 rows."""
    spec = AggregateSpec(
        items=(("COUNT", None, "n"),), group_by=("x",), variables=("x", "y")
    )
    batch = (("x",), [[5]], [(("y",), [list(range(100))], [0, 100])], [2])
    partial = PartialAggregateSink(spec)
    partial.on_factorized_batch(*batch)
    assert partial.folded == 1
    rows, [(key, (packed,))] = partial.payload()
    assert key == (5,) and packed[0] == 200  # multiplicity * factor size
    assert rows == 200 == partial.result().count()  # the join cardinality, not the fold count

    streaming = StreamingAggregateSink(spec, **_stream_kwargs())
    streaming.on_factorized_batch(*batch)
    assert streaming.aggregate_stats()["folded_rows"] == 1
    assert streaming.stats()["factorized_batches"] == 1


# --------------------------------------------------------------------------- #
# fold_columns: the one flat-batch fold, against fold_row as the reference
# --------------------------------------------------------------------------- #

_FOLD_ITEMS = (
    ("COUNT", None, "n"),
    ("COUNT", "y", "ny"),
    ("SUM", "y", "sy"),
    ("AVG", "y", "ay"),
    ("MIN", "z", "lo"),
    ("MAX", "z", "hi"),
)
#: Inexact floats next to ints: any change in accumulation order shows.
_FOLD_Y = [0.1, 10**16, None, -(10**16), 3, 0.2, 7.7, None, 1e-9, 5]
_FOLD_Z = [4, None, 9.5, 2, 2.0, None, 11, 3, 8, 2]
_FOLD_X = [1, 2, 1, None, 2, 1, None, 3, 1, 2]


@pytest.mark.parametrize("multiplicities", [None, [2, 0, 1, 3, 1, 0, 4, 1, 1, 2]])
@pytest.mark.parametrize("grouped", [False, True])
def test_fold_columns_is_bit_identical_to_the_row_fold(grouped, multiplicities):
    items = (((None, "x", "x"),) if grouped else ()) + _FOLD_ITEMS
    spec = AggregateSpec(
        items=items, group_by=("x",) if grouped else (), variables=("x", "y", "z")
    )
    columns = [_FOLD_X, _FOLD_Y, _FOLD_Z]
    by_row = GroupedAggregateState(spec)
    for row, multiplicity in zip(zip(*columns), multiplicities or [1] * len(_FOLD_X)):
        if multiplicity > 0:
            by_row.fold_row(row, multiplicity)

    whole = GroupedAggregateState(spec)
    touched = whole.fold_columns(columns, multiplicities)
    assert sorted(touched, key=repr) == sorted(by_row.groups, key=repr)
    # payload() carries the raw float totals: equality here is bit-identity.
    assert whole.payload() == by_row.payload()
    assert whole.finalize_rows() == by_row.finalize_rows()

    # Two batches fold like one: the state carries over in row order.
    halves = GroupedAggregateState(spec)
    for part in (slice(0, 4), slice(4, None)):
        halves.fold_columns(
            [column[part] for column in columns],
            None if multiplicities is None else multiplicities[part],
        )
    assert halves.payload() == by_row.payload()


def test_fold_columns_on_empty_input_keeps_the_all_empty_row():
    spec = AggregateSpec(items=_FOLD_ITEMS, group_by=(), variables=("x", "y", "z"))
    state = GroupedAggregateState(spec)
    assert state.fold_columns([[], [], []]) == []
    assert state.fold_columns([[1], [2], [3]], [0]) == []  # not in the bag
    assert state.rows == 0 and not state.groups
    assert state.finalize_rows() == [(0, 0, None, None, None, None)]


def test_factorized_sink_stores_batches_unexpanded():
    sink = FactorizedSink(["x", "a", "b"])
    sink.on_batch([[0], [0], [0]])  # flat batches and groups interleave in order
    sink.on_factorized_batch(
        ("x",), [[1]], [(("a",), [[1] * 10], [0, 10]), (("b",), [[2] * 10], [0, 10])]
    )
    result = sink.result()
    assert result.is_factorized()
    assert result.count() == 101
    assert len(result.batches) == 2
    rows = list(result.iter_rows())
    assert rows[0] == (0, 0, 0) and rows[1:] == [(1, 1, 2)] * 100


@pytest.mark.parametrize("sink_name", ["RowSink", "FactorizedSink", "StreamingSink"])
def test_unbound_output_variable_is_rejected(sink_name):
    make, observe = SINKS[sink_name]
    sink = make(("x", "missing"))
    with pytest.raises(ExecutionError):
        sink.on_factorized_batch(("x",), [[1]], [(("y",), [[2]], [0, 1])])
        observe(sink)  # the factorized sink only expands when read
