"""Batch-at-a-time execution of compiled kernel programs.

The executor drives a program in driver-row chunks: each chunk seeds a
*frontier* (aligned arrays: per-source row indices, per-variable key
arrays, an optional bag-multiplicity vector), every step resolves all of
the chunk's probes with one ``searchsorted`` pass over a cached sorted
index, and the surviving frontier is decoded and emitted through the
sink's columnar batch entry point (``OutputSink.on_batch``) — decoded
value columns stay columns all the way into the sink.

With ``factorize=True`` the executor also emits *factorized* output
(Section 4.4 / Fig. 19) straight off the chunked frontier: probe steps
whose new variables feed nothing but the output are held out of the core
frontier loop, probed once per surviving prefix row, and emitted through
``OutputSink.on_factorized_batch`` as flat factor columns segmented by a
per-group offsets vector — the Cartesian product is never expanded.

Step scheduling is *adaptive*: the compiled step order is only a
dependency order, and a chunk executes its steps greedily by smallest
resulting frontier — every runnable step (key variables bound) is probed
first, which prices each candidate with its **actual** match counts on
the actual frontier, and the cheapest one runs.  Static average fan-out
estimates cannot see key skew (a handful of hot keys can realize a 100x
fan where the average says 4x); actual counts can, so selective probes
run before explosive ones and intermediate frontiers stay near the
output size.  Probes are ``searchsorted`` passes — cheap relative to the
expansions they get to avoid.  Should even the cheapest runnable step
exceed :data:`FRONTIER_GUARD_ROWS` before anything was emitted, the
executor raises :class:`KernelFrontierExplosion` and the engine re-runs
the pipeline on the row-at-a-time path (reason ``frontier-explosion``),
whose value-at-a-time intersection never materializes the blowup.

Deadline semantics: the loop calls ``DeadlineToken.check()`` at every
(chunk x step) boundary, and — because a single driver chunk can fan out
to millions of output rows on a skewed key — the decode/emit tail of each
chunk is additionally sliced into :data:`EMIT_ROWS`-row pieces with a
check between slices.  That bounds the work between any two checks to a
few thousand vectorized probes or one emission slice, so ``timeout=``
enforcement stays responsive in wall-clock terms like the old per-row
strided tick (which consulted the clock every 64 Python-interpreted rows).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.engine.output import CountSink
from repro.kernels.encoding import decode_gather, key_array
from repro.kernels.indexes import driver_index, probe_index
from repro.kernels.program import KernelProgram

try:  # pragma: no cover
    import numpy as np
except Exception:  # pragma: no cover
    np = None

#: Driver rows per batch.  Chunks double as streaming batches and deadline
#: tick boundaries.
CHUNK_ROWS = 4096

#: Output rows decoded/emitted between deadline checks.  The per-row cost
#: of the emission tail (decode + tuple build + sink) is a few µs, so one
#: slice bounds the gap between checks to ~0.1 s even when a chunk's
#: frontier explodes on a skewed key.
EMIT_ROWS = 32_768

#: Frontier rows beyond which an expansion is declared an explosion (when
#: nothing has been emitted yet, so falling back to the row path is still
#: safe).  Each frontier column is an int64 array, and a chunk carries one
#: per key variable plus one per expanded source — a 32M-row frontier is
#: already gigabytes of gathers per step, where the row path's
#: value-at-a-time intersection costs memory proportional to the *output*.
FRONTIER_GUARD_ROWS = 32_000_000


class KernelFrontierExplosion(Exception):
    """Even the cheapest runnable step would exceed the frontier guard.

    Raised only while the sink is still untouched; callers re-run the
    pipeline on the row-at-a-time path and record the message
    (``frontier-explosion``) as the kernel fallback reason.
    """


def new_stats() -> Dict[str, int]:
    """A fresh per-run kernel telemetry accumulator."""
    return {
        "batches": 0,
        "rows_in": 0,
        "rows_out": 0,
        "program_hits": 0,
        "program_misses": 0,
        "index_hits": 0,
        "index_misses": 0,
        "factorized_batches": 0,
        "factorized_groups": 0,
        "factorized_rows": 0,
    }


def merge_stats(into: Dict[str, int], delta: Optional[Dict[str, int]]) -> None:
    """Accumulate one stats delta (``None`` is a no-op)."""
    if not delta:
        return
    for key, value in delta.items():
        if isinstance(value, (int, float)):
            into[key] = into.get(key, 0) + value


def factor_step_indices(program: KernelProgram) -> frozenset:
    """Steps that can be emitted as independent output factors.

    A step qualifies when its matches feed nothing but the output: it
    expands, none of its new variables is a probe key of any step, and at
    least one of them is an output variable.  Such steps are mutually
    independent given the core frontier, so their matches form the factors
    of a factorized group.
    """
    keyed = set()
    for step in program.steps:
        keyed.update(step.key_vars)
    outputs = set(program.output_variables)
    return frozenset(
        i
        for i, step in enumerate(program.steps)
        if step.expand
        and not keyed.intersection(step.new_vars)
        and outputs.intersection(step.new_vars)
    )


def execute_program(
    program: KernelProgram,
    sink,
    *,
    start: Optional[int] = None,
    stop: Optional[int] = None,
    interrupt=None,
    stats: Optional[Dict[str, int]] = None,
    chunk_rows: int = CHUNK_ROWS,
    factorize: bool = False,
) -> Dict[str, int]:
    """Run ``program`` over an entry range, emitting into ``sink``.

    ``[start, stop)`` addresses driver *rows* when the program has no
    ``group_vars``, else driver *groups* in first-occurrence order — the
    same ranges the steal scheduler's tasks carry.  ``None`` bounds mean
    the full relation.

    With ``factorize=True`` (the sink must advertise
    ``accepts_factorized``), output-only probe steps are emitted as
    independent factors through ``sink.on_factorized_batch`` instead of
    being expanded into the frontier.
    """
    if stats is None:
        stats = new_stats()
    driver = program.driver
    if program.group_vars is None:
        lo = 0 if start is None else max(0, start)
        hi = driver.size if stop is None else min(stop, driver.size)
        rows = None
    else:
        dindex = driver_index(driver, program.group_vars, program.kinds, stats)
        group_stop = dindex.group_count if stop is None else stop
        rows = dindex.rows_for_groups(start or 0, group_stop)
        lo, hi = 0, rows.size

    count_mode = isinstance(sink, CountSink)
    factor_steps = (
        factor_step_indices(program) if factorize and not count_mode else frozenset()
    )
    count_total = 0
    offset = lo
    emitted_rows = 0
    while offset < hi:
        if interrupt is not None:
            interrupt.check()
        step_hi = min(offset + chunk_rows, hi)
        if rows is None:
            chunk = np.arange(offset, step_hi, dtype=np.int64)
        else:
            chunk = rows[offset:step_hi]
        offset = step_hi
        stats["batches"] += 1
        stats["rows_in"] += int(chunk.size)
        # The frontier guard may only abort to the row path while the sink
        # is untouched: count mode defers its single on_row to the end, row
        # mode is safe until the first chunk actually emits.
        before = stats["rows_out"]
        count_total += _run_chunk(
            program,
            chunk,
            sink,
            count_mode,
            interrupt=interrupt,
            stats=stats,
            guard=count_mode or emitted_rows == 0,
            factor_steps=factor_steps,
        )
        emitted_rows += 0 if count_mode else stats["rows_out"] - before
    if count_mode:
        sink.on_row((), count_total)
    return stats


def _segment_offsets(counts, total: int):
    """``[0..c0), [0..c1), ...`` concatenated: offsets within each segment."""
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


def _run_chunk(
    program: KernelProgram,
    chunk,
    sink,
    count_mode: bool,
    *,
    interrupt,
    stats: Dict[str, int],
    guard: bool = False,
    factor_steps: frozenset = frozenset(),
) -> int:
    """Execute one driver chunk; returns the logical output rows emitted."""
    driver = program.driver
    kinds = program.kinds
    rowidx: Dict[int, object] = {-1: chunk}
    keys: Dict[str, object] = {}
    for var in program.driver_load_keys:
        column = driver.table.column(driver.column_for(var))
        keys[var] = key_array(column, kinds[var])[chunk]
    mult = None
    n = int(chunk.size)

    # Greedy smallest-frontier-first scheduling over the compiled steps.
    # The compiled order is only a dependency order (a step is runnable
    # once its key variables are bound); which runnable step executes next
    # is decided by probing them all and taking the one whose result is
    # smallest — actual counts on the actual frontier, so skewed hot keys
    # cannot hide behind a benign average fan-out.  Ties keep compiled
    # order, and the lowest-index pending step is always runnable, so the
    # loop is total.  Reordering is semantics-free: each step performs the
    # same relational operation wherever it runs (expand/compress flags and
    # decode sources depend on *which* steps need a variable, not on when),
    # only the emission order within the chunk changes.
    pending = [i for i in range(len(program.steps)) if i not in factor_steps]
    while pending:
        if n == 0:
            return 0
        if interrupt is not None:
            interrupt.check()
        best = None
        for candidate in pending:
            step = program.steps[candidate]
            if any(var not in keys for var in step.key_vars):
                continue
            index = probe_index(step.atom, step.key_vars, kinds, stats)
            lo, hi = index.probe([keys[var] for var in step.key_vars], n)
            counts = hi - lo
            if step.expand:
                projected = int(counts.sum())
            else:
                projected = int((counts > 0).sum())
            if projected == 0:
                # This step must eventually run and would empty the
                # frontier; the whole chunk produces nothing.
                return 0
            if best is None or projected < best[0]:
                best = (projected, candidate, index, lo, counts)
        projected, step_index, index, lo, counts = best
        pending.remove(step_index)
        step = program.steps[step_index]
        if step.expand:
            total = projected
            if guard and total > FRONTIER_GUARD_ROWS:
                raise KernelFrontierExplosion("frontier-explosion")
            parent = np.repeat(np.arange(n, dtype=np.int64), counts)
            offsets = np.repeat(lo, counts) + _segment_offsets(counts, total)
            matches = index.perm[offsets]
            for var in list(keys):
                keys[var] = keys[var][parent]
            for source in list(rowidx):
                rowidx[source] = rowidx[source][parent]
            if mult is not None:
                mult = mult[parent]
            rowidx[step_index] = matches
            for var in step.load_keys:
                column = step.atom.table.column(step.atom.column_for(var))
                keys[var] = key_array(column, kinds[var])[matches]
            n = total
        else:
            keep = counts > 0
            kept = projected
            if kept != n:
                for var in list(keys):
                    keys[var] = keys[var][keep]
                for source in list(rowidx):
                    rowidx[source] = rowidx[source][keep]
                if mult is not None:
                    mult = mult[keep]
                counts = counts[keep]
                n = kept
            mult = counts.astype(np.int64) if mult is None else mult * counts

    if count_mode:
        logical = n if mult is None else int(mult.sum())
        stats["rows_out"] += n
        return logical

    return _emit(
        program,
        sink,
        rowidx,
        keys,
        mult,
        n,
        factor_steps,
        interrupt=interrupt,
        stats=stats,
        guard=guard,
    )


def _emit(
    program: KernelProgram,
    sink,
    rowidx,
    keys,
    mult,
    n: int,
    factor_steps: frozenset,
    *,
    interrupt,
    stats: Dict[str, int],
    guard: bool,
) -> int:
    """Decode the surviving frontier and emit it, factorized where held out.

    Each frontier row becomes one *group*: a prefix (decoded from the core
    frontier's source atoms — original storage, so values round-trip
    exactly) times one independent factor per held-out step, probed once
    here.  Factor matches are decoded into flat columns segmented by an
    offsets vector — no Cartesian expansion ever happens; sinks that need
    flat rows should not be handed a factorized program.  Without held-out
    steps the batch has no factors and goes out as a plain columnar batch.
    A sink that ``packs_columns`` gets numeric prefix columns and the
    multiplicities as the arrays themselves.
    The tail is sliced so a fan-out chunk cannot outrun the deadline: decode
    + column build + sink cost a few µs per row, unbounded per chunk.
    """
    driver = program.driver
    kinds = program.kinds
    order = sorted(factor_steps)
    packed = sink.packs_columns

    # One probe per factor step over the final frontier.  Groups where any
    # factor comes up empty produce no output rows (inner-join semantics)
    # and are filtered before emission.
    probes = []
    keep = None
    for step_index in order:
        step = program.steps[step_index]
        index = probe_index(step.atom, step.key_vars, kinds, stats)
        lo, hi = index.probe([keys[var] for var in step.key_vars], n)
        counts = hi - lo
        probes.append([step_index, index, lo, counts])
        nonempty = counts > 0
        keep = nonempty if keep is None else keep & nonempty
    if keep is not None and not keep.all():
        for source in list(rowidx):
            rowidx[source] = rowidx[source][keep]
        if mult is not None:
            mult = mult[keep]
        for probe in probes:
            probe[2] = probe[2][keep]
            probe[3] = probe[3][keep]
        n = int(keep.sum())
    if n == 0:
        return 0
    if guard:
        for _step_index, _index, _lo, counts in probes:
            if int(counts.sum()) > FRONTIER_GUARD_ROWS:
                raise KernelFrontierExplosion("frontier-explosion")

    # A factor holds the output variables its step binds.  Everything else
    # — the step's probe keys included, although the step, as their last
    # expanded binder, is their flat-output decode source — was bound by the
    # core frontier and is decoded from its last core binder (else the
    # driver) into the prefix, so a group key never ends up inside a factor.
    factor_vars = {
        step_index: tuple(
            var
            for var in program.output_variables
            if var in program.steps[step_index].new_vars
        )
        for step_index in order
    }
    in_factor = {var for variables in factor_vars.values() for var in variables}
    core = [i for i, step in enumerate(program.steps) if step.expand and i not in factor_steps]
    prefix = [
        (var, max((i for i in core if var in program.steps[i].atom.variables), default=-1))
        for var in program.output_variables
        if var not in in_factor
    ]
    prefix_vars = tuple(var for var, _source in prefix)

    logical = 0
    for emit_lo in range(0, n, EMIT_ROWS):
        if interrupt is not None and emit_lo:
            interrupt.check()
        emit = slice(emit_lo, min(emit_lo + EMIT_ROWS, n))
        groups = emit.stop - emit_lo

        prefix_columns = []
        for var, source in prefix:
            atom = driver if source < 0 else program.steps[source].atom
            column = atom.table.column(atom.column_for(var))
            prefix_columns.append(decode_gather(column, rowidx[source][emit], packed))

        factors = []
        per_group = None if mult is None else mult[emit]
        multiplicities = per_group if packed or per_group is None else per_group.tolist()
        for step_index, index, lo, counts in probes:
            step = program.steps[step_index]
            counts_slice = counts[emit]
            total = int(counts_slice.sum())
            offsets = np.repeat(lo[emit], counts_slice) + _segment_offsets(
                counts_slice, total
            )
            matches = index.perm[offsets]
            columns = [
                decode_gather(
                    step.atom.table.column(step.atom.column_for(var)), matches
                )
                for var in factor_vars[step_index]
            ]
            boundaries = np.zeros(groups + 1, dtype=np.int64)
            boundaries[1:] = np.cumsum(counts_slice)
            factors.append(
                (factor_vars[step_index], columns, boundaries.tolist())
            )
            per_group = counts_slice if per_group is None else per_group * counts_slice
        logical += groups if per_group is None else int(per_group.sum())
        if factors:
            sink.on_factorized_batch(prefix_vars, prefix_columns, factors, multiplicities)
            stats["factorized_batches"] += 1
            stats["factorized_groups"] += groups
        else:
            if not prefix_columns and multiplicities is None:
                multiplicities = [1] * groups  # no column carries the row count
            sink.on_batch(prefix_columns, multiplicities)
    stats["rows_out"] += n
    if factor_steps:
        stats["factorized_rows"] += logical
    return logical
