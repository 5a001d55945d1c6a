"""The closed-loop driver: set-up, timed rounds, result checking, statistics.

One client in one process runs a workload's ops round-robin.  Everything
that is not the op itself -- ``gc.collect()``, result digests, comparison
with the expected digest -- happens between ops, outside the timed region.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

#: Results up to this many rows are canonicalized (sorted) before hashing;
#: larger ones use an order-independent per-row hash, so checking a 200k-row
#: result costs milliseconds, not the seconds a Python-keyed sort takes.
SMALL_ROWS = 4096

_MIX = np.uint64(0x9E3779B97F4A7C15)
_COLUMN_WEIGHTS = np.array(
    [0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93, 0xCA5A826395121157],
    dtype=np.uint64,
)


def digest(rows, ordered: bool = False) -> str:
    """A checksum of a result bag (or list, when ``ordered``).

    Equal results give equal digests in every process and Python version:
    nothing here depends on ``hash()``.
    """
    from repro.experiments.differential import canonicalize

    if hasattr(rows, "to_rows"):
        rows = rows.to_rows()
    count = len(rows)
    if count <= SMALL_ROWS or ordered:
        body = repr(canonicalize(rows, ordered)).encode()
        return f"{count}:{zlib.crc32(body):08x}"
    array = np.asarray(rows)
    if array.ndim == 2 and array.dtype.kind in "iu":
        weights = np.resize(_COLUMN_WEIGHTS, array.shape[1])
        with np.errstate(over="ignore"):
            mixed = (array.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)
            mixed ^= mixed >> np.uint64(29)
            total = int((mixed * _MIX).sum(dtype=np.uint64))
        return f"{count}:{total:016x}"
    total = 0
    for row in canonicalize(rows, ordered=True):  # normalizes, does not sort
        total += zlib.crc32(repr(row).encode())
    return f"{count}:{total & 0xFFFFFFFFFFFFFFFF:016x}"


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def best(values: Sequence[float]) -> float:
    """An op's time over its rounds: the fastest one.

    The box is a shared microVM and its noise is one-sided and comes in
    bursts that last longer than a round: a neighbour only ever adds time.
    Over the same eight runs of each workload, ``suite_s`` built from per-op
    medians spread (IQR / median) by up to 0.10 and ranged by up to 0.26;
    built from per-op minima it spread by at most 0.07 and ranged by at most
    0.10.  A regression bound needs the steadier one.  ``ops_per_s`` is the
    typical round instead, so a slow mode that most rounds hit still shows
    end to end, and every sample is in the record.
    """
    return min(values)


def quartiles(values: Sequence[float]) -> List[float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return [values[0], values[0]]
    first, _second, third = statistics.quantiles(values, n=4)
    return [first, third]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def percentile(values: Sequence[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter plus its largest reaped child.

    ``RUSAGE_CHILDREN`` only covers children that were waited for, so pools
    must be shut down before this is read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class OpResult:
    """What one op handed back to its caller."""

    rows: object  # a Table or a list of row tuples
    ordered: bool = False
    #: Seconds until the caller held its first result; None = the whole op.
    first_s: Optional[float] = None
    #: The engine's RunReport, when the op has one (traced runs read it).
    report: object = None
    #: ``StreamingSink.stats()`` of a streamed op (traced runs read it).
    stream: Optional[Dict[str, object]] = None


@dataclass
class Op:
    """One user-visible call of a workload."""

    name: str
    #: Ops with the same query id must return the same bag, whatever the
    #: engine, kernel switch or worker backend they name.
    query: str
    run: Callable[[], OpResult]
    #: The same call replayed as public layer calls, one span each.
    trace: Callable[[object], OpResult]
    #: Overrides the digest comparison (stateful ops check against a
    #: re-execution instead of a fixed expectation).
    verify: Optional[Callable[[OpResult], bool]] = None


@dataclass
class Sample:
    round: int
    wall_s: float
    first_s: float
    #: Traced passes only: child-span seconds by name, and the counters the
    #: program published for this call (``trace.facts_of``).
    spans: Dict[str, float] = field(default_factory=dict)
    facts: Dict[str, object] = field(default_factory=dict)


@dataclass
class Tally:
    """Everything a pass accumulates, keyed by op name."""

    samples: Dict[str, List[Sample]] = field(default_factory=dict)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    gc_s: float = 0.0
    check_s: float = 0.0
    failures: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)


def facts_of(result: OpResult) -> Dict[str, object]:
    """The small, JSON-safe part of what the program published for one call.

    Samples must not keep the RunReport itself: it holds the result rows.
    """
    facts: Dict[str, object] = {}
    report = result.report
    if report is not None:
        facts.update(
            engine=report.engine,
            build_s=report.build_seconds,
            join_s=report.join_seconds,
            other_s=report.other_seconds,
            kernels=report.details.get("kernels"),
            parallel=report.details.get("parallel"),
        )
    if result.stream is not None:
        facts["stream"] = result.stream
    return facts


def check(op: Op, result: OpResult, expected: Dict[str, str]) -> Optional[str]:
    """``None`` when the result is right, else what is wrong with it."""
    if op.verify is not None:
        return None if op.verify(result) else "differs from re-execution"
    got = digest(result.rows, result.ordered)
    want = expected.setdefault(op.query, got)
    if got != want:
        return f"digest {got} != {want} expected for query {op.query}"
    return None


def run_round(
    ops: Iterator[Op],
    tally: Tally,
    expected: Dict[str, str],
    tracer=None,
) -> float:
    """Run every op of one round once; returns the sum of op wall times."""
    total = 0.0
    tally.rounds += 1
    result = None
    for op in ops:
        # Drop the previous result first: freeing a 200k-row table would
        # otherwise be billed to this op when ``result`` is rebound.
        result = None
        started = time.perf_counter()
        gc.collect()
        tally.gc_s += time.perf_counter() - started
        tally.attempted += 1
        try:
            if tracer is None:
                started = time.perf_counter()
                result = op.run()
                wall = time.perf_counter() - started
                spans: Dict[str, float] = {}
                facts: Dict[str, object] = {}
            else:
                with tracer.op(op.name) as root:
                    result = op.trace(tracer)
                wall = root.end - root.start
                spans = tracer.child_durations(root)
                facts = facts_of(result)
        except Exception:  # the loop must go on; the op counts as failed
            tally.fail(f"{op.name} raised:\n{traceback.format_exc()}")
            continue
        total += wall
        started = time.perf_counter()
        problem = check(op, result, expected)
        tally.check_s += time.perf_counter() - started
        if problem is not None:
            tally.fail(f"{op.name}: {problem}")
            continue
        tally.samples.setdefault(op.name, []).append(
            Sample(
                round=tally.rounds,
                wall_s=wall,
                first_s=result.first_s if result.first_s is not None else wall,
                spans=spans,
                facts=facts,
            )
        )
    return total


def end_to_end_metrics(tally: Tally, setup_s: float) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics of one untraced pass (see README.md)."""
    op_times = [best([s.wall_s for s in rows]) for rows in tally.samples.values()]
    first_times = [best([s.first_s for s in rows]) for rows in tally.samples.values()]
    per_round: Dict[int, List[float]] = {}
    for rows in tally.samples.values():
        for sample in rows:
            per_round.setdefault(sample.round, []).append(sample.wall_s)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "suite_s": {"value": sum(op_times), "unit": "s"},
        "op_geomean_ms": {"value": geomean(op_times) * 1e3, "unit": "ms"},
        "first_result_geomean_ms": {
            "value": geomean(first_times) * 1e3,
            "unit": "ms",
        },
        "ops_per_s": {
            "value": median([len(walls) / sum(walls) for walls in per_round.values()]),
            "unit": "1/s",
        },
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def per_op_summary(tally: Tally) -> Dict[str, Dict[str, object]]:
    """Best, median, quartiles and sample count per op, for the JSON record."""
    summary = {}
    for name, rows in tally.samples.items():
        walls = [s.wall_s for s in rows]
        summary[name] = {
            "best_ms": best(walls) * 1e3,
            "median_ms": median(walls) * 1e3,
            "quartiles_ms": [q * 1e3 for q in quartiles(walls)],
            "first_best_ms": best([s.first_s for s in rows]) * 1e3,
            "samples": len(walls),
        }
    return summary


def jitter_p95(tally: Tally) -> float:
    """p95 over timed samples of sample / its op's median."""
    ratios = []
    for rows in tally.samples.values():
        walls = [s.wall_s for s in rows]
        middle = median(walls)
        ratios.extend(wall / middle for wall in walls)
    return percentile(ratios, 0.95)


def nproc() -> int:
    return len(os.sched_getaffinity(0))
