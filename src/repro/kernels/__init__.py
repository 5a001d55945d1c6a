"""The columnar kernel plane: batch-at-a-time join execution.

This package rewrites the hot path of all three engines as vectorized
numpy operations (Section 4.3's vectorization taken to its batch-at-a-time
conclusion): per-plan :class:`~repro.kernels.program.KernelProgram`\\ s are
compiled and cached by ``Table.fingerprint()`` + plan shape, probes run as
``searchsorted`` sweeps over fingerprint-cached sorted indexes, and
projection/output assembly decodes whole frontiers at once into the sinks'
batch entry points.

The vectorized path is the default everywhere — including factorized
output, which the executor emits straight off the chunked frontier as
shared prefixes plus independent factor columns (``factorize=True``).
The row-at-a-time code remains as the semantic reference (the
differential fuzz suite pins the kernels to it) and as the fallback for
the few shapes the kernels do not cover (hand-written Free Join plans,
probe-only roots, missing numpy) — plus the rare skew-driven frontier
explosion the executor detects at runtime
(:class:`~repro.kernels.executor.KernelFrontierExplosion`).  Set
``REPRO_KERNELS=off`` to force the fallback globally, or wrap a block in
:func:`kernels_enabled` to scope the switch.

Every engine reports kernel activity under ``RunReport.details["kernels"]``
(see :func:`kernel_report` for the schema).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

try:  # pragma: no cover
    import numpy as _np
except Exception:  # pragma: no cover
    _np = None

from repro.kernels.encoding import gathered_column
from repro.kernels.executor import (
    CHUNK_ROWS,
    FRONTIER_GUARD_ROWS,
    KernelFrontierExplosion,
    execute_program,
    factor_step_indices,
    merge_stats,
    new_stats,
)
from repro.kernels.indexes import column_distinct_count, index_cache_clear
from repro.kernels.predicates import compile_batch_predicate
from repro.kernels.program import (
    KernelCompileError,
    KernelProgram,
    compile_program,
    program_cache_clear,
)

__all__ = [
    "CHUNK_ROWS",
    "FRONTIER_GUARD_ROWS",
    "KernelCompileError",
    "KernelFrontierExplosion",
    "KernelProgram",
    "column_distinct_count",
    "compile_batch_predicate",
    "compile_program",
    "disabled_reason",
    "enabled",
    "execute_program",
    "factor_step_indices",
    "gathered_column",
    "kernel_caches_clear",
    "kernel_report",
    "kernels_enabled",
    "merge_stats",
    "new_stats",
]

_OFF_VALUES = ("off", "0", "false", "disabled", "no")


def disabled_reason() -> Optional[str]:
    """Why the vectorized path is off, or ``None`` when it is on.

    ``REPRO_KERNELS=off`` forces the row-at-a-time fallback (reason
    ``"disabled"``); a missing numpy disables kernels outright.  The pipeline
    driver asks once per query, so tests and benchmarks can toggle the
    variable between queries.
    """
    if _np is None:
        return "numpy-unavailable"
    if os.environ.get("REPRO_KERNELS", "").strip().lower() in _OFF_VALUES:
        return "disabled"
    return None


def enabled() -> bool:
    """Whether the vectorized path is available and not disabled."""
    return disabled_reason() is None


@contextmanager
def kernels_enabled(enabled: bool) -> Iterator[None]:
    """Run the enclosed block with the vectorized path on or off.

    Sets ``REPRO_KERNELS`` (unset when ``enabled``, ``"off"`` otherwise)
    and restores the prior value on exit — an unset one included, and also
    when the block raises.
    """
    prior = os.environ.get("REPRO_KERNELS")
    if enabled:
        os.environ.pop("REPRO_KERNELS", None)
    else:
        os.environ["REPRO_KERNELS"] = "off"
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop("REPRO_KERNELS", None)
        else:
            os.environ["REPRO_KERNELS"] = prior


def kernel_caches_clear() -> None:
    """Drop the program and index caches (tests and memory pressure)."""
    program_cache_clear()
    index_cache_clear()


def kernel_report(
    stats: Optional[Dict[str, int]] = None,
    fallbacks: Optional[List[str]] = None,
) -> Dict[str, object]:
    """The ``RunReport.details["kernels"]`` record for one engine run.

    Keys: ``mode`` (``"vectorized"`` / ``"fallback"`` / ``"mixed"``),
    ``batches`` / ``rows_in`` / ``rows_out`` batch counters, ``programs``
    and ``indexes`` cache hit/miss counters, ``factorized`` (batch/group/
    row counters, present when factorized output was emitted), and
    ``fallbacks`` (the row-at-a-time reasons, present only when something
    fell back).
    """
    stats = stats or new_stats()
    reasons = [reason for reason in (fallbacks or []) if reason]
    ran_vectorized = (
        stats.get("program_hits", 0) + stats.get("program_misses", 0) > 0
    )
    if ran_vectorized and not reasons:
        mode = "vectorized"
    elif ran_vectorized:
        mode = "mixed"
    else:
        mode = "fallback"
    record: Dict[str, object] = {
        "mode": mode,
        "batches": stats.get("batches", 0),
        "rows_in": stats.get("rows_in", 0),
        "rows_out": stats.get("rows_out", 0),
        "programs": {
            "hits": stats.get("program_hits", 0),
            "misses": stats.get("program_misses", 0),
        },
        "indexes": {
            "hits": stats.get("index_hits", 0),
            "misses": stats.get("index_misses", 0),
        },
    }
    if stats.get("factorized_batches", 0):
        record["factorized"] = {
            "batches": stats.get("factorized_batches", 0),
            "groups": stats.get("factorized_groups", 0),
            "rows": stats.get("factorized_rows", 0),
        }
    if reasons:
        record["fallbacks"] = reasons
    return record
