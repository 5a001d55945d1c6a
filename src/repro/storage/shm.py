"""Shared-memory column plane for the parallel execution subsystem.

The work-stealing scheduler (:mod:`repro.parallel.scheduler`) runs persistent
worker processes that outlive any single query.  Shipping base tables to those
workers through pipes (or relying on fork-time copy-on-write) either
re-serializes every table per query or forces a fresh fork per query.  This
module instead publishes each table's columns into one
``multiprocessing.shared_memory`` segment that any worker can *attach*:

* ``INT`` columns are packed as native 64-bit integers and attached as a
  ``memoryview`` cast over the shared buffer — a zero-copy view; indexing it
  returns plain ``int`` objects, so the trie builders and executors work on
  attached columns unchanged.
* ``FLOAT`` columns of pure floats are packed the same way (``double``).
* Everything else (TEXT, NULLs, mixed types) falls back to a pickled value
  vector inside the segment; attaching deserializes once per worker instead
  of once per (worker, query) pipe transfer.

Segment lifecycle: the exporting process owns its segments and unlinks them
when the source :class:`~repro.storage.table.Table` is garbage collected or
when :func:`shutdown_exports` runs.  Workers attach read-only and cache
attachments by segment name, so repeated queries over the same tables attach
exactly once per worker.  Forked workers share the exporter's
``resource_tracker`` process, so attaching merely re-registers the same name
(a set add, i.e. a no-op) and the exporter's unlink unregisters it exactly
once; if the whole tree crashes, the tracker still reaps every registered
segment.  On Linux an unlinked segment stays mapped for processes that are
already attached, so export teardown never races a running worker.
"""

from __future__ import annotations

import os
import pickle
import threading
import weakref
from array import array
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

from repro.datatypes import FLOAT, INT
from repro.errors import ExecutionError
from repro.storage.column import Column
from repro.storage.table import Table

#: Segment name prefix; also the glob tests use to assert nothing leaked.
SEGMENT_PREFIX = "fjrepro"

#: Column packing kinds stored in handles.
KIND_INT64 = "i8"
KIND_FLOAT64 = "f8"
KIND_PICKLE = "pickle"


# --------------------------------------------------------------------------- #
# Handles (pickle-able descriptions of exported tables)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShmColumnSpec:
    """Where one column lives inside its table's segment."""

    name: str
    dtype: str
    kind: str
    offset: int
    nbytes: int
    length: int


@dataclass(frozen=True)
class ShmTableHandle:
    """A pickle-able pointer to one exported table.

    Handles are small (names and offsets only) and cross process boundaries
    freely; the bulk data stays in the named segment.
    """

    segment: str
    table_name: str
    num_rows: int
    columns: Tuple[ShmColumnSpec, ...]


class SharedColumn(Column):
    """A column whose values vector is a view over a shared-memory buffer.

    Bypasses :class:`Column`'s list coercion: the ``values`` attribute is the
    ``memoryview`` cast itself for packed kinds (indexing yields ``int`` /
    ``float``), or the unpickled list for the fallback kind.
    """

    def __init__(self, name: str, values, dtype: str) -> None:
        self.name = name
        self.values = values
        self.dtype = dtype


# --------------------------------------------------------------------------- #
# Packing
# --------------------------------------------------------------------------- #


def _pack_column(column: Column) -> Tuple[str, bytes]:
    """Pick the densest representation that round-trips values exactly.

    ``bool`` is excluded from the int path (it would come back as ``int`` and
    change reprs), and ints are excluded from the float path (they would come
    back as floats); both fall back to pickling.
    """
    values = column.values
    if column.dtype == INT and all(type(v) is int for v in values):
        try:
            return KIND_INT64, array("q", values).tobytes()
        except OverflowError:
            pass
    if column.dtype == FLOAT and all(type(v) is float for v in values):
        return KIND_FLOAT64, array("d", values).tobytes()
    return KIND_PICKLE, pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)


_SEGMENT_SEQUENCE = 0


def _next_segment_name() -> str:
    global _SEGMENT_SEQUENCE
    _SEGMENT_SEQUENCE += 1
    return f"{SEGMENT_PREFIX}_{os.getpid()}_{_SEGMENT_SEQUENCE}"


def _export(table: Table) -> Tuple[ShmTableHandle, shared_memory.SharedMemory]:
    """Write one table into a fresh shared-memory segment."""
    packed: List[Tuple[Column, str, bytes]] = [
        (column, *_pack_column(column)) for column in table.columns
    ]
    total = sum(len(blob) for _c, _k, blob in packed)
    segment = shared_memory.SharedMemory(
        name=_next_segment_name(), create=True, size=max(1, total)
    )
    specs: List[ShmColumnSpec] = []
    offset = 0
    for column, kind, blob in packed:
        segment.buf[offset : offset + len(blob)] = blob
        specs.append(
            ShmColumnSpec(
                name=column.name,
                dtype=column.dtype,
                kind=kind,
                offset=offset,
                nbytes=len(blob),
                length=len(column),
            )
        )
        offset += len(blob)
    handle = ShmTableHandle(
        segment=segment.name,
        table_name=table.name,
        num_rows=table.num_rows,
        columns=tuple(specs),
    )
    return handle, segment


# --------------------------------------------------------------------------- #
# Exporter (owning side)
# --------------------------------------------------------------------------- #


class _Exporter:
    """Per-process export cache: one segment per live table object.

    Keyed by table identity with a liveness check (ids are reused after GC);
    a ``weakref.finalize`` unlinks the segment when its table dies, so
    per-query intermediates do not accumulate segments across a long session.
    A forked child inherits the cache contents but not ownership: the PID
    checks keep it from unlinking the parent's segments, and
    :func:`_exporter` hands it a fresh exporter.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        # id(table) -> (weakref, version, handle); the weakref doubles as the
        # liveness check against id reuse, the version invalidates exports of
        # tables mutated in place (Table.append_rows).
        self._handles: Dict[int, Tuple[weakref.ref, int, ShmTableHandle]] = {}
        self._segments: Dict[str, shared_memory.SharedMemory] = {}

    def export(self, table: Table) -> ShmTableHandle:
        key = id(table)
        stale_segment: Optional[str] = None
        with self._lock:
            entry = self._handles.get(key)
            if entry is not None and entry[0]() is table:
                if entry[1] == table.version:
                    return entry[2]
                # The table mutated since it was exported: the segment holds
                # stale data and must be replaced (workers attach by segment
                # name, so the new export gets a fresh name).
                stale_segment = entry[2].segment
            handle, segment = _export(table)
            self._segments[handle.segment] = segment
            ref = weakref.ref(table)
            self._handles[key] = (ref, table.version, handle)
        if stale_segment is not None:
            self._release(None, stale_segment)
        weakref.finalize(table, self._release, key, handle.segment)
        return handle

    def _release(self, key: int, segment_name: str) -> None:
        if os.getpid() != self.pid:
            # A forked child must never unlink the parent's segments.
            return
        with self._lock:
            self._handles.pop(key, None)
            segment = self._segments.pop(segment_name, None)
        if segment is not None:
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - racy double free
                pass

    def active_segments(self) -> List[str]:
        with self._lock:
            return sorted(self._segments)

    def shutdown(self) -> None:
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            self._handles.clear()
        for segment in segments:
            if os.getpid() != self.pid:
                continue
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass


_EXPORTER: Optional[_Exporter] = None
_EXPORTER_LOCK = threading.Lock()


def _exporter() -> _Exporter:
    global _EXPORTER
    with _EXPORTER_LOCK:
        # A forked child owns none of its parent's segments: it starts afresh.
        if _EXPORTER is None or _EXPORTER.pid != os.getpid():
            _EXPORTER = _Exporter()
        return _EXPORTER


def export_table(table: Table) -> ShmTableHandle:
    """Publish ``table``'s columns to shared memory (cached per table object)."""
    return _exporter().export(table)


def active_export_segments() -> List[str]:
    """Names of segments this process currently owns (for tests/diagnostics)."""
    return _exporter().active_segments()


def shutdown_exports() -> None:
    """Unlink every segment this process owns and clear the export cache."""
    global _EXPORTER
    with _EXPORTER_LOCK:
        exporter = _EXPORTER
        _EXPORTER = None
    if exporter is not None and exporter.pid == os.getpid():
        exporter.shutdown()


# --------------------------------------------------------------------------- #
# Attachment (worker side)
# --------------------------------------------------------------------------- #


class Attachment:
    """One attached segment plus the views carved out of it.

    Holds the :class:`SharedMemory` object (keeping the mapping alive) and
    every cast ``memoryview`` (so they can be released before closing).
    """

    def __init__(self, handle: ShmTableHandle) -> None:
        try:
            self.segment = shared_memory.SharedMemory(name=handle.segment, create=False)
        except FileNotFoundError as exc:
            raise ExecutionError(
                f"shared-memory segment {handle.segment!r} for table "
                f"{handle.table_name!r} is gone (exporter shut down?)"
            ) from exc
        # No resource_tracker gymnastics here: pool workers are forked, so
        # they share the exporter's tracker process — attaching re-registers
        # the same name (a set add, i.e. a no-op) and the exporter's unlink
        # unregisters it exactly once.  Unregistering from a worker would
        # strip the shared registration and lose crash cleanup.
        self.handle = handle
        self._views: List[memoryview] = []
        #: Pin count held by the worker's running query: its atoms hold
        #: direct references to this attachment's memoryviews, so the
        #: attachment LRU must not close it while the query still runs.
        self.pins = 0
        #: Set when a failed :meth:`close` released *some* views: the
        #: attachment's table is no longer safe to hand out, but the mapping
        #: must stay alive for whoever still exports the surviving views.
        self.poisoned = False
        self.table = self._build_table()

    def _build_table(self) -> Table:
        columns: List[Column] = []
        buf = self.segment.buf
        for spec in self.handle.columns:
            raw = buf[spec.offset : spec.offset + spec.nbytes]
            if spec.kind == KIND_INT64:
                view = raw.cast("q")
                self._views.append(raw)
                self._views.append(view)
                values = view
            elif spec.kind == KIND_FLOAT64:
                view = raw.cast("d")
                self._views.append(raw)
                self._views.append(view)
                values = view
            else:
                values = pickle.loads(bytes(raw))
                raw.release()
            columns.append(SharedColumn(spec.name, values, spec.dtype))
        return Table(self.handle.table_name, columns)

    def close(self) -> bool:
        """Release views and close the mapping; ``False`` if still in use.

        ``memoryview.release`` is idempotent, so retrying a failed close is
        safe.  A close that releases only *some* views (another view still
        has exported buffers) marks the attachment poisoned: its table now
        dangles over released views and must never be reused, though the
        mapping itself stays open for the surviving exports.
        """
        # The kernels memoize zero-copy numpy views of the packed columns on
        # the column objects; each is an export of the cast memoryview and
        # would make its release() fail.
        for column in self.table.columns:
            column._kernel = None
        released = 0
        failed = False
        for view in self._views:
            try:
                view.release()
                released += 1
            except BufferError:
                failed = True
        if failed:
            if released:
                self.poisoned = True
            return False
        self._views = []
        try:
            self.segment.close()
        except BufferError:  # pragma: no cover - exported pointers remain
            return False
        return True


class AttachmentCache:
    """Per-worker cache of attachments, keyed by segment name.

    Queries over the same base tables re-use the existing attachment; a small
    LRU bound keeps long-lived workers from accumulating mappings for dead
    per-query intermediate tables.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._attachments: Dict[str, Attachment] = {}
        # Attachments whose close released some (but not all) views: their
        # tables dangle, so they can never be handed out again, but the
        # objects are kept alive so the surviving views stay mapped.
        self._zombies: List[Attachment] = []

    def attach(self, handle: ShmTableHandle) -> Table:
        return self.attach_entry(handle).table

    def attach_entry(self, handle: ShmTableHandle) -> Attachment:
        """Attach (or re-use) a segment and return the attachment itself.

        Callers that hold on to the attached table (a steal worker, for the
        length of one query) should bump :attr:`Attachment.pins` to exempt
        the attachment from LRU eviction, and drop the pin when done.
        """
        attachment = self._attachments.pop(handle.segment, None)
        if attachment is not None and attachment.poisoned:
            self._zombies.append(attachment)
            attachment = None
        if attachment is None:
            attachment = Attachment(handle)
        # Re-insert at the back: plain dicts preserve insertion order, which
        # makes the front the least recently used entry.
        self._attachments[handle.segment] = attachment
        # Guard-pin across eviction: when every older entry is pinned by the
        # running query, the LRU walk would otherwise reach the back and
        # close the very attachment being handed out.
        attachment.pins += 1
        try:
            self._evict()
        finally:
            attachment.pins -= 1
        return attachment

    def _evict(self) -> None:
        if len(self._attachments) <= self.capacity:
            return
        for name in list(self._attachments):
            if len(self._attachments) <= self.capacity:
                return
            attachment = self._attachments[name]
            if attachment.pins > 0:
                # Pinned by the running query: skip, try the next candidate.
                continue
            del self._attachments[name]
            if not attachment.close():
                if attachment.poisoned:
                    # Partially released: unusable, but keep it alive.
                    self._zombies.append(attachment)
                else:
                    # Still fully intact (cached table in use): keep it.
                    self._attachments[name] = attachment

    def close_all(self) -> None:
        for attachment in list(self._attachments.values()):
            attachment.close()
        self._attachments.clear()


def attach_table(handle: ShmTableHandle) -> Tuple[Table, Attachment]:
    """Attach one exported table (uncached; caller owns the attachment)."""
    attachment = Attachment(handle)
    return attachment.table, attachment
