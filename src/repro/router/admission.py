"""Admission control for the serving layer: reject fast, keep p95 bounded.

Without a gate, a burst of heavy queries degrades the whole server the slow
way: every request is accepted, every request queues behind the burst, and
every request times out after burning its full deadline.  The
:class:`AdmissionGate` inverts that: requests beyond what the server can
absorb are rejected *immediately* with a typed
:class:`~repro.errors.AdmissionRejected`, so clients can retry elsewhere
(or back off) while admitted queries keep their latency.

Three independent limits, checked in order at :meth:`AdmissionGate.admit`:

* **token bucket** — a sustained-rate cap (``rate`` admissions/second,
  ``burst`` of headroom).  Absorbs short bursts, sheds sustained overload.
* **per-class concurrency** — ``point`` and ``analytic`` queries each have
  their own outstanding-query limit, so a flood of analytic scans can never
  starve cheap point lookups of admission slots (and vice versa).
* **bounded outstanding total** — the hard cap on admitted-but-unfinished
  queries (the serving pool's queue depth); beyond it the server is not
  keeping up and further queueing only converts rejections into timeouts.

The gate is a non-blocking state machine: ``admit`` either returns an
:class:`AdmissionTicket` (release it in a ``finally``) or raises.  Waiting
is the *executor's* job — admitted queries queue in the serving pool, whose
depth this gate bounds.  :meth:`AdmissionGate.suggest_workers` closes the
loop on worker sizing: when the gate sees queue depth building, it shrinks
per-query parallelism so concurrent queries stop fighting over the same
cores.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import AdmissionRejected, QueryError

#: The two admission classes.
POINT = "point"
ANALYTIC = "analytic"
CLASSES = (POINT, ANALYTIC)


_GROUP_BY = re.compile(r"\bGROUP\s+BY\b")
_FROM = re.compile(r"\bFROM\b")
_CLAUSE_END = re.compile(r"\b(?:WHERE|GROUP|ORDER|LIMIT)\b")
_JOIN = re.compile(r"\bJOIN\b")


def classify_sql(sql: str) -> str:
    """Cheap point/analytic split, no planner required.

    ``analytic``: grouped aggregation or a join of three or more relations —
    the shapes whose work scales with intermediate sizes.  Everything else
    (single/two-table lookups, global aggregates over small joins) is
    ``point``.  Callers that know better pass ``query_class=`` explicitly;
    this is only the default for the serving front door, where classifying
    must cost less than planning.
    """
    upper = sql.upper()
    if _GROUP_BY.search(upper):
        return ANALYTIC
    start = _FROM.search(upper)
    if start:
        clause = upper[start.end() :]
        end = _CLAUSE_END.search(clause)
        if end:
            clause = clause[: end.start()]
        # FROM items are separated by commas and JOINs.
        if clause.count(",") + len(_JOIN.findall(clause)) >= 2:
            return ANALYTIC
    return POINT


@dataclass(frozen=True)
class AdmissionTicket:
    """Proof of admission; hand it back via :meth:`AdmissionGate.release`."""

    query_class: str
    admitted_at: float
    #: Outstanding queries (all classes) at admission time, this one included.
    depth_at_admit: int


class AdmissionGate:
    """Token-bucket + per-class bounded admission; non-blocking and typed.

    Parameters
    ----------
    point_limit / analytic_limit:
        Maximum outstanding (admitted, not yet released) queries per class.
    max_outstanding:
        Hard cap on outstanding queries across both classes; defaults to
        ``point_limit + analytic_limit``.
    rate:
        Sustained admissions per second for the token bucket; ``None``
        disables rate limiting (concurrency limits still apply).
    burst:
        Bucket capacity — how many admissions can arrive back-to-back
        before the rate applies.  Defaults to ``rate`` (one second of
        headroom), minimum 1.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        point_limit: int = 8,
        analytic_limit: int = 4,
        max_outstanding: Optional[int] = None,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if point_limit < 1 or analytic_limit < 1:
            raise QueryError("per-class admission limits must be at least 1")
        if rate is not None and rate <= 0.0:
            raise QueryError(f"rate must be positive, got {rate}")
        self.limits = {POINT: point_limit, ANALYTIC: analytic_limit}
        self.max_outstanding = (
            max_outstanding
            if max_outstanding is not None
            else point_limit + analytic_limit
        )
        if self.max_outstanding < 1:
            raise QueryError("max_outstanding must be at least 1")
        self.rate = rate
        self.burst = max(1.0, burst if burst is not None else (rate or 1.0))
        self._clock = clock
        self._tokens = self.burst
        self._refilled_at = clock()
        self._outstanding: Dict[str, int] = {POINT: 0, ANALYTIC: 0}
        self._lock = threading.Lock()
        # Telemetry.
        self._admitted: Dict[str, int] = {POINT: 0, ANALYTIC: 0}
        self._rejected: Dict[str, int] = {"rate": 0, "class_limit": 0, "queue_full": 0}
        self._depth_peak = 0

    # ------------------------------------------------------------------ #
    # The gate
    # ------------------------------------------------------------------ #

    def admit(self, query_class: str = POINT) -> AdmissionTicket:
        """Admit one query or raise :class:`AdmissionRejected` immediately."""
        if query_class not in CLASSES:
            raise QueryError(
                f"unknown admission class {query_class!r}; choose from {CLASSES}"
            )
        now = self._clock()
        with self._lock:
            self._refill(now)
            if self.rate is not None and self._tokens < 1.0:
                self._rejected["rate"] += 1
                raise AdmissionRejected(
                    f"admission rate exceeded ({self.rate}/s, burst {self.burst})",
                    reason="rate",
                    query_class=query_class,
                )
            depth = sum(self._outstanding.values())
            if depth >= self.max_outstanding:
                self._rejected["queue_full"] += 1
                raise AdmissionRejected(
                    f"server saturated: {depth} queries outstanding "
                    f"(max {self.max_outstanding})",
                    reason="queue_full",
                    query_class=query_class,
                )
            if self._outstanding[query_class] >= self.limits[query_class]:
                self._rejected["class_limit"] += 1
                raise AdmissionRejected(
                    f"{query_class} class at its concurrency limit "
                    f"({self.limits[query_class]})",
                    reason="class_limit",
                    query_class=query_class,
                )
            if self.rate is not None:
                self._tokens -= 1.0
            self._outstanding[query_class] += 1
            self._admitted[query_class] += 1
            depth += 1
            self._depth_peak = max(self._depth_peak, depth)
            return AdmissionTicket(
                query_class=query_class, admitted_at=now, depth_at_admit=depth
            )

    def release(self, ticket: AdmissionTicket) -> None:
        """Return a ticket; always call from a ``finally``."""
        with self._lock:
            if self._outstanding[ticket.query_class] <= 0:
                raise QueryError(
                    f"release without a matching admit for class "
                    f"{ticket.query_class!r}"
                )
            self._outstanding[ticket.query_class] -= 1

    def _refill(self, now: float) -> None:
        if self.rate is None:
            return
        elapsed = max(0.0, now - self._refilled_at)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._refilled_at = now

    # ------------------------------------------------------------------ #
    # Load-aware sizing and telemetry
    # ------------------------------------------------------------------ #

    def depth(self) -> int:
        """Outstanding admitted queries across both classes."""
        with self._lock:
            return sum(self._outstanding.values())

    def suggest_workers(self, base: int) -> int:
        """Queue-depth-aware per-query worker count.

        At depth 1 a query may use the session's full ``base`` workers; as
        concurrent queries stack up, each gets a proportionally smaller
        slice (never below 1), so intra-query parallelism stops multiplying
        under load instead of thrashing the same cores.
        """
        if base <= 1:
            return 1
        return max(1, base // max(1, self.depth()))

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready admission telemetry."""
        with self._lock:
            return {
                "outstanding": dict(self._outstanding),
                "depth_peak": self._depth_peak,
                "admitted": dict(self._admitted),
                "rejected": dict(self._rejected),
                "limits": dict(self.limits),
                "max_outstanding": self.max_outstanding,
                "rate": self.rate,
                "burst": self.burst,
                "tokens": self._tokens if self.rate is not None else None,
            }
