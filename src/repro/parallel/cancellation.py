"""Deadline and cancellation tokens for cooperative query abort.

The serving layer (:mod:`repro.serve`) promises two things the execution
layer has to deliver: a query with a deadline stops *mid-flight* when the
budget runs out, and a cancelled query frees its workers promptly instead of
running to completion in the background.  Both are cooperative: executors
call :meth:`DeadlineToken.tick` at trie-expansion boundaries (every cover
entry the Free Join recursion iterates, every probe-loop row of the binary
engine, every intersection step of Generic Join), and the steal pool's
workers check between tasks, so an over-budget or cancelled query aborts with
:class:`~repro.errors.DeadlineExceeded` / :class:`~repro.errors.QueryCancelled`
within a bounded amount of work.

Tokens are deliberately simple objects:

* ``at`` is an absolute :func:`time.monotonic` timestamp (``None`` = no
  deadline).  Monotonic clocks are system-wide on Linux, so a deadline set in
  a parent is meaningful in its forked steal-pool workers — tasks carry the
  timestamp, not the token.
* ``cancelled`` is a plain attribute flip, shared directly by the threads
  of one query (serial execution, ``AsyncDatabase``'s worker threads).  The
  steal pool does not hand its workers the caller's token: it keeps one
  cancel cell per pool — a plain attribute for thread workers, a
  fork-inherited shared integer for process workers (see
  :class:`repro.parallel.scheduler.StealPool`) — and the parent translates
  token state into that cell while it drains results.
* ``cancel_probe`` is an optional extra callable consulted by :meth:`check`;
  steal workers use it to watch the pool's cancel cell.  It is never
  pickled: every worker builds its own token per task from the task's
  deadline timestamp.

Time checks are strided: :meth:`tick` only consults the clock every
:data:`TICK_STRIDE` calls, keeping the per-tuple overhead to an integer
increment and a branch.

Granularity caveat: eager build phases (binary hash tables, Generic Join
tries, a COLT level force) are uninterruptible O(rows) scans; tokens are
checked *between* relations there, so enforcement during a build is
per-relation granular rather than per-tuple.  Nothing hard-kills a query
stuck in code that never ticks its token: it runs to completion, and
``execute_many`` then records it as ``"timeout"``.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import DeadlineExceeded, QueryCancelled

#: ``tick()`` consults the clock once per this many calls.
TICK_STRIDE = 64


class DeadlineToken:
    """A cooperative deadline + cancellation flag for one query."""

    __slots__ = ("at", "cancelled", "cancel_probe", "_ticks")

    def __init__(
        self,
        at: Optional[float] = None,
        cancel_probe: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.at = at
        self.cancelled = False
        self.cancel_probe = cancel_probe
        self._ticks = 0

    @classmethod
    def after(cls, seconds: Optional[float]) -> "DeadlineToken":
        """A token expiring ``seconds`` from now (``None`` = no deadline)."""
        if seconds is None:
            return cls()
        if seconds <= 0:
            raise ValueError(f"deadline budget must be positive, got {seconds}")
        return cls(at=time.monotonic() + seconds)

    def cancel(self) -> None:
        """Flip the cancellation flag (visible to same-process executors)."""
        self.cancelled = True

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the deadline has passed (never true without a deadline)."""
        return self.at is not None and (now if now is not None else time.monotonic()) >= self.at

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline, or ``None`` when there is none."""
        if self.at is None:
            return None
        return self.at - time.monotonic()

    def check(self) -> None:
        """Raise if the token is cancelled or past its deadline."""
        if self.cancelled or (self.cancel_probe is not None and self.cancel_probe()):
            raise QueryCancelled("query was cancelled")
        if self.at is not None and time.monotonic() >= self.at:
            raise DeadlineExceeded(
                f"query exceeded its deadline (monotonic deadline {self.at:.3f})"
            )

    def tick(self) -> None:
        """Strided :meth:`check`: cheap enough for per-tuple call sites.

        The cancellation flag is checked on every call (an attribute read);
        the clock only every :data:`TICK_STRIDE` calls.
        """
        if self.cancelled or (self.cancel_probe is not None and self.cancel_probe()):
            raise QueryCancelled("query was cancelled")
        self._ticks += 1
        if self._ticks % TICK_STRIDE == 0 and self.at is not None:
            if time.monotonic() >= self.at:
                raise DeadlineExceeded(
                    f"query exceeded its deadline (monotonic deadline {self.at:.3f})"
                )

    # Tokens travel inside engine options; options objects are pickled by the
    # process steal pool.  The probe (often a closure over multiprocessing
    # state) must not cross — a reconstructed token watches only its timestamp.
    def __getstate__(self):
        return {"at": self.at, "cancelled": self.cancelled}

    def __setstate__(self, state) -> None:
        self.at = state["at"]
        self.cancelled = state["cancelled"]
        self.cancel_probe = None
        self._ticks = 0

    def __repr__(self) -> str:
        return f"DeadlineToken(at={self.at!r}, cancelled={self.cancelled!r})"
