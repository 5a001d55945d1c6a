"""The unified execution-options contract shared by every query entry point.

``execute``, ``execute_iter``, ``execute_many``, ``subscribe``,
``AsyncDatabase.execute``/``execute_stream`` and ``gather_many`` take their
per-query knobs one way only — a frozen :class:`ExecOptions` passed as
``options=``:

    db.execute(sql, options=ExecOptions(engine="binary", timeout=0.5))
    db.execute_iter(sql, options=ExecOptions(batch_rows=256))
    db.subscribe(sql, options=ExecOptions(engine="freejoin"))

Values are validated once, at construction.  The session resolves the
options once per query (``Database._prepare`` in
:mod:`repro.engine.session`) against its own defaults and the router's
decision, and hands the engine a
:class:`~repro.engine.pipeline.RunContext`; nothing below the session reads
an ``ExecOptions``.

Fields not meaningful for a given entry point are simply ignored there
(``batch_rows`` by ``execute``), except where silence would be misleading:
``execute_many`` rejects ``deadline`` because a token cancels one query
while ``timeout`` budgets each query of the workload, and ``subscribe``
rejects ``timeout``/``deadline`` because a standing query has no budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.engine import FreeJoinOptions
    from repro.parallel.cancellation import DeadlineToken

#: Engines selectable by name (the session's plan-policy table has one
#: entry per name).
ENGINES = ("freejoin", "binary", "generic")
#: The routed pseudo-engine: the session's :class:`~repro.router.policy.QueryRouter`
#: picks one of :data:`ENGINES` (and a worker count) per query.
AUTO_ENGINE = "auto"


def check_engine(name: str) -> None:
    """Reject anything but one of :data:`ENGINES` or :data:`AUTO_ENGINE`."""
    if name not in ENGINES and name != AUTO_ENGINE:
        raise QueryError(
            f"unknown engine {name!r}; choose from {ENGINES + (AUTO_ENGINE,)}"
        )


@dataclass(frozen=True)
class ExecOptions:
    """Per-query execution options, shared by all query entry points.

    Every field defaults to "unset": ``None`` means *use the session (or
    subsystem) default*, so an empty ``ExecOptions()`` is always equivalent
    to passing nothing at all.

    Parameters
    ----------
    engine:
        ``"freejoin"``, ``"binary"``, ``"generic"`` or ``"auto"`` (route per
        query through the session's router).
    timeout:
        Query budget in seconds, enforced cooperatively mid-execution.
    deadline:
        A pre-built :class:`~repro.parallel.cancellation.DeadlineToken`;
        wins over ``timeout`` (callers that want to *cancel* pass one).
    parallelism:
        Intra-query worker count, overriding both the session default and a
        router decision — on every engine.
    batch_rows / max_batches:
        Streaming delivery: rows per batch and queue bound (used by
        ``execute_iter``, ``execute_stream`` and ``subscribe``).  For a
        grouped stream ``batch_rows`` is also the delta cadence: a delta is
        flushed at the first batch boundary after that many folded rows
        (see :meth:`~repro.engine.session.Database.execute_iter`).
    bad_estimates:
        Optimize with adversarial cardinality estimates (the paper's Fig. 15
        experiment; ``execute``, ``execute_iter`` and ``execute_many``).
    freejoin_options:
        Per-query :class:`~repro.core.engine.FreeJoinOptions` (plan knobs
        only; how the run executes is not theirs to say).
    """

    engine: Optional[str] = None
    timeout: Optional[float] = None
    deadline: Optional[DeadlineToken] = None
    parallelism: Optional[int] = None
    batch_rows: Optional[int] = None
    max_batches: Optional[int] = None
    bad_estimates: bool = False
    freejoin_options: Optional[FreeJoinOptions] = None

    def __post_init__(self) -> None:
        if self.engine is not None:
            check_engine(self.engine)
        if self.timeout is not None and self.timeout <= 0:
            raise QueryError(f"timeout must be positive, got {self.timeout}")
        if self.parallelism is not None and self.parallelism < 1:
            raise QueryError(
                f"parallelism must be at least 1, got {self.parallelism}"
            )
        if self.batch_rows is not None and self.batch_rows < 1:
            raise QueryError(f"batch_rows must be at least 1, got {self.batch_rows}")
        if self.max_batches is not None and self.max_batches < 1:
            raise QueryError(
                f"max_batches must be at least 1, got {self.max_batches}"
            )

    def resolve_deadline(self, always: bool = False) -> Optional[DeadlineToken]:
        """The query's deadline token: ``deadline`` wins over ``timeout``.

        With ``always=True`` an unbounded token is armed even without a
        timeout, so the caller can still *cancel* (the streaming and
        standing-query paths rely on this).
        """
        from repro.parallel.cancellation import DeadlineToken

        if self.deadline is not None:
            return self.deadline
        if self.timeout is not None:
            return DeadlineToken.after(self.timeout)
        return DeadlineToken() if always else None
