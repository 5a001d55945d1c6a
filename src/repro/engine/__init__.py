"""Shared execution services: join results, aggregation, and sessions.

Note: :class:`repro.engine.session.Database` is intentionally not imported
here.  The session module depends on the join engines (which in turn depend
on :mod:`repro.engine.output`), so importing it from the package initializer
would create an import cycle; import it from ``repro`` or from
``repro.engine.session`` instead.
"""

from repro.engine.options import ExecOptions
from repro.engine.output import (
    CountSink,
    FactorizedSink,
    JoinResult,
    OutputSink,
    RowSink,
)
from repro.engine.report import RunReport
from repro.engine.streaming import (
    StreamingAggregateSink,
    StreamingResult,
    StreamingSink,
    collapse_grouped_batches,
)

__all__ = [
    "ExecOptions",
    "CountSink",
    "FactorizedSink",
    "JoinResult",
    "OutputSink",
    "RowSink",
    "RunReport",
    "StreamingAggregateSink",
    "StreamingResult",
    "StreamingSink",
    "collapse_grouped_batches",
]
