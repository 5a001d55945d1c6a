"""Run reports shared by all three join engines.

Each engine returns a :class:`RunReport` carrying the join result together
with phase timings.  The build/join phase split matters for reproducing the
paper's analysis (trie building is the dominant cost of Generic Join,
Section 2.4 and 5.3), so every engine reports it separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.engine.output import JoinResult


@dataclass
class RunReport:
    """The outcome of one engine executing one query."""

    engine: str
    result: JoinResult
    build_seconds: float = 0.0
    join_seconds: float = 0.0
    other_seconds: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Total time attributed to the join computation."""
        return self.build_seconds + self.join_seconds + self.other_seconds

    def output_count(self) -> int:
        """Number of output rows produced."""
        return self.result.count()

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.engine}: {self.total_seconds * 1000:.2f} ms "
            f"(build {self.build_seconds * 1000:.2f} ms, "
            f"join {self.join_seconds * 1000:.2f} ms), "
            f"{self.output_count()} rows"
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable view of the report (timings and counters only).

        ``details`` holds arbitrary objects (options, plan reprs, executor
        stats), so only the JSON-safe planes are included — the output mode,
        the parallel execution summary, the routing decision and the
        prepared-query cache verdict, when present, are already plain data.
        """
        record: Dict[str, object] = {
            "engine": self.engine,
            "build_seconds": self.build_seconds,
            "join_seconds": self.join_seconds,
            "other_seconds": self.other_seconds,
            "total_seconds": self.total_seconds,
            "output_rows": self.output_count(),
        }
        for plane in ("output", "parallel", "router", "prepared"):
            if self.details.get(plane) is not None:
                record[plane] = self.details[plane]
        return record
