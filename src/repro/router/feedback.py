"""Runtime feedback for the router: EWMA wall-clock per engine x bucket.

The cold-start heuristics in :mod:`repro.router.policy` only know what the
optimizer estimates; this store knows what actually happened.  Every
completed query contributes its wall-clock to an exponentially-weighted
moving average keyed by ``(shape bucket, engine)``, so the router's warm
path can rank engines by *observed* latency — the BRAD-style forward-model
loop, scaled down to a per-process store.

The store is JSON round-trippable (:meth:`FeedbackStore.to_json` /
:meth:`FeedbackStore.from_json`, or :meth:`save` / :meth:`load` for files),
so a serving process can persist what it learned and a restart starts warm.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Optional, Tuple

from repro.errors import QueryError

#: Default EWMA smoothing factor: one observation moves the average 30% of
#: the way to the new value — reactive to drift, robust to one outlier.
DEFAULT_ALPHA = 0.3


class FeedbackStore:
    """Observed wall-clock per ``(bucket, engine)``, as an EWMA.

    Thread-safe: the serving layer and ``execute_many`` record observations
    from many query threads.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise QueryError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        # (bucket, engine) -> (ewma_seconds, observation_count)
        self._entries: Dict[Tuple[str, str], Tuple[float, int]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Recording and querying
    # ------------------------------------------------------------------ #

    def record(self, bucket: str, engine: str, seconds: float) -> None:
        """Fold one completed query's wall-clock into the store."""
        if seconds < 0.0:
            raise QueryError(f"cannot record negative seconds ({seconds})")
        with self._lock:
            entry = self._entries.get((bucket, engine))
            if entry is None:
                self._entries[(bucket, engine)] = (seconds, 1)
            else:
                ewma, count = entry
                ewma += self.alpha * (seconds - ewma)
                self._entries[(bucket, engine)] = (ewma, count + 1)

    def expected_seconds(self, bucket: str, engine: str) -> Optional[float]:
        """Current EWMA for an engine in a bucket, or ``None`` if unseen."""
        entry = self._entries.get((bucket, engine))
        return entry[0] if entry is not None else None

    def observations(self, bucket: str, engine: str) -> int:
        """How many completions have been recorded for this pair."""
        entry = self._entries.get((bucket, engine))
        return entry[1] if entry is not None else 0

    def best_engine(self, bucket: str) -> Optional[str]:
        """The engine with the lowest EWMA in a bucket (ties: name order).

        Returns ``None`` when the bucket has no observations at all.
        """
        with self._lock:
            candidates = sorted(
                (ewma, engine)
                for (b, engine), (ewma, _) in self._entries.items()
                if b == bucket
            )
        return candidates[0][1] if candidates else None

    def engines_seen(self, bucket: str) -> Tuple[str, ...]:
        """Engines with at least one observation in a bucket, sorted."""
        with self._lock:
            return tuple(
                sorted(engine for (b, engine) in self._entries if b == bucket)
            )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every entry."""
        with self._lock:
            return {
                "alpha": self.alpha,
                "entries": [
                    {
                        "bucket": bucket,
                        "engine": engine,
                        "ewma_seconds": ewma,
                        "observations": count,
                    }
                    for (bucket, engine), (ewma, count) in sorted(
                        self._entries.items()
                    )
                ],
            }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FeedbackStore":
        store = cls(alpha=float(payload.get("alpha", DEFAULT_ALPHA)))
        for entry in payload.get("entries", []):
            store._entries[(str(entry["bucket"]), str(entry["engine"]))] = (
                float(entry["ewma_seconds"]),
                int(entry["observations"]),
            )
        return store

    @classmethod
    def from_json(cls, text: str) -> "FeedbackStore":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        """Persist the store to a JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "FeedbackStore":
        """Restore a store from a JSON file written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
