"""The routing policy: per-query engine and worker-count selection.

:class:`QueryRouter` decides in two regimes:

* **cold** — no completed queries in the feature bucket yet: route on the
  optimizer's statistics alone.  Cyclic queries go to Free Join (the
  worst-case-optimal guarantee is exactly what cycles need); small acyclic
  count-only probes go to the binary hash join (pipelined, no trie build);
  everything else goes to Free Join, the paper's engine that subsumes both.
* **warm** — the bucket has observations in the
  :class:`~repro.router.feedback.FeedbackStore`: pick the engine with the
  lowest observed EWMA wall-clock, with seeded epsilon-greedy exploration
  (least-observed engine first) so the store keeps learning about the
  engines it is not currently preferring.  A fixed seed makes the whole
  decision sequence deterministic — same queries in, same routes out.

Worker count is chosen from input size (small inputs stay serial: task
decomposition costs more than it buys below the process-input threshold)
and cache warmth (a query whose table fingerprints were all seen before
hits the kernels' content-keyed index caches, so parallelism engages at half
the threshold).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import QueryError
from repro.optimizer.binary_plan import BinaryPlan
from repro.optimizer.statistics import StatisticsCache
from repro.query.planner import LogicalQuery
from repro.router.features import QueryFeatures, extract_features
from repro.router.feedback import FeedbackStore

#: Engines the router chooses between (mirrors the session's registry).
ROUTABLE_ENGINES = ("freejoin", "binary", "generic")
#: Below this many total input rows a query stays serial regardless of the
#: session's parallelism (matches the scheduler's process-input threshold).
PARALLEL_ROW_THRESHOLD = 20_000
#: Default exploration rate of the warm path.
DEFAULT_EXPLORE = 0.1


@dataclass(frozen=True)
class RoutingDecision:
    """One routing decision, reported under ``RunReport.details["router"]``."""

    engine: str
    parallelism: int
    #: ``"cold"`` (statistics-only), ``"warm"`` (feedback argmin) or
    #: ``"explore"`` (epsilon-greedy probe of a less-observed engine).
    reason: str
    bucket: str
    features: QueryFeatures
    #: The feedback EWMA for the chosen engine, when one exists.
    expected_seconds: Optional[float] = None
    #: Fraction of the query's table fingerprints seen by earlier routed
    #: queries (1.0 = every input table previously routed through).
    warm_fraction: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "engine": self.engine,
            "parallelism": self.parallelism,
            "reason": self.reason,
            "bucket": self.bucket,
            "warm_fraction": self.warm_fraction,
            "features": self.features.as_dict(),
        }
        if self.expected_seconds is not None:
            record["expected_seconds"] = self.expected_seconds
        return record


@dataclass
class RouterTelemetry:
    """Counters of routing activity (JSON-ready via ``as_dict``)."""

    routed: int = 0
    by_reason: Dict[str, int] = field(default_factory=dict)
    by_engine: Dict[str, int] = field(default_factory=dict)
    observed: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "routed": self.routed,
            "by_reason": dict(self.by_reason),
            "by_engine": dict(self.by_engine),
            "observed": self.observed,
        }


class QueryRouter:
    """Chooses engine and worker count per query; learns from completions.

    Thread-safe and shareable: the async serving layer hands one router to
    every per-query session so observations accumulate in one place, the
    way the statistics cache is shared.

    Parameters
    ----------
    feedback:
        The runtime-feedback store.  A fresh (empty) store means every
        bucket starts cold.
    explore:
        Probability of probing a non-preferred engine on the warm path.
        ``0.0`` disables exploration (pure argmin — fully deterministic
        regardless of seed).
    seed:
        Seed of the exploration RNG.  Decisions are deterministic given the
        seed and the query sequence.
    parallel_row_threshold:
        Total input rows above which the routed query uses the session's
        parallel workers.
    """

    def __init__(
        self,
        feedback: Optional[FeedbackStore] = None,
        *,
        explore: float = DEFAULT_EXPLORE,
        seed: int = 0,
        parallel_row_threshold: int = PARALLEL_ROW_THRESHOLD,
    ) -> None:
        if not 0.0 <= explore <= 1.0:
            raise QueryError(f"explore must be in [0, 1], got {explore}")
        self.feedback = feedback if feedback is not None else FeedbackStore()
        self.explore = explore
        self.parallel_row_threshold = parallel_row_threshold
        self._rng = random.Random(seed)
        self._seen_fingerprints: set = set()
        self._telemetry = RouterTelemetry()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def route(
        self,
        logical: LogicalQuery,
        binary_plan: BinaryPlan,
        statistics_cache: Optional[StatisticsCache] = None,
        max_workers: int = 1,
    ) -> RoutingDecision:
        """Decide engine and worker count for one planned query."""
        features = extract_features(logical, binary_plan, statistics_cache)
        bucket = features.shape_bucket()
        with self._lock:
            warm_fraction = self._warm_fraction(features.fingerprints)
            engine, reason = self._choose_engine(features, bucket)
            parallelism = self._choose_workers(features, warm_fraction, max_workers)
            self._telemetry.routed += 1
            self._telemetry.by_reason[reason] = (
                self._telemetry.by_reason.get(reason, 0) + 1
            )
            self._telemetry.by_engine[engine] = (
                self._telemetry.by_engine.get(engine, 0) + 1
            )
        return RoutingDecision(
            engine=engine,
            parallelism=parallelism,
            reason=reason,
            bucket=bucket,
            features=features,
            expected_seconds=self.feedback.expected_seconds(bucket, engine),
            warm_fraction=warm_fraction,
        )

    def observe(self, decision: RoutingDecision, seconds: float) -> None:
        """Feed one completed query back into the store."""
        self.feedback.record(decision.bucket, decision.engine, seconds)
        with self._lock:
            self._seen_fingerprints.update(decision.features.fingerprints)
            self._telemetry.observed += 1

    def telemetry(self) -> Dict[str, object]:
        """JSON-ready counters of routing activity."""
        with self._lock:
            return self._telemetry.as_dict()

    # ------------------------------------------------------------------ #
    # The two decision axes
    # ------------------------------------------------------------------ #

    def _choose_engine(
        self, features: QueryFeatures, bucket: str
    ) -> Tuple[str, str]:
        seen = self.feedback.engines_seen(bucket)
        if seen:
            if self.explore > 0.0 and self._rng.random() < self.explore:
                return self._least_observed(bucket), "explore"
            best = self.feedback.best_engine(bucket)
            if best is not None:
                return best, "warm"
        return self._cold_choice(features), "cold"

    def _least_observed(self, bucket: str) -> str:
        """The engine with the fewest observations (unseen engines first)."""
        return min(
            ROUTABLE_ENGINES,
            key=lambda engine: (self.feedback.observations(bucket, engine), engine),
        )

    @staticmethod
    def _cold_choice(features: QueryFeatures) -> str:
        """Statistics-only heuristic, mirroring the paper's engine split.

        Cyclic joins get Free Join (worst-case-optimal plans avoid the
        binary plan's blowup on cycles — the clover/triangle analysis).
        Small acyclic count-only probes get the binary hash join: no trie
        build, pipelined probes, and the COUNT sink skips materialization.
        Everything else gets Free Join, which subsumes binary plans on
        acyclic queries at equal asymptotics.  Generic Join — the eager
        tuple-at-a-time baseline — is never the cold pick; the warm path
        can still reach it through exploration if it ever wins a bucket.
        """
        if features.shape == "cyclic":
            return "freejoin"
        if features.atoms <= 3 and features.count_only:
            return "binary"
        return "freejoin"

    def _choose_workers(
        self, features: QueryFeatures, warm_fraction: float, max_workers: int
    ) -> int:
        if max_workers <= 1:
            return 1
        threshold = self.parallel_row_threshold
        if warm_fraction >= 1.0:
            # Fully warm inputs hit the kernels' index caches (keyed on these
            # same fingerprints), so the per-worker build the threshold
            # protects against is already paid.
            threshold //= 2
        return max_workers if features.total_rows >= threshold else 1

    def _warm_fraction(self, fingerprints: Tuple[str, ...]) -> float:
        if not fingerprints:
            return 0.0
        seen = sum(1 for fp in fingerprints if fp in self._seen_fingerprints)
        return seen / len(fingerprints)
