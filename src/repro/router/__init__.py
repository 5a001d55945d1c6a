"""Front-door query routing and admission control (the serving brain).

* :mod:`repro.router.features` — the per-query feature vector: input
  cardinalities (from :mod:`repro.optimizer.statistics`), the optimizer's
  cost estimate, query shape (acyclic/cyclic via GYO reduction) and whether
  the output is a bare count.
* :mod:`repro.router.policy` — :class:`QueryRouter`: a stateless rule that
  picks engine and worker count from those features (cyclic → Free Join;
  small acyclic count-only → binary join; otherwise Free Join; parallel
  workers from input size).  The paper's point is that one plan space
  covers binary and Generic Join, so the choice needs no learned model.
  Opt in per session or per query with ``engine="auto"``; every routed run
  reports its decision under ``RunReport.details["router"]``.
* :mod:`repro.router.admission` — :class:`AdmissionGate`: a token-bucket /
  bounded-outstanding admission controller with per-class (point vs.
  analytic) concurrency limits and queue-depth-aware worker sizing.  Under
  burst it rejects fast with :class:`~repro.errors.AdmissionRejected`
  instead of letting every query time out slowly, so tail latency stays
  bounded; :class:`~repro.serve.async_db.AsyncDatabase` accepts a gate via
  ``admission=``.
"""

from repro.router.admission import AdmissionGate, AdmissionTicket, classify_sql
from repro.router.features import QueryFeatures, extract_features
from repro.router.policy import QueryRouter, RoutingDecision

__all__ = [
    "AdmissionGate",
    "AdmissionTicket",
    "QueryFeatures",
    "QueryRouter",
    "RoutingDecision",
    "classify_sql",
    "extract_features",
]
