"""``repro.service`` — cached betweenness query service.

The serving layer the paper's speed enables: adaptive sampling makes a
betweenness estimate cheap enough to answer on demand, and (eps, delta)
guarantees compose into a cache — a finished run at tighter accuracy on the
same graph *dominates* any looser request and serves it in O(ms) with zero
sampling.  The pieces:

* :mod:`repro.service.schema` — the validated JSON request
  (:class:`QueryRequest`) and response shaping;
* :mod:`repro.service.dominance` — when a cached result may answer a new
  query (checksum identity, algorithm families, eps/delta dominance), when a
  near-miss is *refinable* from a cached session checkpoint, and when a
  mutated graph's query is *update-refinable* from a cached parent
  checkpoint via lineage (:mod:`repro.evolve`);
* :mod:`repro.service.cache` — the persistent on-disk
  :class:`ResultCache` next to the graph cache;
* :mod:`repro.service.store` — the durable SQLite-backed :class:`JobStore`
  (leases, heartbeat expiry, crash requeue, doorbells) and the per-tenant
  admission errors (:class:`QuotaExceeded`);
* :mod:`repro.service.jobs` — the asyncio :class:`JobManager` coordinator:
  in-flight deduplication, tenant quotas (:class:`TenantQuota`), local
  workers (or none, for external ones);
* :mod:`repro.service.worker` — :class:`StoreWorker`, whose claim loop runs
  every job: in local workers and in ``python -m repro.service.worker``
  processes;
* :mod:`repro.service.server` — :class:`BetweennessService`, the minimal
  JSON-over-HTTP front end (``repro-betweenness serve``);
* :mod:`repro.service.client` — :class:`ServiceClient`, the blocking
  stdlib client (``repro-betweenness query``).

See ``docs/serving.md`` for the HTTP API and the reuse semantics.
"""

from repro.service.cache import CacheEntry, CachedAnswer, HotTier, ResultCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.dominance import (
    HIT,
    MISS,
    REFINABLE,
    UPDATE_REFINABLE,
    algorithm_family,
    classify,
    dominates,
    select_dominating,
)
from repro.service.jobs import Job, JobManager, SubmitOutcome, TenantQuota
from repro.service.schema import DEFAULT_TENANT, QueryRequest, SchemaError, result_payload
from repro.service.server import BetweennessService, run_server
from repro.service.store import JobRecord, JobStore, QuotaExceeded
from repro.service.worker import StoreWorker

__all__ = [
    "BetweennessService",
    "CacheEntry",
    "CachedAnswer",
    "DEFAULT_TENANT",
    "HotTier",
    "Job",
    "JobManager",
    "JobRecord",
    "JobStore",
    "QueryRequest",
    "QuotaExceeded",
    "ResultCache",
    "SchemaError",
    "ServiceClient",
    "ServiceError",
    "StoreWorker",
    "SubmitOutcome",
    "TenantQuota",
    "HIT",
    "MISS",
    "REFINABLE",
    "UPDATE_REFINABLE",
    "algorithm_family",
    "classify",
    "dominates",
    "result_payload",
    "run_server",
    "select_dominating",
]
