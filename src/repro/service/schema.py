"""Request schema of the betweenness query service.

One JSON object drives everything a client can ask for::

    {"graph": "wiki-talk",        # catalog name, text file, or .rcsr path
     "eps": 0.01, "delta": 0.1,   # accuracy request (absolute error / failure prob.)
     "k": 10,                     # how many top vertices to return
     "algorithm": "auto",         # backend registry name or "auto"
     "seed": 42,                  # optional: deterministic runs
     "include_scores": false,     # return the full per-vertex score vector
     "wait": true,                # block until done vs. 202 + job polling
     "tenant": "team-graphs"}     # admission-control identity (quotas, 429)

:class:`QueryRequest` validates that object once at the edge (HTTP handler or
CLI) so the job queue and cache only ever see well-formed requests, and
defines the canonical identity used for in-flight deduplication: two requests
are *identical* iff they agree on ``(graph checksum, algorithm, eps, delta,
seed)`` — ``k``/``include_scores``/``wait`` only shape the response, so they
never split a job.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, fields
from typing import Dict, Optional

from repro.api.registry import AUTO, backend_names
from repro.core.options import KadabraOptions

__all__ = ["DEFAULT_TENANT", "QueryRequest", "SchemaError", "result_payload"]

#: Hard ceiling on requested accuracy: eps below this would ask a demo
#: service for hours of sampling; reject early with a clear error instead.
MIN_EPS = 1e-6

#: Tenant of requests that do not name one.
DEFAULT_TENANT = "default"

#: Tenant ids are path/label-safe: they appear in metrics labels and logs.
_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class SchemaError(ValueError):
    """A request violates the documented JSON schema (HTTP 400)."""


@dataclass(frozen=True)
class QueryRequest:
    """A validated betweenness query (see module docstring for the JSON form).

    Attributes
    ----------
    graph:
        Catalog dataset name, text graph file, or ``.rcsr`` path — resolved
        through :class:`repro.store.GraphCatalog` exactly like the facade.
    eps, delta:
        Requested absolute error bound and failure probability.  The
        dominance policy may serve the request from a cached result computed
        at *tighter* (smaller) values.
    k:
        Number of top vertices in the response (clamped to the graph size).
    algorithm:
        A backend registry name or ``"auto"``.
    seed:
        Optional RNG seed.  Part of the dedup identity (two different seeds
        are two different jobs) but *not* of the dominance check (any cached
        result at sufficient accuracy serves, whatever seed produced it).
    include_scores:
        When true the response carries the full per-vertex score vector.
    wait:
        When true ``POST /v1/query`` blocks until the job finishes; when
        false it returns ``202`` with a job id to poll.
    tenant:
        Admission-control identity (``[A-Za-z0-9._-]``, <= 64 chars).  Quotas
        (max in-flight / max queued jobs) are counted per tenant; requests
        over the limit are rejected with HTTP 429.  Deliberately **not**
        part of :meth:`job_key`: two tenants asking the same question share
        one job and one cached result — isolation applies to *work*, which
        is what quotas meter, not to answers.
    """

    graph: str
    eps: float = KadabraOptions.eps
    delta: float = KadabraOptions.delta
    k: int = 10
    algorithm: str = AUTO
    seed: Optional[int] = KadabraOptions.seed
    include_scores: bool = False
    wait: bool = True
    tenant: str = DEFAULT_TENANT

    def __post_init__(self) -> None:
        if not self.graph or not isinstance(self.graph, str):
            raise SchemaError("'graph' must be a non-empty string (name or path)")
        if not isinstance(self.eps, (int, float)) or isinstance(self.eps, bool):
            raise SchemaError("'eps' must be a number")
        if not isinstance(self.delta, (int, float)) or isinstance(self.delta, bool):
            raise SchemaError("'delta' must be a number")
        if not MIN_EPS <= float(self.eps) <= 1.0:
            raise SchemaError(f"'eps' must be in [{MIN_EPS}, 1], got {self.eps!r}")
        if not 0.0 < float(self.delta) < 1.0:
            raise SchemaError(f"'delta' must be in (0, 1), got {self.delta!r}")
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 0:
            raise SchemaError(f"'k' must be a non-negative integer, got {self.k!r}")
        if self.algorithm != AUTO and self.algorithm not in backend_names():
            known = ", ".join((AUTO, *backend_names()))
            raise SchemaError(
                f"unknown algorithm {self.algorithm!r}; known: {known}"
            )
        if self.seed is not None and (
            not isinstance(self.seed, int) or isinstance(self.seed, bool)
        ):
            raise SchemaError(f"'seed' must be an integer or null, got {self.seed!r}")
        if not isinstance(self.tenant, str) or not _TENANT_RE.match(self.tenant):
            raise SchemaError(
                f"'tenant' must match [A-Za-z0-9._-]{{1,64}}, got {self.tenant!r}"
            )
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "delta", float(self.delta))

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "QueryRequest":
        """Build and validate a request from decoded JSON.

        Unknown keys are rejected (a typoed ``"epsilon"`` must not silently
        run at the default accuracy).
        """
        if not isinstance(payload, dict):
            raise SchemaError("request body must be a JSON object")
        names = [spec.name for spec in fields(cls)]
        unknown = set(payload) - set(names)
        if unknown:
            raise SchemaError(
                f"unknown request field(s) {sorted(unknown)}; "
                f"valid fields: {names}"
            )
        if "graph" not in payload:
            raise SchemaError("request is missing the required 'graph' field")
        for flag in ("include_scores", "wait"):
            if flag in payload and not isinstance(payload[flag], bool):
                raise SchemaError(f"'{flag}' must be a boolean")
        try:
            return cls(**payload)  # type: ignore[arg-type]
        except TypeError as exc:  # e.g. non-string algorithm
            raise SchemaError(str(exc)) from None

    def as_dict(self) -> Dict[str, object]:
        """The request back as a JSON-serializable dict (echoed in job status)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def job_key(self, checksum: str) -> str:
        """Canonical identity of the *work* this request asks for.

        Two in-flight requests with the same key are the same job: the key
        covers the graph contents (``checksum``, not the spelling of the
        path), the algorithm, the accuracy pair and the seed — and omits the
        response-shaping fields (``k``, ``include_scores``, ``wait``).
        """
        material = f"{checksum}|{self.algorithm}|{self.eps!r}|{self.delta!r}|{self.seed!r}"
        return hashlib.sha1(material.encode()).hexdigest()[:16]


def result_payload(result, k: int, *, include_scores: bool = False) -> Dict[str, object]:
    """Shape a :class:`~repro.core.result.BetweennessResult` for a response.

    The full score vector is omitted unless asked for — on million-vertex
    graphs it is the difference between a 200-byte and a 20 MB response.
    """
    payload = result.to_json_dict()
    scores = payload.pop("scores")
    if include_scores:
        payload["scores"] = scores
    payload["num_vertices"] = result.num_vertices
    payload["top"] = [[v, s] for v, s in result.top_k(k)]
    return payload
