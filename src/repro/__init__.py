"""repro — MPI-based adaptive sampling for betweenness-centrality approximation.

A from-scratch Python reproduction of *"Scaling Betweenness Approximation to
Billions of Edges by MPI-based Adaptive Sampling"* (van der Grinten &
Meyerhenke, IPDPS 2020): the KADABRA adaptive-sampling algorithm, its
epoch-based shared-memory parallelization and the MPI-style distributed
algorithms.

Quickstart
----------
Every execution mode runs through the :func:`estimate_betweenness` facade;
``algorithm="auto"`` picks a backend deterministically from the graph size and
the requested resources:

>>> from repro import estimate_betweenness, Resources
>>> from repro.graph.generators import barabasi_albert
>>> graph = barabasi_albert(500, 3, seed=0)
>>> result = estimate_betweenness(graph, eps=0.05, seed=0,
...                               resources=Resources(threads=4))
>>> result.backend
'shared-memory'
>>> result.top_k(3)  # doctest: +SKIP

Backends
--------
Backends live in a registry (see :mod:`repro.api`); ``repro-betweenness
--list-backends`` prints the same table from the CLI:

===============  ======  =======  =========  =================
name             kind    threads  processes  cost
===============  ======  =======  =========  =================
sequential       approx  no       no         adaptive-sampling
shared-memory    approx  yes      no         adaptive-sampling
distributed      approx  yes      yes        adaptive-sampling
mpi-only         approx  no       yes        adaptive-sampling
rk               approx  no       no         fixed-sampling
exact            exact   no       no         n-sssp
source-sampling  approx  no       no         n-sssp
===============  ======  =======  =========  =================

New backends are added with :func:`repro.api.register_backend`.

Sessions
--------
``estimate_betweenness`` runs a backend once and keeps nothing; a session
(:mod:`repro.session`) keeps the sequential run's state, which unlocks
incremental refinement, checkpoint/resume and confidence-aware queries:

>>> from repro import open_session
>>> session = open_session(graph, seed=0)
>>> first = session.run(eps=0.05)                      # doctest: +SKIP
>>> tighter = session.refine(eps=0.025)                # doctest: +SKIP
>>> session.checkpoint("run.snap")                     # doctest: +SKIP

``refine`` draws only the additional samples the tighter guarantee needs and
is bit-identical to a fresh run at the tighter target (same seed); see
``docs/sessions.md``.
"""

from repro.api import (
    BackendSpec,
    ProgressEvent,
    Resources,
    backend_names,
    estimate_betweenness,
    list_backends,
    register_backend,
)
from repro.core import (
    BetweennessResult,
    KadabraOptions,
    StateFrame,
    StoppingCondition,
    compute_omega,
)
from repro.graph import CSRGraph, GraphBuilder
from repro.session import (
    EstimationSession,
    SessionCapabilityError,
    SessionStateError,
    SnapshotError,
    open_session,
)
from repro.store import GraphCatalog, load_graph
from repro.baselines import brandes_betweenness

__version__ = "1.1.0"

__all__ = [
    "BackendSpec",
    "BetweennessResult",
    "CSRGraph",
    "EstimationSession",
    "GraphBuilder",
    "GraphCatalog",
    "load_graph",
    "open_session",
    "SessionCapabilityError",
    "SessionStateError",
    "SnapshotError",
    "KadabraOptions",
    "ProgressEvent",
    "Resources",
    "StateFrame",
    "StoppingCondition",
    "backend_names",
    "brandes_betweenness",
    "compute_omega",
    "estimate_betweenness",
    "list_backends",
    "register_backend",
    "__version__",
]
