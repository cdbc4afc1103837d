"""Simulation-as-a-service: a job queue and HTTP API over dispatch().

The repo's cross-cutting layers already make one simulation point
cheap to repeat (content-addressed run cache), observable (metrics,
ledger, progress snapshots) and shardable across processes (claim
rows, ``repro-worker``).  This package turns that machinery into a
*service* many clients can share:

* :mod:`repro.service.spec` — :class:`~repro.service.spec.SweepSpec`,
  the validated wire format of one sweep request (kernels × configs on
  a backend/engine core), building the same
  :class:`~repro.perf.parallel.SweepPoint` batches — and therefore the
  same cache addresses — as the ``repro-experiments`` CLI;
* :mod:`repro.service.jobs` — :class:`~repro.service.jobs.JobQueue`,
  an in-process queue with worker threads, run IDs, cancellation,
  per-job progress snapshots and ledger accounting;
* :mod:`repro.service.server` — the stdlib-only threaded HTTP API
  (``POST /jobs``, ``GET /jobs/{id}``, ``GET /jobs/{id}/results``,
  ``DELETE /jobs/{id}``, ``GET /healthz``);
* :mod:`repro.service.client` — the thin
  :class:`~repro.service.client.ServiceClient` the tests and the
  ``repro-submit`` CLI drive the API with;
* :mod:`repro.service.cli` — the ``repro-serve`` / ``repro-submit``
  entry points.

Because every point routes through :func:`repro.backends.dispatch`,
repeat traffic amortizes into cache hits: the first submission of a
spec simulates, every identical submission replays from the run cache
(byte-identical result payloads, near-zero wall time) while still
leaving ledger rows per point.
"""

from .client import ServiceClient, ServiceError
from .jobs import Job, JobQueue, JobState
from .server import ServiceHTTPServer, start_server
from .spec import SweepSpec

__all__ = [
    "Job",
    "JobQueue",
    "JobState",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "SweepSpec",
    "start_server",
]
