"""The scheduler layer: claim-based point lifecycle over a shared store.

One substrate under every execution path — ``run_points``' consumer
loop, the experiment harness's in-context loop, the service queue's
worker threads and the ``repro-worker`` CLI.  Points are rows in a
claim table (PENDING → CLAIMED → DONE/FAILED/CANCELLED) keyed by
content fingerprint, and other processes join a sweep only by
claiming them.  There is one store, the sqlite
:class:`~repro.obs.ledger.RunLedger`: on a database file it is durable
and shared across processes and hosts, and when no ledger is
configured a session runs the same SQL on a private ``:memory:``
database.
"""

from .codec import (
    decode_point,
    encode_point,
    point_fingerprint,
    point_fingerprints,
)
from .scheduler import (
    DEFAULT_LEASE_SECONDS,
    ClaimSession,
    SweepCancelled,
    default_worker_id,
    session_for_points,
)

__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "ClaimSession",
    "SweepCancelled",
    "decode_point",
    "default_worker_id",
    "encode_point",
    "point_fingerprint",
    "point_fingerprints",
    "session_for_points",
]
