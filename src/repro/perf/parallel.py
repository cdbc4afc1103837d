"""The points of a sweep, and the one loop that runs them.

Every (kernel, config, params, workload) simulation point is
deterministic and shares no state with any other point — the
:class:`~repro.machine.processor.GridProcessor` builds a fresh
:class:`~repro.memory.system.MemorySystem` per run — so the points of
a sweep are independent.  :func:`run_points` runs a list of
:class:`SweepPoint` descriptors as a *claim consumer* over
:mod:`repro.sched`: points are enqueued as rows of the sqlite claim
table (the configured ledger, or a private ``:memory:`` database
without one), this process runs the rows it atomically claims, one at
a time, and every finished point is recorded back as a DONE row
carrying its result, wall seconds and cache verdict.  Other processes
join a sweep only through those rows: with a shared ledger another
process (``repro-worker``, a second service, another host) claiming
rows of the same job never double-runs a fingerprint, and whatever it
finishes is adopted here instead of re-simulated.  Without a ledger
the table is process-local and the results are byte-identical to
direct dispatch.

A :class:`SweepPoint` carries only *reconstructible* inputs — the
kernel's registry name rather than the kernel object, and the
workload's size and seed rather than the records — so whichever
process claims its row (``repro-worker`` rebuilds the point from the
row's spec) runs the exact same simulation.  When ``cache_dir`` is
set, every process shares the on-disk
:class:`~repro.perf.cache.RunCache`, so points already simulated by
any process are replayed from disk instead of re-simulated.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..machine.config import MachineConfig
from ..machine.fastcore import active_core, using_core
from ..machine.params import MachineParams
from ..machine.stats import RunResult
from ..obs.ledger import LEDGER, encode_params
from .cache import copy_result


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation point of a sweep, by value.

    ``workload_seed=None`` uses the benchmark module's default seed
    (what the sweep benchmarks pass); the experiment harness always
    pins an explicit seed.  ``cache_dir`` (a path string) lets the
    point consult and populate the shared on-disk run cache.
    ``backend`` is a :mod:`repro.backends` registry name, resolved
    where the point runs.  ``ledger_path`` names the claim store
    :func:`run_points` opens for the points when it is given no
    session (:func:`~repro.sched.session_for_points`); None leaves the
    process-wide ledger in charge.  ``engine_core`` pins the
    :mod:`repro.machine.fastcore` selection for this one point
    (fingerprint and simulation alike); None defers to the ambient
    choice — service jobs pin it so a queued request runs on the core
    it asked for, whichever thread or process picks it up.
    ``fingerprint`` optionally carries the point's precomputed content
    address (the scheduler fills it at enqueue time so claim rows are
    keyed before any worker runs); it is derived state, excluded from
    equality, and recomputed on demand when absent.
    """

    kernel: str                 # registry name (rebuilt where it runs)
    config: MachineConfig
    params: MachineParams
    records: int                # workload record count
    workload_seed: Optional[int] = None
    cache_dir: Optional[str] = None
    backend: str = "grid"       # backend registry name
    ledger_path: Optional[str] = None
    engine_core: Optional[str] = None
    fingerprint: Optional[str] = field(default=None, compare=False)

    def workload(self) -> list:
        """The point's record stream, regenerated from its size and seed."""
        from ..kernels.registry import spec

        s = spec(self.kernel)
        if self.workload_seed is None:
            return s.workload(self.records)
        return s.workload(self.records, self.workload_seed)


class JobConstants:
    """What the points of one job share, built once for the whole job.

    A :class:`~repro.sched.ClaimSession` keeps one per job:
    :func:`~repro.sched.point_fingerprints` generates the record
    streams into it at enqueue, and the claim consumer hands it to
    :func:`simulate_point`, so points that miss the cache simulate
    those streams and their ledger rows share one params encoding.
    A stream is reused only under its exact (kernel, records, seed)
    key, and an encoding only for the very object it was made from:
    ``latencies`` is a mutable dict inside the frozen dataclass.
    Each point the job simulates is kept under its simulation identity
    (:meth:`simulate`), so a job-mate on the same machine reuses it.
    """

    def __init__(self) -> None:
        self._streams: Dict[Tuple[str, int, Optional[int]], list] = {}
        #: id(params) -> (params, encoding); holding the object keeps
        #: its id from being reused by another.
        self._params_json: Dict[int, Tuple[MachineParams, str]] = {}
        #: simulation identity -> (kernel, config name, result); holding
        #: the kernel keeps its id from being reused by another.
        self._simulated: Dict[tuple, Tuple[object, str, RunResult]] = {}
        #: points :meth:`simulate` dispatched, and points it copied
        self.simulated = 0
        self.copied = 0

    def workload(self, point: SweepPoint) -> list:
        """The point's record stream, generated once per job."""
        key = (point.kernel, point.records, point.workload_seed)
        records = self._streams.get(key)
        if records is None:
            records = self._streams[key] = point.workload()
        return records

    def params_json(self, params: MachineParams) -> Optional[str]:
        """The ledger row's encoding of ``params``, made once per job."""
        held = self._params_json.get(id(params))
        if held is None:
            held = self._params_json[id(params)] = (
                params, encode_params(params)
            )
        return held[1]

    def simulate(self, point: SweepPoint, backend, kernel, records: list,
                 fingerprint: Optional[str]) -> RunResult:
        """Simulate a point that missed the cache, once per machine.

        The simulation identity is the backend, the kernel, the record
        stream, the params (by content), the engine core and
        ``backend.simulated_config`` of the point's configuration, name
        aside.  The first point with an identity is dispatched; a later
        one gets a copy of its result under its own configuration name,
        which is what its own dispatch would return.  Like a cache hit,
        the copy adds no engine metrics or trace events, but it is
        still one ledger run row, with its own wall time and no phases.
        ``fingerprint`` is the point's cache address, None when the
        point runs without a cache.
        """
        from ..backends import dispatch

        params_json = self.params_json(point.params)
        identity = (
            backend, id(kernel),
            (point.kernel, point.records, point.workload_seed),
            params_json, active_core(),
            dataclasses.replace(
                backend.simulated_config(kernel, point.config), name=""
            ),
        )
        held = self._simulated.get(identity)
        if held is None:
            result = dispatch(
                backend, kernel, records, point.config, point.params,
                fingerprint=fingerprint, params_json=params_json,
            )
            self._simulated[identity] = (kernel, point.config.name, result)
            self.simulated += 1
            return result
        self.copied += 1
        started = time.perf_counter()
        _, name, result = held
        result = copy_result(result)
        if result.config == name:
            # Backends that name their own machine keep that name.
            result.config = point.config.name
        if LEDGER.enabled:
            LEDGER.record_run(
                result, backend=backend.name, engine_core=active_core(),
                wall_seconds=time.perf_counter() - started,
                params=point.params, fingerprint=fingerprint,
                cache="miss" if fingerprint is not None else "uncached",
                phases={}, params_json=params_json,
            )
        return result


def simulate_point(
    point: SweepPoint, constants: Optional[JobConstants] = None
) -> Tuple[RunResult, str]:
    """Run one sweep point: its result and its cache verdict.

    The point function of :func:`run_points`, ``repro-worker`` and
    fault injection; the claim consumers record the verdict
    (``"hit"``/``"miss"``/``"uncached"``) on the point's DONE row.
    With ``point.cache_dir`` set the on-disk run cache is consulted
    first and populated after a miss, so every process sharing the
    directory (and every later run) shares results.  ``constants`` is
    the point's job's :class:`JobConstants`, which simulates each of
    the job's machines once; without it the point is a job of its own.
    The kernel and records are built only when the fingerprint must be
    computed or the point missed the cache: a cache hit on a
    precomputed fingerprint builds nothing.  A pinned ``engine_core``
    scopes the whole point, because fingerprinting reads the active
    core: the address and the simulation agree on it.
    """
    # Lazy imports: repro.backends imports this package back (for the
    # fingerprint helpers), so resolving at call time avoids the cycle.
    from ..backends import get
    from ..kernels.registry import spec

    pinned = (
        nullcontext() if point.engine_core is None
        else using_core(point.engine_core)
    )
    with pinned:
        s = spec(point.kernel)
        backend = get(point.backend)
        if constants is None:
            constants = JobConstants()  # a job of one point
        cache = None
        fp = None
        if point.cache_dir is not None:
            from .cache import RunCache
            from .fingerprint import run_fingerprint

            cache = RunCache(point.cache_dir)
            fp = point.fingerprint
            if fp is None:
                fp = run_fingerprint(
                    s.kernel(), point.config, point.params,
                    constants.workload(point),
                    backend=backend.fingerprint_part(),
                )
            cached = cache.get(fp)
            if cached is not None:
                if LEDGER.enabled:
                    # Replays are runs too: a hit row keeps the ledger a
                    # complete account of what a sweep delivered (wall
                    # seconds ~0 distinguishes it from a simulation).
                    LEDGER.record_run(
                        cached, backend=backend.name,
                        engine_core=active_core(), wall_seconds=0.0,
                        params=point.params, fingerprint=fp, cache="hit",
                        params_json=constants.params_json(point.params),
                    )
                return cached, "hit"
        result = constants.simulate(
            point, backend, s.kernel(), constants.workload(point), fp
        )
        if cache is not None:
            cache.put(fp, result)
        return result, "miss" if fp is not None else "uncached"


def run_points(
    points: Sequence[SweepPoint], session=None
) -> List[RunResult]:
    """Simulate every point in this process; results in input order.

    The sweep runs as a claim consumer: points become PENDING rows of
    one job in a claim store (see :mod:`repro.sched`), this process
    claims and runs them one at a time, and each result is recorded
    back as a DONE row with its wall seconds and cache verdict, so
    :meth:`~repro.sched.ClaimSession.progress_snapshot` follows the
    sweep.  Rows another worker finished (shared-ledger sharding,
    resumed service jobs) are *adopted* — deserialized from the store
    instead of re-run — and rows whose worker died are reclaimed after
    lease expiry, so the call still returns the complete in-order
    result list.  Pass ``session`` (a :class:`~repro.sched.ClaimSession`)
    to run under an existing job: the service queue does, wiring its
    cancel events into claim revocation, which the loop checks before
    every claim.  Otherwise a session is created from the points'
    ledger configuration and closed on return.
    """
    from ..sched import session_for_points

    points = list(points)
    own_session = session is None
    if own_session:
        session = session_for_points(points)
    payloads: Dict[int, RunResult] = {}
    try:
        session.enqueue(points)

        def run(seq: int) -> RunResult:
            # Late-bound global on purpose: fault injection and tests
            # monkeypatch simulate_point.
            return session.run_claimed(seq, lambda point: simulate_point(
                point, session.constants
            ))[0]

        session.wait_remaining(payloads, runner=run)
        return [payloads[seq] for seq in range(len(points))]
    finally:
        if own_session:
            session.close()
