"""Parallel fan-out of independent simulation points.

Every (kernel, config, params, workload) simulation point is
deterministic and shares no state with any other point — the
:class:`~repro.machine.processor.GridProcessor` builds a fresh
:class:`~repro.memory.system.MemorySystem` per run — so a sweep is
embarrassingly parallel.  :func:`run_points` fans a list of
:class:`SweepPoint` descriptors out over a ``ProcessPoolExecutor`` and
returns results in input order; with one effective worker (``jobs <= 1``,
a single-CPU host, or a single point) it degrades to an identical
deterministic serial loop.

:func:`run_points` is a *claim consumer* over :mod:`repro.sched`:
points are enqueued as rows of the sqlite claim table (the configured
ledger, or a private ``:memory:`` database without one), the pool and
serial paths only run points they atomically claimed, and every
finished point is recorded back as a DONE row carrying its result,
wall seconds and cache verdict.  With a shared ledger that makes a
sweep shardable — another process (``repro-worker``, a second service,
another host) claiming rows of the same job never double-runs a
fingerprint, and whatever it finishes is adopted here instead of
re-simulated.  Without a ledger the table is process-local and the
results are byte-identical to direct dispatch.

Dispatch is adaptive rather than naive:

* the worker count is clamped to ``min(jobs, os.cpu_count(), points)``
  so oversubscribing a small host never *slows down* a sweep;
* points are scheduled longest-first (by an instruction-count × records
  cost estimate) so a stray heavyweight kernel cannot serialize the
  tail of the pool, then results are restored to input order;
* ``pool.map`` gets a computed chunksize so per-task dispatch overhead
  amortizes over batches instead of dominating small points.

A :class:`SweepPoint` carries only picklable, *reconstructible* inputs —
the kernel's registry name rather than the kernel object (whose
``trips_fn`` closures do not pickle), and the workload's size and seed
rather than the records — so workers rebuild the exact same simulation
the parent would have run.  When ``cache_dir`` is set, workers share
the parent's on-disk :class:`~repro.perf.cache.RunCache`, so points
already simulated by any process are replayed from disk instead of
re-simulated.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..machine.config import MachineConfig
from ..machine.params import MachineParams
from ..machine.stats import RunResult
from ..obs.ledger import LEDGER, encode_params
from .phases import PHASES, measuring


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation point of a sweep, by value.

    ``workload_seed=None`` uses the benchmark module's default seed
    (what the sweep benchmarks pass); the experiment harness always
    pins an explicit seed.  ``cache_dir`` (a path string, kept
    picklable) lets workers consult and populate the shared on-disk
    run cache.  ``backend`` is a :mod:`repro.backends` registry name —
    workers resolve it locally, so points fan out for every simulator,
    not just the grid.  ``ledger_path`` routes the worker's durable
    run-ledger rows (:mod:`repro.obs.ledger`) into the parent's
    database; None leaves the worker's own configuration (usually the
    inherited ``REPRO_LEDGER`` environment) in charge.  ``engine_core``
    pins the :mod:`repro.machine.fastcore` selection for this one point
    (fingerprint and simulation alike); None defers to the ambient
    process-wide choice — service jobs pin it so a queued request runs
    on the core it asked for no matter which process picks it up.
    ``fingerprint`` optionally carries the point's precomputed content
    address (the scheduler fills it at enqueue time so claim rows are
    keyed before any worker runs); it is derived state, excluded from
    equality, and recomputed on demand when absent.
    """

    kernel: str                 # registry name (rebuilt in the worker)
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
    :func:`simulate_point_meta`, so points that miss the cache simulate
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
        from ..machine.fastcore import active_core

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
        result = copy.deepcopy(result)
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


#: Thread-local in/out slot for :func:`simulate_point_meta`.  The meta
#: wrapper must call :func:`simulate_point` through its *module global*
#: (so fault injection and tests that monkeypatch it keep working), yet
#: still hand in the job's constants and receive the cache verdict —
#: the slot carries the dict past whatever wrapper is installed.
_META_SLOT = threading.local()


def simulate_point(point: SweepPoint) -> RunResult:
    """Run one sweep point, rebuilding its kernel and workload.

    With ``point.cache_dir`` set the on-disk run cache is consulted
    first and populated after a miss, so concurrent workers (and later
    runs) share results through the filesystem.
    """
    return _simulate(point, getattr(_META_SLOT, "meta", None))


def _simulate(point: SweepPoint, meta: Optional[dict]) -> RunResult:
    """:func:`simulate_point` with an optional metadata out-param."""
    if point.engine_core is not None:
        # Pin the whole point — fingerprinting reads the active core,
        # so the address and the simulation must agree on it.
        from ..machine.fastcore import using_core

        with using_core(point.engine_core):
            return _simulate_pinned(point, meta)
    return _simulate_pinned(point, meta)


def _simulate_pinned(
    point: SweepPoint, meta: Optional[dict] = None
) -> RunResult:
    """:func:`simulate_point` body, engine core already resolved.

    When ``meta`` is a dict, ``meta["cache"]`` is set to the point's
    cache verdict (``"hit"``/``"miss"``/``"uncached"``) — what the
    claim consumers record on the DONE row — and ``meta["constants"]``,
    when set, is the point's :class:`JobConstants`, which simulates
    each of the job's machines once (:meth:`JobConstants.simulate`).
    The kernel and records are built only when the fingerprint must be
    computed or the point missed the cache: a cache hit on a
    precomputed fingerprint builds nothing.
    """
    # Lazy imports: repro.backends imports this package back (for the
    # fingerprint helpers), so resolving at call time avoids the cycle.
    from ..backends import get
    from ..kernels.registry import spec

    if point.ledger_path is not None and not LEDGER.enabled:
        # Pool workers are fresh processes: adopt the parent's ledger
        # so fan-out rows land in the same database as serial runs.
        LEDGER.configure(point.ledger_path, mirror_env=False)
    s = spec(point.kernel)
    backend = get(point.backend)
    constants = meta.get("constants") if meta is not None else None
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
            if meta is not None:
                meta["cache"] = "hit"
            if LEDGER.enabled:
                # Replays are runs too: a hit row keeps the ledger a
                # complete account of what a sweep delivered (wall
                # seconds ~0 distinguishes it from a simulation).
                from ..machine.fastcore import active_core

                LEDGER.record_run(
                    cached, backend=backend.name,
                    engine_core=active_core(), wall_seconds=0.0,
                    params=point.params, fingerprint=fp, cache="hit",
                    params_json=constants.params_json(point.params),
                )
            return cached
    if meta is not None:
        meta["cache"] = "miss" if fp is not None else "uncached"
    result = constants.simulate(
        point, backend, s.kernel(), constants.workload(point), fp
    )
    if cache is not None:
        cache.put(fp, result)
    return result


def simulate_point_meta(
    point: SweepPoint,
    constants: Optional[JobConstants] = None,
) -> Tuple[RunResult, float, str]:
    """One point with full accounting: (result, seconds, cache verdict).

    Every claim consumer (the serial loop, the pool, ``repro-worker``)
    records the verdict on the DONE row, so a job's cache hit/miss split
    is read straight from its claim rows.  ``constants`` is the point's
    job's :class:`JobConstants`, when the caller keeps one.
    """
    meta: dict = {"constants": constants}
    previous = getattr(_META_SLOT, "meta", None)
    _META_SLOT.meta = meta
    started = time.perf_counter()
    try:
        # Late-bound global on purpose: monkeypatched simulate_point
        # wrappers (fault injection, tests) must see meta-path runs too.
        result = simulate_point(point)
    finally:
        _META_SLOT.meta = previous
    seconds = time.perf_counter() - started
    return result, seconds, meta.get("cache", "uncached")


def _pool_worker_phased(point: SweepPoint):
    """Pool worker: the :func:`simulate_point_meta` triple plus PHASES.

    Returns ``(triple, phase snapshot)``.  Workers are separate
    processes, so their phase accumulators would otherwise be lost;
    :func:`run_points` folds the returned snapshots back into the
    parent's ``PHASES`` when measurement is on.
    """
    with measuring() as acc:
        payload = simulate_point_meta(point)
        snapshot = acc.snapshot()
    return payload, snapshot


def _estimated_cost(point: SweepPoint) -> int:
    """Relative cost estimate for longest-first scheduling.

    Simulation time scales with instructions × records; the registry's
    paper-reported instruction count is a good enough proxy.  Unknown
    kernels fall back to record count alone (any deterministic
    tie-break keeps results reproducible — order is restored anyway).
    """
    try:
        from ..kernels.registry import spec

        return spec(point.kernel).paper.instructions * point.records
    except (ImportError, KeyError):
        # Only "the registry is absent" and "the kernel is not in it"
        # degrade to the record-count fallback; a genuinely broken
        # registry (TypeError, AttributeError, ...) must fail loudly
        # instead of silently producing bad schedules.
        return point.records


def effective_workers(jobs: int, n_points: int) -> int:
    """Workers a sweep will actually use: jobs clamped to CPUs and points."""
    return max(1, min(jobs, os.cpu_count() or 1, n_points))


def run_points(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    timed: bool = False,
    session=None,
) -> List:
    """Simulate every point, fanning out over ``jobs`` worker processes.

    Returns one entry per point, in input order: the
    :class:`~repro.machine.stats.RunResult`, or ``(result, seconds)``
    pairs when ``timed=True``.  Dispatch degrades to a deterministic
    serial loop whenever a pool cannot help (``jobs <= 1``, one CPU,
    a single point) or cannot run (sandboxed environments, workers
    that die); a pool that cannot run says so with one
    ``RuntimeWarning`` naming the exception.

    The sweep runs as a claim consumer: points become PENDING rows of
    one job in a claim store (see :mod:`repro.sched`), both dispatch
    paths only run rows they claimed, and results are recorded back as
    DONE rows with their cache verdicts, the pool's as each lands, so
    :meth:`~repro.sched.ClaimSession.progress_snapshot` follows the
    sweep.  Rows another worker finished
    (shared-ledger sharding, resumed service jobs) are *adopted* —
    deserialized from the store instead of re-run — and rows whose
    worker died are reclaimed after lease expiry, so the call still
    returns the complete in-order result list.  Pass ``session`` (a
    :class:`~repro.sched.ClaimSession`) to run under an existing job —
    the service queue does, wiring its cancel events into claim
    revocation; otherwise a session is created from the points'
    ledger configuration and closed on return.

    When ``PHASES`` measurement is on, pool workers snapshot their own
    accumulators and the parent folds them back in, so phase breakdowns
    stay meaningful for parallel sweeps too (credited as worker time —
    the pool overlaps it with the parent's wall clock).
    """
    from ..sched import session_for_points

    points = list(points)
    workers = effective_workers(jobs, len(points))
    want_phases = PHASES.enabled
    own_session = session is None
    if own_session:
        session = session_for_points(points)
    payloads: Dict[int, object] = {}
    try:
        enqueued = session.enqueue(points)
        session.raise_if_cancelled()
        if workers > 1:
            claimed = session.claim()
            # Longest-first keeps a heavyweight straggler from
            # serializing the tail; the index tie-break keeps
            # scheduling deterministic.
            order = sorted(
                claimed,
                key=lambda i: (-_estimated_cost(enqueued[i]), i),
            )
            chunksize = max(1, len(points) // (workers * 4))
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    mapped = pool.map(
                        _pool_worker_phased if want_phases
                        else simulate_point_meta,
                        [enqueued[i] for i in order],
                        chunksize=chunksize,
                    )
                    # pool.map yields in submission order as chunks
                    # complete: each row is DONE as its result lands.
                    for i, payload in zip(order, mapped):
                        if want_phases:
                            payload, snapshot = payload
                            for name, elapsed in snapshot.items():
                                PHASES.add(name, elapsed)
                        result, seconds, verdict = payload
                        session.complete(
                            i, result, wall_seconds=seconds, cache=verdict
                        )
                        payloads[i] = (result, seconds) if timed else result
            except (OSError, PermissionError, NotImplementedError,
                    BrokenProcessPool) as exc:
                # Pools that cannot spawn (sandboxes) or whose workers
                # died mid-sweep degrade to the serial loop — never
                # wrong results, never a crash.  Completed rows stay;
                # the other claims go back to PENDING so the consumer
                # loop below (or any other worker) can take them.
                # KeyboardInterrupt propagates.
                warnings.warn(
                    f"process pool of {workers} could not run "
                    f"({type(exc).__name__}: {exc}); running the "
                    "remaining points serially",
                    RuntimeWarning, stacklevel=2,
                )
                session.release()

        def simulate(point: SweepPoint):
            result, _, verdict = simulate_point_meta(
                point, session.constants
            )
            return result, verdict

        def run(seq: int):
            result, seconds = session.run_claimed(seq, simulate)
            return (result, seconds) if timed else result

        # The serial consumer: whatever the pool did not run (all of it
        # on one worker), rows another worker finished, expired leases.
        session.wait_remaining(payloads, runner=run, timed=timed)
        return [payloads[i] for i in range(len(enqueued))]
    finally:
        if own_session:
            session.close()
