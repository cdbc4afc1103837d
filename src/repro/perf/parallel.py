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

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..machine.config import MachineConfig
from ..machine.params import MachineParams
from ..machine.stats import RunResult
from ..obs.ledger import LEDGER
from ..obs.metrics import METRICS
from ..obs.progress import PROGRESS, point_label
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


#: Thread-local out-param slot for :func:`simulate_point_meta`.  The
#: meta wrapper must call :func:`simulate_point` through its *module
#: global* (so fault injection and tests that monkeypatch it keep
#: working), yet still receive the cache verdict — the slot carries the
#: dict past whatever wrapper is installed.
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
    claim consumers record on the DONE row.
    """
    # Lazy imports: repro.backends imports this package back (for the
    # fingerprint helpers), so resolving at call time avoids the cycle.
    from ..backends import dispatch, get
    from ..kernels.registry import spec

    if point.ledger_path is not None and not LEDGER.enabled:
        # Pool workers are fresh processes: adopt the parent's ledger
        # so fan-out rows land in the same database as serial runs.
        LEDGER.configure(point.ledger_path, mirror_env=False)
    s = spec(point.kernel)
    if point.workload_seed is None:
        records = s.workload(point.records)
    else:
        records = s.workload(point.records, point.workload_seed)
    kernel = s.kernel()
    backend = get(point.backend)
    cache = None
    fp = None
    if point.cache_dir is not None:
        from .cache import RunCache
        from .fingerprint import run_fingerprint

        cache = RunCache(point.cache_dir)
        fp = point.fingerprint
        if fp is None:
            fp = run_fingerprint(
                kernel, point.config, point.params, records,
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
                )
            return cached
    if meta is not None:
        meta["cache"] = "miss" if fp is not None else "uncached"
    result = dispatch(
        backend, kernel, records, point.config, point.params,
        fingerprint=fp, cache_status="miss" if fp is not None else None,
    )
    if cache is not None:
        cache.put(fp, result)
    return result


def simulate_point_meta(
    point: SweepPoint,
) -> Tuple[RunResult, float, str]:
    """One point with full accounting: (result, seconds, cache verdict).

    Every claim consumer (the serial loop, the pool, ``repro-worker``)
    records the verdict on the DONE row, so a job's cache hit/miss split
    is read straight from its claim rows.
    """
    meta: dict = {}
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


@dataclass
class DispatchStats:
    """How the last :func:`run_points` call actually dispatched.

    ``mode`` is ``"serial"`` (one effective worker), ``"pool"`` (the
    process pool ran), or ``"pool-fallback"`` (a pool was wanted but
    could not be spawned — e.g. a sandbox — and the sweep degraded to
    the serial loop).  ``busy_seconds`` is only populated for timed
    sweeps, whose results carry each point's wall seconds.
    """

    points: int = 0
    workers: int = 1
    mode: str = "serial"
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0

    @property
    def utilization(self) -> Optional[float]:
        """Fraction of worker-seconds spent simulating (timed runs only)."""
        if self.busy_seconds and self.wall_seconds:
            return min(
                1.0, self.busy_seconds / (self.workers * self.wall_seconds)
            )
        return None


#: Dispatch accounting of the most recent :func:`run_points` call in
#: this process (None until the first sweep runs).
LAST_DISPATCH: Optional[DispatchStats] = None


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


def _progress_label(point: SweepPoint) -> str:
    """The tracker label of one sweep point (``backend:kernel|config``)."""
    return point_label(point.backend, point.kernel, point.config.name)


def _drain_pool(mapped, points, order, window: int) -> List:
    """Consume pool results, publishing live progress as they land.

    ``pool.map`` yields in submission order as chunks complete, so each
    consumed payload retires ``points[order[i]]``.  The in-flight set
    models the pool's chunked scheduling: the first ``window``
    (= workers × chunksize) submissions start immediately and each
    completion admits the next — exact for the serial loop, a faithful
    approximation for the pool (workers own whole chunks).
    """
    results: List = []
    dispatched = min(window, len(order))
    for j in range(dispatched):
        PROGRESS.point_started(_progress_label(points[order[j]]))
    for payload in mapped:
        point = points[order[len(results)]]
        results.append(payload)
        PROGRESS.point_finished(_progress_label(point), backend=point.backend)
        if dispatched < len(order):
            PROGRESS.point_started(_progress_label(points[order[dispatched]]))
            dispatched += 1
    return results


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
    a single point) or cannot be spawned (sandboxed environments).

    The sweep runs as a claim consumer: points become PENDING rows of
    one job in a claim store (see :mod:`repro.sched`), both dispatch
    paths only run rows they claimed, and results are recorded back as
    DONE rows with their cache verdicts.  Rows another worker finished
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
    the pool overlaps it with the parent's wall clock).  Dispatch
    accounting for the call is left in :data:`LAST_DISPATCH`.

    When the live progress tracker
    (:data:`repro.obs.progress.PROGRESS`) is enabled, the sweep
    publishes per-point started/finished events as it advances, so
    ``PROGRESS.get_current_state()`` (and the ``--progress`` ticker)
    reports completed/total, rate, ETA and the points in flight
    mid-sweep.
    """
    global LAST_DISPATCH
    from ..sched import session_for_points

    points = list(points)
    workers = effective_workers(jobs, len(points))
    want_phases = PHASES.enabled
    want_progress = PROGRESS.enabled
    if want_progress:
        PROGRESS.add_total(len(points))
    own_session = session is None
    if own_session:
        session = session_for_points(points)
    stats = DispatchStats(points=len(points))
    started = time.perf_counter()
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
                    if want_progress:
                        shuffled = _drain_pool(
                            mapped, enqueued, order, workers * chunksize
                        )
                    else:
                        shuffled = list(mapped)
            except (OSError, PermissionError, NotImplementedError,
                    BrokenProcessPool):
                # Pools that cannot spawn (sandboxes) or whose workers
                # died mid-sweep degrade to the serial loop — never
                # wrong results, never a crash.  The claims go back to
                # PENDING so the consumer loop below (or any other
                # worker) can take them.  KeyboardInterrupt propagates.
                stats.mode = "pool-fallback"
                session.release()
            else:
                stats.mode = "pool"
                stats.workers = workers
                for i, payload in zip(order, shuffled):
                    if want_phases:
                        payload, snapshot = payload
                        for name, elapsed in snapshot.items():
                            PHASES.add(name, elapsed)
                    result, seconds, verdict = payload
                    session.complete(
                        i, result, wall_seconds=seconds, cache=verdict
                    )
                    payloads[i] = (result, seconds) if timed else result
        # The serial consumer: whatever the pool did not run (all of it
        # on one worker), rows another worker finished, expired leases.
        session.wait_remaining(
            payloads,
            runner=lambda seq: _run_claimed(
                session, enqueued, seq, timed, want_progress
            ),
            timed=timed,
            on_adopted=(
                (lambda seq, row: PROGRESS.point_finished(
                    _progress_label(enqueued[seq]),
                    backend=enqueued[seq].backend,
                )) if want_progress else None
            ),
        )
        results = [payloads[i] for i in range(len(enqueued))]
    finally:
        if own_session:
            session.close()
    stats.wall_seconds = time.perf_counter() - started
    if timed:
        stats.busy_seconds = sum(seconds for _, seconds in results)
    utilization = stats.utilization
    if METRICS.enabled and utilization is not None:
        METRICS.gauge("dispatch.worker_utilization", utilization)
    LAST_DISPATCH = stats
    return results


def _run_claimed(session, points, seq: int, timed: bool,
                 want_progress: bool):
    """Run one claimed seq, record its DONE row, return the payload."""
    point = points[seq]
    label = _progress_label(point)
    if want_progress:
        PROGRESS.point_started(label)
    try:
        result, seconds, verdict = simulate_point_meta(point)
    except (KeyboardInterrupt, SystemExit):
        # An interrupt is not the point's fault: put the claim back so
        # a resumed sweep (or a sibling worker) runs it fresh.
        session.release()
        raise
    except BaseException as exc:
        # Fail the row loudly so sibling workers stop waiting on it
        # instead of polling a lease that will never resolve.
        session.fail(seq, f"{type(exc).__name__}: {exc}")
        raise
    session.complete(seq, result, wall_seconds=seconds, cache=verdict)
    if want_progress:
        PROGRESS.point_finished(label, backend=point.backend)
    return (result, seconds) if timed else result
