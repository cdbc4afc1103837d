"""The simulation-backend protocol shared by every machine model.

The paper's claim is that one substrate morphs into SIMD-, MIMD- and
ILP-mode machines; the repo mirrors that with five simulators (the grid
processor, the classic SIMD array, the classic vector machine, the
superscalar port of the mechanisms, and the DMA stream driver).  This
module defines the one contract all of them sit behind:

* :class:`Backend` — ``name``, ``supports(kernel, config)``,
  ``fingerprint_part()`` and ``run(kernel, records, config, params)``
  returning a :class:`~repro.machine.stats.RunResult`;
* :func:`dispatch` — the single choke point every cross-cutting layer
  calls: it runs a point on a backend and tags the metrics registry and
  trace recorder with the backend identity, so caching
  (:mod:`repro.perf`), sharding, observability (:mod:`repro.obs`) and
  differential checking (:mod:`repro.check`) stay mode-agnostic.

Backends stamp ``RunResult.detail["backend"]`` with their name (each
simulator does this at its own result-construction site), so every
cached document is self-describing regardless of which model produced
it; ``fingerprint_part()`` folds the backend identity — and, for the
analytic comparators, their machine parameters — into the content
address so results from different backends can never alias.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

from time import perf_counter

from ..isa.kernel import Kernel
from ..machine.config import MachineConfig
from ..machine.fastcore import active_core, using_core
from ..machine.params import MachineParams
from ..machine.stats import RunResult
from ..obs.ledger import LEDGER
from ..obs.metrics import METRICS
from ..obs.trace import TRACE
from ..perf.nogc import gc_deferred
from ..perf.phases import measuring

#: Trace-track name backend dispatches are recorded under.
BACKEND_TRACK = "backend"


def useful_ops(kernel: Kernel, records: Sequence[Sequence]) -> int:
    """The paper's useful-operation count for a record stream.

    Architecture-independent by definition (loads, stores, moves and
    nullified iterations never count), so every backend must report the
    same value for the same (kernel, records) — the cross-backend fuzz
    mode asserts exactly that against each simulator's own accounting.
    """
    if not kernel.loop.variable:
        return kernel.useful_ops() * len(records)
    return sum(
        kernel.useful_ops_live(kernel.trip_count(r)) for r in records
    )


class Backend(abc.ABC):
    """One registered machine model behind the unified run pipeline."""

    #: registry name (``grid``, ``simd``, ``vector``, ...)
    name: str = ""
    #: whether :class:`~repro.machine.params.MachineParams` grid geometry
    #: (``--rows``/``--cols``) shapes this backend's timing
    uses_grid_params: bool = False

    @abc.abstractmethod
    def supports(
        self,
        kernel: Kernel,
        config: MachineConfig,
        params: Optional[MachineParams] = None,
    ) -> bool:
        """Whether the kernel can run under ``config`` on this model."""

    @abc.abstractmethod
    def fingerprint_part(self) -> str:
        """Stable string folded into every run's content address.

        Encodes the backend identity plus any model parameters the
        shared :class:`~repro.machine.params.MachineParams` fingerprint
        does not already cover (the analytic comparators carry their
        own parameter dataclasses).
        """

    @abc.abstractmethod
    def run(
        self,
        kernel: Kernel,
        records: Sequence[Sequence],
        config: MachineConfig,
        params: Optional[MachineParams] = None,
        functional: bool = False,
    ) -> RunResult:
        """Simulate one (kernel, records, config) point on this model."""

    def simulated_config(
        self, kernel: Kernel, config: MachineConfig
    ) -> MachineConfig:
        """The machine this model simulates when ``kernel`` asks for ``config``.

        It keeps ``config``'s name and drops any mechanism the model
        never reads for this kernel.  Two configurations with equal
        flags here give the same result apart from the configuration
        name, so a job simulates their machine once
        (:meth:`~repro.perf.parallel.JobConstants.simulate`).  By
        default every mechanism counts.
        """
        return config


def _run_on(
    backend: Backend,
    kernel: Kernel,
    records: Sequence[Sequence],
    config: MachineConfig,
    params: Optional[MachineParams],
    functional: bool,
    engine_core: Optional[str],
) -> RunResult:
    """The bare simulation of :func:`dispatch` (core pin + GC pause)."""
    with gc_deferred():
        if engine_core is None:
            return backend.run(
                kernel, records, config, params, functional=functional
            )
        with using_core(engine_core):
            return backend.run(
                kernel, records, config, params, functional=functional
            )


def dispatch(
    backend: Backend,
    kernel: Kernel,
    records: Sequence[Sequence],
    config: MachineConfig,
    params: Optional[MachineParams] = None,
    functional: bool = False,
    engine_core: Optional[str] = None,
    fingerprint: Optional[str] = None,
    cache_status: Optional[str] = None,
    params_json: Optional[str] = None,
) -> RunResult:
    """Run one point on a backend, tagging observers with the backend.

    The cross-cutting layers (experiment harness, sweep workers, fuzz
    modes) all route through here, so a run shows up in the metrics
    registry (``backend.runs.<name>``), on the trace timeline (one
    instant per dispatched point on the ``backend`` track) and — when
    the durable run ledger is enabled — as one
    :data:`~repro.obs.ledger.LEDGER` row, no matter which layer
    triggered it.

    ``engine_core`` pins the engine-core selection
    (:mod:`repro.machine.fastcore`) for this one dispatch; ``None``
    keeps the process-wide selection.  Either way the run is counted
    under ``backend.engine_core.<core>`` — the cores are pinned
    bit-exact, so the tag changes no result, only attribution.

    ``fingerprint`` and ``cache_status`` annotate the ledger row with
    the point's content address and how the caller's cache treated it
    (callers dispatch only on a miss, so the default records
    ``"miss"`` when a fingerprint is known and ``"uncached"`` when the
    caller runs cache-less); both are ignored while the ledger is off.
    So is ``params_json``, the row's encoding of ``params`` when the
    caller made it once for a whole job
    (:func:`~repro.obs.ledger.encode_params`).

    The cyclic collector is paused for the duration of the point
    (:func:`repro.perf.nogc.gc_deferred`): mid-run collections would
    otherwise stall the allocation-heavy phases for time proportional
    to the process's resident caches, not to the point's own work.
    """
    if LEDGER.enabled:
        # One measuring scope per dispatch captures this point's own
        # phase breakdown; nesting folds it back into any outer scope
        # (the bench), so aggregate breakdowns stay intact.
        started = perf_counter()
        with measuring() as acc:
            result = _run_on(
                backend, kernel, records, config, params, functional,
                engine_core,
            )
            phases = acc.snapshot()
        LEDGER.record_run(
            result,
            backend=backend.name,
            engine_core=(
                engine_core if engine_core is not None else active_core()
            ),
            wall_seconds=perf_counter() - started,
            params=params,
            fingerprint=fingerprint,
            cache=cache_status or (
                "miss" if fingerprint is not None else "uncached"
            ),
            phases=phases,
            params_json=params_json,
        )
    else:
        result = _run_on(
            backend, kernel, records, config, params, functional,
            engine_core,
        )
    if METRICS.enabled:
        METRICS.inc(f"backend.runs.{backend.name}")
        METRICS.inc(
            "backend.engine_core."
            f"{engine_core if engine_core is not None else active_core()}"
        )
        METRICS.observe(f"backend.cycles.{backend.name}", result.cycles)
    if TRACE.enabled:
        TRACE.instant(
            BACKEND_TRACK, backend.name,
            f"{result.kernel}|{result.config}",
            ts=float(result.cycles),
            args={"backend": backend.name, "records": result.records,
                  "cycles": result.cycles},
        )
    return result
