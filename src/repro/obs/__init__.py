"""Observability for the simulation pipeline (``repro.obs``).

Three instruments following the :data:`~repro.perf.phases.PHASES`
pattern of near-zero cost when disabled, and the progress view:

* :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges
  and histograms (``l1.hits``, ``net.operand_hops``,
  ``revitalize.broadcasts``, ``runcache.hit_rate``, ...), instrumented
  through the engines, the memory system and the perf layer, with
  per-run snapshots merged into ``RunResult.detail``;
* :mod:`repro.obs.trace` — a cycle-accurate event recorder emitting
  Chrome trace-event JSON (one track per ALU node / memory port / stream
  channel), plus the analysis behind the ``repro-trace`` CLI
  (:mod:`repro.obs.cli`);
* :mod:`repro.obs.ledger` — the durable run ledger: one sqlite row per
  dispatched simulation point (fingerprint, backend, engine core,
  phases, metrics snapshot, cache/sanitizer verdicts, provenance),
  read back by the ``repro-perf`` CLI (:mod:`repro.obs.perfcli`);
* :mod:`repro.obs.progress` — live sweep progress as a view of the
  claim rows (:meth:`repro.sched.ClaimSession.progress_snapshot`), and
  the ``repro-experiments --progress`` stderr ticker.

This package deliberately imports nothing from ``repro.machine`` or
``repro.memory`` at module level — those layers import *it*, so the
instrumentation can sit directly on the hot paths without cycles.
"""

from contextlib import contextmanager

from .ledger import (
    DEFAULT_LEDGER,
    LEDGER,
    LEDGER_ENV,
    LEDGER_SCHEMA,
    LedgerHandle,
    RunLedger,
    current_git_sha,
    ledger_to,
)
from .metrics import METRICS, Histogram, MetricsRegistry, collecting
from .progress import (
    point_label,
    progress_state,
    progress_ticker,
    render_state,
)
from .trace import (
    CTL,
    EXEC,
    MEM,
    TRACE,
    TraceRecorder,
    diff_traces,
    load_trace,
    occupancy_heatmap,
    recording,
    subsystems,
    trace_span,
    utilization_table,
    validate_chrome_trace,
)


@contextmanager
def observability_paused():
    """Temporarily disable metrics and tracing around a block.

    The processor uses this to suppress the cold cache-warming pass of
    block-style runs, so recordings describe only the steady-state
    window.  A no-op (two attribute writes) when nothing is enabled.
    """
    metrics_was, trace_was = METRICS.enabled, TRACE.enabled
    METRICS.enabled = False
    TRACE.enabled = False
    try:
        yield
    finally:
        METRICS.enabled = metrics_was
        TRACE.enabled = trace_was


__all__ = [
    "METRICS",
    "MetricsRegistry",
    "Histogram",
    "collecting",
    "LEDGER",
    "LEDGER_ENV",
    "LEDGER_SCHEMA",
    "DEFAULT_LEDGER",
    "LedgerHandle",
    "RunLedger",
    "current_git_sha",
    "ledger_to",
    "point_label",
    "progress_state",
    "render_state",
    "progress_ticker",
    "TRACE",
    "TraceRecorder",
    "recording",
    "EXEC",
    "MEM",
    "CTL",
    "load_trace",
    "validate_chrome_trace",
    "subsystems",
    "trace_span",
    "occupancy_heatmap",
    "utilization_table",
    "diff_traces",
    "observability_paused",
]
