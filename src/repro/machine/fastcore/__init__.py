"""Batch-stepped array cores for the simulator's hot loops.

Each hot path of the simulator has exactly two implementations: an
object loop over per-instance Python records, which is the executable
specification, and an array core in this package, which is the fast
path:

* :mod:`.dataflow_core` — the grid dataflow issue loop over flattened
  per-uid numpy arrays with precomputed consumer routes and vectorized
  LUT/LDI address streams, cached on the mapped window (object loop:
  :meth:`repro.machine.dataflow_engine.DataflowEngine.run`);
* :mod:`.mimd_core` — the MIMD per-record instruction loop compiled to
  a sparse max-plus (tropical) affine plan per trip count, rebased at
  every L1 round trip and evaluated per record in plain Python (object
  loop: :meth:`repro.machine.mimd_engine.MimdEngine._run_record`);
* :mod:`.map_core` — template-cloned window expansion and array-scored,
  memoized iteration placement (object loops:
  :func:`repro.machine.mapping.map_window`,
  :func:`repro.machine.placement.place_iterations`).

Each public entry point branches once on :func:`active_core`: the
``REPRO_ENGINE_CORE`` environment variable (``array`` | ``object``),
overridable per process with :func:`set_engine_core` or scoped with
:func:`using_core`.  The default is ``array``; ``object`` runs the
specification loops, and ``tests/machine/test_fastcore_equivalence.py``
pins the two to bit-exact equality.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Engine-core names :func:`set_engine_core` / :func:`using_core` accept.
VALID_MODES = ("array", "object")

#: Process-wide override; ``None`` defers to ``REPRO_ENGINE_CORE``.
_MODE: Optional[str] = None

#: Process-wide SoA lifecycle accounting: ``fused`` windows got their
#: structure-of-arrays buffers straight from the template expansion,
#: ``built`` windows were flattened from instance objects by
#: ``dataflow_core.build_soa``, and ``reused`` counts engine runs that
#: found the buffers already on the window.  Always on (three int
#: increments); mirrored into :data:`repro.obs.metrics.METRICS` under
#: ``fastcore.soa_*`` when metrics collection is enabled, and surfaced
#: in ``repro-bench`` reports.
SOA_COUNTERS: Dict[str, int] = {"fused": 0, "built": 0, "reused": 0}


def soa_counters() -> Dict[str, int]:
    """A snapshot copy of :data:`SOA_COUNTERS`."""
    return dict(SOA_COUNTERS)


def reset_soa_counters() -> None:
    """Zero :data:`SOA_COUNTERS` (bench phases reset between runs)."""
    for key in SOA_COUNTERS:
        SOA_COUNTERS[key] = 0


def _validate(mode: Optional[str]) -> None:
    if mode is not None and mode not in VALID_MODES:
        raise ValueError(
            f"unknown engine core {mode!r}; choose one of {VALID_MODES}"
        )


def active_core() -> str:
    """The engine core timing runs select right now.

    ``"object"`` only when explicitly requested; any other setting —
    including none at all — means ``"array"``.
    """
    mode = _MODE if _MODE is not None else os.environ.get("REPRO_ENGINE_CORE")
    return "object" if mode == "object" else "array"


def set_engine_core(mode: Optional[str]) -> None:
    """Select the engine core for this process *and* its pool workers.

    Mirrors the choice into ``REPRO_ENGINE_CORE`` so processes spawned
    by :func:`repro.perf.parallel.run_points` inherit it — a parent and
    its workers must agree on the core or their run fingerprints would
    address different cache entries.  ``None`` clears the override.
    """
    global _MODE
    _validate(mode)
    _MODE = mode
    if mode is None:
        os.environ.pop("REPRO_ENGINE_CORE", None)
    else:
        os.environ["REPRO_ENGINE_CORE"] = mode


@contextmanager
def using_core(mode: Optional[str]) -> Iterator[None]:
    """Scope an engine-core choice to a block (this process only)."""
    global _MODE
    _validate(mode)
    previous = _MODE
    _MODE = mode
    try:
        yield
    finally:
        _MODE = previous


__all__ = [
    "SOA_COUNTERS",
    "VALID_MODES",
    "active_core",
    "reset_soa_counters",
    "set_engine_core",
    "soa_counters",
    "using_core",
]
