"""Batch-stepped array cores for the simulator's hot loops.

Each hot path of the simulator has exactly two implementations: an
object loop over per-instance Python records, which is the executable
specification, and an array core in this package, which is the fast
path:

* :mod:`.dataflow_core` — the grid dataflow issue loop over flattened
  per-uid numpy arrays with precomputed consumer routes and vectorized
  LUT/LDI address streams, cached on the mapped window (object loop:
  :meth:`repro.machine.dataflow_engine.DataflowEngine.run`);
* :mod:`.mimd_core` — the MIMD run's whole record loop, each record's
  instruction loop compiled to a sparse max-plus (tropical) affine plan
  per trip count, rebased at every L1 round trip and evaluated in plain
  Python, each row's stores drained in one call after the last record
  (object loop: :meth:`repro.machine.mimd_engine.MimdEngine.run` over
  :meth:`~repro.machine.mimd_engine.MimdEngine._run_record`);
* :mod:`.map_core` — template-cloned window expansion and array-scored,
  memoized iteration placement (object loops:
  :func:`repro.machine.mapping.map_window`,
  :func:`repro.machine.placement.place_iterations`).

Each public entry point branches once per call on :func:`active_core`
(``DataflowEngine.run`` once per window pass, ``MimdEngine.run`` once
per run, not per record): the ``REPRO_ENGINE_CORE`` environment
variable (``array`` | ``object``), overridable per process with
:func:`set_engine_core` or scoped to a block of the calling thread with
:func:`using_core`.  The default is ``array``; ``object`` runs the
specification loops, and ``tests/machine/test_fastcore_equivalence.py``
pins the two to bit-exact equality.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

#: Engine-core names :func:`set_engine_core` / :func:`using_core` accept.
VALID_MODES = ("array", "object")

#: Process-wide override; ``None`` defers to ``REPRO_ENGINE_CORE``.
_MODE: Optional[str] = None

#: The calling thread's :func:`using_core` scope; ``None`` defers to
#: the process-wide choice.  Each thread starts unscoped.
_SCOPED: ContextVar[Optional[str]] = ContextVar(
    "repro_engine_core", default=None
)

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
    mode = (
        _SCOPED.get() or _MODE or os.environ.get("REPRO_ENGINE_CORE")
    )
    return "object" if mode == "object" else "array"


def set_engine_core(mode: Optional[str]) -> None:
    """Select the engine core for this process and the ones it starts.

    Mirrors the choice into ``REPRO_ENGINE_CORE`` so child processes
    inherit it — processes sharing a sweep must agree on the core or
    their run fingerprints would address different cache entries.
    ``None`` clears the override.
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
    """Scope an engine-core choice to a block of the calling thread.

    Other threads keep their own choice: a service job pinned to one
    core never switches a sibling worker's core, window-cache key or
    ledger ``engine_core`` tag.  ``None`` defers to the process-wide
    choice for the block.
    """
    _validate(mode)
    token = _SCOPED.set(mode)
    try:
        yield
    finally:
        _SCOPED.reset(token)


__all__ = [
    "VALID_MODES",
    "active_core",
    "set_engine_core",
    "using_core",
]
