"""Unified simulation-backend layer: one registry, one run pipeline.

The repo models five machines — the reconfigurable grid processor, the
classic lock-step SIMD array, the classic vector machine, the
superscalar port of the universal mechanisms, and the DMA stream
driver.  This package puts all of them behind one
:class:`~repro.backends.base.Backend` protocol and one name registry,
so every cross-cutting layer is mode-agnostic:

* content-addressed run caching (:mod:`repro.perf`) folds the backend
  identity into each fingerprint;
* sweeps (:func:`repro.perf.parallel.run_points`) carry a backend per
  point, so non-grid sweeps shard across claim rows and cache;
* the experiment harness (:mod:`repro.harness.experiments`) routes
  ``run``/``run_many``/``supports`` through the registry and exposes
  ``--backend`` on the CLIs;
* observability (:mod:`repro.obs`) tags metrics and trace events with
  the backend via :func:`~repro.backends.base.dispatch`;
* differential fuzzing (:mod:`repro.check.fuzz`) runs every registered
  backend against the evaluator oracle in its cross-backend mode.

Resolve a backend by name with :func:`get` and run a point through
:func:`dispatch`::

    from repro.backends import dispatch, get
    result = dispatch(get("vector"), kernel, records, config)
"""

from .base import BACKEND_TRACK, Backend, dispatch, useful_ops
from .comparators import SimdBackend, SuperscalarBackend, VectorBackend
from .grid import GridBackend
from .registry import backend_names, create, get, register
from .stream import StreamBackend

register(GridBackend.name, GridBackend)
register(SimdBackend.name, SimdBackend)
register(VectorBackend.name, VectorBackend)
register(SuperscalarBackend.name, SuperscalarBackend)
register(StreamBackend.name, StreamBackend)

__all__ = [
    "BACKEND_TRACK",
    "Backend",
    "GridBackend",
    "SimdBackend",
    "StreamBackend",
    "SuperscalarBackend",
    "VectorBackend",
    "backend_names",
    "create",
    "dispatch",
    "get",
    "register",
    "useful_ops",
]
