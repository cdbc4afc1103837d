"""Correctness & robustness checks for the simulator (``repro.check``).

Three pillars (DESIGN.md section 8):

* :mod:`repro.check.sanitizer` — an opt-in runtime invariant checker
  wired into the dataflow/MIMD engines, the memory system, the store
  buffers and the run cache (near-zero cost when disabled);
* :mod:`repro.check.fuzz` — a differential fuzz harness running random
  kernels through the evaluator, both engines and every machine
  configuration with the sanitizer on, shrinking failures to minimal
  reproducers in a replayable corpus;
* :mod:`repro.check.faults` — fault injection (:class:`FaultPlan`) for
  the perf layer: corrupt/truncated disk-cache entries, a worker that
  dies holding claims, mid-sweep interrupts — verifying graceful
  degradation.

Only the sanitizer is imported eagerly: it must stay importable from
``repro.memory`` / ``repro.machine`` hot paths, while the fuzz and
fault modules import those layers and are loaded lazily (via
``__getattr__``) to keep the dependency graph acyclic.
"""

from .sanitizer import (
    SANITIZER,
    InvariantError,
    InvariantViolation,
    Sanitizer,
    checking,
)

_LAZY = {
    "FuzzCase": "fuzz",
    "FuzzFailure": "fuzz",
    "case_from_seed": "fuzz",
    "check_case": "fuzz",
    "shrink_case": "fuzz",
    "run_fuzz": "fuzz",
    "replay_corpus": "fuzz",
    "FaultPlan": "faults",
    "FaultCheck": "faults",
    "inject_cache_faults": "faults",
    "run_fault_suite": "faults",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)


__all__ = [
    "SANITIZER",
    "Sanitizer",
    "InvariantViolation",
    "InvariantError",
    "checking",
    *sorted(_LAZY),
]
