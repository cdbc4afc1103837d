"""Performance layer: content-addressed run caching and sweep points.

Deterministic simulation points are perfectly memoizable — the same
(kernel structure, machine configuration, machine parameters, record
stream, seed) always produces the same :class:`~repro.machine.stats.RunResult`
— and independent of each other.  This package exploits both properties:

* :mod:`repro.perf.fingerprint` computes stable content hashes over
  every simulation input, so results can be addressed by *what was
  simulated* rather than by transient object identity;
* :mod:`repro.perf.cache` stores results under those fingerprints, with
  an in-memory tier plus an optional on-disk JSON tier (``.repro_cache/``)
  that survives across processes;
* :mod:`repro.perf.parallel` describes (kernel, config) points by value
  and runs a sweep of them as claim rows (:mod:`repro.sched`), which
  other processes sharing the ledger can claim too;
* :mod:`repro.perf.phases` attributes wall time to pipeline phases
  (mapping vs engine vs memory interface) when explicitly enabled.

The experiment harness (:mod:`repro.harness.experiments`) threads all
three through Figure 5, Table 4, Table 6 and the sweep benchmarks.
"""

from .cache import CacheStats, RunCache, run_result_from_dict, run_result_to_dict
from .fingerprint import (
    DEFAULT_BACKEND_PART,
    combine_fingerprints,
    fingerprint_backend,
    fingerprint_config,
    fingerprint_kernel,
    fingerprint_params,
    fingerprint_records,
    run_fingerprint,
)
from .parallel import SweepPoint, run_points, simulate_point
from .phases import PHASES, PhaseAccumulator, measuring

__all__ = [
    "CacheStats",
    "DEFAULT_BACKEND_PART",
    "PHASES",
    "PhaseAccumulator",
    "RunCache",
    "SweepPoint",
    "combine_fingerprints",
    "fingerprint_backend",
    "fingerprint_config",
    "fingerprint_kernel",
    "fingerprint_params",
    "fingerprint_records",
    "measuring",
    "run_fingerprint",
    "run_points",
    "run_result_from_dict",
    "run_result_to_dict",
    "simulate_point",
]
