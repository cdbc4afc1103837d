"""Which public entry points of the simulator the traced run wraps.

Every wrapper is installed from outside: nothing under ``src/`` knows
it is being timed.  Functions are replaced in every ``repro`` module
that holds them by name (see :func:`spans.patch_function`); methods are
replaced on their class.  ``mimd_memory`` is not wrapped at all: its
per-chunk calls are too fine to time one by one, so the traced sweep
child reads the simulator's own ``PHASES`` accumulator instead.
"""

from __future__ import annotations

from spans import PASS, Recorder, patch_function, patch_method, wrap

#: Public ``RunLedger`` methods that write (each is one transaction).
LEDGER_WRITES = (
    "append", "enqueue_points", "claim_points", "complete_point",
    "fail_point", "release_points", "reclaim_expired", "renew_leases",
    "revoke_pending", "upsert_job", "update_job", "prune",
)

#: Public ``RunLedger`` methods that only read.
LEDGER_READS = (
    "rows", "find", "count", "cache_counts", "point_counts", "point_rows",
    "job_rows", "close",
)


def _records(args, result, state):
    return float(len(result))


def _hit(args, result, state):
    return 0.0 if result is None else 1.0


def _cycles(args, result, state):
    return float(result.cycles)


def _mimd_records(args, result, state):
    return float(len(args[1]))


def _window_hits_before(args):
    return args[0].hits


def _window_hit(args, result, state):
    return float(args[0].hits - state)


def install(recorder: Recorder) -> None:
    """Wrap the layers every sweep and service process runs through."""
    from repro.backends import base as backends_base
    from repro.harness import experiments
    from repro.kernels.registry import KernelSpec, registry
    from repro.machine import mapping, placement
    from repro.machine.dataflow_engine import DataflowEngine
    from repro.machine.mimd_engine import MimdEngine
    from repro.machine.window_cache import MappedWindowCache
    from repro.obs.ledger import LedgerHandle, RunLedger
    from repro.perf import fingerprint
    from repro.perf.cache import RunCache
    from repro.sched.scheduler import ClaimSession
    import repro.machine.processor  # noqa: F401  (imports by name)
    import repro.perf.parallel  # noqa: F401

    def fn(module, attr, layer, value=None):
        patch_function(recorder, module, attr, layer, "repro", value)

    def method(cls, attr, layer, value=None, before=None):
        patch_method(recorder, cls, attr, layer, value, before)

    for name in ("figure5", "table4", "table6"):
        fn(experiments, name, "harness")
    method(experiments.ExperimentContext, "run_many", "harness")

    method(KernelSpec, "kernel", "workloads")
    # ``workload`` is a dataclass field holding the generator function,
    # so it is wrapped on each registered spec rather than on the class.
    for spec in registry().values():
        object.__setattr__(spec, "workload", wrap(
            recorder, spec.workload, "workloads", f"{spec.name}.workload",
            _records))

    for name in ("fingerprint_kernel", "fingerprint_config",
                 "fingerprint_params", "fingerprint_records",
                 "fingerprint_backend", "combine_fingerprints",
                 "run_fingerprint"):
        fn(fingerprint, name, "fingerprint")

    method(RunCache, "get", "cache", _hit)
    method(RunCache, "put", "cache")

    method(ClaimSession, "enqueue", "sched", _records)
    method(ClaimSession, "claim", "sched", _records)
    for name in ("complete", "wait_remaining", "close"):
        method(ClaimSession, name, "sched")

    for name in LEDGER_WRITES + LEDGER_READS:
        method(RunLedger, name, "ledger")
    method(LedgerHandle, "record_run", "ledger")

    fn(backends_base, "dispatch", "dispatch")
    fn(placement, "place_iterations", "placement")
    method(MappedWindowCache, "get_or_map", "window_map", _window_hit,
           _window_hits_before)
    fn(mapping, "rebase_window", "window_map")
    method(DataflowEngine, "run", "block_engine", _cycles)
    method(MimdEngine, "run", "mimd_engine", _mimd_records)


def install_service(recorder: Recorder) -> None:
    """Server-side extras: HTTP handling, and each job as a pass root.

    ``JobQueue._run_job`` is the one private method wrapped: it is the
    whole server-side life of one job and no public entry point spans
    it.  Its self time is the job's unattributed remainder.
    """
    from repro.service.jobs import JobQueue
    from repro.service.server import ServiceRequestHandler

    install(recorder)
    for name in ("do_GET", "do_POST"):
        patch_method(recorder, ServiceRequestHandler, name, "service")
    patch_method(recorder, JobQueue, "_run_job", PASS)
