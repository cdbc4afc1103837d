"""The observability overhead contract.

With METRICS and TRACE disabled (the default), instrumentation points
pay one attribute test each — a disabled run must stay within 5% of the
guarded point's recorded baseline.  Wall-clock guards are noisy, so the
check takes the fastest of three fresh simulations of the point and
allows an absolute slack on top of the 5%.
"""

import time

from repro.kernels import spec
from repro.machine import GridProcessor, MachineParams
from repro.machine.config import named_config
from repro.machine.window_cache import MappedWindowCache
from repro.obs import METRICS, TRACE

#: The guarded point: fast enough for a test, heavy enough to measure.
POINT = "convert|S-O-D"

#: Records per guarded run.
RECORDS = 128

#: Budget for the fastest of three cold runs of POINT at RECORDS with
#: instrumentation off: the point's 0.0144 s in the cold serial sweep of
#: the in-process benchmark report this repository used to commit
#: (1-CPU host, Python 3.11), plus 5%, plus 50 ms of timer slack.
BUDGET_S = 0.0144 * 1.05 + 0.05


def _simulate_point_cold(records):
    """One cold simulation of the guarded point (private window cache,
    so mapping is paid as in a fresh-context sweep)."""
    s = spec("convert")
    processor = GridProcessor(
        MachineParams(), window_cache=MappedWindowCache()
    )
    workload = s.workload(records, 100)  # the experiment harness seed
    started = time.perf_counter()
    result = processor.run(s.kernel(), workload, named_config("S-O-D"))
    return time.perf_counter() - started, result


class TestDisabledOverhead:
    def test_instrumentation_defaults_off(self):
        assert METRICS.enabled is False
        assert TRACE.enabled is False

    def test_disabled_run_within_budget_of_bench_baseline(self):
        # Fastest of three damps scheduler noise; the absolute slack
        # covers timer granularity on sub-100ms points.
        best = min(_simulate_point_cold(RECORDS)[0] for _ in range(3))
        assert best <= BUDGET_S, (
            f"disabled-instrumentation {POINT} run took {best:.3f}s vs "
            f"budget {BUDGET_S:.3f}s (0.0144s baseline + 5% + 50ms); "
            "the disabled path must stay one attribute test per hook"
        )

    def test_disabled_run_allocates_no_observability_state(self):
        _, result = _simulate_point_cold(records=64)
        assert METRICS.snapshot() == {}
        assert TRACE.events == []
        # The per-run detail snapshot is the one allowed artifact.
        assert "channel.words_delivered" in result.detail
