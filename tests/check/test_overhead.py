"""The sanitizer overhead contract.

Like METRICS and TRACE, a disabled SANITIZER costs one attribute test
per instrumented site — an uninstrumented run must stay within the same
budget the observability layer is held to, and must collect nothing.
"""

from repro.check import SANITIZER
from tests.obs.test_overhead import BUDGET_S, POINT, RECORDS, \
    _simulate_point_cold


class TestDisabledSanitizerOverhead:
    def test_sanitizer_defaults_off(self):
        assert SANITIZER.enabled is False
        assert SANITIZER.strict is False

    def test_disabled_run_within_budget_of_bench_baseline(self):
        best = min(_simulate_point_cold(RECORDS)[0] for _ in range(3))
        assert best <= BUDGET_S, (
            f"sanitizer-off {POINT} run took {best:.3f}s vs budget "
            f"{BUDGET_S:.3f}s (0.0144s baseline + 5% + 50ms); the "
            "disabled path must stay one attribute test per hook"
        )

    def test_disabled_run_collects_nothing(self):
        SANITIZER.reset()
        _simulate_point_cold(records=32)
        assert SANITIZER.violations == []
        assert SANITIZER.total == 0
