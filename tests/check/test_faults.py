"""Fault injection: damaged caches, dead workers and interrupts must all
degrade gracefully — never wrong results."""

import json

from repro.check.faults import (
    FaultPlan,
    check_cache_corruption,
    check_dead_worker,
    check_interrupt,
    inject_cache_faults,
    run_fault_suite,
)


def _fake_cache(tmp_path, entries=6):
    sub = tmp_path / "ab"
    sub.mkdir(parents=True)
    for i in range(entries):
        (sub / f"entry{i}.json").write_text(
            json.dumps({"schema": 1, "cycles": i, "kernel": "k"}),
            encoding="utf-8",
        )
    return tmp_path


class TestInjection:
    def test_every_requested_fault_lands(self, tmp_path):
        _fake_cache(tmp_path, entries=6)
        plan = FaultPlan(corrupt_entries=1, truncate_entries=1,
                         mismatch_entries=1, non_dict_entries=1, seed=3)
        assert inject_cache_faults(tmp_path, plan) == 4
        unparsable = healthy = mismatched = non_dict = 0
        for path in sorted(tmp_path.glob("*/*.json")):
            try:
                doc = json.loads(path.read_text(encoding="utf-8",
                                                errors="replace"))
            except ValueError:
                unparsable += 1
                continue
            if not isinstance(doc, dict):
                non_dict += 1
            elif "no_such_field" in doc:
                mismatched += 1
            else:
                healthy += 1
        assert unparsable == 2      # corrupt + truncated
        assert non_dict == 1
        assert mismatched == 1
        assert healthy == 2

    def test_plan_larger_than_population_takes_what_exists(self, tmp_path):
        _fake_cache(tmp_path, entries=2)
        plan = FaultPlan(corrupt_entries=5, truncate_entries=5)
        assert inject_cache_faults(tmp_path, plan) == 2

    def test_injection_is_deterministic_in_the_seed(self, tmp_path):
        a = _fake_cache(tmp_path / "a", entries=4)
        b = _fake_cache(tmp_path / "b", entries=4)
        plan = FaultPlan(corrupt_entries=2, seed=11)
        inject_cache_faults(a, plan)
        inject_cache_faults(b, plan)
        names_a = sorted(p.name for p in a.glob("*/*.json")
                         if b"not json" in p.read_bytes())
        names_b = sorted(p.name for p in b.glob("*/*.json")
                         if b"not json" in p.read_bytes())
        assert names_a == names_b


class TestScenarios:
    def test_cache_corruption_degrades_to_misses(self):
        check = check_cache_corruption()
        assert check.passed, check.detail

    def test_dead_worker_rows_are_reclaimed(self):
        check = check_dead_worker()
        assert check.passed, check.detail
        assert "all 4 claims" in check.detail

    def test_interrupt_propagates_without_torn_state(self):
        check = check_interrupt(after_points=2)
        assert check.passed, check.detail

    def test_full_suite_is_green(self):
        checks = run_fault_suite()
        assert [c.name for c in checks] == [
            "cache-corruption", "dead-worker", "interrupt",
        ]
        assert all(c.passed for c in checks), \
            [c.render() for c in checks if not c.passed]
