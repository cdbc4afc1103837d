"""Differential fuzz harness: clean trees fuzz clean, seeded bugs are
detected and shrunk, corpora round-trip and replay."""

import dataclasses
import json

from repro.check.fuzz import (
    FuzzCase,
    FuzzFailure,
    case_from_seed,
    check_case,
    load_case,
    replay_corpus,
    run_fuzz,
    save_failure,
    shrink_case,
)
from repro.memory.storebuffer import StoreBuffer


def _lifo_evict(self):
    """The re-broken eviction: newest pending line instead of oldest."""
    pending = self._pending_lines
    newest = next(reversed(pending))
    return pending.pop(newest)


class TestCleanTree:
    def test_small_budget_finds_nothing(self):
        assert run_fuzz(8) == []

    def test_single_case_checks_clean(self):
        assert check_case(case_from_seed(5)) is None


class TestSimulatedConfigRule:
    def test_every_case_checks_the_rule(self, monkeypatch):
        """A rule that also drops the L0 data store of a kernel with
        lookup tables changes its results, and the fuzzer says where."""
        from repro.backends import GridBackend

        def overeager(self, kernel, config):
            return dataclasses.replace(config, l0_data=False)

        case = case_from_seed(3)
        assert case.table_size and check_case(case) is None
        monkeypatch.setattr(GridBackend, "simulated_config", overeager)
        failure = check_case(case)
        assert failure is not None
        assert failure.stage == "simulated-config:S-O-D"


class TestOnePassRule:
    def test_clean_case_checks_every_l1_free_configuration(self,
                                                           monkeypatch):
        """A table- and space-free case times S, S-O and S-O-D in one
        pass under each core, next to the two-pass procedure."""
        from repro.machine import GridProcessor

        one_pass = GridProcessor.steady_one_pass
        timed = []

        def counting(self, window):
            timed.append(window.config.name)
            return one_pass(self, window)

        case = case_from_seed(1)
        assert not case.table_size and not case.space_size
        monkeypatch.setattr(GridProcessor, "steady_one_pass", counting)
        assert check_case(case) is None
        assert sorted(timed) == ["S", "S", "S-O", "S-O", "S-O-D", "S-O-D"]

    def test_widened_rule_detected_shrunk_and_saved(self, monkeypatch,
                                                    tmp_path):
        """A rule that also times windows with L1 accesses in one pass
        changes their steady windows; the cross-core stages cannot see
        it (both cores take the same rule), this stage does."""
        from repro.machine import mapping

        monkeypatch.setattr(mapping, "touches_l1",
                            lambda kernel, config: False)
        failures = run_fuzz(1, start_seed=5, corpus_dir=tmp_path)
        assert failures, "a widened one-pass rule went undetected"
        failure = failures[0]
        assert failure.stage == "one-pass:baseline"
        assert "differs from the two-pass one" in failure.detail
        original = case_from_seed(5)
        assert failure.case.size <= original.size
        assert failure.case.records <= original.records
        saved = sorted(tmp_path.glob("*.json"))
        assert [path.name for path in saved] == [
            f"case-{failure.case.seed}-one-pass-baseline.json"]
        assert all(found is not None
                   for _, found in replay_corpus(tmp_path))
        monkeypatch.undo()
        assert all(found is None for _, found in replay_corpus(tmp_path))


class TestCaseRoundTrip:
    def test_to_from_dict_identity(self):
        case = case_from_seed(42)
        assert FuzzCase.from_dict(case.to_dict()) == case

    def test_from_dict_ignores_unknown_keys(self):
        doc = case_from_seed(3).to_dict()
        doc["added_in_a_future_schema"] = True
        assert FuzzCase.from_dict(doc) == case_from_seed(3)

    def test_schedule_is_deterministic(self):
        assert case_from_seed(9) == case_from_seed(9)
        assert case_from_seed(9) != case_from_seed(10)


class TestSeededBug:
    """ISSUE 4 acceptance: re-break the store-buffer eviction order and
    the fuzzer must detect it and shrink the reproducer."""

    def test_lifo_eviction_detected_shrunk_and_saved(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.setattr(StoreBuffer, "_evict_line", _lifo_evict)
        failures = run_fuzz(6, start_seed=5, corpus_dir=tmp_path)
        assert failures, "re-broken FIFO eviction went undetected"
        failure = failures[0]
        assert failure.stage == "sanitizer"
        assert any("storebuffer.fifo_eviction" in v
                   for v in failure.violations)
        # Shrinking only ever simplifies the case.
        original = case_from_seed(failure.case.seed)
        assert failure.case.size <= original.size
        assert failure.case.records <= original.records
        assert failure.case.iterations <= original.iterations
        # The shrunk reproducer landed in the corpus and still fails.
        saved = sorted(tmp_path.glob("*.json"))
        assert saved
        assert load_case(saved[0]) in {f.case for f in failures}
        assert all(found is not None
                   for _, found in replay_corpus(tmp_path))

    def test_fixed_tree_replays_bug_corpus_clean(self, monkeypatch,
                                                 tmp_path):
        """A corpus captured against the bug replays clean once the bug
        is fixed — exactly the regression-pinning workflow."""
        with monkeypatch.context() as m:
            m.setattr(StoreBuffer, "_evict_line", _lifo_evict)
            failures = run_fuzz(1, start_seed=5, corpus_dir=tmp_path)
        assert failures
        results = replay_corpus(tmp_path)
        assert results and all(found is None for _, found in results)


class TestShrink:
    def test_greedy_shrink_reaches_the_minimal_failing_case(self):
        def check(case):
            if case.size >= 4:
                return FuzzFailure(case, "synthetic", "size too big")
            return None

        start = dataclasses.replace(case_from_seed(1), size=32)
        shrunk = shrink_case(check(start), check=check)
        assert shrunk.case.size == 4        # 3 no longer fails
        assert shrunk.case.records == 1     # everything else minimized too
        assert shrunk.case.table_size == 0

    def test_shrink_respects_check_budget(self):
        calls = {"n": 0}

        def check(case):
            calls["n"] += 1
            return FuzzFailure(case, "synthetic", "always fails")

        start = case_from_seed(0)
        shrink_case(FuzzFailure(start, "synthetic", "x"), check=check,
                    max_checks=5)
        assert calls["n"] <= 5


class TestCorpusFiles:
    def test_save_failure_writes_replayable_json(self, tmp_path):
        failure = FuzzFailure(case_from_seed(12), "dataflow:S-O",
                              "made up", ("v1",))
        path = save_failure(tmp_path, failure)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["stage"] == "dataflow:S-O"
        assert FuzzCase.from_dict(doc["case"]) == failure.case
        assert ":" not in path.name  # stage slug is filesystem-safe
