"""The ``repro-check`` CLI: exit codes and summary lines."""

from pathlib import Path

from repro.check.cli import main
from repro.check.fuzz import FuzzFailure, case_from_seed, save_failure

CORPUS = Path(__file__).parent / "corpus"


class TestRun:
    def test_clean_kernels_exit_zero(self, capsys):
        code = main(["run", "--kernels", "convert", "fft",
                     "--records", "8"])
        err = capsys.readouterr().err
        assert code == 0
        assert "0 violation(s)" in err
        assert "2 kernels x 6 configs" in err

    def test_config_subset(self, capsys):
        code = main(["run", "--kernels", "md5", "--records", "4",
                     "--configs", "S-O", "M"])
        assert code == 0
        assert "1 kernels x 2 configs" in capsys.readouterr().err


class TestFuzz:
    def test_clean_budget_exit_zero(self, capsys):
        code = main(["fuzz", "--budget", "4"])
        err = capsys.readouterr().err
        assert code == 0
        assert "4 cases" in err and "0 failure(s)" in err


class TestReplay:
    def test_pinned_corpus_replays_clean(self, capsys):
        code = main(["replay", "--corpus", str(CORPUS)])
        err = capsys.readouterr().err
        assert code == 0
        assert "0 still failing" in err

    def test_stale_reproducer_fails_the_replay(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.memory.storebuffer import StoreBuffer

        def lifo_evict(self):
            pending = self._pending_lines
            newest = next(reversed(pending))
            return pending.pop(newest)

        save_failure(tmp_path, FuzzFailure(case_from_seed(5), "sanitizer",
                                           "pinned"))
        monkeypatch.setattr(StoreBuffer, "_evict_line", lifo_evict)
        code = main(["replay", "--corpus", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "1 still failing" in err


class TestFaults:
    def test_fault_suite_exit_zero(self, capsys):
        code = main(["faults"])
        err = capsys.readouterr().err
        assert code == 0
        assert "3 scenario(s), 0 failed" in err
