"""The repro-experiments CLI: end-of-run summary and stream hygiene."""

import pytest

from repro.harness import experiments, runner
from repro.machine import MachineParams
from repro.machine.config import named_config


def small_context(**kwargs):
    return experiments.ExperimentContext(
        params=MachineParams(), records=16, large_kernel_records=16, **kwargs
    )


class TestRunSummary:
    def test_reports_cache_and_point_accounting(self):
        ctx = small_context()
        ctx.run("convert", named_config("S"))
        ctx.run("convert", named_config("S"))  # memory hit
        text = runner.run_summary(ctx)
        assert "run summary" in text
        assert "1 hits / 1 misses" in text
        assert "simulated points : 1" in text

    def test_counts_copied_points_apart_from_simulated(self, monkeypatch):
        """A point whose machine a job-mate already simulated is a copy:
        convert has no lookup tables, so its S-O-D point runs the S-O
        machine and copies that result."""
        monkeypatch.setattr(
            experiments, "effective_workers", lambda jobs, n: 1
        )
        ctx = small_context()
        ctx.run_many([("convert", named_config("S-O")),
                      ("convert", named_config("S-O-D"))])
        text = runner.run_summary(ctx)
        assert "simulated points : 1 " in text
        assert "copied points    : 1 " in text
        assert len(ctx.point_seconds) == 2  # the bench still times both

    def test_pool_fallback_counts_its_copies(self, monkeypatch):
        """A pool that cannot spawn runs the sweep serially, where the
        S-O-D point copies the S-O machine's result, as in-context."""
        from repro.perf import parallel

        class BrokenPool:
            def __init__(self, max_workers):
                raise OSError("no process spawning here")

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", BrokenPool)
        ctx = small_context(jobs=2)
        with pytest.warns(RuntimeWarning, match="OSError"):
            ctx.run_many([("convert", named_config("S-O")),
                          ("convert", named_config("S-O-D"))])
        assert (ctx.simulated_points, ctx.copied_points) == (1, 1)

    def test_has_no_dispatch_line(self):
        """Dispatch is accounted on the claim and ledger rows, not in a
        process-global summary line."""
        ctx = small_context(jobs=4)
        ctx.run_many([("convert", named_config("S"))])
        text = runner.run_summary(ctx)
        assert "dispatch" not in text
        assert "engine core" in text and "run cache" in text

    def test_in_context_sweep_records_dispatch_stats(self, monkeypatch):
        """run_many's serial fast path (one effective worker) runs its
        points as claim rows, which the context's progress view counts."""
        monkeypatch.setattr(
            experiments, "effective_workers", lambda jobs, n: 1
        )
        ctx = small_context(jobs=4)
        ctx.run_many([("convert", named_config("S"))])
        state = ctx.progress_snapshot()
        assert (state["completed"], state["total"]) == (1, 1)
        assert state["per_backend"] == {"grid": 1}

    def test_a_failing_point_leaves_a_failed_row(self, tmp_path,
                                                 monkeypatch):
        """The in-context runner fails the row of a point that raises,
        as run_points does, so sibling workers stop waiting on it."""
        from repro.obs.ledger import RunLedger, ledger_to
        from repro.perf.parallel import JobConstants

        def exploding(constants, point, *args, **kwargs):
            raise RuntimeError(f"{point.kernel}|{point.config.name} broke")

        monkeypatch.setattr(JobConstants, "simulate", exploding)
        path = str(tmp_path / "ledger.sqlite")
        with ledger_to(path):
            with pytest.raises(RuntimeError, match=r"convert\|S broke"):
                small_context().run_many([("convert", named_config("S"))])
        store = RunLedger(path)
        try:
            assert store.point_counts() == {"failed": 1}
        finally:
            store.close()

    def test_main_keeps_stdout_deterministic(self, capsys):
        """The summary (timings, hit rates) goes to stderr so stdout
        stays byte-identical across serial/parallel/replay runs."""
        assert runner.main(["table1", "--records", "16"]) == 0
        captured = capsys.readouterr()
        assert "run summary" not in captured.out
        assert "run summary" in captured.err

class TestBackendFlag:
    def test_backend_selects_the_model(self, capsys):
        assert runner.main(
            ["table4", "--backend", "vector", "--records", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out

    def test_backend_output_differs_from_grid(self, capsys):
        runner.main(["table4", "--records", "16"])
        grid_out = capsys.readouterr().out
        runner.main(["table4", "--backend", "simd", "--records", "16"])
        simd_out = capsys.readouterr().out
        assert grid_out != simd_out

    def test_unknown_backend_rejected(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            runner.main(["table1", "--backend", "no-such-model"])

    def test_grid_flags_warn_on_fixed_backends(self, capsys):
        """--rows/--cols shape the grid substrate; a fixed comparator
        warns and ignores them instead of silently aliasing sweeps."""
        runner.main(
            ["table1", "--backend", "simd", "--rows", "4", "--records", "16"]
        )
        err = capsys.readouterr().err
        assert "--rows/--cols" in err and "'simd'" in err

    def test_grid_flags_stay_silent_on_grid_backends(self, capsys):
        runner.main(["table1", "--rows", "4", "--cols", "4",
                     "--records", "16"])
        err = capsys.readouterr().err
        assert "--rows/--cols" not in err

    def test_figure2_measured_is_registered_but_not_default(self, capsys):
        assert runner.main(["figure2_measured", "--records", "16"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2 (measured)" in out
        assert "figure2_measured" not in runner._DEFAULT_NAMES
        ctx = small_context()
        assert "figure2_measured" in runner._registry(ctx)
