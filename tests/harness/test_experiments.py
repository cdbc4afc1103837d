"""Experiment runners produce complete, well-formed reproductions."""

import pytest

from repro.harness import experiments
from repro.kernels import TABLE1_ORDER


class TestStaticTables:
    def test_table1_covers_the_suite(self):
        t1 = experiments.table1()
        assert [r[0] for r in t1.rows] == list(TABLE1_ORDER)
        assert all(r[2] for r in t1.rows)  # descriptions present
        assert "Table 1" in t1.render()

    def test_table2_rows_pair_measured_with_paper(self):
        t2 = experiments.table2()
        assert len(t2.measured) == 14
        rendered = t2.render()
        assert "1024 (1024)" in rendered  # rijndael indexed constants

    def test_table3_has_six_mechanism_rows(self):
        t3 = experiments.table3()
        assert len(t3.rows) == 6
        assert "operand revitalization" in t3.render()

    def test_table5_matrix(self):
        t5 = experiments.table5()
        assert [r[0] for r in t5.rows] == ["S", "S-O", "S-O-D", "M", "M-D"]
        rendered = t5.render()
        assert "MIMD+lookup table" in rendered


class TestFigures:
    def test_figure1_classifies_all_kernels(self):
        f1 = experiments.figure1(records=64)
        assert len(f1.profiles) == 14
        waste = {p.name: p.nullification_waste for p in f1.profiles}
        assert waste["anisotropic-filter"] > waste["convert"]

    def test_figure2_names_a_winner_per_kernel(self):
        f2 = experiments.figure2(records=64)
        winners = {name: winner for name, _, winner in f2.rows}
        assert winners["fft"] == "vector"
        assert winners["anisotropic-filter"] == "mimd"


class TestPerformanceExperiments:
    def test_table4_rows_cover_performance_suite(self, ctx):
        t4 = experiments.table4(ctx)
        assert len(t4.rows) == 13  # anisotropic excluded, as in the paper
        assert all(measured > 0 for _, measured, _ in t4.rows)
        assert "anisotropic" not in t4.render()

    def test_figure5_structure(self, ctx):
        f5 = experiments.figure5(ctx)
        assert set(f5.preferred) == set(experiments.PAPER_PREFERRED)
        assert f5.flexible_hmean > max(f5.fixed_hmean.values())
        rendered = f5.render()
        assert "Flexible" in rendered and "paper" in rendered

    def test_table6_regenerates_every_row(self, ctx):
        t6 = experiments.table6(ctx)
        assert len(t6.results) == 13
        for r in t6.results:
            assert r.measured_value > 0
        assert "Cryptomaniac" in t6.render()

    def test_context_caches_runs(self, ctx):
        from repro.machine import MachineConfig

        a = ctx.run("fft", MachineConfig.S())
        b = ctx.run("fft", MachineConfig.S())
        assert a is b


def spy_dispatch(monkeypatch):
    """Log every dispatched (kernel, config name); returns the log."""
    import repro.backends as backends

    calls = []
    dispatch = backends.dispatch

    def spy(backend, kernel, records, config, *args, **kwargs):
        calls.append((kernel.name, config.name))
        return dispatch(backend, kernel, records, config, *args, **kwargs)

    monkeypatch.setattr(backends, "dispatch", spy)
    return calls


class TestOneSimulationPerMachine:
    def test_paper_sweep_dispatches_56_of_78_points(self, monkeypatch):
        """S-O-D and M-D reuse S-O and M on the ten kernels without
        tables, as S-O reuses S on fft and lu; each shared point still
        gets its own timing entry and the result of its own dispatch."""
        from repro.backends import GridBackend, dispatch
        from repro.machine.config import named_config
        from repro.perf.cache import run_result_to_dict

        ctx = experiments.ExperimentContext(records=32,
                                            large_kernel_records=16)
        calls = spy_dispatch(monkeypatch)
        experiments.figure5(ctx)
        experiments.table4(ctx)
        experiments.table6(ctx)
        points = sorted((kernel, config) for _, kernel, config in ctx._keys)
        assert len(points) == 78
        assert len(calls) == 56 and len(set(calls)) == 56
        assert len(ctx.point_seconds) == 78
        shared = sorted(set(points) - set(calls))
        assert len(shared) == 22
        assert {config for _, config in shared} == {"S-O", "S-O-D", "M-D"}
        for kernel, name in shared:
            config = named_config(name)
            direct = dispatch(GridBackend(), ctx.kernel(kernel),
                              ctx.workload(kernel), config, ctx.params)
            assert (run_result_to_dict(ctx.run(kernel, config))
                    == run_result_to_dict(direct))

    def test_one_name_stands_for_one_machine(self):
        """A second machine under a name the context already used is
        refused instead of being served the first one's address."""
        from repro.machine import MachineConfig

        ctx = experiments.ExperimentContext(records=8,
                                            large_kernel_records=8)
        first = ctx.run("convert", MachineConfig.S())
        with pytest.raises(ValueError, match="'S' already names"):
            ctx.run("convert", MachineConfig(name="S", smc_stream=True))
        with pytest.raises(ValueError, match="'S' already names"):
            ctx.run_many([("fft", MachineConfig(name="S"))])
        assert ctx.run("convert", MachineConfig.S()) is first


class TestSupports:
    def test_answered_once_per_backend_kernel_and_config(
            self, monkeypatch):
        """figure5 and table6 ask twice per pair, and each question
        builds a processor; the context answers repeats from a memo."""
        from repro.backends import GridBackend
        from repro.machine import MachineConfig
        from repro.machine.config import named_config

        ctx = experiments.ExperimentContext(records=8,
                                            large_kernel_records=8)
        asked = []
        original = GridBackend.supports

        def counting(self, kernel, config, params=None):
            asked.append(config)
            return original(self, kernel, config, params)

        monkeypatch.setattr(GridBackend, "supports", counting)
        configs = [named_config(n) for n in ("S-O-D", "M", "M-D")]
        pairs = [(k, c) for k in ("blowfish", "lu") for c in configs]
        first = [ctx.supports(k, c) for k, c in pairs]
        assert [ctx.supports(k, c) for k, c in pairs] == first
        assert len(asked) == len(pairs)
        assert first == [
            original(GridBackend(), ctx.kernel(k), c, ctx.params)
            for k, c in pairs
        ]
        # another machine under a used name is asked about afresh
        ctx.supports("lu", MachineConfig(name="M", smc_stream=True))
        assert len(asked) == len(pairs) + 1


class TestRunnerCli:
    def test_main_with_specific_experiments(self, capsys):
        from repro.harness.runner import main

        assert main(["table1", "table5", "--records", "32"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 5" in out

    def test_main_rejects_unknown_experiment(self, capsys):
        from repro.harness.runner import main

        with pytest.raises(SystemExit):
            main(["table99"])


class TestReporting:
    def test_render_table_alignment(self):
        from repro.harness.reporting import render_table

        out = render_table(["name", "v"], [["a", 1], ["bb", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[2].startswith("name")
        assert lines[-1].endswith("22")

    def test_fmt_helpers(self):
        from repro.harness.reporting import fmt_float, fmt_speedup

        assert fmt_float(None) == "-"
        assert fmt_float(1.234, 1) == "1.2"
        assert fmt_speedup(2.5) == "2.50x"
        assert fmt_speedup(None) == "-"
