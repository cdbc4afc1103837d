"""The ``repro-perf`` CLI: history, diff and the regression gate."""

import copy
import json
from pathlib import Path

import pytest

from repro.machine import MachineConfig, MachineParams
from repro.obs import perfcli
from repro.obs.ledger import ledger_to
from repro.perf import SweepPoint, run_points


@pytest.fixture()
def populated_ledger(tmp_path):
    """A ledger holding a real 2-point sweep; yields its path."""
    db = tmp_path / "ledger.sqlite"
    params = MachineParams()
    points = [
        SweepPoint(kernel="convert", config=MachineConfig.S(),
                   params=params, records=8, workload_seed=7),
        SweepPoint(kernel="fft", config=MachineConfig.S_O(),
                   params=params, records=8, workload_seed=7),
    ]
    with ledger_to(db) as handle:
        run_points(points)
        run_ids = [row["run_id"] for row in handle.ledger.rows()]
    return str(db), run_ids


class TestHistory:
    def test_lists_recorded_runs(self, populated_ledger, capsys):
        db, _ = populated_ledger
        assert perfcli.main(["--ledger", db, "history"]) == 0
        out = capsys.readouterr().out
        assert "run ledger (newest first)" in out
        assert "convert" in out and "fft" in out
        assert "2 row(s) shown" in out

    def test_filters_by_kernel(self, populated_ledger, capsys):
        db, _ = populated_ledger
        assert perfcli.main(["--ledger", db, "history",
                             "--kernel", "fft"]) == 0
        out = capsys.readouterr().out
        assert "fft" in out and "convert" not in out

    def test_limit_zero_shows_every_run(self, populated_ledger, capsys):
        db, run_ids = populated_ledger
        assert perfcli.main(["--ledger", db, "history",
                             "--limit", "0"]) == 0
        assert f"{len(run_ids)} row(s) shown" in capsys.readouterr().out

    def test_missing_ledger_fails(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.sqlite")
        assert perfcli.main(["--ledger", missing, "history"]) == 2
        assert "no ledger at" in capsys.readouterr().err


class TestDiff:
    def test_diff_by_prefix(self, populated_ledger, capsys):
        db, run_ids = populated_ledger
        a, b = run_ids[0][:8], run_ids[1][:8]
        assert perfcli.main(["--ledger", db, "diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "run diff" in out
        assert "cycles:" in out
        assert "phase seconds:" in out

    def test_unknown_run_fails(self, populated_ledger, capsys):
        db, run_ids = populated_ledger
        code = perfcli.main(
            ["--ledger", db, "diff", run_ids[0][:8], "zzzzzz"]
        )
        assert code == 2
        assert "no ledger row matches" in capsys.readouterr().err

    def test_ambiguous_prefix_fails_with_candidates(self, tmp_path,
                                                    capsys):
        """A prefix matching several runs must error and list them,
        never silently diff whichever row sorted first."""
        from repro.obs.ledger import RunLedger

        db = str(tmp_path / "amb.sqlite")
        ledger = RunLedger(db)
        for suffix in ("aaa", "bbb"):
            ledger.append({
                "run_id": f"feedc0de{suffix}", "created_at": 0.0,
                "kernel": "convert", "backend": "grid", "config": "S",
            })
        code = perfcli.main(
            ["--ledger", db, "diff", "feedc0de", "feedc0debbb"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "feedc0deaaa" in err and "feedc0debbb" in err
        assert "more characters" in err

    def test_exact_id_wins_over_longer_siblings(self, tmp_path, capsys):
        """A full run id that also prefixes another id is not ambiguous."""
        from repro.obs.ledger import RunLedger

        db = str(tmp_path / "exact.sqlite")
        ledger = RunLedger(db)
        for run_id in ("cafe", "cafe99"):
            ledger.append({
                "run_id": run_id, "created_at": 0.0,
                "kernel": "convert", "backend": "grid", "config": "S",
                "engine_core": "array", "cycles": 100,
                "wall_seconds": 0.1, "metrics": json.dumps({}),
            })
        assert perfcli.main(["--ledger", db, "diff", "cafe", "cafe99"]) == 0
        assert "run diff" in capsys.readouterr().out


#: The committed traced bench document CI gates against.
BASELINE = Path(__file__).resolve().parents[2] / "bench_baseline.json"


def report(layers=None, **overrides):
    """A traced ``bench/run.py --out`` document with one workload."""
    metrics = {
        "mimd_engine.self_s": 1.0,
        "harness.self_s": 0.002,  # below the noise floor
        "mimd_engine.calls": 26.0,  # a count, never gated
    }
    metrics.update(layers or {})
    doc = {
        "seed": 0, "seconds": 22, "trace": True, "engine_core": "array",
        "attempted": 100, "failed": 0, "failures": [],
        "workloads": {"paper_sweep": {"metrics": metrics}},
    }
    doc.update(overrides)
    return doc


class TestCompareReports:
    def test_within_tolerance_passes(self):
        fresh = report({"mimd_engine.self_s": 1.1})
        _, regressions = perfcli.compare_reports(report(), fresh, 25.0)
        assert regressions == []

    def test_regression_detected(self):
        fresh = report({"mimd_engine.self_s": 2.0, "mimd_engine.calls": 99})
        _, regressions = perfcli.compare_reports(report(), fresh, 25.0)
        assert len(regressions) == 1
        assert regressions[0].startswith("paper_sweep mimd_engine.self_s:")

    def test_noise_floor_skips_tiny_phases(self):
        """A 10x blowup of a layer under 50 ms is scheduler noise, not
        signal; a 50 ms layer is gated."""
        base = report({"harness.self_s": 0.049, "cache.self_s": 0.05})
        fresh = report({"harness.self_s": 0.49, "cache.self_s": 0.5})
        lines, regressions = perfcli.compare_reports(base, fresh, 25.0)
        assert [r.split(":")[0] for r in regressions] == [
            "paper_sweep cache.self_s"
        ]
        assert any("harness.self_s" in line and "noise floor" in line
                   for line in lines)

    def test_no_shared_phases_is_a_failure(self):
        fresh = report(workloads={"service_mix": {"metrics": {
            "mimd_engine.self_s": 1.0,
        }}})
        lines, regressions = perfcli.compare_reports(report(), fresh, 25.0)
        assert regressions and "no comparable layers" in regressions[0]
        assert any("paper_sweep is not in the fresh document" in line
                   for line in lines)

    def test_workload_mismatch_noted(self):
        lines, _ = perfcli.compare_reports(
            report(), report(engine_core="object"), 25.0
        )
        assert any("engine_core differs" in line for line in lines)


def regress(tmp_path, baseline, fresh, *flags):
    """Run ``repro-perf regress`` on two documents written to files."""
    paths = []
    for name, doc in (("base.json", baseline), ("fresh.json", fresh)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return perfcli.main(["regress", *paths, *flags])


class TestRegressCommand:
    def test_identical_reports_pass(self, tmp_path, capsys):
        assert regress(tmp_path, report(), report(),
                       "--tolerance", "10") == 0
        assert "no layer regressed" in capsys.readouterr().out

    def test_slow_fresh_report_fails(self, tmp_path, capsys):
        slow = report({"mimd_engine.self_s": 3.0})
        assert regress(tmp_path, report(), slow, "--tolerance", "25") == 1
        assert "REGRESSION: paper_sweep mimd_engine.self_s" in (
            capsys.readouterr().err
        )

    def test_min_seconds_raises_the_floor(self, tmp_path):
        slow = report({"mimd_engine.self_s": 3.0})
        assert regress(tmp_path, report(), slow,
                       "--min-seconds", "1.5") == 0

    def test_missing_baseline_fails(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(report()))
        code = perfcli.main([
            "regress", str(tmp_path / "nope.json"), str(fresh),
        ])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_untraced_document_fails(self, tmp_path, capsys):
        untraced = report(trace=False)
        assert regress(tmp_path, report(), untraced) == 2
        assert "not a traced bench document" in capsys.readouterr().err

    def test_failed_run_fails(self, tmp_path, capsys):
        broken = report(failed=3, failures=["3 failed digest"])
        assert regress(tmp_path, broken, report()) == 2
        assert "3 failed operation(s)" in capsys.readouterr().err

    def test_committed_baseline_passes_against_itself(self, capsys):
        code = perfcli.main(["regress", str(BASELINE), str(BASELINE)])
        assert code == 0
        assert "no layer regressed" in capsys.readouterr().out

    def test_committed_baseline_gates_every_layer_over_the_floor(
            self, tmp_path, capsys):
        """Doubling any one layer of 50 ms or more fails the gate and
        names that workload and layer."""
        baseline = json.loads(BASELINE.read_text())
        gated = [
            (workload, layer)
            for workload, doc in baseline["workloads"].items()
            for layer, seconds in doc["metrics"].items()
            if layer.endswith(".self_s")
            and seconds >= perfcli.MIN_GATE_SECONDS
        ]
        assert gated
        for workload, layer in gated:
            fresh = copy.deepcopy(baseline)
            fresh["workloads"][workload]["metrics"][layer] *= 2
            assert regress(tmp_path, baseline, fresh) == 1, layer
            err = capsys.readouterr().err
            assert f"REGRESSION: {workload} {layer}:" in err
            assert err.count("REGRESSION") == 1


class TestPruneCommand:
    def test_keep_last_trims_older_runs(self, populated_ledger, capsys):
        db, run_ids = populated_ledger
        code = perfcli.main(["--ledger", db, "prune", "--keep-last", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned 1 run row(s)" in out
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(db)
        survivors = [row["run_id"] for row in ledger.rows()]
        ledger.close()
        assert len(survivors) == 1
        assert survivors[0] in run_ids

    def test_dry_run_deletes_nothing(self, populated_ledger, capsys):
        db, run_ids = populated_ledger
        code = perfcli.main([
            "--ledger", db, "prune", "--keep-last", "1", "--dry-run",
        ])
        assert code == 0
        assert "would prune 1 run row(s)" in capsys.readouterr().out
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(db)
        assert ledger.count() == len(run_ids)
        ledger.close()

    def test_before_accepts_iso_dates(self, populated_ledger, capsys):
        db, run_ids = populated_ledger
        code = perfcli.main([
            "--ledger", db, "prune", "--before", "2099-01-01",
        ])
        assert code == 0
        assert f"pruned {len(run_ids)} run row(s)" in (
            capsys.readouterr().out
        )

    def test_without_criteria_is_an_error(self, populated_ledger, capsys):
        db, _ = populated_ledger
        assert perfcli.main(["--ledger", db, "prune"]) == 2
        assert "--keep-last" in capsys.readouterr().err

    def test_bad_date_is_an_error(self, populated_ledger, capsys):
        db, _ = populated_ledger
        code = perfcli.main([
            "--ledger", db, "prune", "--before", "yesterday",
        ])
        assert code == 2
        assert "YYYY-MM-DD" in capsys.readouterr().err

    def test_missing_ledger_is_an_error(self, tmp_path, capsys):
        code = perfcli.main([
            "--ledger", str(tmp_path / "nope.sqlite"),
            "prune", "--keep-last", "1",
        ])
        assert code == 2
        assert "no ledger at" in capsys.readouterr().err
