import json
import os
import shutil
import subprocess
import sys

import types

import pytest

import compare
import run
import service_load
import stats
from repro.service.client import ServiceError
from spans import PASS

ROOT = run.ROOT


def test_metric_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("n, expected", [
    (60, 83), (100, 90), (156, 93), (468, 97), (702, 98), (12, 50)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    if p > 50:
        assert n * (100 - p) / 100 >= stats.TAIL_SAMPLES - 1e-9
        assert n * (100 - (p + 1)) / 100 < stats.TAIL_SAMPLES


def test_report_names_the_tail_percentile_it_used():
    ops = [i / 1000 for i in range(1, 157)]
    samples = {"setup_s": [0.2], "first_pass_s": [2.0], "pass_s": [1.8],
               "op_s": ops, "rss_kb": [1024]}
    metrics = run.e2e_metrics(samples)
    assert samples["op_tail_percentile"] == 93
    assert metrics["op_ms_tail"] == pytest.approx(
        1000 * stats.percentile(ops, 93))
    assert metrics["op_ms_p50"] == pytest.approx(78.5)
    assert [m for m, _ in run.END_TO_END] == list(metrics)


def child(digests, points_per_pass=3, replay_points=1):
    return {
        "passes": [{"digest": d, "report_ok": None, "points": [0.1],
                    "simulated": replay_points}
                   for d in digests],
        "points_per_pass": points_per_pass,
        "expected_passes": len(digests), "error": None,
    }


def test_failed_frac_counts_a_perturbed_digest(monkeypatch):
    monkeypatch.setattr(run, "golden_digest", lambda name, seed: None)
    tally = run.Tally()
    children = [child(["aa", "aa", "aa"]), child(["aa", "ab", "aa"])]
    run.check_sweep("x", {}, 0, children, None, tally, False)
    # 18 points, 2 child-error gates and 6 digest gates; one digest off.
    assert (tally.attempted, tally.failed) == (26, 1)
    assert tally.failed / tally.attempted == pytest.approx(1 / 26)

    clean = run.Tally()
    run.check_sweep("x", {}, 0, [child(["aa", "aa"])], None, clean, False)
    assert clean.failed == 0


def test_golden_and_replay_gates(monkeypatch):
    monkeypatch.setattr(run, "golden_digest", lambda name, seed: "gold")
    tally = run.Tally()
    run.check_sweep("x", {}, 0, [child(["lead"], replay_points=0)], "gold",
                    tally, True)
    assert tally.failed == 1  # the pass digest "lead" is not the reference
    replayed = run.Tally()
    run.check_sweep("x", {}, 0, [child(["gold"])], "gold", replayed, True)
    assert replayed.failures == ["1 failed replay simulated nothing"]


def test_replay_is_held_to_the_digest_of_the_sweep_it_replays(monkeypatch):
    asked = []
    monkeypatch.setattr(run, "golden_digest",
                        lambda name, seed: asked.append(name) or None)
    run.check_sweep("paper_replay", run.WORKLOADS["paper_replay"], 0,
                    [child(["d"], replay_points=0)], "d", run.Tally(), True)
    assert asked == ["paper_sweep"]

    kept = types.SimpleNamespace(kept={"paper_sweep": ("cache-dir", "d")})
    assert run.replay_source(kept, run.WORKLOADS["paper_replay"], None,
                             "paper_replay") == ("cache-dir", "d")
    assert run.replay_source(kept, run.WORKLOADS["paper_sweep"], None,
                             "paper_sweep") == (None, None)
    assert run.feeds_replay("paper_sweep")
    assert not run.feeds_replay("service_mix")


def test_a_crashed_child_fails_its_missing_points():
    tally = run.Tally()
    doc = child(["aa"])
    doc["expected_passes"] = 3
    doc["error"] = "Traceback ..."
    run.check_sweep("x", {}, 5, [doc], None, tally, False)
    assert tally.failed == 2 * 3 + 1


def test_layer_metrics_account_for_the_whole_pass():
    tree = [
        [PASS, "pass", 0.0, 4.0, None, 1, 1, None],
        ["sched", "ClaimSession.enqueue", 0.0, 0.1, 0, 1, 1, 2.0],
        ["sched", "ClaimSession.claim", 0.1, 0.2, 0, 1, 1, 1.0],
        ["ledger", "RunLedger.claim_points", 0.12, 0.18, 2, 1, 1, None],
        ["dispatch", "base.dispatch", 0.3, 3.0, 0, 1, 1, None],
        ["block_engine", "DataflowEngine.run", 0.5, 2.5, 4, 1, 1, 4000.0],
        ["cache", "RunCache.get", 3.0, 3.5, 0, 1, 1, 1.0],
        ["cache", "RunCache.get", 3.5, 3.6, 0, 1, 1, 0.0],
    ]
    m, share = run.layer_metrics(tree, [1], memory_s=0.0)
    assert m["block_engine.sim_cycles_per_s"] == pytest.approx(2000.0)
    assert m["cache.hit_ratio"] == pytest.approx(0.5)
    assert m["sched.claims_per_point"] == pytest.approx(0.5)
    assert m["ledger.writes_per_point"] == pytest.approx(0.5)
    assert m["dispatch.self_s"] == pytest.approx(0.7)
    assert m["unattributed_s"] == pytest.approx(4.0 - 0.1 - 0.1 - 2.7 - 0.6)
    assert share == pytest.approx(1.0)


class FakeClient:
    """The ``ServiceClient`` calls a job makes, answered from a script."""

    def __init__(self, states):
        self.states = list(states)

    def submit(self, spec):
        return {"job_id": "j1"}

    def status(self, job_id):
        return {"state": self.states.pop(0)}

    def results_bytes(self, job_id):
        return b"payload"


def test_a_job_times_each_client_call(monkeypatch):
    monkeypatch.setattr(service_load, "POLL_SECONDS", 0.0)
    record = service_load.run_job(
        FakeClient(["queued", "running", "done"]), {})
    assert record["ok"] and record["error"] is None
    assert record["results"] == b"payload"
    assert [len(record[k]) for k in ("submit_s", "status_s", "results_s")] \
        == [1, 3, 1]
    assert record["latency_s"] >= sum(
        record["submit_s"] + record["status_s"] + record["results_s"])


def test_a_refused_request_or_a_failed_job_fails_the_job(monkeypatch):
    monkeypatch.setattr(service_load, "POLL_SECONDS", 0.0)
    failed = service_load.run_job(FakeClient(["running", "failed"]), {})
    assert not failed["ok"] and failed["error"] == "job ended failed"

    class Refusing(FakeClient):
        def status(self, job_id):
            raise ServiceError(404, "no such job")

    refused = service_load.run_job(Refusing([]), {})
    assert not refused["ok"] and "HTTP 404" in refused["error"]
    assert len(refused["status_s"]) == 1 and refused["latency_s"] is None


def test_a_replay_job_carries_the_latency_of_its_spec_pair(monkeypatch):
    monkeypatch.setattr(service_load, "POLL_SECONDS", 0.0)
    out = []
    service_load.client_jobs(FakeClient(["done"] * 4), [7, 8], 0, 4, 0, out)
    assert [j["replay"] for j in out] == [False, True, False, True]
    assert all(j["replay_match"] for j in out[1::2])
    assert all("pair_s" not in j for j in out[0::2])
    for cold, replay in zip(out[0::2], out[1::2]):
        assert replay["pair_s"] == pytest.approx(
            cold["latency_s"] + replay["latency_s"])

    unpaired = []
    service_load.client_jobs(FakeClient(["failed", "done"]), [7], 0, 2, 0,
                             unpaired)
    assert "pair_s" not in unpaired[1]


@pytest.mark.parametrize("a, b, better, expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "lower", "worse"),
    ([1.0, 1.01, 0.99, 1.0], [0.9, 0.91, 0.89, 0.9], "lower", "better"),
    ([1.0, 1.01, 0.99, 1.0], [1.02, 1.01, 1.03, 1.02], "lower", "within"),
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "higher", "better"),
    ([1.0, 1.5, 0.6, 1.0], [1.05, 1.4, 0.7, 1.1], "lower", "unresolved"),
    ([1.0, 1.5, 0.6, 1.0], [2.0, 2.5, 1.6, 2.0], "lower", "worse"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, 0.1, better) == expected


def test_compare_reads_run_documents(tmp_path, capsys):
    for side, value in (("a", 1.0), ("b", 1.5)):
        for i in range(2):
            doc = {"workloads": {"paper_sweep": {"metrics": {
                "pass_s": value + i * 0.001, "unattributed_s": 0.01}}}}
            (tmp_path / f"{side}{i}.json").write_text(json.dumps(doc))
    code = compare.main(["--a", str(tmp_path / "a0.json"),
                         str(tmp_path / "a1.json"),
                         "--b", str(tmp_path / "b0.json"),
                         str(tmp_path / "b1.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "pass_s" in out and "worse" in out
    assert "unattributed_s" in out


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_replay",
         "--seed", "0", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert not (tmp_path / ".bench_run").exists()
