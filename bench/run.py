"""The repository benchmark: three workloads measured from outside.

Usage (from the repository root)::

    python bench/run.py                           # all workloads, seed 0
    python bench/run.py --workload paper_sweep --seed 3 --seconds 22
    python bench/run.py --trace 1 --out run.json  # per-layer run + trace

Every workload runs in child processes, one at a time; this process is
the only source of load.  With ``--trace 0`` it prints every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` it runs each workload
once more with span wrappers installed (see ``layers.py``) and prints
the per-layer metrics.  Each metric goes out as a
``workload metric value unit`` line; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for the workloads, the metrics and the gates.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import service_load  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from layers import LEDGER_WRITES  # noqa: E402

#: How each workload is sized.  ``pass_s`` (a steady pass with its
#: probe and brackets, or a service round), ``overhead_s`` (set-up plus
#: first pass of one process, or set-up of a server) and ``fixed_s``
#: (the extra set-up samples, and filling the replay cache) are rough
#: costs at the reference speed (``calibrate.py``), used only to turn
#: ``--seconds`` into a whole number of passes; no measurement depends
#: on them.  A CPU slowed by other tenants stretches a run up to twice
#: that.  ``setup_samples`` extra processes only set up, so ``setup_s``
#: is a median over that many more starts.  ``paper_replay`` replays the
#: run cache the first ``paper_sweep`` process filled (``replay_of``)
#: and is held to its digest (``golden``).
WORKLOADS: Dict[str, dict] = {
    "paper_sweep": {
        "kind": "sweep", "records": 512, "large_records": 128,
        "processes": 3, "pass_s": 2.35, "overhead_s": 2.8, "fixed_s": 0.9,
        "min_steady": 2, "trace_steady": 2, "setup_samples": 3,
    },
    "paper_replay": {
        "kind": "sweep", "records": 512, "large_records": 128,
        "processes": 8, "pass_s": 0.28, "overhead_s": 0.6, "fixed_s": 3.5,
        "min_steady": 4, "trace_steady": 10, "setup_samples": 3,
        "replay_of": "paper_sweep", "golden": "paper_sweep",
    },
    # A client's 8 jobs of a round cover each kernel pair once cold and
    # once replayed, so every round carries the same load.
    "service_mix": {
        "kind": "service", "servers": 4, "jobs_per_client": 8,
        "round_s": 1.5, "overhead_s": 0.5, "fixed_s": 1.0, "min_rounds": 3,
        "trace_rounds": 2, "setup_samples": 2,
    },
}

#: End-to-end metrics (``--trace 0``), in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("first_pass_s", "s"),
    ("pass_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: Layers timed by the traced run, in call-stack order.
LAYERS = (
    "harness", "workloads", "fingerprint", "cache", "sched", "ledger",
    "dispatch", "placement", "window_map", "block_engine", "mimd_engine",
)

#: Per-layer metrics (``--trace 1``), in BENCHMARK.json order.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.calls", "count") for layer in LAYERS if layer != "harness"]
    + [
        ("cache.hit_ratio", "ratio"),
        ("sched.claims_per_point", "ratio"),
        ("ledger.writes_per_point", "ratio"),
        ("window_cache.hit_ratio", "ratio"),
        ("block_engine.sim_cycles_per_s", "1/s"),
        ("mimd_engine.records_per_s", "1/s"),
        ("mimd_memory.s", "s"),
        ("service.http_s", "s"),
        ("service.submit_ms_p50", "ms"),
        ("service.status_ms_p50", "ms"),
        ("service.cold_job_s_p50", "s"),
        ("service.replay_job_s_p50", "s"),
        ("unattributed_s", "s"),
        ("trace_overhead_pct", "%"),
    ]
)

#: A single workload must finish well inside the 180 s the caller allows.
WORKLOAD_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


# ---- child processes --------------------------------------------------------


class Run:
    """Per-invocation settings and the scratch directory children use."""

    def __init__(self, seed: int, seconds: int, engine_core: str):
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(
                f"no simulator sources under {ROOT / 'src'}; run the "
                "benchmark from a checkout of the repository")
        # Children import the simulator from bytecode, as an installed
        # copy does, whether or not the environment lets Python write
        # it: compile it once here, untimed (a no-op when up to date).
        compiled = subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
            stdout=subprocess.DEVNULL)
        if compiled.returncode != 0:
            raise BenchError("the simulator sources do not compile")
        self.seed = seed
        self.seconds = seconds
        self.work = ROOT / ".bench_run" / str(os.getpid())
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        # The service clients are the repository's own ``ServiceClient``.
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["REPRO_ENGINE_CORE"] = engine_core
        self.env["TMPDIR"] = str(self.work)
        # The ledger stamps rows with ``git rev-parse HEAD``; keep git
        # from searching above the checkout.
        self.env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
        self.env.pop("REPRO_LEDGER", None)
        self.deadline = 0.0
        #: ``{workload: (run-cache dir, digest)}`` kept for a replay
        self.kept: Dict[str, Tuple[str, str]] = {}
        self._names = 0

    def path(self, stem: str) -> str:
        self._names += 1
        return str(self.work / f"{self._names:03d}-{stem}")

    def remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError("workload exceeded its time budget")
        return left

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def sweep_child(run: Run, w: dict, passes: int, trace: bool,
                cache_dir: Optional[str] = None,
                probe: bool = False, keep_cache: bool = False) -> dict:
    """Run one sweep child; returns its result document plus ``setup_s``.

    ``cache_dir`` makes every pass use that run-cache directory (a
    replay); ``probe`` times each point's replay after every pass (see
    ``sweep_child.py``); ``keep_cache`` keeps the first pass's run cache
    for a later replay.
    """
    work = run.path("sweep")
    os.makedirs(work)
    report = ROOT / "experiment_report.txt"
    spec = {
        "records": w["records"], "large_records": w["large_records"],
        "seed": run.seed, "passes": passes, "work_dir": work,
        "cache_dir": cache_dir, "trace": trace,
        "result": os.path.join(work, "result.json"), "probe": probe,
        "keep_first_cache": keep_cache,
        "report": str(report) if run.seed == 0 else None,
    }
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    err_path = os.path.join(work, "stderr.txt")
    before_setup = calibrate.bracket()
    with open(err_path, "wb") as err:
        started = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "sweep_child.py"), spec_path],
            stdout=subprocess.PIPE, stderr=err, env=run.env, cwd=str(ROOT))
        try:
            line = proc.stdout.readline()
            setup_s = perf_counter() - started
            proc.wait(timeout=run.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError("sweep child timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0 \
            or not os.path.exists(spec["result"]):
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise BenchError(f"sweep child failed (exit {proc.returncode})")
    with open(spec["result"], encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["error"]:
        sys.stderr.write(doc["error"])
    doc["setup_raw_s"] = setup_s
    doc["setup_s"] = calibrate.scale(setup_s, before_setup, doc["setup_ref"])
    doc["expected_passes"] = passes
    return doc


def golden_digest(workload: str, seed: int) -> Optional[str]:
    with open(BENCH_DIR / "golden.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


class Tally:
    """Operations and correctness gates attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def ops(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} failed {what}")

    def gate(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)


def check_sweep(name: str, w: dict, seed: int, children: List[dict],
                reference: Optional[str], tally: Tally,
                replay: bool) -> str:
    """Apply the sweep gates; returns the digest every pass must match."""
    for child in children:
        done = len(child["passes"])
        tally.ops(child["expected_passes"] * child["points_per_pass"],
                  (child["expected_passes"] - done) * child["points_per_pass"],
                  "points (child error)")
        tally.gate(child["error"] is None, "child ran without error")
    digests = [p["digest"] for c in children for p in c["passes"]]
    if reference is None:
        reference = digests[0] if digests else ""
    for value in digests:
        tally.gate(value == reference, "digest match across passes")
    golden = golden_digest(w.get("golden", name), seed)
    if golden is not None:
        tally.gate(reference == golden, "digest match with golden.json")
    for child in children:
        for p in child["passes"]:
            if p["report_ok"] is not None:
                tally.gate(p["report_ok"], "tables match the report")
            if replay:
                tally.gate(p["simulated"] == 0, "replay simulated nothing")
    return reference


# ---- workloads --------------------------------------------------------------


def sweep_plan(w: dict, seconds: int) -> int:
    """Steady passes per process for a run of ``seconds``."""
    budget = (seconds - w["fixed_s"]) / w["processes"] - w["overhead_s"]
    return max(w["min_steady"], int(budget / w["pass_s"]))


def replay_source(run: Run, w: dict, tally: Tally,
                  name: str) -> Tuple[Optional[str], Optional[str]]:
    """(run-cache dir, digest) a workload replays; (None, None) if none.

    The cache is the one the first process of ``replay_of`` filled in
    this invocation, and the digest that workload's.  When the workload
    runs without it, one untimed cold pass fills a cache here.
    """
    if not w.get("replay_of"):
        return None, None
    if w["replay_of"] in run.kept:
        return run.kept[w["replay_of"]]
    cache_dir = run.path("replay-cache")
    child = sweep_child(run, w, 1, False, cache_dir)
    return cache_dir, check_sweep(name, w, run.seed, [child], None, tally,
                                  False)


def feeds_replay(name: str) -> bool:
    return any(w.get("replay_of") == name for w in WORKLOADS.values())


def keep_for_replay(run: Run, name: str, child: dict, digest: str) -> None:
    if child.get("kept_cache"):
        run.kept[name] = (child["kept_cache"], digest)


def sweep_setups(run: Run, w: dict) -> List[dict]:
    """``setup_samples`` children that set up and run no pass."""
    return [sweep_child(run, w, 0, False) for _ in range(w["setup_samples"])]


def sweep_e2e(run: Run, name: str, w: dict, tally: Tally) -> dict:
    steady = sweep_plan(w, run.seconds)
    setups = sweep_setups(run, w)
    cache_dir, reference = replay_source(run, w, tally, name)
    replay = cache_dir is not None
    keep = feeds_replay(name)
    children = [sweep_child(run, w, 1 + steady, False, cache_dir, replay,
                            keep and i == 0)
                for i in range(w["processes"])]
    reference = check_sweep(name, w, run.seed, children, reference, tally,
                            replay)
    if keep:
        keep_for_replay(run, name, children[0], reference)
    later = [p for c in children for p in c["passes"][1:]]
    firsts = [c["passes"][0] for c in children if c["passes"]]
    fidelity = firsts[0]["fidelity"] if firsts else None
    setup_children = setups + children
    return {
        "setup_s": [c["setup_s"] for c in setup_children],
        "first_pass_s": [p["scaled"] for p in firsts],
        "pass_s": [p["scaled"] for p in later],
        "op_s": [t for p in later for t in p["scaled_points"]],
        "rss_kb": [c["rss_kb"] for c in children],
        "raw": {
            "setup_s": [c["setup_raw_s"] for c in setup_children],
            "first_pass_s": [p["wall"] for p in firsts],
            "pass_s": [p["wall"] for p in later],
            "scale": [p["scaled"] / p["wall"]
                      for c in children for p in c["passes"]],
        },
        "fidelity": fidelity,
        "digest": reference,
        "plan": {"processes": w["processes"], "steady_passes": steady,
                 "setup_samples": len(setups) + len(children)},
    }


def service_plan(w: dict, seconds: int) -> int:
    """Rounds per server for a run of ``seconds``."""
    budget = (seconds - w["fixed_s"]) / w["servers"] - w["overhead_s"]
    return max(w["min_rounds"], int(budget / w["round_s"]))


def service_server(run: Run, w: dict, index: int, rounds: int,
                   trace_path: Optional[str], tally: Tally) -> dict:
    work = run.path("server")
    os.makedirs(work)
    cold = rounds * w["jobs_per_client"]
    seeds = [run.seed * 100000 + index * 10000 + k for k in range(cold)]
    cmd = service_load.server_command(sys.executable, str(BENCH_DIR), work,
                                      trace_path)
    out = service_load.run_server(
        cmd, run.env, os.path.join(work, "stderr.txt"), seeds, rounds,
        w["jobs_per_client"])
    run.remaining()
    if out["error"] or out["setup_s"] is None:
        with open(os.path.join(work, "stderr.txt"), encoding="utf-8",
                  errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise BenchError(out["error"] or "server did not start")
    jobs = out["jobs"]
    tally.ops(len(jobs), sum(1 for j in jobs if not j["ok"]), "jobs")
    for job in jobs:
        if job["replay"] and job["ok"]:
            tally.gate(job["replay_match"], "replay bytes match original")
    tally.gate(out["returncode"] == 0, "server clean exit")
    out["setup_raw_s"] = out["setup_s"]
    out["setup_s"] = calibrate.scale(out["setup_s"], *out["setup_refs"])
    # The server and its clients spread over both CPUs, whose speeds
    # change from one second to the next, so the two brackets around
    # one round say little about it: every round and job of this server
    # is scaled by one factor from all of its brackets.
    out["scale"] = calibrate.scale(1.0, *out["setup_refs"], *out["refs"][1:])
    for job in jobs:
        for key in ("latency_s", "pair_s"):
            if job.get(key) is not None:
                job[key] *= out["scale"]
    return out


def service_setups(run: Run, w: dict) -> List[dict]:
    """``setup_samples`` servers stopped once listening."""
    samples = []
    for _ in range(w["setup_samples"]):
        work = run.path("server-setup")
        os.makedirs(work)
        cmd = service_load.server_command(sys.executable, str(BENCH_DIR),
                                          work, None)
        try:
            setup_s, refs = service_load.time_setup(
                cmd, run.env, os.path.join(work, "stderr.txt"))
        except RuntimeError as exc:
            raise BenchError(str(exc)) from None
        samples.append({"setup_raw_s": setup_s,
                        "setup_s": calibrate.scale(setup_s, *refs)})
        run.remaining()
    return samples


def service_e2e(run: Run, name: str, w: dict, tally: Tally) -> dict:
    rounds = service_plan(w, run.seconds)
    setups = service_setups(run, w)
    servers = [service_server(run, w, i, rounds, None, tally)
               for i in range(w["servers"])]
    setup_servers = setups + servers
    return {
        "setup_s": [s["setup_s"] for s in setup_servers],
        "first_pass_s": [s["rounds"][0] * s["scale"] for s in servers],
        "pass_s": [r * s["scale"] for s in servers for r in s["rounds"][1:]],
        # An operation is one spec served twice, cold and then replayed:
        # cold jobs and replays form two separate latency modes, and the
        # median of the two pooled would fall in the gap between them.
        "op_s": [j["pair_s"] for s in servers for j in s["jobs"]
                 if j["round"] > 0 and j.get("pair_s") is not None],
        "rss_kb": [s["rss_kb"] for s in servers],
        "raw": {
            "setup_s": [s["setup_raw_s"] for s in setup_servers],
            "first_pass_s": [s["rounds"][0] for s in servers],
            "pass_s": [r for s in servers for r in s["rounds"][1:]],
            "scale": [s["scale"] for s in servers],
        },
        "fidelity": None,
        "plan": {"servers": w["servers"], "rounds": rounds,
                 "jobs_per_client": w["jobs_per_client"],
                 "clients": service_load.CLIENTS,
                 "setup_samples": len(setups) + len(servers)},
    }


def e2e_metrics(samples: dict) -> Dict[str, float]:
    empty = [k for k in ("setup_s", "first_pass_s", "pass_s", "op_s",
                         "rss_kb") if not samples[k]]
    if empty:
        raise BenchError(f"no samples for {', '.join(empty)}")
    ops = samples["op_s"]
    tail = stats.tail_percentile(len(ops))
    samples["op_tail_percentile"] = tail
    return {
        "setup_s": statistics.median(samples["setup_s"]),
        "first_pass_s": statistics.median(samples["first_pass_s"]),
        "pass_s": statistics.median(samples["pass_s"]),
        "op_ms_p50": 1000.0 * statistics.median(ops),
        "op_ms_tail": 1000.0 * stats.percentile(ops, tail),
        "peak_rss_mb": statistics.median(samples["rss_kb"]) / 1024.0,
    }


# ---- the traced run ---------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans_list: List[list], pass_ids: List[int],
                  memory_s: float) -> Tuple[Dict[str, float], float]:
    """Per-pass means of every layer metric over ``pass_ids``.

    Also returns the share of the mean pass wall that the layer self
    times plus ``unattributed_s`` account for (1.0 when spans nest).
    """
    passes = spans.per_pass(spans_list)
    n = max(1, len(pass_ids))

    def total(layer: str, key: str) -> float:
        return sum(passes.get(p, {}).get(layer, {}).get(key, 0)
                   for p in pass_ids) / n

    def entry(layer: str, name: str, field: int) -> float:
        return sum(
            passes.get(p, {}).get(layer, {}).get("names", {})
            .get(name, (0, 0.0))[field] for p in pass_ids) / n

    points = entry("sched", "ClaimSession.enqueue", 1)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = total(layer, "self_s")
        if layer != "harness":
            metrics[f"{layer}.calls"] = total(layer, "calls")
    metrics["cache.hit_ratio"] = _ratio(
        entry("cache", "RunCache.get", 1), entry("cache", "RunCache.get", 0))
    metrics["sched.claims_per_point"] = _ratio(
        entry("sched", "ClaimSession.claim", 0), points)
    metrics["ledger.writes_per_point"] = _ratio(
        sum(entry("ledger", f"RunLedger.{w}", 0) for w in LEDGER_WRITES),
        points)
    lookup = "MappedWindowCache.get_or_map"
    metrics["window_cache.hit_ratio"] = _ratio(
        entry("window_map", lookup, 1), entry("window_map", lookup, 0))
    metrics["block_engine.sim_cycles_per_s"] = _ratio(
        entry("block_engine", "DataflowEngine.run", 1),
        metrics["block_engine.self_s"])
    metrics["mimd_engine.records_per_s"] = _ratio(
        entry("mimd_engine", "MimdEngine.run", 1),
        metrics["mimd_engine.self_s"])
    metrics["mimd_memory.s"] = memory_s
    metrics["unattributed_s"] = total(spans.PASS, "self_s")
    walls = spans.pass_walls(spans_list)
    wall = sum(walls.get(p, 0.0) for p in pass_ids) / n
    attributed = metrics["unattributed_s"] + sum(
        metrics[f"{layer}.self_s"] for layer in LAYERS)
    return metrics, _ratio(attributed, wall)


def sweep_trace(run: Run, name: str, w: dict, tally: Tally,
                processes: List[dict]) -> tuple:
    steady = w["trace_steady"]
    cache_dir, reference = replay_source(run, w, tally, name)
    replay = cache_dir is not None
    keep = feeds_replay(name)
    plain = sweep_child(run, w, 1 + steady, False, cache_dir,
                        keep_cache=keep)
    traced = sweep_child(run, w, 1 + steady, True, cache_dir)
    reference = check_sweep(name, w, run.seed, [plain, traced], reference,
                            tally, replay)
    if keep:
        keep_for_replay(run, name, plain, reference)
    steady_ids = list(range(1, len(traced["passes"])))
    memory = [traced["passes"][i]["mimd_memory_s"] for i in steady_ids]
    metrics, share = layer_metrics(traced["spans"], steady_ids,
                                   sum(memory) / max(1, len(memory)))
    plain_s = statistics.median(
        [p["scaled"] for p in plain["passes"][1:]])
    traced_steady = traced["passes"][1:]
    traced_s = statistics.median([p["scaled"] for p in traced_steady])
    metrics.update({
        "service.http_s": 0.0, "service.submit_ms_p50": 0.0,
        "service.status_ms_p50": 0.0, "service.cold_job_s_p50": 0.0,
        "service.replay_job_s_p50": 0.0,
        "trace_overhead_pct": 100.0 * (traced_s / plain_s - 1.0),
    })
    scale_layers(metrics, statistics.mean(
        p["scaled"] / p["wall"] for p in traced_steady))
    processes.append({"label": f"{name} traced", "spans": traced["spans"]})
    return metrics, share


def scale_layers(metrics: Dict[str, float], factor: float) -> None:
    """Quote the per-layer times and rates at the reference speed."""
    units = dict(PER_LAYER)
    for name, value in metrics.items():
        if units[name] in ("s", "ms"):
            metrics[name] = value * factor
        elif units[name] == "1/s":
            metrics[name] = value / factor


def service_trace(run: Run, name: str, w: dict, tally: Tally,
                  processes: List[dict]) -> tuple:
    rounds = w["trace_rounds"]
    plain = service_server(run, w, 0, rounds, None, tally)
    trace_path = run.path("server-trace.json")
    traced = service_server(run, w, 1, rounds, trace_path, tally)
    with open(trace_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    job_ids = sorted(spans.pass_walls(doc["spans"]))
    metrics, share = layer_metrics(
        doc["spans"], job_ids, _ratio(doc["mimd_memory_s"], len(job_ids)))
    jobs = [j for j in traced["jobs"] if j["ok"]]

    def p50(values) -> float:
        return statistics.median(values) if values else 0.0

    def pairs(server: dict) -> List[float]:
        return [j["pair_s"] for j in server["jobs"]
                if j.get("pair_s") is not None]

    plain_s, traced_s = p50(pairs(plain)), p50(pairs(traced))
    metrics.update({
        "service.http_s": _ratio(spans.root_seconds(doc["spans"], "service"),
                                 len(job_ids)),
        "service.submit_ms_p50": 1000.0 * p50(
            [t for j in jobs for t in j["submit_s"]]),
        "service.status_ms_p50": 1000.0 * p50(
            [t for j in jobs for t in j["status_s"]]),
    })
    scale_layers(metrics, traced["scale"])
    # Job latencies are already scaled (``service_server``).
    metrics.update({
        "service.cold_job_s_p50": p50(
            [j["latency_s"] for j in jobs if not j["replay"]]),
        "service.replay_job_s_p50": p50(
            [j["latency_s"] for j in jobs if j["replay"]]),
        "trace_overhead_pct": 100.0 * (_ratio(traced_s, plain_s) - 1.0),
    })
    processes.append({"label": f"{name} server traced",
                      "spans": doc["spans"]})
    return metrics, share


# ---- reporting --------------------------------------------------------------


def run_workload(run: Run, name: str, trace: bool, tally: Tally,
                 processes: List[dict]) -> dict:
    w = WORKLOADS[name]
    run.deadline = perf_counter() + WORKLOAD_DEADLINE_S
    started = perf_counter()
    # A sweep child is single-threaded: it and its brackets share the
    # CPU this process pins them to.  The service spreads over all CPUs.
    with calibrate.one_cpu() if w["kind"] == "sweep" else nullcontext():
        if trace:
            fn = sweep_trace if w["kind"] == "sweep" else service_trace
            metrics, share = fn(run, name, w, tally, processes)
            doc = {"metrics": metrics, "attributed_share": share}
        else:
            fn = sweep_e2e if w["kind"] == "sweep" else service_e2e
            samples = fn(run, name, w, tally)
            doc = {"metrics": e2e_metrics(samples), "samples": samples}
    doc["wall_s"] = perf_counter() - started
    return doc


def print_workload(name: str, doc: dict, trace: bool) -> None:
    units = dict(PER_LAYER if trace else END_TO_END)
    for metric, value in doc["metrics"].items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    samples = doc.get("samples")
    if samples:
        print(f"{name} # op samples {len(samples['op_s'])}, tail is "
              f"p{samples['op_tail_percentile']}; plan {samples['plan']}")
        raw = samples["raw"]
        print(f"{name} # unscaled medians: setup_s "
              f"{statistics.median(raw['setup_s']):.4g}, first_pass_s "
              f"{statistics.median(raw['first_pass_s']):.4g}, pass_s "
              f"{statistics.median(raw['pass_s']):.4g}; scale "
              f"{min(raw['scale']):.3g}-{max(raw['scale']):.3g}")
        for key, value in (samples["fidelity"] or {}).items():
            unit = "%" if key.endswith("pct") else "pp"
            print(f"{name} {key} {value:.6g} {unit}")
    if trace:
        print(f"{name} # layer self times + unattributed = "
              f"{100 * doc['attributed_share']:.2f}% of the pass wall")
    print(f"{name} # wall {doc['wall_s']:.1f} s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see bench/README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        nargs="?", const=1,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--out", default=None,
                        help="also write the full results as JSON here "
                             "(and, traced, <out>.trace.json and "
                             "<out>.chrome.json)")
    parser.add_argument("--engine-core", default="array",
                        choices=("array", "object"),
                        help="simulator engine core (default array)")
    args = parser.parse_args(argv)

    seconds = args.seconds
    if seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace)
    try:
        run = Run(args.seed, seconds, args.engine_core)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tally = Tally()
    processes: List[dict] = []
    docs = {}
    try:
        for name in names:
            docs[name] = run_workload(run, name, trace, tally, processes)
            print_workload(name, docs[name], trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    units = dict(PER_LAYER if trace else END_TO_END)
    metrics = {}
    for name, doc in docs.items():
        for metric, value in doc["metrics"].items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
    for failure in tally.failures:
        print(f"# {failure}", file=sys.stderr)
    print(f"# failed_frac {tally.failed / max(1, tally.attempted):.6g} "
          f"ratio ({tally.failed} of {tally.attempted})")
    if args.out:
        base = args.out[:-5] if args.out.endswith(".json") else args.out
        spans.write_json(args.out, {
            "seed": args.seed, "seconds": seconds, "trace": trace,
            "engine_core": args.engine_core, "workloads": docs,
            "attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.failures,
        })
        if processes:
            spans.write_json(base + ".trace.json", {"processes": processes})
            spans.write_json(base + ".chrome.json",
                             spans.chrome_trace(processes))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
