"""The ``service_mix`` load: a ``repro-serve`` process and two clients.

Each server process is started, waited on until it prints its
"listening" line, driven for a number of rounds and stopped with
SIGINT.  In a round each of two client threads runs its jobs back to
back (closed loop, no think time): submit, poll the status every 10 ms
until the job is terminal, fetch the results.  Even-numbered jobs of a
client use a fresh seed, so the server simulates them; odd-numbered
jobs resubmit the previous spec, so the server replays them from its
run cache, and their result bytes must equal the original's.

The clients talk to the server through the repository's own
:class:`repro.service.client.ServiceClient`, as ``repro-submit`` does:
one fresh HTTP connection per request.  Its methods are timed one by
one.

Reference brackets (``calibrate.bracket_cpus``, on every CPU in turn)
are read before each spawn, once the server listens and after each
round, while the server is idle; ``run.py`` scales by them.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import calibrate

#: The kernel pairs a job sweeps, each across every configuration.
KERNEL_PAIRS = (
    ("convert", "fft"),
    ("highpassfilter", "lu"),
    ("blowfish", "vertex-simple"),
    ("fragment-simple", "vertex-reflection"),
)
CONFIGS = ("baseline", "S", "S-O", "S-O-D", "M", "M-D")
RECORDS = 64
CLIENTS = 2
POLL_SECONDS = 0.01


def job_spec(seed: int, client: int, job: int) -> dict:
    pair = KERNEL_PAIRS[(client + job // 2) % len(KERNEL_PAIRS)]
    return {"kernels": list(pair), "configs": list(CONFIGS),
            "records": RECORDS, "seed": seed}


def timed(record: dict, key: str, call, *args):
    """``call(*args)``, its seconds appended to ``record[key]``."""
    started = perf_counter()
    try:
        return call(*args)
    finally:
        record[key].append(perf_counter() - started)


def run_job(client, spec: dict) -> dict:
    """One closed-loop job; never raises (errors are a failed job)."""
    from repro.service.client import ServiceError
    from repro.service.jobs import JobState

    record = {"ok": False, "submit_s": [], "status_s": [], "results_s": [],
              "latency_s": None, "results": None, "error": None}
    started = perf_counter()
    try:
        job_id = timed(record, "submit_s", client.submit, spec)["job_id"]
        while True:
            state = timed(record, "status_s", client.status, job_id)["state"]
            if state in JobState.TERMINAL:
                break
            time.sleep(POLL_SECONDS)
        if state != JobState.DONE:
            record["error"] = f"job ended {state}"
            return record
        record["results"] = timed(record, "results_s", client.results_bytes,
                                  job_id)
        record["latency_s"] = perf_counter() - started
        record["ok"] = True
    except (ServiceError, OSError, ValueError, KeyError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def client_jobs(client, seeds: List[int], index: int, count: int,
                first_job: int, out: List[dict]) -> None:
    """Run jobs ``first_job`` onwards; a replay job also gets ``pair_s``.

    ``pair_s`` is the latency of the spec's cold job plus its replay's:
    the benchmark's unit of service work (see ``run.py``).
    """
    spec = original = None
    for job in range(first_job, first_job + count):
        replay = job % 2 == 1
        if not replay:
            spec = job_spec(seeds.pop(0), index, job)
        record = run_job(client, spec)
        record["replay"] = replay
        if replay:
            record["replay_match"] = (
                record["ok"] and original is not None
                and record["results"] == original)
            if record["ok"] and out and out[-1]["ok"]:
                record["pair_s"] = out[-1]["latency_s"] + record["latency_s"]
        original = record.pop("results")
        out.append(record)


def vm_hwm_kb(pid: int) -> Optional[int]:
    """Peak resident set of a live process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


def stop(proc: subprocess.Popen) -> None:
    """SIGINT the server and wait for it (killing it after 15 s)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def start(cmd: List[str], env: Dict[str, str], err) -> tuple:
    """Spawn a server; (process, port or None, set-up seconds, first line)."""
    started = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
    line = proc.stdout.readline().decode()
    setup_s = perf_counter() - started
    port = (int(line.rsplit(":", 1)[1]) if "listening on http://" in line
            else None)
    return proc, port, setup_s, line


def time_setup(cmd: List[str], env: Dict[str, str],
               err_path: str) -> Tuple[float, List[float]]:
    """Spawn-to-"listening" seconds of one server that is then stopped.

    Also returns the reference brackets read just before the spawn and
    while the server sat listening.
    """
    refs = [calibrate.bracket_cpus()]
    with open(err_path, "ab") as err:
        proc, port, setup_s, line = start(cmd, env, err)
        try:
            if port is not None:
                refs.append(calibrate.bracket_cpus())
        finally:
            stop(proc)
    if port is None:
        raise RuntimeError(f"server did not start: {line!r}")
    return setup_s, refs


def run_server(cmd: List[str], env: Dict[str, str], err_path: str,
               seeds: List[int], rounds: int, jobs_per_client: int) -> dict:
    """Start one server, drive ``rounds`` rounds, stop it.

    Returns set-up seconds, per-round wall seconds and job records
    (tagged with their round), the server's peak RSS and its exit code.
    ``setup_refs`` holds the reference brackets read before the spawn and
    once the server listens; ``refs`` that last one and one read after
    each round, while the server is idle.
    """
    from repro.service.client import ServiceClient
    # ``run_job``'s imports, made here so no timed round pays for them.
    from repro.service import jobs  # noqa: F401

    out = {"setup_s": None, "rounds": [], "jobs": [], "rss_kb": None,
           "returncode": None, "error": None,
           "setup_refs": [calibrate.bracket_cpus()], "refs": []}
    with open(err_path, "ab") as err:
        proc, port, out["setup_s"], line = start(cmd, env, err)
        try:
            if port is None:
                out["error"] = f"server did not start: {line!r}"
                return out
            out["refs"].append(calibrate.bracket_cpus())
            out["setup_refs"].append(out["refs"][0])
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60)
            client_seeds = [seeds[c::CLIENTS] for c in range(CLIENTS)]
            for index in range(rounds):
                results: List[List[dict]] = [[] for _ in range(CLIENTS)]
                threads = [
                    threading.Thread(target=client_jobs, args=(
                        client, client_seeds[c], c, jobs_per_client,
                        index * jobs_per_client, results[c]))
                    for c in range(CLIENTS)
                ]
                round_started = perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                out["rounds"].append(perf_counter() - round_started)
                out["refs"].append(calibrate.bracket_cpus())
                for client_records in results:
                    for record in client_records:
                        record["round"] = index
                        out["jobs"].append(record)
            out["rss_kb"] = vm_hwm_kb(proc.pid)
        finally:
            stop(proc)
            out["returncode"] = proc.returncode
    return out


def server_command(python: str, bench_dir: str, work: str,
                   trace_path: Optional[str]) -> List[str]:
    trace = [] if trace_path is None else ["--trace", trace_path]
    return [python, os.path.join(bench_dir, "serve.py")] + trace + [
        "--port", "0", "--workers", "2",
        "--cache-dir", os.path.join(work, "cache"),
        "--ledger", os.path.join(work, "ledger.sqlite")]
