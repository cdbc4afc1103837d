"""Command-line entry points: ``repro-serve`` and ``repro-submit``.

``repro-serve`` stands the HTTP API up over one
:class:`~repro.service.jobs.JobQueue` (shared run cache + durable
ledger, default-on like the other CLIs).  ``--port 0`` binds a free
port; the actually-bound address is printed first, on stdout, so
scripts (and the CI smoke job) can scrape it::

    repro-serve --port 0 --cache-dir .repro_service_cache &
    # repro-serve listening on http://127.0.0.1:40123

``repro-submit`` is the thin client: build a sweep spec from flags,
POST it, poll status (progress lines on stderr), print the results
payload on stdout.  Submitting the same spec twice demonstrates the
whole point of the service — the second run replays from the run
cache.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from ..obs.ledger import DEFAULT_LEDGER, LEDGER_ENV, add_ledger_arguments
from ..obs.progress import render_state
from .client import ServiceClient, ServiceError
from .jobs import JobQueue, JobState

#: Conventional service port (any free port works; 0 asks the OS).
DEFAULT_PORT = 8732

#: Conventional on-disk run cache the service shares across jobs.
DEFAULT_SERVICE_CACHE = ".repro_service_cache"


def _resolve_ledger(args) -> Optional[str]:
    """``--no-ledger`` wins; else ``--ledger`` > env > the default."""
    if args.no_ledger:
        return None
    return args.ledger or os.environ.get(LEDGER_ENV) or DEFAULT_LEDGER


# ---- repro-serve ------------------------------------------------------------


def serve_main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point for ``repro-serve``; returns an exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve sweep/experiment requests over HTTP: an async job "
            "queue over repro.backends.dispatch() with run-cache "
            "replays for repeat traffic."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, metavar="N",
        help=f"bind port (default {DEFAULT_PORT}; 0 picks a free port)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="queue worker threads — jobs running concurrently "
             "(default 1; needs a ledger for coherent accounting)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_SERVICE_CACHE, metavar="DIR",
        help="shared on-disk run cache (default "
             f"{DEFAULT_SERVICE_CACHE}; identical resubmissions replay "
             "from it)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="log each HTTP request to stderr",
    )
    add_ledger_arguments(parser)
    args = parser.parse_args(argv)

    # The server is imported lazily so --help stays instant.
    from .server import start_server

    queue = JobQueue(
        cache_dir=args.cache_dir,
        ledger_path=_resolve_ledger(args),
        workers=args.workers,
    )
    server = start_server(
        queue, host=args.host, port=args.port, quiet=not args.verbose
    )
    print(
        f"repro-serve listening on http://{args.host}:{server.port}",
        flush=True,
    )
    if queue.ledger_path:
        print(f"run ledger: {queue.ledger_path} (see repro-perf)",
              file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        queue.shutdown(wait=True, timeout=5.0)
    return 0


# ---- repro-submit -----------------------------------------------------------


def _spec_from_args(args) -> dict:
    spec = {
        "kernels": args.kernels,
        "configs": args.configs,
        "backend": args.backend,
        "records": args.records,
        "seed": args.seed,
    }
    if args.engine_core is not None:
        spec["engine_core"] = args.engine_core
    if args.tag:
        spec["tag"] = args.tag
    return spec


def submit_main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point for ``repro-submit``; returns an exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-submit",
        description=(
            "Submit one sweep to a running repro-serve instance, poll "
            "until done, and print the results payload."
        ),
    )
    parser.add_argument(
        "kernels", nargs="+",
        help="kernel registry names (or 'all' for the performance suite)",
    )
    parser.add_argument(
        "--url", default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help=f"service endpoint (default http://127.0.0.1:{DEFAULT_PORT})",
    )
    parser.add_argument(
        "--configs", nargs="+", default=["baseline"], metavar="NAME",
        help="machine configurations (Table 5 names, 'baseline', or "
             "'table5'; default baseline)",
    )
    parser.add_argument("--backend", default="grid",
                        help="backend registry name (default grid)")
    parser.add_argument(
        "--engine-core", default=None, choices=("array", "object"),
        help="pin the engine core for this sweep (default: server's)",
    )
    parser.add_argument("--records", type=int, default=64, metavar="N",
                        help="records per kernel run (default 64)")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="workload seed (default 0)")
    parser.add_argument("--tag", default="", help="free-form job annotation")
    parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="seconds to wait for completion (default 600)",
    )
    parser.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without polling",
    )
    args = parser.parse_args(argv)

    client = ServiceClient(args.url)
    try:
        accepted = client.submit(_spec_from_args(args))
    except ServiceError as exc:
        print(f"submit rejected: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
        return 2
    job_id = accepted["job_id"]
    print(f"job {job_id} accepted (spec "
          f"{accepted['spec_fingerprint'][:12]})", file=sys.stderr)
    if args.no_wait:
        print(job_id)
        return 0

    submitted = time.perf_counter()
    deadline = time.monotonic() + args.timeout
    last_completed = -1
    while True:
        status = client.status(job_id)
        progress = status.get("progress")
        if progress and progress["completed"] != last_completed:
            last_completed = progress["completed"]
            print(render_state(progress), file=sys.stderr, flush=True)
        if status["state"] in JobState.TERMINAL:
            break
        if time.monotonic() >= deadline:
            print(f"timed out after {args.timeout:g}s (job still "
                  f"{status['state']})", file=sys.stderr)
            return 3
        time.sleep(0.1)
    wall = time.perf_counter() - submitted
    state = status["state"]
    if state != JobState.DONE:
        print(f"job {job_id} {state}"
              + (f": {status['error']}" if status.get("error") else ""),
              file=sys.stderr)
        return 1
    payload = client.results_bytes(job_id)
    sys.stdout.buffer.write(payload)
    sys.stdout.flush()
    cache = status.get("cache") or {}
    print(
        f"job {job_id} done in {wall:.3f}s"
        f" ({status['points_total']} point(s),"
        f" cache: {cache or 'n/a'})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
