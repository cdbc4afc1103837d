"""Live sweep progress: a view of the claim rows.

Every sweep runs its points as rows of a claim store
(:mod:`repro.sched`), so how far along it is — completed/total, the
points in flight, per-backend completions — is a count of those rows,
not a second account kept beside them.
:meth:`ClaimSession.progress_snapshot <repro.sched.ClaimSession.progress_snapshot>`
reads one job's rows (``GET /jobs/{id}`` serves it), and
:meth:`ExperimentContext.progress_snapshot <repro.harness.experiments.ExperimentContext.progress_snapshot>`
adds the rows of a context's finished sweeps to its live one, which
the ``repro-experiments --progress`` stderr ticker
(:func:`progress_ticker`) prints.

Both build their snapshot with :func:`progress_state`, so the shape and
its clamps live here, and both read the store only when asked: a sweep
that nobody watches pays nothing.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


def point_label(backend: str, kernel: str, config: str) -> str:
    """The canonical in-flight label of one sweep point."""
    return f"{backend}:{kernel}|{config}"


def progress_state(
    completed: int,
    total: int,
    in_flight: List[str],
    started_at: Optional[float],
    per_backend: Dict[str, int],
    last_point: Optional[str] = None,
) -> dict:
    """One progress snapshot.

    Keys: ``completed``, ``total``, ``in_flight`` (labels),
    ``elapsed_seconds`` since the wall-clock stamp ``started_at``,
    ``points_per_second``, ``eta_seconds`` (None until a rate is
    known), ``per_backend`` (completion counts) and ``last_point``.
    Elapsed time is clamped at zero (a start stamp ahead of the clock)
    and total at completed, so no snapshot has a negative remaining
    count, an infinite rate or a negative ETA.
    """
    elapsed = (
        max(0.0, time.time() - started_at) if started_at is not None
        else 0.0
    )
    rate = completed / elapsed if elapsed > 0 else 0.0
    total = max(total, completed)
    return {
        "completed": completed,
        "total": total,
        "in_flight": in_flight,
        "elapsed_seconds": elapsed,
        "points_per_second": rate,
        "eta_seconds": (total - completed) / rate if rate > 0 else None,
        "per_backend": dict(sorted(per_backend.items())),
        "last_point": last_point,
    }


def render_state(state: dict) -> str:
    """One human-readable progress line from a state snapshot."""
    parts = [
        f"progress: {state['completed']}/{state['total']} points",
        f"{state['points_per_second']:.1f}/s",
    ]
    eta = state.get("eta_seconds")
    if eta is not None:
        parts.append(f"eta {eta:.0f}s")
    per_backend = state.get("per_backend") or {}
    if len(per_backend) > 1:
        parts.append(
            " ".join(f"{name}={n}" for name, n in per_backend.items())
        )
    in_flight: List[str] = state.get("in_flight") or []
    if in_flight:
        shown = ", ".join(in_flight[:3])
        if len(in_flight) > 3:
            shown += f", +{len(in_flight) - 3} more"
        parts.append(f"in flight: {shown}")
    return "  ".join(parts)


@contextmanager
def progress_ticker(
    snapshot: Callable[[], dict], interval: float = 1.0, stream=None
):
    """Print a :func:`render_state` line of ``snapshot()`` every
    ``interval`` s.

    The ticker is a daemon thread writing to ``stream`` (default
    stderr — stdout stays byte-identical for the experiment reports).
    A final line is always printed on exit, so even sweeps shorter
    than one interval leave a summary.
    """
    stream = stream if stream is not None else sys.stderr
    stop = threading.Event()

    def tick() -> None:
        while not stop.wait(interval):
            print(render_state(snapshot()), file=stream, flush=True)

    thread = threading.Thread(
        target=tick, name="repro-progress-ticker", daemon=True
    )
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=interval + 1.0)
        print(render_state(snapshot()), file=stream, flush=True)


__all__ = [
    "point_label",
    "progress_state",
    "render_state",
    "progress_ticker",
]
