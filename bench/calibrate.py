"""Host-speed reference: scale measured seconds to a fixed CPU speed.

On a shared 2-vCPU KVM guest each virtual CPU, independently of the
other, runs Python code 1.7-2 times slower for stretches of a second to
minutes while other tenants load the physical core under it.  No steal
time shows and a process's CPU time grows with its wall time, so
neither more passes nor CPU time take the slowdown out: a run that
falls in a slow stretch reads slow from end to end, and ten runs spread
by 20-40%.

So each timed piece of work is bracketed by a fixed piece of reference
work, :func:`block`, run on the same CPU just before and just after it.
The reference is the benchmark's own code, never the simulator's, so a
change to the simulator moves the measured work and not the reference.
:func:`scale` turns raw seconds into seconds at the reference speed:

    scaled = raw * REFERENCE_S / (reference block time in the bracket)

On a quiet CPU the two agree; in a slow stretch both the work and the
reference slow down and the ratio stays put (10-second medians of
simulated points spread 43% raw and 8% scaled over five minutes on that
guest).  The raw seconds are kept beside every scaled figure.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List, Sequence, Tuple

import numpy as np

#: Seconds one :func:`block` takes on an unloaded core of a 2-vCPU KVM
#: guest (Xeon, 2.0 GHz, CPython 3.11); a loaded one reads ~1.8 ms.  Only
#: the ratio to it matters: it sets the speed scaled seconds are quoted
#: at.
REFERENCE_S = 0.0011

#: Blocks timed per bracket; the bracket reads their median.
BLOCKS = 24

#: Blocks of the short bracket read after each simulated point.
POINT_BLOCKS = 3

#: One bracket read inside a timed span: (start, end, reading).
Mark = Tuple[float, float, float]


#: The document :func:`block` serializes and parses.
_DOC = {f"key{i}": [i, str(i), {"half": i * 0.5, "odd": bool(i & 1)}]
        for i in range(120)}

#: The lanes :func:`block` computes on.
_LANES = np.arange(256, dtype=np.int64)


def block() -> int:
    """A fixed ~1 ms of interpreter and small-array work.

    Half is JSON encoding and decoding with sorted keys (dict, string
    and object churn, as in the result digests, the run cache and the
    ledger), half a loop of small numpy operations (as in the engines'
    array cores).  On the guest above this mix slows down by about the
    factor the simulator's points do (1.62 against 1.69 for the JSON
    half and 1.54 for the array half), where a pure object-churn loop
    slows by 1.81 and an integer loop by 1.41.
    """
    total = 0
    for _ in range(2):
        text = json.dumps(_DOC, sort_keys=True)
        total += len(json.loads(text))
    for i in range(60):
        lanes = (_LANES * i) % 13
        total += int(lanes.max()) + int(np.cumsum(lanes)[-1] & 7)
    return total


def bracket(blocks: int = BLOCKS) -> float:
    """Median seconds of one :func:`block` on the calling thread's CPU.

    The collector is paused while it runs, so the state of the heap
    around it (the simulator's, in a sweep child) cannot make it slower.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(blocks):
            started = perf_counter()
            block()
            times.append(perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


@contextmanager
def one_cpu() -> Iterator[None]:
    """Pin this process, and the children it starts, to one CPU.

    A single-threaded child then runs where its brackets are read,
    rather than wherever the scheduler moves it mid-pass.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def bracket_cpus(blocks: int = BLOCKS) -> float:
    """Mean of :func:`bracket` run once on each CPU this process may use.

    For work spread over every CPU (the service's server and clients).
    The calling thread is pinned to each CPU in turn, then released.
    """
    allowed = os.sched_getaffinity(0)
    try:
        values = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            values.append(bracket(blocks))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(values)


def scale(seconds: float, *refs: float) -> float:
    """``seconds`` at the reference speed, given its brackets' readings."""
    return seconds * REFERENCE_S / statistics.mean(refs)


class BracketedDict(dict):
    """A dict that reads a short bracket after every item stored.

    Installed as ``ExperimentContext.point_seconds``, which the harness
    fills as each simulated point ends, it marks the CPU's speed
    between points: ``marks`` gets a :data:`Mark` per bracket, in
    order.  A pass is then scaled segment by segment
    (:func:`span`), so a slowdown that starts mid-pass is caught where
    it starts.
    """

    def __init__(self, marks: List[Mark]) -> None:
        super().__init__()
        self.marks = marks

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        started = perf_counter()
        reading = bracket(POINT_BLOCKS)
        self.marks.append((started, perf_counter(), reading))


def span(start: float, end: float, marks: Sequence[Mark],
         ref_before: float, ref_after: float) -> Tuple[float, float, list]:
    """Seconds from ``start`` to ``end``, raw and at the reference speed.

    ``marks`` are the brackets read inside the span; their own time is
    left out.  Each stretch between two readings is scaled by their
    mean.  Also returns the factor of each stretch that ends at a mark:
    the scale of the point whose end the mark follows.
    """
    raw = scaled = 0.0
    factors = []
    at, reading = start, ref_before
    for mark_start, mark_end, mark in list(marks) + [(end, end, ref_after)]:
        factor = REFERENCE_S / ((reading + mark) / 2)
        raw += mark_start - at
        scaled += (mark_start - at) * factor
        factors.append(factor)
        at, reading = mark_end, mark
    return raw, scaled, factors[:-1]
