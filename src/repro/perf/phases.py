"""Wall-clock phase accounting for the simulation pipeline.

Attributes a point's wall time to the pipeline's phases — window
**mapping** (placement + instance expansion, or a cache rebase),
cycle-level **engine** simulation (block-style vs MIMD), and the MIMD
**memory** interface traffic (record fetch + store drain, the part the
batch APIs target) — so a hot-path regression can be localized without
re-profiling.  Every ledgered point stores its split in its run-ledger
row (``repro-perf diff`` compares two), and the traced benchmark
(``bench/``) reads ``mimd_memory`` from it.

The accumulator is a process-global, explicitly enabled instrument:
when ``PHASES.enabled`` is False (the default) the instrumented code
paths pay a single attribute test and no clock reads, so normal runs
are unaffected.  Workers in a process pool accumulate into their own
copy; phase breakdowns are therefore meaningful for serial runs (which
is what the benchmark measures them on).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict


class PhaseAccumulator:
    """Accumulates seconds per named phase while enabled."""

    __slots__ = ("enabled", "seconds")

    def __init__(self) -> None:
        self.enabled = False
        self.seconds: Dict[str, float] = {}

    def add(self, name: str, elapsed: float) -> None:
        """Credit ``elapsed`` wall seconds to ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    def reset(self) -> None:
        self.seconds = {}

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy of the accumulated seconds."""
        return dict(self.seconds)


#: The process-wide accumulator the engines report into.
PHASES = PhaseAccumulator()


class measuring:
    """Context manager enabling PHASES around a block and restoring after.

    >>> with measuring() as acc:
    ...     run_experiments()
    >>> acc.snapshot()

    Nesting is safe: an inner ``measuring()`` opened while an outer one
    is active measures its own block from zero, then folds its seconds
    back into the outer accumulation on exit (the inner block's time is
    part of the outer block's time).  Nested users should snapshot
    *inside* their ``with`` block — after exit the accumulator holds the
    merged outer view.
    """

    def __init__(self, reset: bool = True):
        self._reset = reset
        self._was_enabled = False
        self._outer_seconds: Dict[str, float] = {}

    def __enter__(self) -> PhaseAccumulator:
        self._was_enabled = PHASES.enabled
        if self._reset:
            # Save (don't drop) an enclosing scope's accumulation: the
            # reset must scope this measurement, not clobber the outer.
            if self._was_enabled:
                self._outer_seconds = PHASES.seconds
            PHASES.reset()
        PHASES.enabled = True
        return PHASES

    def __exit__(self, *exc) -> None:
        PHASES.enabled = self._was_enabled
        if self._outer_seconds:
            inner = PHASES.seconds
            PHASES.seconds = self._outer_seconds
            self._outer_seconds = {}
            for name, elapsed in inner.items():
                PHASES.add(name, elapsed)


__all__ = ["PHASES", "PhaseAccumulator", "measuring", "perf_counter"]
