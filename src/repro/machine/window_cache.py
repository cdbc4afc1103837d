"""In-process cache of steady windows, keyed by simulation content.

A block-style point's *steady window* is the warm pass's
:class:`~repro.machine.stats.WindowTiming` plus the memory snapshot it
leaves.  Neither pass reads record values: the mapping fixes the
schedule, not the data, and the record stream sets only the iteration
count ``U``.  So the steady window is a pure function of (kernel
structure, configuration, parameters, ``U``), and
:class:`MappedWindowCache` keeps it under that content key, about a
kilobyte an entry, so a process simulates each block-style window once.

It does not keep the mapped structure.  A miss maps a fresh, private
window (:func:`~repro.machine.mapping.map_window`), which
``GridProcessor._steady_window`` times — cold pass,
:func:`~repro.machine.mapping.rebase_window`, warm pass; or, for a
window that cannot touch the L1, mapped at the warm pass's offset, the
warm pass alone — before it stores the memo with
:meth:`MappedWindowCache.store`.  No mapped window
outlives the point that mapped it, and no thread ever sees another
thread's window, so nothing here takes a lock: two threads that miss
one key both simulate it and store equal memos.

Beside the memos sits one *window shape*
(:class:`~repro.machine.fastcore.map_core.WindowShape`): the last
placement a miss made and the routed window columns that do not depend
on the configuration.  S, S-O and S-O-D of a kernel unroll to the same
``U`` and differ only in operand counts, the LUT path and register-file
constant reads, so a miss right after another configuration of the same
shape expands its window from the slot without placing it again.  The
slot holds no mapped window, and the windows built from it only read
it, so threads share it as they share the memos.  A shape reuse is not a
hit: ``hits``, ``misses`` and ``len()`` count steady memos only.

Keys are content fingerprints (:mod:`repro.perf.fingerprint`) plus the
active engine core (``repro.machine.fastcore.active_core``), so a run
under one core never replays a memo the other core measured and the
cross-core tests keep comparing two simulations.  Fingerprints rather
than object identities mean two independently-built copies of the same
kernel share an entry; the kernel fingerprint — the only expensive one —
is memoized on the kernel instance by
:func:`~repro.perf.fingerprint.fingerprint_kernel` itself, so the window
cache and the run cache share one hash per kernel object.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..check.sanitizer import SANITIZER
from ..isa.kernel import Kernel
from ..obs.metrics import METRICS
from ..obs.trace import TRACE
from .config import MachineConfig
from .fastcore import active_core
from .fastcore.map_core import WindowShape
from .mapping import MappedWindow, map_shape, map_window
from .params import MachineParams
from .stats import WindowTiming

#: A steady window: the warm pass's timing and the memory snapshot it
#: leaves.
Steady = Tuple[WindowTiming, Dict[str, float]]


class MappedWindowCache:
    """Bounded LRU cache of steady windows by content key.

    Each bookkeeping step is one ``OrderedDict`` operation, and an entry
    that another thread evicts between two of them is simply gone, so
    concurrent callers need no lock.  The ``+= 1`` counter updates hold
    no point at which CPython switches threads; a stress test in
    ``tests/machine/test_window_cache.py`` checks that none is lost.
    """

    def __init__(self, maxsize: int = 64):
        self.maxsize = maxsize
        self._steady: "OrderedDict[Tuple, Steady]" = OrderedDict()
        #: The last window shape a miss placed, under its shape key (see
        #: :meth:`_shape_for`); one at a time.
        self._shape: Optional[Tuple[Tuple, WindowShape]] = None
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._steady)

    def get_or_map(
        self,
        kernel: Kernel,
        config: MachineConfig,
        params: MachineParams,
        iterations: int,
        record_offset: int = 0,
    ) -> Tuple[Tuple, Optional[Steady], Optional[MappedWindow]]:
        """``(key, steady, window)`` for one block point.

        A hit returns the stored steady window and no mapped window.  A
        miss returns no memo and a fresh, private
        ``map_window(kernel, config, params, iterations, record_offset)``
        for the caller to time and :meth:`store` under ``key``, expanded
        from the shape slot when it holds this window's shape.
        """
        # Imported lazily: repro.perf.fingerprint imports repro.machine,
        # so a module-level import here would close an import cycle.
        from ..perf.fingerprint import (
            fingerprint_config,
            fingerprint_kernel,
            fingerprint_params,
        )

        key = (
            fingerprint_kernel(kernel),
            fingerprint_config(config),
            fingerprint_params(params),
            iterations,
            active_core(),
        )
        steady = self._steady.get(key)
        if steady is not None:
            self.hits += 1
            if METRICS.enabled:
                METRICS.inc("windowcache.hits")
            try:
                self._steady.move_to_end(key)
            except KeyError:  # evicted by another thread since the get
                pass
            return key, steady, None
        self.misses += 1
        if METRICS.enabled:
            METRICS.inc("windowcache.misses")
        window = map_window(
            kernel, config, params,
            iterations=iterations, record_offset=record_offset,
            shape=self._shape_for(key, kernel, config, params, iterations),
        )
        return key, None, window

    def _shape_for(
        self,
        key: Tuple,
        kernel: Kernel,
        config: MachineConfig,
        params: MachineParams,
        iterations: int,
    ) -> Optional[WindowShape]:
        """The array core's window shape for a miss under ``key``.

        Reused from the slot when the last shape placed has this one's
        kernel, params, iteration count, streaming mode and core; else
        the slot is emptied *before* the new shape is placed, so the
        cache never holds two.  None — map in full — under the object
        core, and while TRACE, METRICS or SANITIZER observes, so
        observers see every placement.
        """
        kernel_fp, _config_fp, params_fp, _iterations, core = key
        if core != "array" or TRACE.enabled or METRICS.enabled \
                or SANITIZER.enabled:
            return None
        shape_key = (kernel_fp, params_fp, iterations, config.smc_stream,
                     core)
        slot = self._shape
        if slot is not None and slot[0] == shape_key:
            return slot[1]
        self._shape = None
        shape = map_shape(kernel, config, params, iterations)
        self._shape = (shape_key, shape)
        return shape

    def store(self, key: Tuple, steady: Steady) -> None:
        """Keep ``steady`` under ``key``; evict the least recently used."""
        self._steady[key] = steady
        while len(self._steady) > self.maxsize:
            try:
                self._steady.popitem(last=False)
            except KeyError:  # another thread evicted the last one first
                break

    def clear(self) -> None:
        self._steady.clear()
        self._shape = None
        self.hits = 0
        self.misses = 0


#: Process-wide cache shared by every GridProcessor (steady windows are
#: pure functions of their content key, so sharing them is safe).
SHARED_WINDOW_CACHE = MappedWindowCache()
