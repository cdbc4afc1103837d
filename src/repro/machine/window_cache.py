"""In-process cache of mapped windows, keyed by simulation content.

Mapping a window (:func:`~repro.machine.mapping.map_window`) is pure:
the result is fully determined by (kernel structure, configuration,
parameters, iteration count) plus the record offset — and the offset
only moves regular-memory addresses, which
:func:`~repro.machine.mapping.rebase_window` adjusts in O(loads+stores)
instead of a full re-map.  :class:`MappedWindowCache` exploits both
facts: :class:`~repro.machine.processor.GridProcessor` maps each
steady-state structure once, rebases it for the warm pass (instead of
running ``map_window`` twice per point), and sweeps over the same
(kernel, config, params, U) reuse the mapped structure across points
in-process.

Keys are content fingerprints (:mod:`repro.perf.fingerprint`) plus the
active engine core (``repro.machine.fastcore.active_core``) — the array
core caches lazy SoA-backed windows, the object core eager ones, and the
two must not trade structures when the core is switched mid-process.
Fingerprints rather than object identities mean two independently-built
copies of the same kernel share an entry; the kernel fingerprint — the
only expensive one — is memoized on the kernel instance by
:func:`~repro.perf.fingerprint.fingerprint_kernel` itself, so the window
cache and the run cache share one hash per kernel object.

Cached windows are *shared, mutable-by-rebase* structures: engines never
mutate a window they execute, and every cache hit is rebased to the
requested offset before being returned.  Callers that want a private
window (e.g. to corrupt it in a test) should call ``map_window``
directly, which always builds fresh.

A cached window also carries its *steady window* (``MappedWindow.steady``):
the warm-pass timing and memory snapshot that the processor's first
block-style run of it measured.  The record stream sets only the
iteration count, which is part of the key, so every later run of the
window reuses that memo.  It lives and dies with its entry: ``clear()``
and LRU eviction drop it.  Because a rebase moves a window that another
thread may be timing, :data:`WINDOW_LOCK` serializes the processor's
lookup, passes and memo store.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Tuple

from ..isa.kernel import Kernel
from ..obs.metrics import METRICS
from .config import MachineConfig
from .fastcore import active_core
from .mapping import MappedWindow, map_window, rebase_window
from .params import MachineParams


class MappedWindowCache:
    """Bounded LRU cache of mapped windows by content key."""

    def __init__(self, maxsize: int = 64):
        self.maxsize = maxsize
        self._windows: "OrderedDict[Tuple, MappedWindow]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._windows)

    def get_or_map(
        self,
        kernel: Kernel,
        config: MachineConfig,
        params: MachineParams,
        iterations: int,
        record_offset: int = 0,
    ) -> MappedWindow:
        """A window for the point, rebased to ``record_offset``.

        Cache hits rebase the shared structure in place; misses run
        ``map_window`` and insert.  Either way the returned window is
        field-for-field identical to a fresh
        ``map_window(kernel, config, params, iterations, record_offset)``.
        """
        # Imported lazily: repro.perf.fingerprint imports repro.machine,
        # so a module-level import here would close an import cycle.
        from ..perf.fingerprint import (
            fingerprint_config,
            fingerprint_kernel,
            fingerprint_params,
        )

        # The active engine core is part of the key: the array core maps
        # *lazy* windows carrying fused SoA buffers, the object core maps
        # eager instance lists.  Both are bit-identical to consumers, but
        # sharing one entry across cores would hand the object engines a
        # lazy window mid-switch (forcing a materialization they never
        # asked for) and let a core flip silently reuse structures the
        # other core built — keep the entries distinct instead.
        key = (
            fingerprint_kernel(kernel),
            fingerprint_config(config),
            fingerprint_params(params),
            iterations,
            active_core(),
        )
        window = self._windows.get(key)
        if window is not None:
            self.hits += 1
            if METRICS.enabled:
                METRICS.inc("windowcache.hits")
            self._windows.move_to_end(key)
            return rebase_window(window, record_offset)
        self.misses += 1
        if METRICS.enabled:
            METRICS.inc("windowcache.misses")
        window = map_window(
            kernel, config, params,
            iterations=iterations, record_offset=record_offset,
        )
        self._windows[key] = window
        while len(self._windows) > self.maxsize:
            self._windows.popitem(last=False)
        return window

    def clear(self) -> None:
        self._windows.clear()
        self.hits = 0
        self.misses = 0


#: Process-wide cache shared by every GridProcessor (windows are pure
#: content-addressed structures, so sharing across processors is safe).
SHARED_WINDOW_CACHE = MappedWindowCache()

#: Held by ``GridProcessor._steady_window`` from ``get_or_map`` (which
#: rebases a hit in place) through the warm pass and the memo store, so
#: no thread rebases a window while another times it.  One lock serves
#: every window: the GIL already serializes simulation, and once a
#: window's memo is filled the locked section is a lookup.  Nothing
#: inside it takes another lock.  ``fork()`` takes it first, so a pool
#: worker is never forked while another thread is mid-rebase.
WINDOW_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=WINDOW_LOCK.acquire,
        after_in_parent=WINDOW_LOCK.release,
        after_in_child=WINDOW_LOCK.release,
    )
