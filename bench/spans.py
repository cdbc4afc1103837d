"""In-memory span recording around wrapped entry points, and self time.

A :class:`Recorder` keeps one record per wrapped call: layer, name,
start, end, parent span, pass id, thread and an optional measured value
(records simulated, cycles, cache hit).  Parents come from a per-thread
stack, so each thread's spans form trees.  A root span of layer
:data:`PASS` starts a new pass id and every span under it inherits it;
per-pass metrics group spans by that id.

Nothing here imports the simulator: :mod:`layers` decides which entry
points to wrap and this module only wraps and accounts.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

#: Layer of the root span that delimits one unit of work (a sweep pass,
#: a service job).  Its self time is the unattributed remainder.
PASS = "pass"

# Field positions of one span record.
LAYER, NAME, START, END, PARENT, PASS_ID, THREAD, VALUE = range(8)


class Recorder:
    """Collects span records from any number of threads."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pass_ids = itertools.count()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str,
             pass_id: Optional[int] = None) -> int:
        """Start a span; returns its index for :meth:`close`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            pass_id = self.spans[parent][PASS_ID]
        elif pass_id is None and layer == PASS:
            pass_id = next(self._pass_ids)
        record = [layer, name, 0.0, None, parent, pass_id,
                  threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[START] = perf_counter()
        return index

    def close(self, index: int, value: Optional[float] = None) -> None:
        end = perf_counter()
        record = self.spans[index]
        record[END] = end
        record[VALUE] = value
        self._stack().pop()

    @contextmanager
    def span(self, layer: str, name: str, pass_id: Optional[int] = None):
        """Context manager form of :meth:`open` / :meth:`close`."""
        index = self.open(layer, name, pass_id)
        try:
            yield
        finally:
            self.close(index)

    def dump(self) -> List[list]:
        """Finished spans as JSON-ready lists.

        Spans still open (a thread caught mid-call at exit) are dropped
        together with everything under them; parent indices are
        renumbered to the kept list.
        """
        with self._lock:
            spans = [list(s) for s in self.spans]
        new_index: Dict[int, int] = {}
        kept = []
        for index, s in enumerate(spans):
            parent = s[PARENT]
            if s[END] is None or (parent is not None
                                  and parent not in new_index):
                continue
            s[PARENT] = new_index.get(parent) if parent is not None else None
            new_index[index] = len(kept)
            kept.append(s)
        return kept


def wrap(
    recorder: Recorder,
    fn: Callable,
    layer: str,
    name: str,
    value: Optional[Callable] = None,
    before: Optional[Callable] = None,
) -> Callable:
    """``fn`` inside a span; exceptions close the span and pass unchanged.

    ``value(args, result, state)`` measures the call (records, cycles,
    hit) after it returns; ``state`` is what ``before(args)`` returned
    just before the call, or None.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args) if before is not None else None
        index = recorder.open(layer, name)
        measured = None
        try:
            result = fn(*args, **kwargs)
            if value is not None:
                measured = value(args, result, state)
            return result
        finally:
            recorder.close(index, measured)

    return wrapper


def patch_function(
    recorder: Recorder,
    module,
    attr: str,
    layer: str,
    prefix: str,
    value: Optional[Callable] = None,
) -> None:
    """Wrap a module function everywhere a ``prefix`` module holds it.

    Callers that imported the function by name (possibly renamed, as
    in ``from ..backends import dispatch as backend_dispatch``) look it
    up in their own namespace, so every loaded module under ``prefix``
    whose attribute *is* the original gets the wrapper.
    """
    original = getattr(module, attr)
    wrapped = wrap(recorder, original, layer,
                   f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", value)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (
            mod_name == prefix or mod_name.startswith(prefix + ".")
        ):
            continue
        for name, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, name, wrapped)


def patch_method(
    recorder: Recorder,
    cls: type,
    attr: str,
    layer: str,
    value: Optional[Callable] = None,
    before: Optional[Callable] = None,
) -> None:
    """Wrap a method on its class."""
    setattr(cls, attr, wrap(recorder, cls.__dict__[attr], layer,
                            f"{cls.__name__}.{attr}", value, before))


# ---- accounting -------------------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        parent = s[PARENT]
        if parent is not None:
            own[parent] -= s[END] - s[START]
    return own


def per_pass(spans: Sequence[Sequence]) -> Dict[int, Dict[str, dict]]:
    """``{pass id: {layer: {"self_s", "calls", "names"}}}``.

    Spans outside any pass (set-up, digests, HTTP requests) are left
    out.  ``names`` maps each wrapped entry point to ``[calls, summed
    value]``, so derived metrics can pick one of a layer's entry points.
    """
    own = self_times(spans)
    passes: Dict[int, Dict[str, dict]] = {}
    for s, self_s in zip(spans, own):
        pass_id = s[PASS_ID]
        if pass_id is None:
            continue
        layer = passes.setdefault(pass_id, {}).setdefault(
            s[LAYER], {"self_s": 0.0, "calls": 0, "names": {}}
        )
        layer["self_s"] += self_s
        layer["calls"] += 1
        entry = layer["names"].setdefault(s[NAME], [0, 0.0])
        entry[0] += 1
        if s[VALUE] is not None:
            entry[1] += s[VALUE]
    return passes


def root_seconds(spans: Sequence[Sequence], layer: str) -> float:
    """Total wall of the root spans of one layer that are not passes."""
    return sum(s[END] - s[START] for s in spans
               if s[PARENT] is None and s[LAYER] == layer
               and s[PASS_ID] is None)


def pass_walls(spans: Sequence[Sequence]) -> Dict[int, float]:
    """Wall seconds of each pass's root span."""
    return {
        s[PASS_ID]: s[END] - s[START]
        for s in spans if s[LAYER] == PASS and s[PARENT] is None
    }


def chrome_trace(processes: Sequence[dict]) -> dict:
    """Chrome ``traceEvents`` (complete events, microseconds)."""
    starts = [s[START] for p in processes for s in p["spans"]]
    origin = min(starts) if starts else 0.0
    events = []
    for index, proc in enumerate(processes):
        events.append({"name": "process_name", "ph": "M", "pid": index,
                       "args": {"name": proc["label"]}})
        for s in proc["spans"]:
            events.append({
                "name": s[NAME], "cat": s[LAYER], "ph": "X", "pid": index,
                "tid": s[THREAD] % 100000,
                "ts": (s[START] - origin) * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "args": {"pass": s[PASS_ID], "value": s[VALUE]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
