"""Content-addressed cache of simulation results.

:class:`RunCache` maps the fingerprints of
:func:`~repro.perf.fingerprint.run_fingerprint` to
:class:`~repro.machine.stats.RunResult` objects.  Two tiers:

* an **in-memory** dict — hits return the *same* object, preserving the
  sharing semantics the experiment harness has always relied on (Figure
  5, Table 4 and Table 6 reuse one another's runs);
* an optional **on-disk JSON** tier under a cache directory
  (conventionally ``.repro_cache/``) — hits survive across processes,
  so a repeated experiment run pays file reads instead of simulation.

Disk entries are written atomically (write-then-rename) and carry the
fingerprint schema version; unreadable, corrupt or mismatched files are
treated as misses, never as errors.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union

from ..check.sanitizer import SANITIZER
from ..machine.stats import RunResult, WindowTiming
from ..obs.metrics import METRICS
from .fingerprint import SCHEMA_VERSION


def run_result_to_dict(result: RunResult) -> dict:
    """JSON-serializable encoding of a RunResult (including its window)."""
    doc = dataclasses.asdict(result)
    doc["schema"] = SCHEMA_VERSION
    return doc


def run_result_from_dict(doc: dict) -> RunResult:
    """Rebuild a RunResult from :func:`run_result_to_dict` output."""
    doc = dict(doc)
    doc.pop("schema", None)
    window = doc.pop("window", None)
    return RunResult(
        window=WindowTiming(**window) if window is not None else None,
        **doc,
    )


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        """Total hits across both tiers."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total gets served (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


class RunCache:
    """Two-tier (memory + optional disk) content-addressed result cache."""

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None):
        self._memory: Dict[str, RunResult] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._memory)

    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for a fingerprint, or None on a miss."""
        result = self._memory.get(key)
        if result is not None:
            self.stats.memory_hits += 1
            self._publish("runcache.memory_hits")
            return result
        if self.cache_dir is not None:
            try:
                with open(self._path(key), "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
                # ``isinstance`` first: a file holding a JSON array or
                # scalar must degrade to a miss, not an AttributeError.
                if not isinstance(doc, dict) \
                        or doc.get("schema") != SCHEMA_VERSION:
                    raise ValueError("stale or malformed cache entry")
                result = run_result_from_dict(doc)
            except (OSError, ValueError, TypeError, KeyError):
                # Unreadable, truncated, corrupt or field-mismatched
                # entries (a build whose RunResult had different fields
                # raises TypeError from ``RunResult(**doc)``) are
                # misses, never errors — the module contract.
                result = None
            if result is not None:
                self._memory[key] = result
                self.stats.disk_hits += 1
                self._publish("runcache.disk_hits")
                return result
        self.stats.misses += 1
        self._publish("runcache.misses")
        return None

    def _publish(self, counter: str) -> None:
        if METRICS.enabled:
            METRICS.inc(counter)
            METRICS.gauge("runcache.hit_rate", self.stats.hit_rate)

    def put(self, key: str, result: RunResult) -> None:
        """Store a result under its fingerprint (both tiers)."""
        self._memory[key] = result
        self.stats.stores += 1
        if METRICS.enabled:
            METRICS.inc("runcache.stores")
        if SANITIZER.enabled:
            self._sanitize_round_trip(key, result)
        if self.cache_dir is None:
            return
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # sort_keys: detail dicts accumulate in whatever order a
                # simulator touched them; sorting makes the on-disk doc
                # byte-stable for identical content (ledger rows and
                # cache docs can be compared byte-for-byte).
                json.dump(run_result_to_dict(result), fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            pass  # a read-only cache directory degrades to memory-only

    def _sanitize_round_trip(self, key: str, result: RunResult) -> None:
        """Round-trip fidelity: what the disk tier would hand back must
        equal what was stored (``run_result_from_dict(to_dict(r)) == r``
        through an actual JSON encode/decode)."""
        try:
            rebuilt = run_result_from_dict(
                json.loads(json.dumps(run_result_to_dict(result)))
            )
        except (TypeError, ValueError, KeyError) as exc:
            SANITIZER.report(
                "cache.round_trip", key[:12],
                "stored result does not survive JSON encoding",
                error=repr(exc),
            )
            return
        if rebuilt != result:
            SANITIZER.report(
                "cache.round_trip", key[:12],
                "stored result does not survive its JSON round trip",
                kernel=result.kernel, config=result.config,
            )

    def clear_memory(self) -> None:
        """Drop the in-memory tier (disk entries stay addressable)."""
        self._memory.clear()
