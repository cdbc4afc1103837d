"""Stable content fingerprints over simulation inputs.

A simulation point is fully determined by five inputs: the kernel's
dataflow structure, the :class:`~repro.machine.config.MachineConfig`,
the :class:`~repro.machine.params.MachineParams`, the record stream and
the engine seed.  Each gets a canonical JSON encoding hashed with
SHA-256, and :func:`run_fingerprint` combines them into the single
content address used by :class:`~repro.perf.cache.RunCache`.

Canonicalization rules:

* dataclass instances are encoded field by field in declaration order;
* dict keys are sorted (``json.dumps(sort_keys=True)``);
* enum-keyed dicts (``MachineParams.latencies``) use the enum *name*;
* floats rely on ``repr``-exact JSON encoding, so bit-identical inputs
  hash identically and any numeric drift changes the address;
* the kernel's ``trips_fn`` callable cannot be hashed — the kernel
  *name* and the unrolled predicated body stand in for it, and the
  record stream (which drives the trip counts) is hashed separately.

``SCHEMA_VERSION`` is folded into every run fingerprint; bump it
whenever the timing semantics of the engines change so stale on-disk
cache entries can never be replayed against a newer simulator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from typing import Sequence

from typing import Optional

from ..isa.instruction import Const, Immediate, InstResult, RecordInput
from ..isa.kernel import Kernel
from ..machine.config import MachineConfig
from ..machine.fastcore import active_core
from ..machine.params import MachineParams

#: Bump when engine timing semantics change (invalidates disk caches).
#: v2: RunResult.detail gained the memory-system metrics snapshot.
#: v3: the simulation backend identity is folded into every address
#: (``repro.backends``), and results carry a ``detail["backend"]`` tag.
#: v4: the active engine core (``repro.machine.fastcore``) is folded
#: into every address.  The cores are pinned bit-exact, so entries
#: could in principle be shared — keeping them apart means a cached
#: document always names the exact code path that produced it, and a
#: core divergence can never hide behind a stale cache hit.
SCHEMA_VERSION = 4

#: Backend part of a fingerprint when no backend is named: the grid
#: processor, whose parameters are already covered by
#: :func:`fingerprint_params`.  Must equal
#: ``repro.backends.GridBackend.fingerprint_part()`` so addresses
#: computed with and without the backend layer agree.
DEFAULT_BACKEND_PART = "grid"


def _digest(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _encode_operand(src) -> list:
    if isinstance(src, InstResult):
        return ["r", src.producer]
    if isinstance(src, RecordInput):
        return ["in", src.index]
    if isinstance(src, Const):
        return ["c", src.slot, src.value]
    if isinstance(src, Immediate):
        return ["imm", src.value]
    raise TypeError(f"unknown operand kind {src!r}")


def fingerprint_kernel(kernel: Kernel) -> str:
    """Content hash of a kernel's complete dataflow structure.

    Memoized on the kernel instance: kernels are never mutated once
    built (registry kernels are process singletons), so the run cache,
    the claim scheduler and the window cache all share one hash per
    kernel object.
    """
    fp = getattr(kernel, "_fingerprint", None)
    if fp is None:
        fp = _hash_kernel(kernel)
        kernel._fingerprint = fp  # type: ignore[attr-defined]
    return fp


def _hash_kernel(kernel: Kernel) -> str:
    """:func:`fingerprint_kernel` without the memo."""
    body = [
        [
            inst.iid,
            inst.op.name,
            [_encode_operand(s) for s in inst.srcs],
            inst.table,
            inst.space,
            inst.loop_iter,
        ]
        for inst in kernel.body
    ]
    doc = {
        "name": kernel.name,
        "body": body,
        "record_in": kernel.record_in,
        "record_out": kernel.record_out,
        "outputs": [list(pair) for pair in kernel.outputs],
        "tables": {str(tid): values for tid, values in kernel.tables.items()},
        "spaces": {str(sid): values for sid, values in kernel.spaces.items()},
        "loop": [
            kernel.loop.static_trips,
            kernel.loop.variable,
            kernel.loop.max_trips,
        ],
    }
    return _digest(doc)


def fingerprint_config(config: MachineConfig) -> str:
    """Content hash of a machine configuration (mechanism selection)."""
    doc = {f.name: getattr(config, f.name) for f in fields(config)}
    return _digest(doc)


def fingerprint_params(params: MachineParams) -> str:
    """Content hash of the substrate parameters (every knob)."""
    doc = {}
    for f in fields(params):
        value = getattr(params, f.name)
        if f.name == "latencies":
            value = {opclass.name: lat for opclass, lat in value.items()}
        doc[f.name] = value
    return _digest(doc)


def fingerprint_records(records: Sequence[Sequence]) -> str:
    """Content hash of a record stream (count and every word)."""
    doc = [len(records), [list(record) for record in records]]
    return _digest(doc)


def fingerprint_backend(name: str, params=None) -> str:
    """Content hash of a backend identity and its model parameters.

    ``params`` is the backend's own parameter dataclass (e.g.
    ``SimdParams``); enum-keyed dict fields (op-class cycle tables) are
    encoded by enum *name*, mirroring :func:`fingerprint_params`.  Pass
    ``params=None`` for backends whose timing is fully determined by the
    shared :class:`~repro.machine.params.MachineParams`.
    """
    doc = {"backend": name}
    if params is not None:
        encoded = {}
        for f in fields(params):
            value = getattr(params, f.name)
            if isinstance(value, dict):
                value = {
                    getattr(key, "name", str(key)): v
                    for key, v in value.items()
                }
            encoded[f.name] = value
        doc["params"] = encoded
    return f"{name}:{_digest(doc)}"


def combine_fingerprints(
    kernel_fp: str,
    config_fp: str,
    params_fp: str,
    records_fp: str,
    seed: int = 0,
    backend: str = DEFAULT_BACKEND_PART,
    engine_core: Optional[str] = None,
) -> str:
    """Combine precomputed part fingerprints into a run's content address.

    Callers that sweep one kernel/workload over many configurations can
    hash the invariant parts once and combine per point — the digest is
    identical to :func:`run_fingerprint` on the full inputs.  ``backend``
    is the simulating backend's :meth:`~repro.backends.Backend.fingerprint_part`
    (default: the grid processor), so results from different machine
    models can never alias in the cache.  ``engine_core`` names the
    engine-core selection (``array``/``object``); the default reads the
    process-wide :func:`repro.machine.fastcore.active_core`.
    """
    doc = {
        "schema": SCHEMA_VERSION,
        "backend": backend,
        "engine_core": engine_core if engine_core is not None else active_core(),
        "kernel": kernel_fp,
        "config": config_fp,
        "params": params_fp,
        "records": records_fp,
        "seed": seed,
    }
    return _digest(doc)


def run_fingerprint(
    kernel: Kernel,
    config: MachineConfig,
    params: MachineParams,
    records: Sequence[Sequence],
    seed: int = 0,
    backend: str = DEFAULT_BACKEND_PART,
    engine_core: Optional[str] = None,
) -> str:
    """The content address of one deterministic simulation point."""
    return combine_fingerprints(
        fingerprint_kernel(kernel),
        fingerprint_config(config),
        fingerprint_params(params),
        fingerprint_records(records),
        seed,
        backend=backend,
        engine_core=engine_core,
    )
