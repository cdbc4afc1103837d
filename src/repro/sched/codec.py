"""Durable encoding of sweep points (the claim table's ``spec`` column).

A :class:`~repro.perf.parallel.SweepPoint` already carries only
reconstructible inputs (registry names, seeds, plain dataclasses), so
it JSON-encodes losslessly: any worker process — on any host sharing
the ledger file — can rebuild the exact simulation from the stored
document.  The only field needing care is
:class:`~repro.machine.params.MachineParams.latencies`, a dict keyed
by :class:`~repro.isa.opcodes.OpClass`; it round-trips through the
enum *names*.

:func:`point_fingerprints` computes the same content addresses
:func:`~repro.perf.parallel.simulate_point` would (including the
``engine_core`` pinning rule), so claim rows are keyed by fingerprint
before any worker touches them.  Both batch functions encode what a
job's points share once per batch: each kernel, record stream and
``MachineParams`` object.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple


def _encode_params(params) -> Dict[str, Any]:
    doc = dataclasses.asdict(params)
    doc["latencies"] = {
        opclass.name: latency for opclass, latency in params.latencies.items()
    }
    return doc


def encode_points(points) -> List[Dict[str, Any]]:
    """JSON-safe documents :func:`decode_point` rebuilds the points from.

    Each ``MachineParams`` object is encoded once per batch; the
    documents share its encoding, so treat them as read-only.
    """
    points = list(points)  # keeps every params object, so its id, alive
    params_docs: Dict[int, Dict[str, Any]] = {}
    docs = []
    for point in points:
        params = params_docs.get(id(point.params))
        if params is None:
            params = params_docs[id(point.params)] = _encode_params(
                point.params
            )
        docs.append({
            "kernel": point.kernel,
            "config": dataclasses.asdict(point.config),
            "params": params,
            "records": point.records,
            "workload_seed": point.workload_seed,
            "cache_dir": point.cache_dir,
            "backend": point.backend,
            "ledger_path": point.ledger_path,
            "engine_core": point.engine_core,
        })
    return docs


def encode_point(point) -> Dict[str, Any]:
    """One point's document (see :func:`encode_points`)."""
    return encode_points([point])[0]


def decode_point(doc: Dict[str, Any], fingerprint: Optional[str] = None):
    """Rebuild a :class:`SweepPoint` from :func:`encode_point` output."""
    from ..isa.opcodes import OpClass
    from ..machine.config import MachineConfig
    from ..machine.params import MachineParams
    from ..perf.parallel import SweepPoint

    params_doc = dict(doc["params"])
    params_doc["latencies"] = {
        OpClass[name]: latency
        for name, latency in params_doc["latencies"].items()
    }
    return SweepPoint(
        kernel=doc["kernel"],
        config=MachineConfig(**doc["config"]),
        params=MachineParams(**params_doc),
        records=doc["records"],
        workload_seed=doc.get("workload_seed"),
        cache_dir=doc.get("cache_dir"),
        backend=doc.get("backend", "grid"),
        ledger_path=doc.get("ledger_path"),
        engine_core=doc.get("engine_core"),
        fingerprint=fingerprint,
    )


def point_fingerprints(points, constants=None) -> List[str]:
    """The content addresses a batch of points will simulate under.

    Byte-identical, point by point, to what :func:`simulate_point`
    computes: the workload is rebuilt from (records, seed), the backend
    part comes from the registry, and a pinned ``engine_core`` is folded
    in as the simulation pins it.  The kernel, record-stream and params
    hashes are shared by every configuration of a kernel, so each is
    computed once per batch and the parts are combined per point.  The
    record streams are generated into ``constants`` (the job's
    :class:`~repro.perf.parallel.JobConstants`), so the job's points
    that miss the cache simulate them instead of regenerating them.
    """
    from ..backends import get
    from ..kernels.registry import spec
    from ..perf.fingerprint import (
        combine_fingerprints,
        fingerprint_config,
        fingerprint_kernel,
        fingerprint_params,
        fingerprint_records,
    )
    from ..perf.parallel import JobConstants

    if constants is None:
        constants = JobConstants()
    points = list(points)  # keeps every params object, so its id, alive
    kernel_fps: Dict[str, str] = {}
    records_fps: Dict[Tuple[str, int, Optional[int]], str] = {}
    params_fps: Dict[int, str] = {}
    fingerprints = []
    for point in points:
        kernel_fp = kernel_fps.get(point.kernel)
        if kernel_fp is None:
            kernel_fp = kernel_fps[point.kernel] = fingerprint_kernel(
                spec(point.kernel).kernel()
            )
        key = (point.kernel, point.records, point.workload_seed)
        records_fp = records_fps.get(key)
        if records_fp is None:
            records_fp = records_fps[key] = fingerprint_records(
                constants.workload(point)
            )
        params_fp = params_fps.get(id(point.params))
        if params_fp is None:
            params_fp = params_fps[id(point.params)] = fingerprint_params(
                point.params
            )
        fingerprints.append(combine_fingerprints(
            kernel_fp,
            fingerprint_config(point.config),
            params_fp,
            records_fp,
            backend=get(point.backend).fingerprint_part(),
            engine_core=point.engine_core,
        ))
    return fingerprints


def point_fingerprint(point) -> str:
    """One point's content address (see :func:`point_fingerprints`)."""
    return point_fingerprints([point])[0]


__all__ = [
    "decode_point", "encode_point", "encode_points", "point_fingerprint",
    "point_fingerprints",
]
