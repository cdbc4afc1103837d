"""``anisotropic-filter`` — anisotropic texture filtering (Table 1, [28]).

Samples a texture multiple times along the axis of anisotropy; the tap
count varies per fragment with the footprint ellipse, giving the paper's
second data-dependent-loop kernel ("the number of instructions executed
varies from about 150 to 1000 for each instance").  Per tap: an
irregular texture read plus an indexed-constant Gaussian weight from a
128-entry table (Table 2).

Like the paper — which excludes anisotropic-filtering from all
performance tables and figures for lack of simulation infrastructure
(their footnote 1) — the registry marks this kernel characterization- and
correctness-only; it still runs functionally and is fully tested.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.graphics import ANISO_MAX_TAPS, anisotropic_records
from ._shader_alg import BuilderAlg, FloatAlg, make_texture

NAME = "anisotropic-filter"
DOMAIN = Domain.GRAPHICS
DESCRIPTION = ("A fragment shader implementing anisotropic texture "
               "filtering.")

TEX_SIZE = 64
TEXTURE = make_texture("anisotropic/tex", TEX_SIZE * TEX_SIZE)
#: 128-entry Gaussian weight table (the kernel's indexed constants)
WEIGHT_TABLE = [
    math.exp(-((i / 127.0) * 2.5) ** 2) for i in range(128)
]
MAX_TAPS = ANISO_MAX_TAPS


def _shade(alg, record):
    alg.register_space("tex", TEXTURE)
    alg.register_table("weights", WEIGHT_TABLE)
    u, v = record[0], record[1]
    dudx, dvdx = record[2], record[3]
    taps = record[6]

    size = alg.imm(float(TEX_SIZE))
    inv_taps = alg.rcp(alg.max(taps, alg.imm(1.0)))
    step_u = alg.mul(dudx, inv_taps)
    step_v = alg.mul(dvdx, inv_taps)

    acc = alg.imm(0.0)
    wsum = alg.imm(0.0)
    for i in range(MAX_TAPS):
        live = alg.sub(taps, alg.imm(float(i)))
        su = alg.madd(step_u, alg.imm(float(i)), u)
        sv = alg.madd(step_v, alg.imm(float(i)), v)
        x = alg.mul(su, size)
        y = alg.mul(sv, size)
        address = alg.addr(alg.floor(y), size, alg.floor(x))
        texel = alg.tex_fetch("tex", address)
        widx = alg.mul(alg.imm(127.0 / MAX_TAPS), alg.imm(float(i)))
        weight = alg.table_fetch("weights", widx)
        acc = alg.sel(live, alg.madd(weight, texel, acc), acc)
        wsum = alg.sel(live, alg.add(wsum, weight), wsum)
    return [alg.mul(acc, alg.rcp(alg.max(wsum, alg.imm(1e-6))))]


def build_kernel() -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    b = KernelBuilder(
        NAME, DOMAIN, record_in=9, record_out=1,
        description=DESCRIPTION,
    )
    alg = BuilderAlg(b)
    alg.register_space("tex", TEXTURE)
    alg.register_table("weights", WEIGHT_TABLE)
    ins = b.inputs()
    u, v = ins[0], ins[1]
    dudx, dvdx = ins[2], ins[3]
    taps = ins[6]

    size = b.imm(float(TEX_SIZE))
    inv_taps = alg.rcp(alg.max(taps, alg.imm(1.0)))
    step_u = alg.mul(dudx, inv_taps)
    step_v = alg.mul(dvdx, inv_taps)

    acc = b.imm(0.0)
    wsum = b.imm(0.0)
    with b.variable_loop(MAX_TAPS, lambda rec: int(rec[6])) as tap_range:
        for i in tap_range:
            live = alg.sub(taps, alg.imm(float(i)))
            su = alg.madd(step_u, alg.imm(float(i)), u)
            sv = alg.madd(step_v, alg.imm(float(i)), v)
            x = alg.mul(su, size)
            y = alg.mul(sv, size)
            address = alg.addr(alg.floor(y), size, alg.floor(x))
            texel = alg.tex_fetch("tex", address)
            widx = alg.mul(alg.imm(127.0 / MAX_TAPS), alg.imm(float(i)))
            weight = alg.table_fetch("weights", widx)
            acc = alg.sel(live, alg.madd(weight, texel, acc), acc)
            wsum = alg.sel(live, alg.add(wsum, weight), wsum)
    b.output(alg.mul(acc, alg.rcp(alg.max(wsum, alg.imm(1e-6)))))
    return b.build()


def reference(record: Sequence[float]) -> List[float]:
    """Independent per-record reference implementation."""
    return _shade(FloatAlg(), list(record))


def workload(count: int, seed: int = 47) -> List[List[float]]:
    """Seeded record stream shaped for this kernel (see Table 2)."""
    return anisotropic_records(count, seed)
