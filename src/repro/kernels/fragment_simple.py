"""``fragment-simple`` — basic fragment lighting with a texture fetch.

Per-fragment ambient/diffuse/specular/emissive lighting modulated by a
bilinearly-filtered texture: the four texel reads are the kernel's
*irregular memory accesses* (Table 2 lists 4), served by the hardware
cached L1 — the mechanism the paper credits for fragment workloads.
Record: 8 in (position, normal, uv), 4 out (RGBA).
"""

from __future__ import annotations

from typing import List, Sequence

from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.graphics import fragment_records
from ._shader_alg import (
    BuilderAlg,
    FloatAlg,
    dot3,
    make_texture,
    make_unit,
    normalize3,
)

NAME = "fragment-simple"
DOMAIN = Domain.GRAPHICS
DESCRIPTION = ("Basic fragment lighting with ambient, diffuse, "
               "specular and emissive lighting.")

TEX_SIZE = 64  # 64x64 single-channel luminance texture
TEXTURE = make_texture("fragment-simple/tex", TEX_SIZE * TEX_SIZE)
LIGHT_DIR = make_unit("fragment-simple/light")
HALF_DIR = make_unit("fragment-simple/half")
AMBIENT = 0.15
DIFFUSE = 0.65
SPECULAR = 0.4
EMISSIVE = 0.03
SHININESS = 24.0
BASE_COLOR = (0.9, 0.8, 0.7)


def _bilinear(alg, u, v):
    """Four-tap bilinear fetch from the luminance texture."""
    size = alg.imm(float(TEX_SIZE))
    x = alg.mul(u, size)
    y = alg.mul(v, size)
    x0 = alg.floor(x)
    y0 = alg.floor(y)
    fx = alg.sub(x, x0)
    fy = alg.sub(y, y0)
    taps = []
    for dy in (0.0, 1.0):
        for dx in (0.0, 1.0):
            address = alg.addr(
                alg.add(y0, alg.imm(dy)), alg.imm(float(TEX_SIZE)),
                alg.add(x0, alg.imm(dx)),
            )
            taps.append(alg.tex_fetch("tex", address))
    top = alg.madd(fx, alg.sub(taps[1], taps[0]), taps[0])
    bottom = alg.madd(fx, alg.sub(taps[3], taps[2]), taps[2])
    return alg.madd(fy, alg.sub(bottom, top), top)


def _shade(alg, record):
    alg.register_space("tex", TEXTURE)
    nrm = list(record[3:6])
    u, v = record[6], record[7]

    light = [alg.const(c, f"L{i}") for i, c in enumerate(LIGHT_DIR)]
    half = [alg.const(c, f"H{i}") for i, c in enumerate(HALF_DIR)]
    ambient = alg.const(AMBIENT, "ka")
    diffuse = alg.const(DIFFUSE, "kd")
    specular = alg.const(SPECULAR, "ks")
    emissive = alg.const(EMISSIVE, "ke")
    shininess = alg.const(SHININESS, "shin")

    normal = normalize3(alg, nrm)
    zero = alg.imm(0.0)
    ndotl = alg.max(dot3(alg, normal, light), zero)
    ndoth = alg.max(dot3(alg, normal, half), zero)
    spec = alg.mul(specular, alg.pow(ndoth, shininess))

    texel = _bilinear(alg, u, v)
    lit = alg.madd(diffuse, ndotl, ambient)

    color = []
    for channel in range(3):
        base = alg.const(BASE_COLOR[channel], f"col{channel}")
        albedo = alg.mul(base, texel)
        color.append(alg.add(alg.madd(lit, albedo, emissive), spec))
    alpha = alg.add(alg.imm(1.0), zero)
    return color + [alpha]


def build_kernel() -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    b = KernelBuilder(
        NAME, DOMAIN, record_in=8, record_out=4,
        description=DESCRIPTION,
    )
    for value in _shade(BuilderAlg(b), b.inputs()):
        b.output(value)
    return b.build()


def reference(record: Sequence[float]) -> List[float]:
    """Independent per-record reference implementation."""
    return _shade(FloatAlg(), list(record))


def workload(count: int, seed: int = 31) -> List[List[float]]:
    """Seeded record stream shaped for this kernel (see Table 2)."""
    return fragment_records(count, seed)
