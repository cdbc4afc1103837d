"""``fragment-reflection`` — fragment shader for a reflective surface.

Renders reflections with cube-map texture reads: the four taps are
irregular memory accesses (Table 2 lists 4) through the cached L1.
Record: 5 in (reflection vector, uv), 3 out (RGB).  Few scalar constants
(~7): the fresnel/tint parameters.
"""

from __future__ import annotations

from typing import List, Sequence

from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.graphics import reflection_fragment_records
from ._shader_alg import BuilderAlg, FloatAlg, dot3, make_texture, normalize3

NAME = "fragment-reflection"
DOMAIN = Domain.GRAPHICS
DESCRIPTION = ("Fragment shader rendering a reflective surface "
               "using cube maps.")

FACE_SIZE = 32  # each cube face is 32x32 luminance
CUBE_TEXTURE = make_texture("fragment-reflection/cube", 6 * FACE_SIZE * FACE_SIZE)
FRESNEL_BIAS = 0.1
FRESNEL_SCALE = 0.85
FRESNEL_POWER = 5.0
TINT = (0.75, 0.85, 0.95)
MIX = 0.6


def _cube_taps(alg, refl):
    """Select a cube face from the dominant axis and take 4 taps."""
    ax = alg.abs(refl[0])
    ay = alg.abs(refl[1])
    az = alg.abs(refl[2])
    dominant = alg.max(ax, alg.max(ay, az))
    inv = alg.rcp(alg.max(dominant, alg.imm(1e-6)))
    # Face index: 0/1 for +-x, 2/3 for +-y, 4/5 for +-z (select chains).
    fx = alg.sel(refl[0], alg.imm(0.0), alg.imm(1.0))
    fy = alg.sel(refl[1], alg.imm(2.0), alg.imm(3.0))
    fz = alg.sel(refl[2], alg.imm(4.0), alg.imm(5.0))
    is_x = alg.sub(ax, alg.max(ay, az))
    is_y = alg.sub(ay, alg.max(ax, az))
    face = alg.sel(is_x, fx, alg.sel(is_y, fy, fz))

    half = alg.imm(0.5)
    s = alg.madd(alg.mul(refl[1], inv), half, half)
    t = alg.madd(alg.mul(refl[2], inv), half, half)
    size = alg.imm(float(FACE_SIZE))
    x = alg.mul(s, size)
    y = alg.mul(t, size)
    x0 = alg.floor(x)
    y0 = alg.floor(y)
    face_base = alg.mul(face, alg.imm(float(FACE_SIZE * FACE_SIZE)))
    taps = []
    for dy in (0.0, 1.0):
        for dx in (0.0, 1.0):
            addr = alg.addr(
                alg.add(y0, alg.imm(dy)), size,
                alg.add(alg.add(x0, alg.imm(dx)), face_base),
            )
            taps.append(alg.tex_fetch("cube", addr))
    fxw = alg.sub(x, x0)
    fyw = alg.sub(y, y0)
    top = alg.madd(fxw, alg.sub(taps[1], taps[0]), taps[0])
    bottom = alg.madd(fxw, alg.sub(taps[3], taps[2]), taps[2])
    return alg.madd(fyw, alg.sub(bottom, top), top)


def _shade(alg, record):
    alg.register_space("cube", CUBE_TEXTURE)
    refl = normalize3(alg, list(record[0:3]))
    u, v = record[3], record[4]

    bias = alg.const(FRESNEL_BIAS, "fbias")
    scale = alg.const(FRESNEL_SCALE, "fscale")
    power = alg.const(FRESNEL_POWER, "fpow")
    mix = alg.const(MIX, "mix")

    env = _cube_taps(alg, refl)
    # Approximate view-angle term from the uv parametrization.
    facing = alg.max(
        alg.sub(alg.imm(1.0), dot3(alg, [u, v, alg.imm(0.0)],
                                   [u, v, alg.imm(0.0)])),
        alg.imm(0.0),
    )
    fresnel = alg.madd(scale, alg.pow(facing, power), bias)
    strength = alg.mul(env, alg.mul(fresnel, mix))
    color = []
    for channel in range(3):
        tint = alg.const(TINT[channel], f"tint{channel}")
        color.append(alg.mul(strength, tint))
    return color


def build_kernel() -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    b = KernelBuilder(
        NAME, DOMAIN, record_in=5, record_out=3,
        description=DESCRIPTION,
    )
    for value in _shade(BuilderAlg(b), b.inputs()):
        b.output(value)
    return b.build()


def reference(record: Sequence[float]) -> List[float]:
    """Independent per-record reference implementation."""
    return _shade(FloatAlg(), list(record))


def workload(count: int, seed: int = 41) -> List[List[float]]:
    """Seeded record stream shaped for this kernel (see Table 2)."""
    return reflection_fragment_records(count, seed)
