"""``vertex-simple`` — basic vertex lighting.

Ambient, diffuse, specular and emissive terms per vertex (Table 1).
Record: 7 words in (position, normal, per-vertex shade), 6 out (clip
position xyz + RGB color).  ~32 scalar named constants (transform rows,
normal matrix, light/half vectors, material terms) dominate — this is
one of the seven kernels the paper shows preferring the S-O
configuration.
"""

from __future__ import annotations

from typing import List, Sequence

from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.graphics import vertex_records
from ._shader_alg import (
    BuilderAlg,
    FloatAlg,
    dot3,
    make_matrix33,
    make_matrix34,
    make_unit,
    mat33_transform,
    mat34_transform,
    normalize3,
)

NAME = "vertex-simple"
DOMAIN = Domain.GRAPHICS
DESCRIPTION = ("Basic vertex lighting with ambient, diffuse, "
               "specular and emissive lighting.")

MVP_ROWS = make_matrix34("vertex-simple/mvp")
NORMAL_ROWS = make_matrix33("vertex-simple/normal")
LIGHT_DIR = make_unit("vertex-simple/light")
HALF_DIR = make_unit("vertex-simple/half")
AMBIENT = 0.18
DIFFUSE = 0.7
SPECULAR = 0.35
EMISSIVE = 0.05
SHININESS = 16.0
BASE_COLOR = (0.8, 0.55, 0.3)
FOG_SCALE = -0.002


def _shade(alg, record):
    """The shader body over either algebra; returns the 6 outputs."""
    pos = list(record[0:3])
    nrm = list(record[3:6])
    shade = record[6]

    mvp = [[alg.const(v, f"mvp{r}{c}") for c, v in enumerate(row)]
           for r, row in enumerate(MVP_ROWS)]
    nmat = [[alg.const(v, f"n{r}{c}") for c, v in enumerate(row)]
            for r, row in enumerate(NORMAL_ROWS)]
    light = [alg.const(v, f"L{i}") for i, v in enumerate(LIGHT_DIR)]
    half = [alg.const(v, f"H{i}") for i, v in enumerate(HALF_DIR)]
    ambient = alg.const(AMBIENT, "ka")
    diffuse = alg.const(DIFFUSE, "kd")
    specular = alg.const(SPECULAR, "ks")
    emissive = alg.const(EMISSIVE, "ke")
    shininess = alg.const(SHININESS, "shin")

    clip = mat34_transform(alg, mvp, pos)
    normal = normalize3(alg, mat33_transform(alg, nmat, nrm))

    zero = alg.imm(0.0)
    ndotl = alg.max(dot3(alg, normal, light), zero)
    ndoth = alg.max(dot3(alg, normal, half), zero)
    spec = alg.mul(specular, alg.pow(ndoth, shininess))

    lit = alg.mul(alg.madd(diffuse, ndotl, ambient), shade)
    dist2 = dot3(alg, clip, clip)
    fog = alg.exp2(alg.mul(alg.imm(FOG_SCALE), dist2))

    color = []
    for channel in range(3):
        base = alg.const(BASE_COLOR[channel], f"col{channel}")
        value = alg.add(alg.madd(lit, base, emissive), spec)
        color.append(alg.mul(value, fog))
    return clip + color


def build_kernel() -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    b = KernelBuilder(
        NAME, DOMAIN, record_in=7, record_out=6,
        description=DESCRIPTION,
    )
    outputs = _shade(BuilderAlg(b), b.inputs())
    for value in outputs:
        b.output(value)
    return b.build()


def reference(record: Sequence[float]) -> List[float]:
    """Independent per-record reference implementation."""
    return _shade(FloatAlg(), list(record))


def workload(count: int, seed: int = 29) -> List[List[float]]:
    """Seeded record stream shaped for this kernel (see Table 2)."""
    return vertex_records(count, seed)
