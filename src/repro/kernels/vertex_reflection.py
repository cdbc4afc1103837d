"""``vertex-reflection`` — vertex shader for a reflective surface.

Transforms the vertex, computes the eye-space reflection vector
R = I - 2(N·I)N and projects it onto a cube-map face, emitting the
2-word face texture coordinate (Table 2: record 9/2, ~35 scalar
constants, no irregular accesses — the texture fetch happens in the
paired fragment shader).
"""

from __future__ import annotations

from typing import List, Sequence

from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.graphics import reflection_vertex_records
from ._shader_alg import (
    BuilderAlg,
    FloatAlg,
    dot3,
    make_matrix33,
    make_matrix34,
    mat33_transform,
    mat34_transform,
    normalize3,
)

NAME = "vertex-reflection"
DOMAIN = Domain.GRAPHICS
DESCRIPTION = "Vertex shader for a reflective surface."

MODELVIEW_ROWS = make_matrix34("vertex-reflection/modelview")
NORMAL_ROWS = make_matrix33("vertex-reflection/normal")
PROJ_ROWS = make_matrix34("vertex-reflection/proj")


def _shade(alg, record):
    pos = list(record[0:3])
    nrm = list(record[3:6])
    eye = list(record[6:9])

    mv = [[alg.const(v, f"mv{r}{c}") for c, v in enumerate(row)]
          for r, row in enumerate(MODELVIEW_ROWS)]
    nmat = [[alg.const(v, f"n{r}{c}") for c, v in enumerate(row)]
            for r, row in enumerate(NORMAL_ROWS)]
    proj = [[alg.const(v, f"p{r}{c}") for c, v in enumerate(row)]
            for r, row in enumerate(PROJ_ROWS)]

    eye_pos = mat34_transform(alg, mv, pos)
    normal = normalize3(alg, mat33_transform(alg, nmat, nrm))
    # Incident vector from the eye point to the surface, normalized.
    incident = normalize3(
        alg, [alg.sub(eye_pos[i], eye[i]) for i in range(3)]
    )
    # R = I - 2 (N . I) N
    ndoti = dot3(alg, normal, incident)
    two_ndoti = alg.mul(alg.imm(2.0), ndoti)
    refl = [
        alg.sub(incident[i], alg.mul(two_ndoti, normal[i])) for i in range(3)
    ]
    # Project through a second transform (the cube-map orientation), then
    # divide by the dominant axis to get face coordinates.
    oriented = mat34_transform(alg, proj, refl)
    ax = alg.abs(oriented[0])
    ay = alg.abs(oriented[1])
    az = alg.abs(oriented[2])
    dominant = alg.max(ax, alg.max(ay, alg.max(az, alg.imm(1e-6))))
    inv = alg.rcp(dominant)
    half = alg.imm(0.5)
    s = alg.madd(alg.mul(oriented[0], inv), half, half)
    t = alg.madd(alg.mul(oriented[1], inv), half, half)
    return [s, t]


def build_kernel() -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    b = KernelBuilder(
        NAME, DOMAIN, record_in=9, record_out=2,
        description=DESCRIPTION,
    )
    for value in _shade(BuilderAlg(b), b.inputs()):
        b.output(value)
    return b.build()


def reference(record: Sequence[float]) -> List[float]:
    """Independent per-record reference implementation."""
    return _shade(FloatAlg(), list(record))


def workload(count: int, seed: int = 37) -> List[List[float]]:
    """Seeded record stream shaped for this kernel (see Table 2)."""
    return reflection_vertex_records(count, seed)
