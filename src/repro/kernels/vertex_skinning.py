"""``vertex-skinning`` — matrix-palette skinning with variable bone count.

The paper's canonical data-dependent kernel: "a dynamically varying
number of matrix-vector multiplies are performed at each polygon vertex"
(Section 2.1).  Record: 16 in (position, normal, 4 palette indices,
4 blend weights, bone count, pad), 9 out.  The 24-matrix palette
(24 x 12 = 288 entries, Table 2) is indexed-constant storage — the L0
data store's showcase — and the per-vertex bone count is the variable
loop bound: SIMD-style execution pays for all four unrolled blend steps
with predication, MIMD branches past the dead ones.

The unrolled body is written in predicated (SELECT-chain) form so it is
functionally correct at every trip count; ``loop_iter`` tags tell the
timing models which instructions are live.
"""

from __future__ import annotations

from typing import List, Sequence

from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.graphics import (
    SKINNING_MAX_BONES,
    SKINNING_PALETTE_MATRICES,
    skinning_records,
)
from ._shader_alg import BuilderAlg, FloatAlg, make_matrix34, scene_rng

NAME = "vertex-skinning"
DOMAIN = Domain.GRAPHICS
DESCRIPTION = ("A vertex shader used for animation with multiple "
               "transformation matrices.")

#: palette of 3x4 bone matrices flattened row-major: 24 x 12 = 288 entries
PALETTE: List[float] = []
for _m in range(SKINNING_PALETTE_MATRICES):
    for _row in make_matrix34(f"skinning/bone{_m}"):
        PALETTE.extend(_row)

#: the post-blend view-projection transform and light — the kernel's
#: ~30 scalar named constants (Table 2 lists 32)
VIEWPROJ_ROWS = make_matrix34("skinning/viewproj")
NORMAL_ROWS = [row[:3] for row in make_matrix34("skinning/normalmat")]
LIGHT_DIR = [0.267261, 0.534522, 0.801784]
AMBIENT = 0.2
DIFFUSE = 0.75


def _blend_step(alg, pos, nrm, index, weight, live, acc_pos, acc_nrm):
    """One bone's contribution, predicated on ``live`` (> 0 executes)."""
    base = alg.mul(index, alg.imm(12.0))
    rows = []
    for r in range(3):
        row = [
            alg.table_fetch("palette", alg.addr(alg.imm(1.0), base,
                                                alg.imm(float(4 * r + c))))
            for c in range(4)
        ]
        rows.append(row)
    # Transform position (3x4) and normal (3x3) by the fetched bone.
    new_pos = []
    new_nrm = []
    for r in range(3):
        p = alg.madd(
            rows[r][2], pos[2],
            alg.madd(rows[r][1], pos[1], alg.mul(rows[r][0], pos[0])),
        )
        p = alg.add(p, rows[r][3])
        n = alg.madd(
            rows[r][2], nrm[2],
            alg.madd(rows[r][1], nrm[1], alg.mul(rows[r][0], nrm[0])),
        )
        new_pos.append(p)
        new_nrm.append(n)
    out_pos = []
    out_nrm = []
    for r in range(3):
        blended_p = alg.madd(weight, new_pos[r], acc_pos[r])
        blended_n = alg.madd(weight, new_nrm[r], acc_nrm[r])
        out_pos.append(alg.sel(live, blended_p, acc_pos[r]))
        out_nrm.append(alg.sel(live, blended_n, acc_nrm[r]))
    return out_pos, out_nrm


def _finalize(alg, acc_pos, acc_nrm, count, pad):
    """Post-blend transform + diffuse shade (the scalar-constant stage)."""
    from ._shader_alg import dot3, mat33_transform, mat34_transform

    vp = [[alg.const(v, f"vp{r}{c}") for c, v in enumerate(row)]
          for r, row in enumerate(VIEWPROJ_ROWS)]
    nmat = [[alg.const(v, f"nm{r}{c}") for c, v in enumerate(row)]
            for r, row in enumerate(NORMAL_ROWS)]
    light = [alg.const(v, f"L{i}") for i, v in enumerate(LIGHT_DIR)]
    ambient = alg.const(AMBIENT, "ka")
    diffuse = alg.const(DIFFUSE, "kd")

    clip = mat34_transform(alg, vp, acc_pos)
    normal = mat33_transform(alg, nmat, acc_nrm)
    ndotl = alg.max(dot3(alg, normal, light), alg.imm(0.0))
    shade = alg.madd(diffuse, ndotl, ambient)
    return clip + normal + [shade, count, pad]


def _shade_straightline(alg, record):
    """Reference path: plain Python, same math, actual trip count."""
    alg.register_table("palette", PALETTE)
    pos = list(record[0:3])
    nrm = list(record[3:6])
    indices = record[6:10]
    weights = record[10:14]
    count = record[14]
    acc_pos = [0.0, 0.0, 0.0]
    acc_nrm = [0.0, 0.0, 0.0]
    for bone in range(SKINNING_MAX_BONES):
        live = count - float(bone)
        acc_pos, acc_nrm = _blend_step(
            alg, pos, nrm, indices[bone], weights[bone], live,
            acc_pos, acc_nrm,
        )
    return _finalize(alg, acc_pos, acc_nrm, count, record[15])


def build_kernel() -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    b = KernelBuilder(
        NAME, DOMAIN, record_in=16, record_out=9,
        description=DESCRIPTION,
    )
    alg = BuilderAlg(b)
    alg.register_table("palette", PALETTE)
    ins = b.inputs()
    pos, nrm = ins[0:3], ins[3:6]
    indices, weights = ins[6:10], ins[10:14]
    count = ins[14]

    acc_pos = [b.imm(0.0)] * 3
    acc_nrm = [b.imm(0.0)] * 3
    with b.variable_loop(SKINNING_MAX_BONES, lambda rec: int(rec[14])) as bones:
        for bone in bones:
            live = alg.sub(count, alg.imm(float(bone)))
            acc_pos, acc_nrm = _blend_step(
                alg, pos, nrm, indices[bone], weights[bone], live,
                acc_pos, acc_nrm,
            )
    outputs = _finalize(alg, acc_pos, acc_nrm, count, ins[15])
    for i, value in enumerate(outputs):
        if i in (7, 8):  # count / pad pass-throughs
            value = b.mov(value)
        b.output(value)
    return b.build()


def reference(record: Sequence[float]) -> List[float]:
    """Independent per-record reference implementation."""
    return _shade_straightline(FloatAlg(), list(record))


def workload(count: int, seed: int = 43) -> List[List[float]]:
    """Seeded record stream shaped for this kernel (see Table 2)."""
    return skinning_records(count, seed)
