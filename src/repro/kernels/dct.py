"""``dct`` — 2D discrete cosine transform of an 8x8 image block.

The paper's running example: the 2D DCT decomposes into a 1D DCT on each
column, a transposition, and a 1D DCT on each row — 16 loop trips
(Table 2's loop bound) over a ~110-instruction 1D transform, fully
unrolled for block-style execution, kept rolled in the per-node L0
instruction store under MIMD.

The 1D transform is the direct matrix form with serial accumulation (the
shape of a hand-coded rolled loop), so the kernel-level ILP matches the
paper's moderate figure rather than an idealized reduction tree.  The
coefficient matrix folds to ~13 distinct scalar constants (Table 2 lists
10) because cos((2j+1)k*pi/16) takes few distinct magnitudes.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.images import image_blocks_8x8

NAME = "dct"
DOMAIN = Domain.MULTIMEDIA
DESCRIPTION = "A 2D DCT of an 8x8 image block."

N = 8
LOOP_TRIPS = 2 * N  # 8 column transforms + 8 row transforms


def coefficient(k: int, j: int) -> float:
    """DCT-II coefficient C[k][j] including the orthonormal scale."""
    scale = math.sqrt(1.0 / N) if k == 0 else math.sqrt(2.0 / N)
    return scale * math.cos((2 * j + 1) * k * math.pi / (2 * N))


def _dct_1d(b: KernelBuilder, values: List) -> List:
    """Emit one 8-point DCT; returns the 8 output values.

    Serial accumulation per output coefficient: FMUL then a chain of
    FADDs, like the inner loop of a rolled implementation.
    """
    outputs = []
    for k in range(N):
        acc = b.fmul(b.const(round(coefficient(k, 0), 12)), values[0])
        for j in range(1, N):
            term = b.fmul(b.const(round(coefficient(k, j), 12)), values[j])
            acc = b.fadd(acc, term)
        outputs.append(acc)
    return outputs


def build_kernel() -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    b = KernelBuilder(
        NAME, DOMAIN, record_in=64, record_out=64,
        description=DESCRIPTION,
    )
    block = b.inputs()
    # Column transforms.
    columns_out: List[List] = []
    for c in range(N):
        column = [block[r * N + c] for r in range(N)]
        columns_out.append(_dct_1d(b, column))
    # columns_out[c][k]: transpose is free (pure wiring in dataflow).
    for r in range(N):
        row = [columns_out[c][r] for c in range(N)]
        for k, value in enumerate(_dct_1d(b, row)):
            b.output(value, slot=r * N + k)
    b.static_loop(LOOP_TRIPS)
    return b.build()


def reference(record: Sequence[float]) -> List[float]:
    """Mirror of the kernel's exact accumulation order."""

    def dct_1d(values: List[float]) -> List[float]:
        out = []
        for k in range(N):
            acc = round(coefficient(k, 0), 12) * values[0]
            for j in range(1, N):
                acc = acc + round(coefficient(k, j), 12) * values[j]
            out.append(acc)
        return out

    cols = [dct_1d([record[r * N + c] for r in range(N)]) for c in range(N)]
    result = [0.0] * (N * N)
    for r in range(N):
        row_out = dct_1d([cols[c][r] for c in range(N)])
        for k in range(N):
            result[r * N + k] = row_out[k]
    return result


def workload(count: int, seed: int = 13) -> List[List[float]]:
    """Seeded record stream shaped for this kernel (see Table 2)."""
    return image_blocks_8x8(count, seed)
