"""``convert`` — RGB to YIQ color-space conversion (Table 1).

The simplest multimedia kernel: a 3x3 matrix applied per pixel.  Nine
scalar named constants (the matrix), 15 instructions (9 multiplies,
6 adds), no control flow — the paper's canonical *sequential
instructions* kernel (Figure 1a).
"""

from __future__ import annotations

from typing import List, Sequence

from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.images import rgb_pixels

NAME = "convert"
DOMAIN = Domain.MULTIMEDIA
DESCRIPTION = "RGB to YIQ conversion."

#: The standard RGB -> YIQ transform.
COEFFS = (
    (0.299, 0.587, 0.114),
    (0.596, -0.274, -0.322),
    (0.211, -0.523, 0.312),
)


def build_kernel() -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    b = KernelBuilder(
        NAME, DOMAIN, record_in=3, record_out=3,
        description=DESCRIPTION,
    )
    r, g, bl = b.inputs()
    for row_index, row in enumerate(COEFFS):
        consts = [
            b.const(row[c], f"m{row_index}{c}") for c in range(3)
        ]
        value = b.fadd(
            b.fadd(b.fmul(consts[0], r), b.fmul(consts[1], g)),
            b.fmul(consts[2], bl),
        )
        b.output(value)
    return b.build()


def reference(record: Sequence[float]) -> List[float]:
    """Per-record reference (mirrors the kernel's evaluation order)."""
    r, g, bl = record[:3]
    return [
        (row[0] * r + row[1] * g) + row[2] * bl for row in COEFFS
    ]


def workload(count: int, seed: int = 7) -> List[List[float]]:
    """Seeded record stream shaped for this kernel (see Table 2)."""
    return rgb_pixels(count, seed)
