"""``highpassfilter`` — 2D high-pass filter over 3x3 neighborhoods.

A Laplacian-style sharpening convolution: strong positive center tap,
negative ring.  Nine scalar constants, 17 instructions (9 multiplies and
an 8-add reduction), record 9/1 — straight-line control (Figure 1a).
"""

from __future__ import annotations

from typing import List, Sequence

from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.images import neighborhood_records

NAME = "highpassfilter"
DOMAIN = Domain.MULTIMEDIA
DESCRIPTION = "A 2D high pass filter."

#: 3x3 high-pass taps (row-major).
TAPS = (
    -1.0, -1.0, -1.0,
    -1.0, 8.0, -1.0,
    -1.0, -1.0, -1.0,
)


def build_kernel() -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    b = KernelBuilder(
        NAME, DOMAIN, record_in=9, record_out=1,
        description=DESCRIPTION,
    )
    pixels = b.inputs()
    products = [
        b.fmul(b.const(TAPS[i], f"k{i}"), pixels[i]) for i in range(9)
    ]
    # Balanced reduction tree: 8 adds, height 4+1 (ILP about 3.4 as in
    # Table 2).
    level = products
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(b.fadd(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    b.output(level[0])
    return b.build()


def reference(record: Sequence[float]) -> List[float]:
    """Independent per-record reference implementation."""
    products = [TAPS[i] * record[i] for i in range(9)]
    level = products
    while len(level) > 1:
        nxt = [level[i] + level[i + 1] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return [level[0]]


def workload(count: int, seed: int = 11) -> List[List[float]]:
    """Seeded record stream shaped for this kernel (see Table 2)."""
    return neighborhood_records(count, seed)
