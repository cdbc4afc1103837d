"""``fft`` — radix-2 decimation-in-time butterfly (1024-point complex FFT).

The data-parallel kernel is one butterfly: records carry the paper's
6-word read set (two complex operands and the twiddle factor) and write
the 4-word result.  Ten instructions, ILP 10/3 ≈ 3.3, zero scalar
constants — exactly Table 2's fft row.  A full 1024-point FFT is ten
stage-sized streams of these records (see
:func:`fft_full` and the scientific example), validated against numpy.
"""

from __future__ import annotations

from typing import List, Sequence

from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.matrices import (
    bit_reverse_permute,
    butterfly_records,
    fft_input,
)

NAME = "fft"
DOMAIN = Domain.SCIENTIFIC
DESCRIPTION = "1024-point complex FFT."


def build_kernel() -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    b = KernelBuilder(
        NAME, DOMAIN, record_in=6, record_out=4,
        description=DESCRIPTION,
    )
    ar, ai, br, bi, wr, wi = b.inputs()
    # t = w * b (complex multiply)
    tr = b.fsub(b.fmul(wr, br), b.fmul(wi, bi))
    ti = b.fadd(b.fmul(wr, bi), b.fmul(wi, br))
    # a' = a + t ; b' = a - t
    b.output(b.fadd(ar, tr), slot=0)
    b.output(b.fadd(ai, ti), slot=1)
    b.output(b.fsub(ar, tr), slot=2)
    b.output(b.fsub(ai, ti), slot=3)
    return b.build()


def reference(record: Sequence[float]) -> List[float]:
    """Independent per-record reference implementation."""
    ar, ai, br, bi, wr, wi = record[:6]
    tr = wr * br - wi * bi
    ti = wr * bi + wi * br
    return [ar + tr, ai + ti, ar - tr, ai - ti]


def workload(count: int, seed: int = 17) -> List[List[float]]:
    """Butterfly records from the first stages of a large FFT."""
    n = 1024
    data = bit_reverse_permute(fft_input(n, seed))
    records: List[List[float]] = []
    stage = 0
    while len(records) < count:
        stage_records, _ = butterfly_records(data, stage % 10)
        records.extend(stage_records)
        stage += 1
    return records[:count]


def fft_full(signal: Sequence[complex]) -> List[complex]:
    """Complete FFT computed purely through the butterfly kernel's math."""
    data = bit_reverse_permute(list(signal))
    n = len(data)
    stages = n.bit_length() - 1
    for stage in range(stages):
        records, pairs = butterfly_records(data, stage)
        for record, (top, bottom) in zip(records, pairs):
            out = reference(record)
            data[top] = complex(out[0], out[1])
            data[bottom] = complex(out[2], out[3])
    return data
