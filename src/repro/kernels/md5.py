"""``md5`` — the MD5 compression function over 512-bit blocks.

Record layout (Table 2: 10 words read / 2 written): eight 64-bit words
packing the sixteen 32-bit message words of one block, plus two words
packing the (A, B, C, D) chaining state; the kernel produces the updated
state packed the same way.  The 64 steps are fully unrolled straight-line
code — long dependence chains give the paper's low ILP (~1.6) — and the
65 step constants (the sine table, fed through registers) dominate the
scalar-constant count.

Bit-exact: validated against :mod:`repro.crypto.md5_ref` and, end to
end, against :mod:`hashlib`.
"""

from __future__ import annotations

from typing import List, Sequence

from ..crypto.md5_ref import MASK32, SHIFTS, compress, message_index, sine_table
from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.packets import md5_block_records, packet_stream

NAME = "md5"
DOMAIN = Domain.NETWORK
DESCRIPTION = "MD5 checksum."


def build_kernel() -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    b = KernelBuilder(
        NAME, DOMAIN, record_in=10, record_out=2,
        description=DESCRIPTION,
    )
    packed = b.inputs()
    # Unpack 16 message words and the 4 state words.
    x = []
    for w in range(8):
        x.append(b.hi32(packed[w]))
        x.append(b.lo32(packed[w]))
    a0 = b.hi32(packed[8])
    b0 = b.lo32(packed[8])
    c0 = b.hi32(packed[9])
    d0 = b.lo32(packed[9])

    t = sine_table()
    a, bb, c, d = a0, b0, c0, d0
    for i in range(64):
        if i < 16:
            f = b.or_(b.and_(bb, c), b.and_(b.not_(bb), d))
        elif i < 32:
            f = b.or_(b.and_(d, bb), b.and_(b.not_(d), c))
        elif i < 48:
            f = b.xor(b.xor(bb, c), d)
        else:
            f = b.xor(c, b.or_(bb, b.not_(d)))
        s = b.add(b.add(a, f), b.add(x[message_index(i)], b.const(t[i], f"T{i}")))
        a = b.add(bb, b.rotl(s, b.imm(SHIFTS[i])))
        a, bb, c, d = d, a, bb, c

    # Final additions into the chaining state, then repack.
    out_a = b.add(a, a0)
    out_b = b.add(bb, b0)
    out_c = b.add(c, c0)
    out_d = b.add(d, d0)
    b.output(b.pack64(out_a, out_b), slot=0)
    b.output(b.pack64(out_c, out_d), slot=1)
    return b.build()


def reference(record: Sequence[int]) -> List[int]:
    """Independent per-record reference implementation."""
    block_words = []
    for w in range(8):
        block_words.append((record[w] >> 32) & MASK32)
        block_words.append(record[w] & MASK32)
    state = [
        (record[8] >> 32) & MASK32,
        record[8] & MASK32,
        (record[9] >> 32) & MASK32,
        record[9] & MASK32,
    ]
    new = compress(state, block_words)
    return [(new[0] << 32) | new[1], (new[2] << 32) | new[3]]


def workload(count: int, seed: int = 23) -> List[List[int]]:
    """Seeded record stream shaped for this kernel (see Table 2)."""
    packets = packet_stream(max(1, count // 24 + 1), seed)
    return md5_block_records(packets, limit=count)
