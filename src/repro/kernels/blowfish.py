"""``blowfish`` — Blowfish block encryption (16 Feistel rounds).

Record: one 64-bit word in (the plaintext block), one out — Table 2's
1/1 record.  The 18 P-array subkeys are scalar named constants; the four
256-entry S-boxes are indexed constants served by the L0 data store when
configured (1024 entries — the paper's Table 2 lists the per-box size,
256).  Sixteen static loop trips of a serial Feistel chain give low ILP.

Bit-exact against :mod:`repro.crypto.blowfish_ref` (itself checked
against Eric Young's published vectors).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..crypto.blowfish_ref import ROUNDS, Blowfish
from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.packets import packet_block_records, packet_stream

NAME = "blowfish"
DOMAIN = Domain.NETWORK
DESCRIPTION = "Blowfish packet encryption."

DEFAULT_KEY = bytes.fromhex("0123456789abcdeff0e1d2c3b4a59687")

_cipher_cache = {}


def cipher(key: bytes = DEFAULT_KEY) -> Blowfish:
    """Cached Blowfish reference instance for ``key``."""
    if key not in _cipher_cache:
        _cipher_cache[key] = Blowfish(key)
    return _cipher_cache[key]


def build_kernel(key: bytes = DEFAULT_KEY) -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    bf = cipher(key)
    b = KernelBuilder(
        NAME, DOMAIN, record_in=1, record_out=1,
        description=DESCRIPTION,
    )
    sboxes = [b.table(bf.S[i]) for i in range(4)]
    p = [b.const(bf.P[i], f"P{i}") for i in range(18)]

    block = b.input(0)
    left = b.hi32(block)
    right = b.lo32(block)

    def f_function(x):
        a = b.shr(x, b.imm(24))
        bx = b.and_(b.shr(x, b.imm(16)), b.imm(0xFF))
        cx = b.and_(b.shr(x, b.imm(8)), b.imm(0xFF))
        dx = b.and_(x, b.imm(0xFF))
        return b.add(
            b.xor(b.add(b.lut(sboxes[0], a), b.lut(sboxes[1], bx)),
                  b.lut(sboxes[2], cx)),
            b.lut(sboxes[3], dx),
        )

    for i in range(ROUNDS):
        left = b.xor(left, p[i])
        right = b.xor(right, f_function(left))
        left, right = right, left
    left, right = right, left  # undo the final swap (pure wiring)
    right = b.xor(right, p[16])
    left = b.xor(left, p[17])
    b.output(b.pack64(left, right))
    b.static_loop(ROUNDS)
    return b.build()


def reference(record: Sequence[int], key: bytes = DEFAULT_KEY) -> List[int]:
    """Independent per-record reference implementation."""
    bf = cipher(key)
    left = (record[0] >> 32) & 0xFFFFFFFF
    right = record[0] & 0xFFFFFFFF
    left, right = bf.encrypt_block_words(left, right)
    return [(left << 32) | right]


def workload(count: int, seed: int = 23) -> List[List[int]]:
    """Seeded record stream shaped for this kernel (see Table 2)."""
    packets = packet_stream(max(1, count // 188 + 1), seed)
    return packet_block_records(packets, block_bytes=8, limit=count)
