"""``rijndael`` — AES-128 block encryption in T-table form.

Record: two 64-bit words in/out (one 128-bit block) — Table 2's 2/2.
The four 256-entry round T-tables are the kernel's 1024 indexed
constants (Table 2), a perfect fit for the 2KB L0 data store; the 44
expanded round-key words travel as scalar named constants.  Ten static
loop trips (9 T-table rounds + the final S-box round, which extracts
S-box bytes from T0 with the standard shift trick so no fifth table is
needed).

Bit-exact against :mod:`repro.crypto.aes_ref` (FIPS-197 validated).
"""

from __future__ import annotations

from typing import List, Sequence

from ..crypto.aes_ref import encrypt_block_words, expand_key_128, t_tables
from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.packets import packet_block_records, packet_stream

NAME = "rijndael"
DOMAIN = Domain.NETWORK
DESCRIPTION = "Rijndael (AES) packet encryption."

DEFAULT_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")

ROUNDS = 10


def build_kernel(key: bytes = DEFAULT_KEY) -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    round_keys = expand_key_128(key)
    t0, t1, t2, t3 = t_tables()
    b = KernelBuilder(
        NAME, DOMAIN, record_in=2, record_out=2,
        description=DESCRIPTION,
    )
    tabs = [b.table(t) for t in (t0, t1, t2, t3)]
    rk = [b.const(round_keys[i], f"rk{i}") for i in range(44)]

    w0_w1, w2_w3 = b.inputs()
    w = [b.hi32(w0_w1), b.lo32(w0_w1), b.hi32(w2_w3), b.lo32(w2_w3)]
    w = [b.xor(w[i], rk[i]) for i in range(4)]

    def byte(word, position: int):
        """Extract byte ``position`` (3 = most significant)."""
        if position == 3:
            return b.shr(word, b.imm(24))
        if position == 0:
            return b.and_(word, b.imm(0xFF))
        return b.and_(b.shr(word, b.imm(8 * position)), b.imm(0xFF))

    for rnd in range(1, ROUNDS):
        w = [
            b.xor(
                b.xor(
                    b.xor(b.lut(tabs[0], byte(w[c], 3)),
                          b.lut(tabs[1], byte(w[(c + 1) % 4], 2))),
                    b.xor(b.lut(tabs[2], byte(w[(c + 2) % 4], 1)),
                          b.lut(tabs[3], byte(w[(c + 3) % 4], 0))),
                ),
                rk[4 * rnd + c],
            )
            for c in range(4)
        ]

    def sbox_byte(index_value):
        """S-box lookup via T0: s = (T0[x] >> 8) & 0xFF."""
        return b.and_(b.shr(b.lut(tabs[0], index_value), b.imm(8)), b.imm(0xFF))

    final = []
    for c in range(4):
        s3 = sbox_byte(byte(w[c], 3))
        s2 = sbox_byte(byte(w[(c + 1) % 4], 2))
        s1 = sbox_byte(byte(w[(c + 2) % 4], 1))
        s0 = sbox_byte(byte(w[(c + 3) % 4], 0))
        word = b.or_(
            b.or_(b.shl(s3, b.imm(24)), b.shl(s2, b.imm(16))),
            b.or_(b.shl(s1, b.imm(8)), s0),
        )
        final.append(b.xor(word, rk[40 + c]))

    b.output(b.pack64(final[0], final[1]), slot=0)
    b.output(b.pack64(final[2], final[3]), slot=1)
    b.static_loop(ROUNDS)
    return b.build()


def reference(record: Sequence[int], key: bytes = DEFAULT_KEY) -> List[int]:
    """Independent per-record reference implementation."""
    state = [
        (record[0] >> 32) & 0xFFFFFFFF,
        record[0] & 0xFFFFFFFF,
        (record[1] >> 32) & 0xFFFFFFFF,
        record[1] & 0xFFFFFFFF,
    ]
    out = encrypt_block_words(state, expand_key_128(key))
    return [(out[0] << 32) | out[1], (out[2] << 32) | out[3]]


def workload(count: int, seed: int = 23) -> List[List[int]]:
    """Seeded record stream shaped for this kernel (see Table 2)."""
    packets = packet_stream(max(1, count // 94 + 1), seed)
    return packet_block_records(packets, block_bytes=16, limit=count)
