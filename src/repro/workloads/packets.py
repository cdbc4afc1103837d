"""Network/security workloads: 1500-byte packets and their block streams.

The paper processes "1500 byte packets" (Table 1).  A packet is chopped
into the block sizes the ciphers/digests consume: 64-bit blocks for
Blowfish, 128-bit blocks for Rijndael, 512-bit blocks for MD5.  Records
carry the blocks packed into 64-bit words, matching Table 2's record
sizes (blowfish 1/1, rijndael 2/2, md5 10/2 — message block plus chaining
state).
"""

from __future__ import annotations

import random
from typing import List

import numpy as np

from . import _draw

PACKET_BYTES = 1500


def packet_stream(count: int, seed: int = 23) -> List[bytes]:
    """``count`` random 1500-byte packets, one ``randrange(256)`` a byte."""
    data = _draw.randbelow(
        random.Random(seed), 256, count * PACKET_BYTES
    ).tobytes()  # uint8
    return [
        data[i:i + PACKET_BYTES] for i in range(0, len(data), PACKET_BYTES)
    ]


def _pad_to(data: bytes, multiple: int) -> bytes:
    if len(data) % multiple:
        data += b"\x00" * (multiple - len(data) % multiple)
    return data


def packet_block_records(
    packets: List[bytes], block_bytes: int, limit: int = 0
) -> List[List[int]]:
    """Chop packets into cipher blocks packed as 64-bit-word records.

    ``block_bytes`` is 8 for Blowfish (1-word records) and 16 for
    Rijndael (2-word records).  ``limit`` truncates the stream (0 = all).
    """
    if block_bytes % 8:
        raise ValueError("block size must be a whole number of 64-bit words")
    data = b"".join(_pad_to(packet, block_bytes) for packet in packets)
    blocks = np.frombuffer(data, dtype=">u8").reshape(-1, block_bytes // 8)
    return (blocks[:limit] if limit else blocks).tolist()


#: MD5's standard initial chaining state (A, B, C, D), packed two 32-bit
#: halves per record word: word = (first << 32) | second.
MD5_IV_WORDS = [
    (0x67452301 << 32) | 0xEFCDAB89,
    (0x98BADCFE << 32) | 0x10325476,
]


def md5_block_records(
    packets: List[bytes], limit: int = 0, iv: List[int] = None
) -> List[List[int]]:
    """512-bit MD5 message blocks with chaining state: 10-word records.

    Record layout: 8 words of message (each packing two little-endian
    32-bit message words, first in the high half) followed by 2 words of
    chaining state.  Each record is independent (the data-parallel
    formulation digests blocks from many packets concurrently, as in
    per-packet checksums).
    """
    state = list(iv or MD5_IV_WORDS)
    data = b"".join(_pad_to(packet, 64) for packet in packets)
    # (lo << 32) | hi of each little-endian 32-bit pair: swap the pair's
    # halves and read the 8 bytes as one little-endian word
    pairs = np.frombuffer(data, dtype="<u4").reshape(-1, 2)[:, ::-1]
    message = pairs.copy().view("<u8").reshape(-1, 8)
    if limit:
        message = message[:limit]
    return [words + state for words in message.tolist()]
