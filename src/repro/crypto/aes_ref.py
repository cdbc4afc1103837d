"""Reference AES-128 (Rijndael) — substrate for the rijndael kernel.

Everything is derived from first principles: the S-box from the GF(2^8)
multiplicative inverse (read off log/antilog tables of the generator 3)
plus the affine transform, the four round T-tables from the S-box (the
table-lookup formulation the paper's rijndael kernel uses — 4 x 256 =
1024 indexed constants, Table 2), and the standard AES-128 key
schedule.  Validated against the FIPS-197 example vector in the test
suite.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

MASK32 = 0xFFFFFFFF
_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1


def gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(2^8) with the AES polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= _POLY
        b >>= 1
    return result


@lru_cache(maxsize=None)
def sbox() -> Tuple[int, ...]:
    """The AES S-box, computed (not transcribed)."""
    # Multiplicative inverses from log/antilog tables: 3 generates the
    # 255 nonzero elements, so x = 3^i has inverse 3^(255 - i).
    antilog = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        antilog[i] = x
        log[x] = i
        x = gf_mul(x, 3)
    inverse = [0] + [antilog[-log[x] % 255] for x in range(1, 256)]
    table = []
    for x in range(256):
        b = inverse[x]
        s = b
        for shift in range(1, 5):
            s ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        table.append(s ^ 0x63)
    return tuple(table)


@lru_cache(maxsize=None)
def t_tables() -> Tuple[Tuple[int, ...], ...]:
    """The four encryption T-tables (each 256 x 32-bit)."""
    s = sbox()
    t0 = []
    for x in range(256):
        v = s[x]
        v2 = gf_mul(v, 2)
        v3 = gf_mul(v, 3)
        t0.append(((v2 << 24) | (v << 16) | (v << 8) | v3) & MASK32)

    def rot8(word: int) -> int:
        return ((word >> 8) | (word << 24)) & MASK32

    t1 = [rot8(w) for w in t0]
    t2 = [rot8(w) for w in t1]
    t3 = [rot8(w) for w in t2]
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


def expand_key_128(key: bytes) -> List[int]:
    """AES-128 key schedule: 44 32-bit round-key words."""
    if len(key) != 16:
        raise ValueError("AES-128 keys are 16 bytes")
    s = sbox()
    words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(4)]
    rcon = 1
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = ((temp << 8) | (temp >> 24)) & MASK32  # RotWord
            temp = (
                (s[(temp >> 24) & 0xFF] << 24)
                | (s[(temp >> 16) & 0xFF] << 16)
                | (s[(temp >> 8) & 0xFF] << 8)
                | s[temp & 0xFF]
            )
            temp ^= rcon << 24
            rcon = gf_mul(rcon, 2)
        words.append(words[i - 4] ^ temp)
    return words


def encrypt_block_words(state: Sequence[int], round_keys: Sequence[int]) -> List[int]:
    """Encrypt one 128-bit block given as 4 big-endian column words."""
    t0, t1, t2, t3 = t_tables()
    s = sbox()
    w = [state[i] ^ round_keys[i] for i in range(4)]
    for rnd in range(1, 10):
        rk = round_keys[4 * rnd : 4 * rnd + 4]
        w = [
            t0[(w[c] >> 24) & 0xFF]
            ^ t1[(w[(c + 1) % 4] >> 16) & 0xFF]
            ^ t2[(w[(c + 2) % 4] >> 8) & 0xFF]
            ^ t3[w[(c + 3) % 4] & 0xFF]
            ^ rk[c]
            for c in range(4)
        ]
    rk = round_keys[40:44]
    w = [
        (
            (s[(w[c] >> 24) & 0xFF] << 24)
            | (s[(w[(c + 1) % 4] >> 16) & 0xFF] << 16)
            | (s[(w[(c + 2) % 4] >> 8) & 0xFF] << 8)
            | s[w[(c + 3) % 4] & 0xFF]
        )
        ^ rk[c]
        for c in range(4)
    ]
    return w


def encrypt_block(block: bytes, key: bytes) -> bytes:
    """ECB-encrypt one 16-byte block under a 16-byte key."""
    if len(block) != 16:
        raise ValueError("AES blocks are 16 bytes")
    state = [int.from_bytes(block[4 * i : 4 * i + 4], "big") for i in range(4)]
    out = encrypt_block_words(state, expand_key_128(key))
    return b"".join(w.to_bytes(4, "big") for w in out)


#: FIPS-197 Appendix C.1 example vector (key, plaintext, ciphertext).
FIPS_VECTOR = (
    bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
    bytes.fromhex("00112233445566778899aabbccddeeff"),
    bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a"),
)
